"""ArcInfo AVCE00 (.e00 ASCII export) coverage reader.

Reference driver: ogr/ogrsf_frmts/avc/ (avce00 lib); format per the
public spec at avce00.maptools.org/docs/v7_e00_cover.html. Sections
parsed: ARC (arc id, user id, from/to node, l/r poly, vertex count +
E14.7 coordinate pairs), LAB (label points + box), PAL (per-polygon
arc triplets with the universe polygon first — skipped like the
reference layer), CNT, PRJ (stored as a proj-ish string), IFO
attribute tables (field defs "name size-1 pos-1 fmtwidth fmtprec
type-1"; record payload wrapped at 80 columns; type 60/F -> %14.7E
floats, 50/B size 4 -> %11d ints, size 2 -> %6d, 20/C -> raw chars).

Layers returned: ARC (LINESTRING, UserID/FNode/TNode/LPoly/RPoly +
.AAT join), LAB (POINT, ValueId/PolyId + .PAT join), PAL (polygon
arc list + .PAT join, AREA/PERIMETER). Goldens in
tests/test_vecformats2.py from autotest/ogr/ogr_avc.py (test.e00 ARC
UserIDs + first linestring, testpoint.e00 80 labels with WELLS-ID,
testpoly.e00 3 polygons with ArcIds [-4,-5] and AREA 9939.059).
The binary AVCBin twin (testavc dirs) is out of scope here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from . import pick_layer
from .vector import with_geometry

__all__ = ["read_e00_layers", "read_e00_table"]


def _floats(line: str) -> list[float]:
    out = []
    for i in range(0, len(line.rstrip("\n")) // 14):
        tok = line[i * 14:(i + 1) * 14].strip()
        if tok:
            out.append(float(tok))
    return out


def read_e00_layers(path: str) -> dict[str, pa.Table]:
    lines = open(path, errors="replace").read().splitlines()
    if not lines or not lines[0].startswith("EXP"):
        raise ValueError("not an E00 export")
    if lines[0].split()[1] == "1":
        raise ValueError("compressed E00 not supported")
    i = 1
    n = len(lines)
    arcs = []       # (arcid, userid, fnode, tnode, lpoly, rpoly, pts)
    labs = []       # (labid, polyid, x, y)
    pals = []       # list of (arcid, fnode, adjpoly) lists
    tables: dict[str, tuple[list, list]] = {}
    prj_lines: list[str] = []

    while i < n:
        line = lines[i]
        sec = line[:3].strip()
        if sec == "ARC":
            i += 1
            while i < n:
                hdr = lines[i].split()
                i += 1
                if int(hdr[0]) == -1:
                    break
                arcid, userid, fnode, tnode, lpoly, rpoly, npts = \
                    [int(t) for t in hdr[:7]]
                coords = []
                while len(coords) < npts * 2:
                    coords.extend(_floats(lines[i]))
                    i += 1
                pts = np.asarray(coords, np.float64).reshape(-1, 2)[:npts]
                arcs.append((arcid, userid, fnode, tnode, lpoly, rpoly,
                             pts))
        elif sec == "LAB":
            i += 1
            while i < n:
                toks = lines[i].split()
                i += 1
                if int(toks[0]) == -1:
                    break
                labid, polyid = int(toks[0]), int(toks[1])
                x, y = float(toks[2]), float(toks[3])
                i += 1  # box line (2 pairs)
                labs.append((labid, polyid, x, y))
        elif sec == "PAL":
            i += 1
            while i < n:
                toks = lines[i].split()
                i += 1
                if int(toks[0]) == -1:
                    break
                narcs = int(toks[0])
                trip = []
                while len(trip) < narcs * 3:
                    trip.extend(int(t) for t in lines[i].split())
                    i += 1
                pals.append([(trip[k], trip[k + 1], trip[k + 2])
                             for k in range(0, narcs * 3, 3)])
        elif sec == "CNT":
            i += 1
            while i < n:
                toks = lines[i].split()
                i += 1
                if int(toks[0]) == -1:
                    break
                nlab = int(toks[0])
                # nlab label ids follow, wrapped 8 per line
                seen = 0
                while seen < nlab:
                    seen += len(lines[i].split())
                    i += 1
        elif sec == "PRJ":
            i += 1
            while i < n and lines[i] != "EOP":
                if lines[i] != "~":
                    prj_lines.append(lines[i])
                i += 1
            i += 1
        elif sec == "IFO":
            i += 1
            while i < n and lines[i].strip() not in ("EOI",):
                # table header: NAME ... nfields nfields recsize nrecs
                head = lines[i]
                if not head.strip() or head.startswith("EOS"):
                    i += 1
                    continue
                toks = head.split()
                name = toks[0]
                try:
                    nfields = int(toks[-4])
                    nrecs = int(toks[-1])
                except (ValueError, IndexError):
                    i += 1
                    continue
                i += 1
                fields = []  # (name, size, fmt_width, fmt_prec, type)
                for _ in range(nfields):
                    fl = lines[i]
                    i += 1
                    fname = fl[:16].strip()
                    rest = fl[16:].split()
                    size = int(rest[0].split("-")[0])
                    # layout: size-1 pos-1 fmtw[ fmtp] type-1 ...
                    fw_tok = rest[2]
                    if "-" in fw_tok and not fw_tok.startswith("-"):
                        fmtw = int(fw_tok.split("-")[0])
                        ftype = int(rest[3].split("-")[0])
                        fmtp = -1
                    else:
                        fmtw = int(fw_tok)
                        fmtp = int(rest[3])
                        ftype = int(rest[4].split("-")[0])
                    fields.append((fname, size, fmtw, fmtp, ftype))

                # serialized width per field (avce00 conventions)
                def ser_w(f):
                    _nm, size, fmtw, _p, t = f
                    if t == 60:  # float
                        return 14 if size == 4 else 24
                    if t in (50, 30):  # binary/fixed int
                        return 6 if size == 2 else 11
                    if t == 40:  # float stored as fixed
                        return fmtw
                    return fmtw  # character/date
                rec_w = sum(ser_w(f) for f in fields)
                lines_per_rec = max(1, (rec_w + 79) // 80)
                recs = []
                for _r in range(nrecs):
                    raw = ""
                    for _k in range(lines_per_rec):
                        seg = lines[i]
                        i += 1
                        raw += seg.ljust(80)
                    vals = []
                    pos = 0
                    for f in fields:
                        wdt = ser_w(f)
                        tok = raw[pos:pos + wdt]
                        pos += wdt
                        t = f[4]
                        if t == 60 or (t == 40 and f[3] >= 0):
                            vals.append(float(tok) if tok.strip() else None)
                        elif t in (50, 30):
                            vals.append(int(tok) if tok.strip() else None)
                        else:
                            vals.append(tok.strip())
                    recs.append(vals)
                tables[name] = ([f[0] for f in fields], recs)
        else:
            i += 1

    crs = " ".join(prj_lines) if prj_lines else None
    return build_avc_layers(arcs, labs, pals, tables, crs)


def build_avc_layers(arcs, labs, pals, tables, crs=None
                     ) -> dict[str, pa.Table]:
    """Shared ARC/LAB/PAL layer assembly for the E00 text and the
    binary coverage readers (same primitives, same joins — the
    reference's ogravclayer.cpp models both drivers the same way).

    arcs: (arcid, userid, fnode, tnode, lpoly, rpoly, pts) tuples;
    labs: (labid, polyid, x, y); pals: per-polygon
    (arcid, fnode, adjpoly) lists (universe polygon first);
    tables: {name: (field_names, records)}."""
    out: dict[str, pa.Table] = {}

    def finish(cols: dict, geoms, extra_meta=None):
        t = pa.table({"fid": pa.array(range(len(geoms)), pa.int64()),
                      **{k: pa.array(v) for k, v in cols.items()}})
        t = with_geometry(t, geoms)
        if crs:
            t = t.replace_schema_metadata({b"crs": crs.encode()})
        return t

    def table_for(suffix):
        for name, tv in tables.items():
            if name.upper().endswith(suffix):
                return tv
        return None

    if arcs:
        cols = {"UserID": [a[1] for a in arcs],
                "FNode": [a[2] for a in arcs],
                "TNode": [a[3] for a in arcs],
                "LPoly": [a[4] for a in arcs],
                "RPoly": [a[5] for a in arcs]}
        aat = table_for(".AAT")
        if aat:
            fnames, recs = aat
            for j, fn in enumerate(fnames):
                cols[fn] = [recs[k][j] if k < len(recs) else None
                            for k in range(len(arcs))]
        out["ARC"] = finish(cols, [W.linestring(a[6]) for a in arcs])

    if labs:
        cols = {"ValueId": [la[0] for la in labs],
                "PolyId": [la[1] for la in labs]}
        pat = table_for(".PAT")
        if pat:
            fnames, recs = pat
            for j, fn in enumerate(fnames):
                cols[fn] = [recs[k][j] if k < len(recs) else None
                            for k in range(len(labs))]
        out["LAB"] = finish(cols, [W.point(la[2], la[3]) for la in labs])

    if pals:
        # universe polygon (first PAL entry) is skipped; PAT record k+1
        # joins polygon k+1 (reference ogravclayer behavior)
        body = pals[1:]
        arc_map = {a[0]: a[6] for a in arcs}
        cols = {"ArcIds": [[t3[0] for t3 in p] for p in body]}
        pat = table_for(".PAT")
        if pat:
            fnames, recs = pat
            for j, fn in enumerate(fnames):
                cols[fn] = [recs[k + 1][j] if k + 1 < len(recs) else None
                            for k in range(len(body))]
        geoms = []
        for p in body:
            ring: list = []
            for arcid, _f, _adj in p:
                if arcid == 0 or abs(arcid) not in arc_map:
                    continue
                pts = arc_map[abs(arcid)]
                seg = pts[::-1] if arcid < 0 else pts
                if not ring:
                    ring.extend(seg.tolist())
                else:
                    ring.extend(seg[1:].tolist())
            geoms.append(W.polygon(ring) if len(ring) >= 3 else None)
        out["PAL"] = finish(cols, geoms)
    return out


def read_e00_table(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_e00_layers(path), path, layer,
                      prefer=("PAL", "ARC", "LAB"))
