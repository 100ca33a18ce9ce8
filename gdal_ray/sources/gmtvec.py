"""GMT ASCII vector files (.gmt) — read/write.

Reference driver: ogr/ogrsf_frmts/gmt/ogrgmtlayer.cpp. Header lines
``# @VGMT1.0 @G<TYPE>``, ``# @N<name|name…>`` + ``# @T<type|…>``
field declarations, ``# @R`` region, ``# @Je…/@Jp/@Jw`` CRS; feature
records are ``>`` segment separators with ``# @D`` attribute rows
(pipe-separated, quoted strings) followed by coordinate lines. A
``>`` without a following @D continues the previous feature as a new
part of a Multi* geometry (autotest ogr_gmt.py test_ogr_gmt_4); @P/@H
mark polygon shells/holes.

Goldens in tests/test_vecformats.py from autotest/ogr/ogr_gmt.py
(test_multi.gmt: MULTILINESTRING parts + name fields; write
roundtrips re-read through this reader).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

__all__ = ["read_gmt_table", "write_gmt"]

_TYPES = {"integer": pa.int32(), "double": pa.float64(),
          "string": pa.string(), "datetime": pa.string()}


def _split_d(line: str) -> list[str]:
    """Split a @D attribute row on | respecting double quotes."""
    out, cur, q = [], [], False
    for ch in line:
        if ch == '"':
            q = not q
        elif ch == "|" and not q:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def read_gmt_table(path: str) -> pa.Table:
    gtype = ""
    names: list[str] = []
    types: list[str] = []
    crs = None
    feats: list[tuple[list[str] | None, list[list], list[bool]]] = []
    cur_attrs: list[str] | None = None
    cur_parts: list[list] = []
    cur_holes: list[bool] = []
    part: list = []
    pending_hole = False

    def flush_part():
        nonlocal part, pending_hole
        if part:
            cur_parts.append(part)
            cur_holes.append(pending_hole)
        part = []
        pending_hole = False

    def flush_feat():
        nonlocal cur_parts, cur_holes, cur_attrs
        flush_part()
        if cur_parts or cur_attrs is not None:
            feats.append((cur_attrs, cur_parts, cur_holes))
        cur_parts = []
        cur_holes = []
        cur_attrs = None

    for raw in open(path, errors="replace"):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("@VGMT"):
                m = re.search(r"@G(\S+)", body)
                if m:
                    gtype = m.group(1).upper()
            elif body.startswith("@G"):
                gtype = body[2:].split()[0].upper()
            elif body.startswith("@N"):
                names = body[2:].split("|")
            elif body.startswith("@T"):
                types = body[2:].split("|")
            elif body.startswith("@Je"):
                crs = "EPSG:" + body[3:].strip()
            elif body.startswith("@D"):
                flush_feat() if cur_attrs is not None else flush_part()
                cur_attrs = _split_d(body[2:])
            elif body.startswith("@P"):
                pending_hole = False
            elif body.startswith("@H"):
                pending_hole = True
        elif line.startswith(">"):
            # new segment; whether it starts a new feature depends on
            # an upcoming @D — handled when @D (or EOF) arrives. For
            # single-part types every > is a new feature.
            if gtype in ("POINT", "LINESTRING"):
                flush_feat()
            else:
                # Multi* (and POLYGON, whose @H holes continue the
                # feature): feature boundaries come from @D rows
                flush_part()
        elif line.strip():
            toks = line.split()
            part.append([float(t) for t in toks[:3]])
    flush_feat()

    rows = []
    for attrs, parts, holes in feats:
        if not parts:
            continue
        parts2 = [np.asarray(p, np.float64)[:, :2] for p in parts]
        if gtype == "POINT":
            g = W.point(parts2[0][0][0], parts2[0][0][1])
        elif gtype == "MULTIPOINT":
            g = W.multipoint(np.vstack(parts2))
        elif gtype == "LINESTRING":
            g = W.linestring(parts2[0])
        elif gtype == "MULTILINESTRING":
            g = W.Geometry(W.MULTILINESTRING,
                           parts=[W.linestring(p) for p in parts2])
        elif gtype in ("POLYGON", "MULTIPOLYGON"):
            polys = []
            for p, hole in zip(parts2, holes):
                if hole and polys:
                    polys[-1].rings.append(W._close_ring(p))
                else:
                    polys.append(W.polygon(p))
            g = polys[0] if gtype == "POLYGON" and len(polys) == 1 \
                else W.multipolygon(polys)
        else:
            g = W.linestring(parts2[0])
        rows.append((attrs or [], g))

    cols: dict[str, list] = {n: [] for n in names}
    for attrs, _g in rows:
        for j, n in enumerate(names):
            v = attrs[j] if j < len(attrs) else None
            t = types[j] if j < len(types) else "string"
            if v is not None and v != "":
                if t == "integer":
                    v = int(v)
                elif t == "double":
                    v = float(v)
            else:
                v = None
            cols[n].append(v)
    t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                  **{n: pa.array(cols[n],
                                 _TYPES.get(types[j] if j < len(types)
                                            else "string", pa.string()))
                     for j, n in enumerate(names)}})
    t = with_geometry(t, [g for _attrs, g in rows])
    if crs:
        t = t.replace_schema_metadata({b"crs": crs.encode()})
    return t


def _fmt(v: float) -> str:
    return repr(float(v))


def write_gmt(table: pa.Table, path: str) -> int:
    """Write a layer table to GMT ASCII (geometry type from the first
    feature, attribute columns minus the envelope/wkb plumbing)."""
    skip = {"wkb", *ENVELOPE, "fid"}
    names = [c for c in table.column_names if c not in skip]
    wkbs = table["wkb"].to_pylist()
    if None in wkbs:
        raise ValueError("GMT cannot store a null geometry "
                         f"(row {wkbs.index(None)})")
    geoms = [W.loads(b) for b in wkbs]
    gtype = geoms[0].type_name.upper() if geoms else "LINESTRING"

    def tname(f):
        if pa.types.is_integer(f.type):
            return "integer"
        if pa.types.is_floating(f.type):
            return "double"
        return "string"
    with open(path, "w") as fh:
        fh.write(f"# @VGMT1.0 @G{gtype}\n")
        if names:
            fh.write("# @N" + "|".join(names) + "\n")
            fh.write("# @T" + "|".join(
                tname(table.schema.field(n)) for n in names) + "\n")
        fh.write("# FEATURE_DATA\n")
        for i, g in enumerate(geoms):
            fh.write(">\n")
            vals = []
            for n in names:
                v = table[n][i].as_py()
                if isinstance(v, str):
                    vals.append('"' + v + '"')
                elif v is None:
                    vals.append("")
                else:
                    vals.append(str(v))
            if names:
                fh.write("# @D" + "|".join(vals) + "\n")
            parts: list[tuple[np.ndarray, bool]] = []

            def collect(gg, hole=False):
                if gg.geom_type in (W.POINT, W.LINESTRING):
                    parts.append((gg.coords, False))
                elif gg.geom_type == W.POLYGON:
                    for k, r in enumerate(gg.rings):
                        parts.append((r, k > 0))
                else:
                    for p in gg.parts:
                        collect(p)
            collect(g)
            first = True
            for coords, hole in parts:
                if not first:
                    fh.write(">\n")
                    fh.write("# @H\n" if hole else "# @P\n")
                elif hole:
                    fh.write("# @H\n")
                first = False
                for pt in coords:
                    fh.write(" ".join(_fmt(c) for c in pt[:2]) + "\n")
    return len(geoms)
