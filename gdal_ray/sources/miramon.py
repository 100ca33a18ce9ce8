"""MiraMon structured vector reader (.pnt / .arc / .pol) — binary
topological format from CREAF's MiraMon GIS.

Reference ogr/ogrsf_frmts/miramon/mm_rdlayr.c +
frmts/miramon_common/mm_gdal_driver_structs.h: every file = 8-byte
magic ("PNT 1.1 ", "ARC 1.1 ", "POL 1.1 "), 4 float64 bounding box,
element count (uint32 in V1.1, uint64 in V2.0).  Points follow as
float64 pairs.  Arcs have 56-byte headers (bbox, nVertices, data
offset, first/last node ids, float64 length) pointing at float64
vertex runs.  Polygons have 64-byte headers (bbox, nArcsCount,
nExternalRings, nRings, PAL offset, perimeter, area); the PAL run is
(VFG byte + arc index) per arc where VFG 0x04 reverses the arc,
0x02 ends the ring, and consecutive arcs in a ring drop the repeated
joint vertex; polygon 0 is the universe and is not a feature.
Attributes live in the sibling T/A/P .dbf (MiraMon extended dBASE).
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import with_geometry

__all__ = ["read_miramon"]

_POL_EXTERIOR = 0x01
_POL_END_RING = 0x02
_POL_REVERSE = 0x04


def _header(buf: bytes, magic: str):
    tag = buf[:8].decode("ascii", "replace")
    if not tag.startswith(magic):
        raise ValueError(f"not a MiraMon {magic} file")
    version = tag[4:7]
    wide = version >= "2.0"
    bbox = struct.unpack_from("<4d", buf, 8)
    if wide:
        count = struct.unpack_from("<Q", buf, 40)[0]
        pos = 48
    else:
        count = struct.unpack_from("<I", buf, 40)[0]
        pos = 48
    return bbox, count, pos, wide


def _idx(buf, pos, wide):
    if wide:
        return struct.unpack_from("<Q", buf, pos)[0], pos + 8
    return struct.unpack_from("<I", buf, pos)[0], pos + 4


def _arc_headers(buf: bytes, count: int, pos: int, wide: bool):
    out = []
    step = 8 if wide else 4
    for _ in range(count):
        bbox = struct.unpack_from("<4d", buf, pos)
        pos += 32
        nv, pos = _idx(buf, pos, wide)
        off, pos = _idx(buf, pos, wide)
        n0, pos = _idx(buf, pos, wide)
        n1, pos = _idx(buf, pos, wide)
        length = struct.unpack_from("<d", buf, pos)[0]
        pos += 8
        out.append((bbox, nv, off, n0, n1, length))
    return out


def _arc_vertices(buf: bytes, hdr) -> np.ndarray:
    _, nv, off, *_ = hdr
    return np.frombuffer(buf, "<f8", nv * 2, off).reshape(nv, 2)


def _read_extended_dbf(buf: bytes):
    """MiraMon extended dBASE (version byte 0x90): 32-byte field
    descriptors where BytesPerField == 0 means a uint32 width at
    reserved_2+3, long field names live at reserved_2[7:11]/[11]
    (offset/size), and record size / first-record offset get 16 extra
    high bits (mm_gdal_functions.c MM_ReadExtendedDBFHeaderFromFile)."""
    version = buf[0]
    extended = (version & 0x90) == 0x90 or version in (0x90, 0x91)
    nrec_lo = struct.unpack_from("<I", buf, 4)[0]
    first_lo = struct.unpack_from("<H", buf, 8)[0]
    recsize_lo = struct.unpack_from("<H", buf, 10)[0]
    recsize_hi = struct.unpack_from("<H", buf, 12)[0]
    nrec_hi = struct.unpack_from("<I", buf, 16)[0]
    charset = buf[29]
    first_hi = struct.unpack_from("<H", buf, 30)[0]
    if extended:
        nrec = (nrec_hi << 32) | nrec_lo
        first = (first_hi << 16) | first_lo
        recsize = (recsize_hi << 16) | recsize_lo
    else:
        nrec, first, recsize = nrec_lo, first_lo, recsize_lo
    enc = {0x14: "cp850", 0x58: "cp1252",
           0xFF: "utf-8"}.get(charset, "latin-1")

    fields = []
    pos = 32
    acc = 1
    while acc < recsize and pos + 32 <= len(buf) and buf[pos] != 0x0D:
        name = buf[pos:pos + 11].split(b"\0")[0].decode(enc, "replace")
        ftype = chr(buf[pos + 11])
        bpf = buf[pos + 16]
        dec = buf[pos + 17]
        res2 = buf[pos + 18:pos + 31]
        if bpf == 0 and extended:
            bpf = struct.unpack_from("<I", res2, 3)[0]
        ext_off = struct.unpack_from("<I", res2, 7)[0]
        ext_size = res2[11]
        if extended and ext_off and ext_size:
            name = buf[ext_off:ext_off + ext_size].decode(enc, "replace")
        fields.append((name, ftype, bpf, dec))
        acc += bpf
        pos += 32

    rows = []
    for i in range(nrec):
        base = first + i * recsize
        rec = buf[base:base + recsize]
        if len(rec) < recsize:
            break
        row = {}
        off = 1
        for name, ftype, bpf, dec in fields:
            raw = rec[off:off + bpf]
            off += bpf
            s = raw.decode(enc, "replace").strip()
            if ftype == "N":
                try:
                    row[name] = (float(s) if ("." in s or dec)
                                 else int(s)) if s else None
                except ValueError:
                    row[name] = None
            elif ftype == "L":
                row[name] = 1 if s.upper() in ("T", "Y") else 0
            else:
                row[name] = s
        rows.append(row)
    return [f[0] for f in fields], rows


def _dbf_attrs(base: str, suffix: str):
    p = base + suffix + ".dbf"
    if not os.path.exists(p):
        for c in (base + suffix.lower() + ".dbf",):
            if os.path.exists(c):
                p = c
                break
        else:
            return None, []
    return _read_extended_dbf(open(p, "rb").read())


def read_miramon(path: str) -> pa.Table:
    ext = os.path.splitext(path)[1].lower()
    base = os.path.splitext(path)[0]
    buf = open(path, "rb").read()
    geoms = []
    if ext == ".pnt":
        bbox, count, pos, wide = _header(buf, "PNT")
        pts = np.frombuffer(buf, "<f8", count * 2, pos).reshape(count, 2)
        geoms = [W.dumps(W.point(float(x), float(y))) for x, y in pts]
        names, rows = _dbf_attrs(base, "T")
    elif ext == ".arc":
        bbox, count, pos, wide = _header(buf, "ARC")
        hdrs = _arc_headers(buf, count, pos, wide)
        geoms = [W.dumps(W.linestring(_arc_vertices(buf, h)))
                 for h in hdrs]
        names, rows = _dbf_attrs(base, "A")
    elif ext == ".pol":
        bbox, count, pos, wide = _header(buf, "POL")
        pos += 24       # POL top header carries 24 extra bytes
        arc_path = base + ".arc"
        abuf = open(arc_path, "rb").read()
        _, acount, apos, awide = _header(abuf, "ARC")
        ahdrs = _arc_headers(abuf, acount, apos, awide)
        polys = []
        for _ in range(count):
            pbbox = struct.unpack_from("<4d", buf, pos)
            pos += 32
            narcs, pos = _idx(buf, pos, wide)
            next_, pos = _idx(buf, pos, wide)
            nrings, pos = _idx(buf, pos, wide)
            off, pos = _idx(buf, pos, wide)
            perim, area = struct.unpack_from("<2d", buf, pos)
            pos += 16
            polys.append((narcs, off, perim, area))
        for pi, (narcs, off, perim, area) in enumerate(polys):
            if pi == 0:               # universe polygon
                geoms.append(None)
                continue
            p = off
            rings = []
            ring: list = []
            for _ in range(narcs):
                vfg = buf[p]
                p += 1
                ia, p = _idx(buf, p, wide)
                v = _arc_vertices(abuf, ahdrs[ia])
                if vfg & _POL_REVERSE:
                    v = v[::-1]
                if ring:
                    v = v[1:]         # drop the repeated joint vertex
                ring.extend(map(tuple, v))
                if vfg & _POL_END_RING:
                    rings.append(np.asarray(ring))
                    ring = []
            if ring:
                rings.append(np.asarray(ring))
            if rings:
                geoms.append(W.dumps(W.polygon(rings[0], rings[1:])))
            else:
                geoms.append(None)
        names, rows = _dbf_attrs(base, "P")
        if rows and len(rows) == len(geoms):
            rows = rows[1:]           # drop the universe row
        geoms = geoms[1:]
    else:
        raise ValueError(f"unknown MiraMon extension {ext!r}")

    n = len(geoms)
    t = pa.table({"fid": pa.array(range(n), pa.int64())})
    if names:
        for nm in names:
            vals = [r.get(nm) for r in rows[:n]]
            vals += [None] * (n - len(vals))
            t = t.append_column(nm, pa.array(vals))
    return with_geometry(t, geoms)
