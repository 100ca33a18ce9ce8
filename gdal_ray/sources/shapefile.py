"""ESRI Shapefile reader (.shp + .dbf) — pure Python.

Independently implements the published ESRI Shapefile Technical
Description (July 1998 whitepaper) and dBASE III/IV DBF layout
(reference behavior: ogr/ogrsf_frmts/shape/). Emits the engine's
standard vector schema: fid, wkb, minx/miny/maxx/maxy + attribute
columns — conformance-tested against the reference's own fixtures
(autotest/ogr/data/poly.shp et al.).

Supported shape types: Point(1), PolyLine(3), Polygon(5),
MultiPoint(8) and their Z/M variants (extra ordinates dropped — the
engine's model is 2-D, matching the WKB codec's convention)."""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..core import geom as _geom
from ..core import wkb as W
from .vector import ENVELOPE, attribute_names, with_geometry

_Z = {11: 1, 13: 3, 15: 5, 18: 8}   # Z-type → base
_M = {21: 1, 23: 3, 25: 5, 28: 8}   # M-type → base


def _rings_to_geometry(parts: list[np.ndarray]):
    """Shapefile polygon: rings in one record; outer rings are
    CLOCKWISE (negative shoelace in y-up math), holes counter-clockwise;
    holes attach to the outer ring containing them."""
    outers, holes = [], []
    for r in parts:
        if len(r) < 4:
            continue
        (outers if _geom.ring_area(r) < 0 else holes).append(r)
    if not outers:                    # degenerate: treat all as outers
        outers, holes = holes, []
    polys = []
    for o in outers:
        mine = [h for h in holes
                if _geom.points_in_ring(h[:1, 0], h[:1, 1], o)[0]]
        polys.append(W.Geometry(W.POLYGON, rings=[o] + mine))
    if len(polys) == 1:
        return polys[0]
    return W.Geometry(W.MULTIPOLYGON, parts=polys)


def _read_shp_geometries(buf: bytes):
    """.shp bytes → list of (Geometry | None)."""
    if len(buf) < 100 or struct.unpack(">i", buf[:4])[0] != 9994:
        raise ValueError("not a shapefile (bad file code)")
    out = []
    pos = 100
    n = len(buf)
    while pos + 8 <= n:
        _, content_len = struct.unpack(">ii", buf[pos:pos + 8])
        pos += 8
        end = pos + content_len * 2
        (stype,) = struct.unpack("<i", buf[pos:pos + 4])
        base = _Z.get(stype, _M.get(stype, stype))
        p = pos + 4
        if stype == 0:                          # null shape
            out.append(None)
        elif base == 1:                         # point
            x, y = struct.unpack("<2d", buf[p:p + 16])
            out.append(W.point(x, y))
        elif base == 8:                         # multipoint
            (npts,) = struct.unpack("<i", buf[p + 32:p + 36])
            pts = np.frombuffer(buf, "<f8", npts * 2, p + 36).reshape(-1, 2)
            out.append(W.Geometry(
                W.MULTIPOINT,
                parts=[W.point(float(x), float(y)) for x, y in pts]))
        elif base in (3, 5):                    # polyline / polygon
            nparts, npts = struct.unpack("<2i", buf[p + 32:p + 40])
            part_idx = np.frombuffer(buf, "<i4", nparts, p + 40)
            pts = np.frombuffer(buf, "<f8", npts * 2,
                                p + 40 + 4 * nparts).reshape(-1, 2)
            bounds = np.append(part_idx, npts)
            parts = [np.array(pts[bounds[k]:bounds[k + 1]], np.float64)
                     for k in range(nparts)]
            if base == 3:
                lines = [W.Geometry(W.LINESTRING, coords=c)
                         for c in parts if len(c) >= 2]
                out.append(lines[0] if len(lines) == 1 else
                           W.Geometry(W.MULTILINESTRING, parts=lines))
            else:
                out.append(_rings_to_geometry(parts))
        elif stype == 31:                       # MultiPatch
            # part types (shapefile spec): 0 triangle strip, 1
            # triangle fan → TIN parts; 2 outer / 3 inner / 4 first
            # / 5 ring → polygons (OGRCreateFromMultiPatch shape;
            # Z is projected out like every other Z type here)
            nparts, npts = struct.unpack("<2i", buf[p + 32:p + 40])
            part_idx = np.frombuffer(buf, "<i4", nparts, p + 40)
            ptypes = np.frombuffer(buf, "<i4", nparts,
                                   p + 40 + 4 * nparts)
            pts = np.frombuffer(buf, "<f8", npts * 2,
                                p + 40 + 8 * nparts).reshape(-1, 2)
            bounds = np.append(part_idx, npts)
            groups = []                 # top-level children
            cur_poly = None             # open ring polygon
            for k in range(nparts):
                part = np.array(pts[bounds[k]:bounds[k + 1]],
                                np.float64)
                pt = int(ptypes[k])
                if pt in (0, 1):        # strip / fan → triangles
                    tris = []
                    for i in range(len(part) - 2):
                        tri = (np.array([part[0], part[i + 1],
                                         part[i + 2], part[0]])
                               if pt == 1 else
                               np.array([part[i], part[i + 1],
                                         part[i + 2], part[i]]))
                        tris.append(W.Geometry(W.POLYGON,
                                               rings=[tri]))
                    groups.append(W.Geometry(W.MULTIPOLYGON,
                                             parts=tris))
                    cur_poly = None
                else:
                    ring = part if len(part) and \
                        np.allclose(part[0], part[-1]) else \
                        np.vstack([part, part[:1]])
                    if pt in (2, 4) or cur_poly is None:
                        cur_poly = [ring]
                        groups.append(("poly", cur_poly))
                    else:               # 3 / 5: hole of the open one
                        cur_poly.append(ring)
            children = []
            ring_polys = []
            for g in groups:
                if isinstance(g, tuple):
                    ring_polys.append(
                        W.Geometry(W.POLYGON, rings=g[1]))
                else:
                    if ring_polys:
                        children.append(
                            ring_polys[0] if len(ring_polys) == 1
                            else W.Geometry(W.MULTIPOLYGON,
                                            parts=ring_polys))
                        ring_polys = []
                    children.append(g)
            if ring_polys:
                children.append(ring_polys[0] if len(ring_polys) == 1
                                else W.Geometry(W.MULTIPOLYGON,
                                                parts=ring_polys))
            out.append(children[0] if len(children) == 1
                       else W.Geometry(W.GEOMETRYCOLLECTION,
                                       parts=children))
        else:
            raise ValueError(f"unsupported shape type {stype}")
        pos = end
    return out


def _read_dbf(buf: bytes):
    """.dbf bytes → (field names, list of row dicts)."""
    if len(buf) < 32:
        return [], []
    n_rec, hdr_size, rec_size = struct.unpack("<IHH", buf[4:12])
    fields = []
    pos = 32
    while pos < hdr_size - 1 and buf[pos] != 0x0D:
        name = buf[pos:pos + 11].split(b"\x00")[0].decode("ascii",
                                                          "replace")
        ftype = chr(buf[pos + 11])
        flen = buf[pos + 16]
        fdec = buf[pos + 17]
        fields.append((name, ftype, flen, fdec))
        pos += 32
    rows = []
    pos = hdr_size
    for _ in range(n_rec):
        if pos + rec_size > len(buf):
            break
        rec = buf[pos:pos + rec_size]
        pos += rec_size
        if rec[:1] == b"*":                     # deleted
            continue
        off = 1
        row = {}
        for name, ftype, flen, fdec in fields:
            raw = rec[off:off + flen]
            off += flen
            s = raw.decode("ascii", "replace").strip()
            if ftype in ("N", "F"):
                if s == "":
                    row[name] = None
                elif fdec or "." in s or "e" in s.lower():
                    row[name] = float(s)
                else:
                    try:
                        row[name] = int(s)
                    except ValueError:
                        row[name] = None
            elif ftype == "L":
                row[name] = s in ("Y", "y", "T", "t")
            else:
                row[name] = s
        rows.append(row)
    return [f[0] for f in fields], rows


def read_shapefile(path: str) -> pa.Table:
    """path ('/x/layer.shp') → Arrow table (fid, wkb, envelope cols,
    DBF attribute columns)."""
    with open(path, "rb") as f:
        geoms = _read_shp_geometries(f.read())
    dbf_path = path[:-4] + ".dbf"
    names: list[str] = []
    rows: list[dict] = []
    try:
        with open(dbf_path, "rb") as f:
            names, rows = _read_dbf(f.read())
    except FileNotFoundError:
        pass
    t = with_geometry(pa.table({"fid": np.arange(len(geoms))}), geoms)
    for nm, col in zip(names, attribute_names(names)):
        t = t.append_column(col, pa.array(
            [rows[i].get(nm) if i < len(rows) else None
             for i in range(len(geoms))]))
    return t


# ---------------------------------------------------------------------------
# writer (.shp + .shx + .dbf)
# ---------------------------------------------------------------------------

_SHAPE_TYPE = {W.POINT: 1, W.LINESTRING: 3, W.POLYGON: 5}


def _shape_record(g) -> tuple[int, bytes]:
    """One geometry → (shape_type, record content bytes)."""
    t = g.geom_type
    if t == W.MULTIPOINT:
        # native MultiPoint record (type 8): box, npoints, xy array —
        # mirrors the reader's multipoint branch
        pts = np.array([[p.coords[0, 0], p.coords[0, 1]] for p in g.parts],
                       np.float64)
        minx, miny = pts.min(axis=0)
        maxx, maxy = pts.max(axis=0)
        return 8, struct.pack("<i4di", 8, minx, miny, maxx, maxy,
                              len(pts)) + pts.astype("<f8").tobytes()
    if t in (W.MULTILINESTRING, W.MULTIPOLYGON):
        # MultiPolygon/MultiLineString flatten into one record's parts
        t = W.LINESTRING if t == W.MULTILINESTRING else W.POLYGON
    if t == W.POINT:
        x, y = float(g.coords[0, 0]), float(g.coords[0, 1])
        return 1, struct.pack("<i2d", 1, x, y)
    if t == W.LINESTRING:
        parts = [g.coords] if g.geom_type == W.LINESTRING \
            else [p.coords for p in g.parts]
        return 3, _poly_content(3, parts)
    if t == W.POLYGON:
        rings = []
        polys = [g] if g.geom_type == W.POLYGON else g.parts
        for p in polys:
            for j, r in enumerate(p.rings):
                rr = np.asarray(r, np.float64)
                # outer rings CLOCKWISE, holes CCW (spec)
                a = _geom.ring_area(rr)
                if (j == 0 and a > 0) or (j > 0 and a < 0):
                    rr = rr[::-1]
                rings.append(rr)
        return 5, _poly_content(5, rings)
    raise ValueError(f"unsupported geometry type {g.type_name} "
                     "for shapefile")


def _poly_content(stype: int, parts: list[np.ndarray]) -> bytes:
    allpts = np.vstack(parts)
    minx, miny = allpts.min(axis=0)
    maxx, maxy = allpts.max(axis=0)
    offs, total = [], 0
    for p in parts:
        offs.append(total)
        total += len(p)
    out = struct.pack("<i4d2i", stype, minx, miny, maxx, maxy,
                      len(parts), total)
    out += struct.pack(f"<{len(offs)}i", *offs)
    out += allpts.astype("<f8").tobytes()
    return out


def write_shapefile(table: pa.Table, path: str) -> int:
    """Write a layer as .shp/.shx/.dbf (ESRI whitepaper layout; the
    reference's write side is ogr/ogrsf_frmts/shape/shpopen.c). All
    geometries must share one shape class (point / line / polygon,
    multi allowed); a null geometry is written as a null shape
    (type 0). Attribute columns become DBF fields: floats N
    19.8, ints N 18.0, everything else C 64. Returns feature count."""
    import os

    geoms = [None if b is None else W.loads(b)
             for b in table.column("wkb").to_pylist()]
    if not geoms:
        raise ValueError("empty layer")
    records = [(0, struct.pack("<i", 0)) if g is None else _shape_record(g)
               for g in geoms]
    stypes = {s for s, _ in records if s} or {0}
    if len(stypes) != 1:
        raise ValueError(f"mixed shape types {stypes}")
    stype = stypes.pop()
    envs = np.array([g.envelope() for g in geoms if g is not None],
                    np.float64).reshape(-1, 4)
    bbox = ((envs[:, 0].min(), envs[:, 1].min(),
             envs[:, 2].max(), envs[:, 3].max()) if len(envs) else (0.0,) * 4)

    def header(total_words: int) -> bytes:
        return struct.pack(">7i", 9994, 0, 0, 0, 0, 0, total_words) \
            + struct.pack("<2i8d", 1000, stype, *bbox, 0, 0, 0, 0)

    shp_body = bytearray()
    shx_body = bytearray()
    for i, (_, content) in enumerate(records):
        off_words = (100 + len(shp_body)) // 2
        shp_body += struct.pack(">2i", i + 1, len(content) // 2) + content
        shx_body += struct.pack(">2i", off_words, len(content) // 2)

    base = path[:-4] if path.lower().endswith(".shp") else path
    with open(base + ".shp", "wb") as f:
        f.write(header((100 + len(shp_body)) // 2))
        f.write(shp_body)
    with open(base + ".shx", "wb") as f:
        f.write(header((100 + len(shx_body)) // 2))
        f.write(shx_body)

    # DBF — fid is positional in this engine (like OGR's implicit FID),
    # so it is not materialized as a field
    skip = {"wkb", "fid", *ENVELOPE}
    fields = [(n, table.schema.field(n).type) for n in table.column_names
              if n not in skip]
    descs, widths, kinds = [], [], []
    for name, typ in fields:
        import pyarrow.types as pt
        if pt.is_floating(typ):
            kind, width, dec = b"N", 19, 8
        elif pt.is_integer(typ):
            kind, width, dec = b"N", 18, 0
        else:
            kind, width, dec = b"C", 64, 0
        nm = name.encode()[:10].ljust(11, b"\x00")
        descs.append(nm + kind + b"\x00" * 4
                     + bytes([width, dec]) + b"\x00" * 14)
        widths.append(width)
        kinds.append(kind)
    n = table.num_rows
    rec_size = 1 + sum(widths)
    hdr_size = 32 + 32 * len(descs) + 1
    dbf = bytearray()
    dbf += struct.pack("<B3BIHH20x", 0x03, 126, 1, 1, n, hdr_size,
                       rec_size)
    dbf += b"".join(descs) + b"\x0d"
    cols = [table.column(name).to_pylist() for name, _ in fields]
    for i in range(n):
        dbf += b" "
        for j, (w_, k_) in enumerate(zip(widths, kinds)):
            v = cols[j][i]
            if k_ == b"N":
                txt = ("" if v is None else
                       (f"{v:.8f}" if isinstance(v, float) else str(int(v))))
                if len(txt) > w_:
                    # value wider than the field: fall back to scientific
                    # notation that fits rather than silently truncating
                    # the most-significant digits (shpopen.c widens the
                    # field; a fixed-width rewrite would rewrite the file)
                    if isinstance(v, float):
                        for prec in range(10, -1, -1):
                            txt = f"{v:.{prec}e}"
                            if len(txt) <= w_:
                                break
                    if len(txt) > w_:
                        raise ValueError(
                            f"numeric value {v!r} does not fit DBF field "
                            f"width {w_}")
                dbf += txt.rjust(w_)[:w_].encode()
            else:
                dbf += str("" if v is None else v).ljust(w_)[:w_].encode()
    dbf += b"\x1a"
    with open(base + ".dbf", "wb") as f:
        f.write(dbf)
    return n
