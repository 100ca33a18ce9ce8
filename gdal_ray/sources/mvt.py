"""Mapbox Vector Tiles (MVT) — protobuf tile decode/encode from the
public vector-tile spec v2.1, plus reading a tile of a z/x/y tree.

Reference driver: ogr/ogrsf_frmts/mvt/ogrmvtdataset.cpp. Behavior
parity (autotest/ogr/ogr_mvt.py):
- a bare .pbf with no tile context keeps tile-integer coordinates
  (``POINT (2070 2690)``); a tile inside a ``z/x/y.pbf`` tree is
  georeferenced to EPSG:3857 via the XYZ tile grid
- value typing: bool/int/sint/uint -> int (int64 when out of int32
  range), float/double -> real, with cross-feature promotion
  (int->int64->real, bool->int, anything+string->string)
- feature ids surface as an ``mvt_id`` column when present
- geometry command stream: MoveTo=1 / LineTo=2 / ClosePath=7,
  zigzag deltas; multi-part geometries become Multi* types

``decode_mvt(buf)`` -> {layer_name: pyarrow.Table} with the repo's
vector schema (fid, fields..., wkb, minx..maxy). ``encode_mvt``
writes a tile from (geometry, properties) features — used by the
tile pipeline's vector sink.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import with_geometry

__all__ = ["decode_mvt", "encode_mvt", "read_mvt_table", "tile_to_mercator"]

_ORIGIN = 20037508.342789244  # pi * 6378137


# ------------------------------------------------------ protobuf core
def _varints(buf: memoryview, off: int, end: int):
    """Parse one varint; returns (value, new_off)."""
    v = 0
    shift = 0
    while off < end:
        b = buf[off]
        off += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, off
        shift += 7
    raise ValueError("truncated varint")


def _fields(buf: memoryview, off: int = 0, end: int | None = None):
    """Iterate (field_number, wire_type, value) over a message.
    Wire 0 -> int, 2 -> memoryview slice, 5 -> 4 raw bytes,
    1 -> 8 raw bytes."""
    if end is None:
        end = len(buf)
    while off < end:
        key, off = _varints(buf, off, end)
        fnum, wire = key >> 3, key & 7
        if wire == 0:
            v, off = _varints(buf, off, end)
        elif wire == 2:
            ln, off = _varints(buf, off, end)
            v = buf[off:off + ln]
            off += ln
        elif wire == 5:
            v = bytes(buf[off:off + 4])
            off += 4
        elif wire == 1:
            v = bytes(buf[off:off + 8])
            off += 8
        else:
            raise ValueError(f"unsupported wire type {wire}")
        yield fnum, wire, v


def _zigzag(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


def _packed_varints(mv: memoryview) -> list[int]:
    out = []
    off = 0
    end = len(mv)
    while off < end:
        v, off = _varints(mv, off, end)
        out.append(v)
    return out


# ------------------------------------------------------- tile decode
def _decode_value(mv: memoryview):
    """Tile.Value message -> (python value, type tag)."""
    for fnum, wire, v in _fields(mv):
        if fnum == 1:
            return bytes(v).decode("utf-8", "replace"), "str"
        if fnum == 2:
            return struct.unpack("<f", v)[0], "float"
        if fnum == 3:
            return struct.unpack("<d", v)[0], "double"
        if fnum == 4:  # int64 (two's complement varint)
            if v >= 1 << 63:
                v -= 1 << 64
            return v, "int"
        if fnum == 5:
            return v, "int"
        if fnum == 6:
            return _zigzag(v), "int"
        if fnum == 7:
            return bool(v), "bool"
    return None, "str"


def _decode_geometry(cmds: list[int], gtype: int,
                     tx=None) -> W.Geometry | None:
    """Geometry command stream -> Geometry. tx is an optional
    (x, y) -> (X, Y) coordinate transform."""
    parts: list[np.ndarray] = []
    cur: list[tuple[float, float]] = []
    x = y = 0
    i = 0
    n = len(cmds)
    while i < n:
        cmd = cmds[i]
        op, count = cmd & 7, cmd >> 3
        i += 1
        if op == 1:  # MoveTo
            for _ in range(count):
                x += _zigzag(cmds[i])
                y += _zigzag(cmds[i + 1])
                i += 2
                if gtype == 1:
                    cur.append((x, y))
                else:
                    if cur:
                        parts.append(np.asarray(cur, np.float64))
                    cur = [(x, y)]
        elif op == 2:  # LineTo
            for _ in range(count):
                x += _zigzag(cmds[i])
                y += _zigzag(cmds[i + 1])
                i += 2
                cur.append((x, y))
        elif op == 7:  # ClosePath
            if cur:
                cur.append(cur[0])
        else:
            raise ValueError(f"MVT geometry op {op}")
    if cur:
        parts.append(np.asarray(cur, np.float64))
    if not parts:
        return None
    if tx is not None:
        parts = [np.column_stack(tx(p[:, 0], p[:, 1])) for p in parts]
    if gtype == 1:  # POINT
        pts = np.vstack(parts)
        if len(pts) == 1:
            return W.point(pts[0, 0], pts[0, 1])
        return W.multipoint(pts)
    if gtype == 2:  # LINESTRING
        if len(parts) == 1:
            return W.linestring(parts[0])
        return W.Geometry(W.MULTILINESTRING,
                          parts=[W.linestring(p) for p in parts])
    # POLYGON: ring winding. The spec makes exterior rings CW in the
    # y-down tile grid; every code path transforms to a y-up frame
    # (mercator or the extent-y flip), so exteriors are CCW here,
    # i.e. negative under this shoelace form.
    polys: list[W.Geometry] = []
    for ring in parts:
        r = ring
        if len(r) < 4:
            continue
        area = float(np.sum((r[1:, 0] - r[:-1, 0]) *
                            (r[1:, 1] + r[:-1, 1])))
        is_outer = area < 0
        if is_outer or not polys:
            polys.append(W.Geometry(W.POLYGON, rings=[r]))
        else:
            polys[-1].rings.append(r)
    if not polys:
        return None
    if len(polys) == 1:
        return polys[0]
    return W.multipolygon(polys)


def tile_to_mercator(z: int, x: int, y: int, extent: int):
    """XYZ tile + extent -> vectorized tile->EPSG:3857 transform."""
    size = 2 * _ORIGIN / (1 << z)
    x0 = -_ORIGIN + x * size
    y0 = _ORIGIN - y * size

    def tx(px, py):
        return (x0 + px * (size / extent), y0 - py * (size / extent))
    return tx


_PROMOTE = {("bool", "int"): "int", ("float", "int"): "double",
            ("double", "int"): "double", ("double", "float"): "double",
            ("bool", "double"): "double", ("bool", "float"): "double"}


def decode_mvt(buf: bytes, z: int | None = None, x: int | None = None,
               y: int | None = None) -> dict[str, pa.Table]:
    """Decode one MVT tile -> {layer: Table}. With z/x/y the
    geometries are transformed to EPSG:3857; otherwise tile ints."""
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    mv = memoryview(buf)
    out: dict[str, pa.Table] = {}
    for fnum, wire, layer_mv in _fields(mv):
        if fnum != 3:
            continue
        name = ""
        extent = 4096
        keys: list[str] = []
        values: list = []
        feats: list = []
        for lf, lw, lv in _fields(layer_mv):
            if lf == 1:
                name = bytes(lv).decode("utf-8", "replace")
            elif lf == 3:
                keys.append(bytes(lv).decode("utf-8", "replace"))
            elif lf == 4:
                values.append(_decode_value(lv))
            elif lf == 5:
                extent = lv
            elif lf == 2:
                feats.append(lv)
        if z is not None:
            tx = tile_to_mercator(z, x, y, extent)
        else:
            ext = extent  # un-georeferenced: flip to y-up tile coords

            def tx(px, py, _e=ext):
                return (px, _e - py)
        rows = []
        col_types: dict[str, str] = {}
        has_id = False
        for fmv in feats:
            fid = None
            tags: list[int] = []
            gtype = 0
            geom: list[int] = []
            for ff, fw, fv in _fields(fmv):
                if ff == 1:
                    fid = fv
                    has_id = True
                elif ff == 2:
                    tags = _packed_varints(fv)
                elif ff == 3:
                    gtype = fv
                elif ff == 4:
                    geom = _packed_varints(fv)
            # parity with the reference's feature validation
            # (ogr_mvt.py limit_cases): odd tag count or an
            # out-of-range key/value index drops the FEATURE;
            # geometry problems do not
            if len(tags) % 2 or any(
                    tags[i] >= len(keys) or tags[i + 1] >= len(values)
                    for i in range(0, len(tags), 2)):
                continue
            props = {}
            for i in range(0, len(tags) - 1, 2):
                ki, vi = tags[i], tags[i + 1]
                val, ttag = values[vi]
                k = keys[ki]
                props[k] = val
                prev = col_types.get(k)
                if prev is None or prev == ttag:
                    col_types[k] = ttag
                else:
                    col_types[k] = _PROMOTE.get(
                        (min(prev, ttag), max(prev, ttag)), "str")
            try:
                g = _decode_geometry(geom, gtype, tx)
            except (IndexError, ValueError):
                g = None  # corrupt stream: keep the feature, null geom
            rows.append((fid, props, g))
        cols: dict[str, list] = {}
        order: list[str] = []
        for _fid, props, _g in rows:
            for k in props:
                if k not in order:
                    order.append(k)
        data: dict[str, list] = {k: [] for k in order}
        fids, mvt_ids = [], []
        for i, (fid, props, g) in enumerate(rows):
            fids.append(i)
            mvt_ids.append(fid)
            for k in order:
                v = props.get(k)
                t = col_types.get(k)
                if v is not None:
                    if t == "str" and not isinstance(v, str):
                        v = str(int(v)) if isinstance(v, bool) else str(v)
                    elif t in ("int", "bool") and isinstance(v, bool):
                        v = int(v)
                    elif t == "double" and v is not None and \
                            not isinstance(v, str):
                        v = float(v)
                data[k].append(v)
        # the reference layer schema always carries mvt_id (null when
        # a feature has no id)
        del has_id
        tbl = {"fid": pa.array(fids, pa.int64()),
               "mvt_id": pa.array(mvt_ids, pa.int64())}
        for k in order:
            t = col_types.get(k, "str")
            patype = {"bool": pa.int32(), "int": None, "float": pa.float32(),
                      "double": pa.float64(), "str": pa.string()}[t]
            if t == "int":
                vals = [v for v in data[k] if v is not None]
                patype = pa.int64() if any(
                    not -2**31 <= v < 2**31 for v in vals) else pa.int32()
            tbl[k] = pa.array(data[k], patype)
        out[name] = with_geometry(pa.table(tbl),
                                  [g for _fid, _props, g in rows])
    return out


def _tile_context(path: str):
    """Infer (z, x, y) from a .../z/x/y.pbf path, and locate
    metadata.json two levels up (the reference's discovery order)."""
    stem, _ = os.path.splitext(path)
    parts = os.path.normpath(stem).split(os.sep)
    if len(parts) >= 3 and parts[-1].isdigit() and parts[-2].isdigit() \
            and parts[-3].isdigit():
        z, x, y = int(parts[-3]), int(parts[-2]), int(parts[-1])
        meta_dir = os.sep.join(parts[:-3])
        meta = os.path.join(meta_dir, "metadata.json")
        return z, x, y, (meta if os.path.exists(meta) else None)
    return None, None, None, None


def read_mvt_table(path: str, georef: bool = True) -> pa.Table:
    """One .pbf/.mvt tile -> Arrow table with a ``layer`` column
    (georeferenced to EPSG:3857 when the path carries z/x/y)."""
    buf = open(path, "rb").read()
    z = x = y = None
    if georef:
        z, x, y, _meta = _tile_context(path)
    layers = decode_mvt(buf, z, x, y)
    parts = []
    for name, t in layers.items():
        parts.append(t.append_column(
            "layer", pa.array([name] * len(t), pa.string())))
    if not parts:
        return pa.table({"fid": pa.array([], pa.int64())})
    if len(parts) == 1:
        return parts[0]
    return _concat_promote(parts)


def _concat_promote(parts):
    """concat with OGR-style type promotion: columns whose types
    conflict across tiles (beyond numeric widening) unify to string
    (ogr_mvt.py datatype-promotion rules)."""
    try:
        return pa.concat_tables(parts, promote_options="permissive")
    except (pa.ArrowTypeError, pa.ArrowInvalid):
        names = []
        for t in parts:
            for nm in t.column_names:
                if nm not in names:
                    names.append(nm)
        types: dict[str, set] = {}
        for t in parts:
            for nm in t.column_names:
                types.setdefault(nm, set()).add(t.schema.field(nm).type)
        conflict = set()
        for nm, ts in types.items():
            if len(ts) > 1 and not all(
                    pa.types.is_integer(x) or pa.types.is_floating(x)
                    for x in ts):
                conflict.add(nm)
        fixed = []
        for t in parts:
            for nm in conflict:
                if nm in t.column_names:
                    i = t.column_names.index(nm)
                    t = t.set_column(i, nm, t[nm].cast(pa.string()))
            fixed.append(t)
        return pa.concat_tables(fixed, promote_options="permissive")


# -------------------------------------------------------- tile encode
def _write_key(fnum: int, wire: int, out: bytearray):
    _write_varint((fnum << 3) | wire, out)


def _write_varint(v: int, out: bytearray):
    if v < 0:
        v += 1 << 64
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _zz(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v < 0 else v << 1


def _encode_value(v) -> bytes:
    out = bytearray()
    if isinstance(v, bool):
        _write_key(7, 0, out)
        _write_varint(int(v), out)
    elif isinstance(v, (int, np.integer)):
        _write_key(6, 0, out)
        _write_varint(_zz(int(v)), out)
    elif isinstance(v, (float, np.floating)):
        _write_key(3, 1, out)
        out += struct.pack("<d", float(v))
    else:
        b = str(v).encode("utf-8")
        _write_key(1, 2, out)
        _write_varint(len(b), out)
        out += b
    return bytes(out)


def _geom_commands(g: W.Geometry, to_tile) -> tuple[int, list[int]]:
    """Geometry -> (mvt geom type, command list). to_tile maps world
    coords -> integer tile coords."""
    def enc_part(pts, close, cmds, cursor):
        ints = to_tile(pts)
        if close and len(ints) > 1 and tuple(ints[0]) == tuple(ints[-1]):
            ints = ints[:-1]
        # drop consecutive duplicates introduced by quantization
        keep = [0]
        for i in range(1, len(ints)):
            if tuple(ints[i]) != tuple(ints[keep[-1]]):
                keep.append(i)
        ints = ints[keep]
        if close and len(ints) < 3:
            return cursor, False
        if not close and len(ints) < 1:
            return cursor, False
        cx, cy = cursor
        cmds.append((1 << 3) | 1)  # MoveTo 1
        cmds.append(_zz(int(ints[0, 0]) - cx))
        cmds.append(_zz(int(ints[0, 1]) - cy))
        cx, cy = int(ints[0, 0]), int(ints[0, 1])
        rest = ints[1:]
        if len(rest):
            cmds.append((len(rest) << 3) | 2)  # LineTo n
            for px, py in rest:
                cmds.append(_zz(int(px) - cx))
                cmds.append(_zz(int(py) - cy))
                cx, cy = int(px), int(py)
        if close:
            cmds.append(7)  # ClosePath
        return (cx, cy), True

    t = g.geom_type
    cmds: list[int] = []
    cursor = (0, 0)
    if t == W.POINT or t == W.MULTIPOINT:
        pts = g.coords if t == W.POINT else np.vstack(
            [p.coords for p in g.parts])
        ints = to_tile(pts)
        cmds.append((len(ints) << 3) | 1)
        cx = cy = 0
        for px, py in ints:
            cmds.append(_zz(int(px) - cx))
            cmds.append(_zz(int(py) - cy))
            cx, cy = int(px), int(py)
        return 1, cmds
    if t == W.LINESTRING:
        cursor, _ = enc_part(g.coords, False, cmds, cursor)
        return 2, cmds
    if t == W.MULTILINESTRING:
        for p in g.parts:
            cursor, _ = enc_part(p.coords, False, cmds, cursor)
        return 2, cmds
    if t == W.POLYGON:
        for r in g.rings:
            cursor, _ = enc_part(r, True, cmds, cursor)
        return 3, cmds
    if t == W.MULTIPOLYGON:
        for p in g.parts:
            for r in p.rings:
                cursor, _ = enc_part(r, True, cmds, cursor)
        return 3, cmds
    raise ValueError(f"MVT cannot encode {g.type_name}")


def encode_mvt(features, layer: str = "layer", extent: int = 4096,
               z: int | None = None, x: int | None = None,
               y: int | None = None) -> bytes:
    """Encode one tile. features: iterable of (Geometry, props dict
    [, id]). With z/x/y, input coords are EPSG:3857 world coords and
    are quantized into the tile grid; otherwise they are tile-local
    integers already."""
    if z is not None:
        size = 2 * _ORIGIN / (1 << z)
        x0 = -_ORIGIN + x * size
        y0 = _ORIGIN - y * size

        def to_tile(pts):
            px = np.round((pts[:, 0] - x0) / size * extent)
            py = np.round((y0 - pts[:, 1]) / size * extent)
            return np.column_stack([px, py]).astype(np.int64)
    else:
        def to_tile(pts):
            return np.round(np.asarray(pts)).astype(np.int64)

    keys: list[str] = []
    kidx: dict[str, int] = {}
    vals: list[bytes] = []
    vidx: dict[bytes, int] = {}
    feat_bufs: list[bytes] = []
    for feat in features:
        g, props = feat[0], feat[1]
        fid = feat[2] if len(feat) > 2 else None
        gtype, cmds = _geom_commands(g, to_tile)
        if not cmds:
            continue
        tags: list[int] = []
        for k, v in (props or {}).items():
            if v is None:
                continue
            if k not in kidx:
                kidx[k] = len(keys)
                keys.append(k)
            vb = _encode_value(v)
            if vb not in vidx:
                vidx[vb] = len(vals)
                vals.append(vb)
            tags += [kidx[k], vidx[vb]]
        fb = bytearray()
        if fid is not None:
            _write_key(1, 0, fb)
            _write_varint(int(fid), fb)
        if tags:
            tb = bytearray()
            for t in tags:
                _write_varint(t, tb)
            _write_key(2, 2, fb)
            _write_varint(len(tb), fb)
            fb += tb
        _write_key(3, 0, fb)
        _write_varint(gtype, fb)
        gb = bytearray()
        for c in cmds:
            _write_varint(c, gb)
        _write_key(4, 2, fb)
        _write_varint(len(gb), fb)
        fb += gb
        feat_bufs.append(bytes(fb))

    lb = bytearray()
    _write_key(15, 0, lb)
    _write_varint(2, lb)  # version
    nb = layer.encode("utf-8")
    _write_key(1, 2, lb)
    _write_varint(len(nb), lb)
    lb += nb
    for fb in feat_bufs:
        _write_key(2, 2, lb)
        _write_varint(len(fb), lb)
        lb += fb
    for k in keys:
        kb = k.encode("utf-8")
        _write_key(3, 2, lb)
        _write_varint(len(kb), lb)
        lb += kb
    for vb in vals:
        _write_key(4, 2, lb)
        _write_varint(len(vb), lb)
        lb += vb
    _write_key(5, 0, lb)
    _write_varint(extent, lb)
    out = bytearray()
    _write_key(3, 2, out)
    _write_varint(len(lb), out)
    out += lb
    return bytes(out)
