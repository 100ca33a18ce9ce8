"""Esri File Geodatabase (.gdb directory) reader — from scratch.

Implements the reverse-engineered FileGDB v10 on-disk layout (the
same public spec the reference's OpenFileGDB driver implements;
behavior cross-checked against
ogr/ogrsf_frmts/openfilegdb/filegdbtable.cpp):

* ``a%08x.gdbtablx``: 16-byte header ``{version u32, n1024Blocks
  u32, totalRecords i32, offsetSize u32}`` then totalRecords offsets
  of ``offsetSize`` bytes each (little-endian); sparse files append a
  trailer with a 1024-row block bitmap.
* ``a%08x.gdbtable``: 40-byte header (version i32@0, validRecords
  i32@4, fieldDescOffset u64@32); field-description section
  ``{length u32, version u32, geomType u8, flags u8, _, geomFlags
  u8, nfields u16}`` then per-field records (UTF-16 name/alias, type
  byte, per-type width/flag/default, geometry fields carry WKT +
  origin/scale and bbox).
* rows: ``[i32 blobSize][nullable-field bitmap][values in field
  order]``; variable values (string/xml/binary/geometry) are
  varuint-length-prefixed.
* geometry blobs: varuint shape type (ogrpgeogeometry.h SHPT codes +
  0x80000000 Z / 0x40000000 M / 0x20000000 curve flags); points are
  ``(varuint-1)/xyscale + origin``; polylines/polygons are
  ``npoints, nparts, [ncurves], 4×bbox varuints, part sizes,
  zigzag-delta varint coordinate stream``.
* layer discovery: table 1 (``a00000001`` GDB_SystemCatalog) lists
  ``(Name, FileFormat)`` rows; row id N ↔ file ``a%08x``.

Returns Arrow tables in this repo's vector-source convention
(fid, wkb, minx..maxy envelope, attribute columns) so .gdb layers
drop into the same Ray Data pipelines as shapefile/GPKG/GeoJSON.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import attribute_names, with_geometry

__all__ = ["read_gdb", "read_gdb_layer", "list_gdb_layers"]

# field type codes (filegdbtable.h FGFT_*)
_FT_INT16, _FT_INT32, _FT_F32, _FT_F64, _FT_STRING, _FT_DATETIME = \
    0, 1, 2, 3, 4, 5
_FT_OBJECTID, _FT_GEOMETRY, _FT_BINARY, _FT_RASTER = 6, 7, 8, 9
_FT_GUID, _FT_GLOBALID, _FT_XML, _FT_INT64 = 10, 11, 12, 13
_FT_DATE, _FT_TIME, _FT_DATETIME_TZ = 14, 15, 16


def _varuint(buf, pos):
    v = 0
    shift = 0
    while True:
        b = buf[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, pos
        shift += 7


def _varint_delta(buf, pos):
    """FileGDB signed varint: bit 6 of the first byte is the sign,
    6 payload bits, then 7-bit continuation bytes."""
    b = buf[pos]
    pos += 1
    v = b & 0x3F
    neg = bool(b & 0x40)
    shift = 6
    while b & 0x80:
        b = buf[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        shift += 7
    return (-v if neg else v), pos


class _Field:
    __slots__ = ("name", "type", "nullable")

    def __init__(self, name, ftype, nullable):
        self.name = name
        self.type = ftype
        self.nullable = nullable


class _GeomInfo:
    __slots__ = ("xorigin", "yorigin", "xyscale", "zorigin", "zscale",
                 "morigin", "mscale", "wkt", "has_z", "has_m")


def _utf16(buf, pos, nchars):
    s = buf[pos:pos + 2 * nchars].decode("utf-16-le", "replace")
    return s, pos + 2 * nchars


class _GdbTable:
    """One .gdbtable/.gdbtablx pair."""

    def __init__(self, base_path: str):
        with open(base_path + ".gdbtable", "rb") as fh:
            self.buf = fh.read()
        version = struct.unpack_from("<i", self.buf, 0)[0]
        if version not in (3, 4):
            raise ValueError(f"unsupported .gdbtable version {version}")
        self.valid_records = struct.unpack_from(
            "<i" if version == 3 else "<q", self.buf,
            4 if version == 3 else 16)[0]
        field_off = struct.unpack_from("<Q", self.buf, 32)[0]
        self._parse_fields(field_off)
        self._read_tablx(base_path + ".gdbtablx", version)

    def _read_tablx(self, path, version):
        with open(path, "rb") as fh:
            tx = fh.read()
        _ver, nblocks, total, osize = struct.unpack_from("<IIiI", tx, 0)
        self.total_records = total
        raw = np.frombuffer(
            tx, np.uint8, count=nblocks * 1024 * osize, offset=16
        ).reshape(-1, osize)
        offs = np.zeros(len(raw), np.int64)
        for k in range(osize):
            offs |= raw[:, k].astype(np.int64) << (8 * k)
        # sparse tablx: trailer block bitmap maps stored blocks to
        # logical 1024-row blocks
        trailer = 16 + osize * 1024 * nblocks
        self.offsets = np.zeros(total, np.int64)
        if nblocks * 1024 >= total:
            bitmap_words = struct.unpack_from("<I", tx, trailer)[0] \
                if trailer + 4 <= len(tx) else 0
            if bitmap_words == 0:
                self.offsets = offs[:total]
                return
            nbits = struct.unpack_from("<I", tx, trailer + 4)[0]
            bm = np.frombuffer(tx, np.uint8,
                               count=(nbits + 7) // 8,
                               offset=trailer + 16)
            bits = np.unpackbits(bm, bitorder="little")[:nbits]
            stored = 0
            for blk in range(min(nbits, (total + 1023) // 1024)):
                if bits[blk]:
                    lo = blk * 1024
                    hi = min(lo + 1024, total)
                    self.offsets[lo:hi] = \
                        offs[stored * 1024:stored * 1024 + hi - lo]
                    stored += 1
        else:
            nbits = struct.unpack_from("<I", tx, trailer + 4)[0] \
                if trailer + 8 <= len(tx) else 0
            bm = np.frombuffer(tx, np.uint8, count=(nbits + 7) // 8,
                               offset=trailer + 16)
            bits = np.unpackbits(bm, bitorder="little")[:nbits]
            stored = 0
            for blk in range(nbits):
                if bits[blk]:
                    lo = blk * 1024
                    hi = min(lo + 1024, total)
                    if lo < total:
                        self.offsets[lo:hi] = \
                            offs[stored * 1024:
                                 stored * 1024 + hi - lo]
                    stored += 1

    def _parse_fields(self, off):
        buf = self.buf
        _flen, _ver2 = struct.unpack_from("<II", buf, off)
        geom_flags = buf[off + 11]
        self.has_z = bool(geom_flags & 0x80)
        self.has_m = bool(geom_flags & 0x40)
        nfields = struct.unpack_from("<H", buf, off + 12)[0]
        pos = off + 14
        self.fields: list[_Field] = []
        self.geom: _GeomInfo | None = None
        self.geom_field = -1
        self.oid_field = -1
        for _ in range(nfields):
            n = buf[pos]
            pos += 1
            name, pos = _utf16(buf, pos, n)
            n = buf[pos]
            pos += 1
            _alias, pos = _utf16(buf, pos, n)
            ftype = buf[pos]
            pos += 1
            if ftype == _FT_GEOMETRY:
                flags = buf[pos + 1]
                pos += 2
                gi = _GeomInfo()
                nwkt = struct.unpack_from("<H", buf, pos)[0]
                pos += 2
                gi.wkt = buf[pos:pos + nwkt].decode("utf-16-le",
                                                    "replace")
                pos += nwkt
                gflags = buf[pos]
                pos += 1
                has_m = bool(gflags & 2)
                has_z = bool(gflags & 4)
                gi.xorigin, gi.yorigin, gi.xyscale = \
                    struct.unpack_from("<3d", buf, pos)
                pos += 24
                gi.morigin = gi.mscale = 0.0
                gi.zorigin = gi.zscale = 0.0
                if has_m:
                    gi.morigin, gi.mscale = struct.unpack_from(
                        "<2d", buf, pos)
                    pos += 16
                if has_z:
                    gi.zorigin, gi.zscale = struct.unpack_from(
                        "<2d", buf, pos)
                    pos += 16
                pos += 8  # xytolerance
                if has_m:
                    pos += 8
                if has_z:
                    pos += 8
                pos += 16  # xmin/ymin
                pos += 16  # xmax/ymax
                if self.has_z:
                    pos += 16
                if self.has_m:
                    pos += 16
                pos += 1  # zero byte
                ngrids = struct.unpack_from("<I", buf, pos)[0]
                pos += 4 + 8 * ngrids
                gi.has_z = self.has_z
                gi.has_m = self.has_m
                self.geom = gi
                self.geom_field = len(self.fields)
                self.fields.append(_Field(name, ftype, bool(flags & 1)))
                continue
            if ftype == _FT_RASTER:
                raise ValueError("FileGDB raster fields not supported")
            if ftype == _FT_STRING:
                _maxw = struct.unpack_from("<i", buf, pos)[0]
                flags = buf[pos + 4]
                pos += 5
                dlen, pos = _varuint(buf, pos)
                if flags & 4:  # editable → default present
                    pos += dlen
            elif ftype in (_FT_OBJECTID, _FT_BINARY, _FT_GUID,
                           _FT_GLOBALID, _FT_XML):
                flags = buf[pos + 1]
                pos += 2
            else:
                flags = buf[pos + 1]
                dlen = buf[pos + 2]
                pos += 3
                if flags & 4:
                    pos += dlen
            if ftype == _FT_OBJECTID:
                self.oid_field = len(self.fields)
            self.fields.append(_Field(name, ftype, bool(flags & 1)))

    # ------------------------------------------------------------- rows
    def rows(self):
        """Yield (fid, {field: value}) for every valid row."""
        buf = self.buf
        n_nullable = sum(f.nullable for f in self.fields)
        nb_bytes = (n_nullable + 7) // 8
        for fid0, off in enumerate(self.offsets):
            if off <= 0:
                continue
            size = struct.unpack_from("<i", buf, off)[0]
            if size < 0:
                continue  # deleted
            blob = buf[off + 4:off + 4 + size]
            null_bits = blob[:nb_bytes]
            pos = nb_bytes
            iacc = 0
            row = {}
            try:
                for f in self.fields:
                    if f.nullable:
                        is_null = (null_bits[iacc >> 3] >>
                                   (iacc & 7)) & 1
                        iacc += 1
                        if is_null:
                            row[f.name] = None
                            continue
                    if f.type == _FT_OBJECTID:
                        row[f.name] = fid0 + 1
                    elif f.type == _FT_INT16:
                        row[f.name] = struct.unpack_from(
                            "<h", blob, pos)[0]
                        pos += 2
                    elif f.type == _FT_INT32:
                        row[f.name] = struct.unpack_from(
                            "<i", blob, pos)[0]
                        pos += 4
                    elif f.type == _FT_INT64:
                        row[f.name] = struct.unpack_from(
                            "<q", blob, pos)[0]
                        pos += 8
                    elif f.type == _FT_F32:
                        row[f.name] = struct.unpack_from(
                            "<f", blob, pos)[0]
                        pos += 4
                    elif f.type in (_FT_F64, _FT_DATETIME, _FT_DATE,
                                    _FT_TIME):
                        v = struct.unpack_from("<d", blob, pos)[0]
                        pos += 8
                        if f.type == _FT_DATETIME:
                            row[f.name] = _gdb_datetime(v)
                        else:
                            row[f.name] = v
                    elif f.type == _FT_DATETIME_TZ:
                        v = struct.unpack_from("<d", blob, pos)[0]
                        pos += 10
                        row[f.name] = _gdb_datetime(v)
                    elif f.type in (_FT_GUID, _FT_GLOBALID):
                        raw = blob[pos:pos + 16]
                        pos += 16
                        row[f.name] = _guid_str(raw)
                    elif f.type in (_FT_STRING, _FT_XML):
                        ln, pos = _varuint(blob, pos)
                        row[f.name] = blob[pos:pos + ln].decode(
                            "utf-8", "replace")
                        pos += ln
                    elif f.type in (_FT_BINARY, _FT_GEOMETRY):
                        ln, pos = _varuint(blob, pos)
                        row[f.name] = blob[pos:pos + ln]
                        pos += ln
                    else:
                        raise ValueError(
                            f"FileGDB field type {f.type} unsupported")
            except (IndexError, struct.error):
                continue
            yield fid0 + 1, row


def _gdb_datetime(days: float) -> str:
    """FileGDB datetime double = days since 1899-12-30."""
    import datetime
    base = datetime.datetime(1899, 12, 30)
    try:
        dt = base + datetime.timedelta(days=days)
    except OverflowError:
        return ""
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def _guid_str(raw: bytes) -> str:
    if len(raw) != 16:
        return ""
    a, b, c = struct.unpack_from("<IHH", raw, 0)
    return (f"{{{a:08X}-{b:04X}-{c:04X}-"
            + raw[8:10].hex().upper() + "-"
            + raw[10:16].hex().upper() + "}")


# ------------------------------------------------------------------
# geometry blob → Geometry
# ------------------------------------------------------------------
def _decode_geometry(blob: bytes, gi: _GeomInfo):
    if not blob:
        return None
    gtype, pos = _varuint(blob, 0)
    base = gtype & 0xFF
    has_z = bool(gtype & 0x80000000) or base in (9, 11, 18, 20, 10,
                                                 13, 19, 15)
    has_m = bool(gtype & 0x40000000) or base in (21, 11, 28, 18, 23,
                                                 13, 25, 15)
    has_curves = bool(gtype & 0x20000000)
    if base == 0:
        return None
    if base in (1, 9, 11, 21, 52):              # point family
        x, pos = _varuint(blob, pos)
        y, pos = _varuint(blob, pos)
        if x == 0 or y == 0:
            return None
        return W.point((x - 1) / gi.xyscale + gi.xorigin,
                       (y - 1) / gi.xyscale + gi.yorigin)
    if base in (8, 18, 20, 28, 53):             # multipoint
        npts, pos = _varuint(blob, pos)
        if npts == 0:
            return W.Geometry(W.MULTIPOINT, parts=[])
        for _ in range(4):                      # bbox
            _v, pos = _varuint(blob, pos)
        pts = np.empty((npts, 2), np.float64)
        dx = dy = 0
        for i in range(npts):
            d, pos = _varint_delta(blob, pos)
            dx += d
            d, pos = _varint_delta(blob, pos)
            dy += d
            pts[i, 0] = dx / gi.xyscale + gi.xorigin
            pts[i, 1] = dy / gi.xyscale + gi.yorigin
        return W.multipoint(pts)
    if base in (3, 10, 13, 23, 50, 5, 19, 15, 25, 51):
        is_poly = base in (5, 19, 15, 25, 51)
        npts, pos = _varuint(blob, pos)
        if npts == 0:
            t = W.POLYGON if is_poly else W.LINESTRING
            return W.Geometry(t, rings=[]) if is_poly else \
                W.Geometry(t, coords=np.empty((0, 2)))
        nparts, pos = _varuint(blob, pos)
        if has_curves:
            _nc, pos = _varuint(blob, pos)
            # curve descriptors follow the XY stream; linearizing
            # them is not supported — fall back to straight segments
        for _ in range(4):                      # bbox varuints
            _v, pos = _varuint(blob, pos)
        counts = []
        acc = 0
        for _ in range(max(nparts - 1, 0)):
            c, pos = _varuint(blob, pos)
            counts.append(c)
            acc += c
        counts.append(npts - acc)
        dx = dy = 0
        parts = []
        for c in counts:
            arr = np.empty((c, 2), np.float64)
            for i in range(c):
                d, pos = _varint_delta(blob, pos)
                dx += d
                d, pos = _varint_delta(blob, pos)
                dy += d
                arr[i, 0] = dx / gi.xyscale + gi.xorigin
                arr[i, 1] = dy / gi.xyscale + gi.yorigin
            parts.append(arr)
        # the reference promotes polylines/polygons to multi on read
        # (ogropenfilegdblayer.cpp:483-486 FGTGT_LINE->wkbMultiLineString,
        # FGTGT_POLYGON->wkbMultiPolygon; autotest ogr_openfilegdb.py:455)
        if is_poly:
            from .shapefile import _rings_to_geometry
            g = _rings_to_geometry(parts)
            if g is not None and g.geom_type == W.POLYGON:
                g = W.Geometry(W.MULTIPOLYGON, parts=[g])
            return g
        lines = [W.Geometry(W.LINESTRING, coords=c)
                 for c in parts if len(c) >= 2]
        if not lines:
            return None
        return W.Geometry(W.MULTILINESTRING, parts=lines)
    raise ValueError(f"FileGDB shape type {base} unsupported")


# ------------------------------------------------------------------
# dataset-level API
# ------------------------------------------------------------------
_SYSTEM_PREFIXES = ("GDB_", "T_1_")


def _catalog(gdb_dir: str) -> dict[str, int]:
    cat = _GdbTable(os.path.join(gdb_dir, "a00000001"))
    out = {}
    for fid, row in cat.rows():
        name = row.get("Name") or row.get("name")
        if name:
            out[name] = fid
    return out


def list_gdb_layers(gdb_dir: str) -> list[str]:
    """User layer names (system GDB_* tables filtered out)."""
    return [n for n in _catalog(gdb_dir)
            if not n.startswith(_SYSTEM_PREFIXES)]


def read_gdb_layer(gdb_dir: str, layer: str) -> pa.Table:
    """One layer → Arrow table (fid, wkb + envelope when the layer
    has geometry, attribute columns)."""
    cat = _catalog(gdb_dir)
    if layer not in cat:
        raise ValueError(f"layer {layer!r} not in {gdb_dir} "
                         f"(have: {sorted(cat)})")
    tbl = _GdbTable(os.path.join(gdb_dir, f"a{cat[layer]:08x}"))
    cols: dict[str, list] = {f.name: [] for f in tbl.fields if f.type
                             not in (_FT_GEOMETRY, _FT_OBJECTID)}
    geom_name = tbl.fields[tbl.geom_field].name \
        if tbl.geom_field >= 0 else None
    fids, geoms = [], []
    for fid, row in tbl.rows():
        fids.append(fid)
        blob = row.get(geom_name)
        geoms.append(_decode_geometry(blob, tbl.geom) if blob else None)
        for n, vals in cols.items():
            vals.append(row.get(n))
    t = pa.table({"fid": pa.array(fids, pa.int64())})
    if geom_name is not None:
        t = with_geometry(t, geoms)
    for nm, vals in zip(attribute_names(cols), cols.values()):
        t = t.append_column(nm, pa.array(vals))
    return t


def read_gdb(gdb_dir: str) -> dict[str, pa.Table]:
    """All user layers → {name: Arrow table}."""
    return {name: read_gdb_layer(gdb_dir, name)
            for name in list_gdb_layers(gdb_dir)}
