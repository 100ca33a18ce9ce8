"""MapInfo TAB binary reader (.tab + .dat/.map/.id trio).

From-scratch decode of the MapInfo native table format — the .dat
attribute file (dBASE-shaped header, binary-native field payloads),
the .map geometry file (512*k-byte blocks: header block with the
integer<->coordsys transform, object blocks, chained coordinate
blocks) and the .id object index — re-expressed over numpy/Arrow.
Geometry semantics mirror the reference MITAB driver
(ogr/ogrsf_frmts/mitab/mitab_mapheaderblock.cpp header layout +
Int2Coordsys quadrant rules, mitab_mapobjectblock.cpp per-type object
records, mitab_feature.cpp OGR conversions incl. TABGenerateArc's
duplicated end vertex, arc-angle quadrant flips and the text anchor
formula). Attribute decode is vectorized with one structured-dtype
``np.frombuffer`` over the whole record area.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .mif import assemble_rings  # noqa: F401  (shared layer model)
from .vector import with_geometry

HDR_MAGIC = 42424242

# mitab_priv.h TABGeomType: code -> (kind, compressed)
_OBJ_KINDS = {
    0x01: ("point", True), 0x02: ("point", False),
    0x04: ("line", True), 0x05: ("line", False),
    0x07: ("pline", True), 0x08: ("pline", False),
    0x0A: ("arc", True), 0x0B: ("arc", False),
    0x0D: ("region", True), 0x0E: ("region", False),
    0x10: ("text", True), 0x11: ("text", False),
    0x13: ("rect", True), 0x14: ("rect", False),
    0x16: ("roundrect", True), 0x17: ("roundrect", False),
    0x19: ("ellipse", True), 0x1A: ("ellipse", False),
    0x25: ("multipline", True), 0x26: ("multipline", False),
    0x28: ("fontpoint", True), 0x29: ("fontpoint", False),
    0x2B: ("custompoint", True), 0x2C: ("custompoint", False),
    0x2E: ("region", True), 0x2F: ("region", False),        # V450
    0x31: ("multipline", True), 0x32: ("multipline", False),
    0x34: ("multipoint", True), 0x35: ("multipoint", False),  # V650
    0x37: ("collection", True), 0x38: ("collection", False),
    0x3D: ("region", True), 0x3E: ("region", False),          # V800
    0x40: ("multipline", True), 0x41: ("multipline", False),
    0x43: ("multipoint", True), 0x44: ("multipoint", False),
    0x46: ("collection", True), 0x47: ("collection", False),
}


def _geom_version(code: int) -> int:
    # TAB_GEOM_GET_VERSION (mitab_priv.h:136)
    if code < 0x2E:
        return 300
    if code < 0x34:
        return 450
    if code < 0x3A:
        return 650
    return 800


# MapInfo charset name -> python codec (mitab_imapinfofile.cpp table)
_CHARSETS = {
    "neutral": "latin1", "isolatin1": "latin1",
    "windowslatin1": "cp1252", "windowslatin2": "cp1250",
    "windowsarabic": "cp1256", "windowscyrillic": "cp1251",
    "windowsbalticrim": "cp1257", "windowsgreek": "cp1253",
    "windowshebrew": "cp1255", "windowsturkish": "cp1254",
    "windowstradchinese": "cp950", "windowssimpchinese": "cp936",
    "windowsjapanese": "cp932", "windowskorean": "cp949",
    "codepage437": "cp437", "codepage850": "cp850",
    "codepage852": "cp852", "codepage855": "cp855",
    "codepage857": "cp857", "codepage860": "cp860",
    "codepage861": "cp861", "codepage863": "cp863",
    "codepage864": "cp864", "codepage865": "cp865",
    "codepage869": "cp869", "utf-8": "utf-8",
}


def _sibling(path: str, ext: str) -> str | None:
    base = os.path.splitext(path)[0]
    for e in (ext.lower(), ext.upper()):
        p = base + "." + e
        if os.path.exists(p):
            return p
    return None


# ---------------------------------------------------------------- .tab


def parse_tab_header(path: str) -> dict:
    """The ASCII .tab control file: charset, table type, typed fields."""
    raw = open(path, "rb").read()
    # the file's own !charset line governs its field-name encoding
    charset = "Neutral"
    for ln in raw.splitlines():
        low = ln.strip().lower()
        if low.startswith(b"!charset"):
            charset = ln.split()[1].strip(b'"').decode("ascii", "replace")
            break
    enc = _CHARSETS.get(charset.lower(), "latin1")
    text = raw.decode(enc, "replace")
    lines = [ln.strip() for ln in text.splitlines()]
    out = {"charset": "Neutral", "type": "NATIVE", "fields": []}
    i = 0
    while i < len(lines):
        ln = lines[i]
        low = ln.lower()
        if low.startswith("!charset"):
            out["charset"] = ln.split()[1].strip('"')
        elif low.startswith("type "):
            parts = ln.split()
            out["type"] = parts[1].upper()
            if "charset" in low:
                out["charset"] = ln.split('"')[1]
        elif low.startswith("fields"):
            n = int(ln.split()[1])
            for j in range(n):
                i += 1
                f = lines[i].rstrip(";").strip()
                toks = f.replace("(", " ( ").replace(")", " ) ").split()
                name = toks[0]
                ftype = toks[1].lower()
                width = prec = 0
                if "(" in toks:
                    inner = " ".join(toks[toks.index("(") + 1:
                                          toks.index(")")])
                    nums = [int(v) for v in inner.replace(",", " ").split()]
                    width = nums[0]
                    if len(nums) > 1:
                        prec = nums[1]
                out["fields"].append((name, ftype, width, prec))
        i += 1
    return out


# ---------------------------------------------------------------- .dat

_TYPE_ARROW = {
    "integer": pa.int64(), "smallint": pa.int64(), "largeint": pa.int64(),
    "float": pa.float64(), "decimal": pa.float64(),
    "logical": pa.bool_(),
}


def read_dat(path: str, fields: list, encoding: str) -> dict:
    """Vectorized native .dat decode -> {name: pa.Array}.

    Header: 0x03, y/m/d, numRecords i32, firstRecordPtr i16,
    recordSize i16; then 32-byte field descriptors (name[11], ctype,
    skip4, length u8, decimals u8).  Records are recordSize bytes,
    first byte is the ' '/'*' delete flag (mitab_datfile.cpp).
    """
    raw = open(path, "rb").read()
    num_rec, first_ptr, rec_size = struct.unpack_from("<ihh", raw, 4)
    nfields = first_ptr // 32 - 1
    descs = []
    for i in range(nfields):
        off = 32 * (i + 1)
        name = raw[off:off + 11].split(b"\x00")[0].decode(
            encoding, "replace")
        ctype = chr(raw[off + 11])
        length = raw[off + 16]
        dec = raw[off + 17]
        descs.append((name, ctype, length, dec))

    # logical types and names from the .tab Fields clause (positional);
    # the .dat only knows C/N/L + truncated 11-byte names
    logical = []
    for i, (name, ctype, length, dec) in enumerate(descs):
        if i < len(fields):
            descs[i] = (fields[i][0], ctype, length, dec)
            logical.append(fields[i][1])
        elif ctype == "N":
            logical.append("decimal")
        elif ctype == "L":
            logical.append("logical")
        else:
            logical.append("char")

    np_fields = [("del", "S1")]
    for i, (name, ctype, length, dec) in enumerate(descs):
        lt = logical[i]
        fmt = {"integer": "<i4", "smallint": "<i2", "largeint": "<i8",
               "float": "<f8", "time": "<i4"}.get(lt)
        if fmt is None:
            fmt = f"S{length}"          # char / decimal / logical / dates
        np_fields.append((f"f{i}", fmt))
    dt = np.dtype(np_fields)
    if dt.itemsize != rec_size:
        # fall back to byte-length layout straight from the .dat
        np_fields = [("del", "S1")] + [
            (f"f{i}", f"S{d[2]}") for i, d in enumerate(descs)]
        logical = ["char" if d[1] != "N" else "decimal" for d in descs]
        dt = np.dtype(np_fields)
    end = first_ptr + num_rec * rec_size
    arr = np.frombuffer(raw[first_ptr:end], dtype=dt, count=num_rec)
    deleted = arr["del"] != b" "

    cols: dict[str, pa.Array] = {}
    for i, (name, ctype, length, dec) in enumerate(descs):
        lt = logical[i]
        v = arr[f"f{i}"]
        if lt in ("integer", "smallint", "largeint"):
            vals = v.astype(np.int64)
            vals[deleted] = 0
            cols[name] = pa.array(vals, pa.int64())
        elif lt == "float":
            vals = v.astype(np.float64)
            vals[deleted] = 0.0
            cols[name] = pa.array(vals, pa.float64())
        elif lt == "decimal":
            out = []
            for j in range(num_rec):
                s = v[j].decode("ascii", "replace").strip()
                out.append(float(s) if s and not deleted[j] else None)
            cols[name] = pa.array(out, pa.float64())
        elif lt == "logical":
            cols[name] = pa.array(
                [(not deleted[j]) and v[j] in (b"T", b"t", b"1")
                 for j in range(num_rec)], pa.bool_())
        elif lt == "date":
            out = []
            for j in range(num_rec):
                y, mo, d = struct.unpack("<hBB", v[j].ljust(4, b"\0"))
                out.append(None if deleted[j] or (y == 0 and mo == 0)
                           else f"{y:04d}{mo:02d}{d:02d}")
            cols[name] = pa.array(out, pa.string())
        elif lt == "time":
            out = []
            for j in range(num_rec):
                ms = int(v[j])
                if deleted[j] or ms < 0 or ms > 86400000:
                    out.append(None)
                else:
                    h, rem = divmod(ms, 3600000)
                    mi, rem = divmod(rem, 60000)
                    s, mms = divmod(rem, 1000)
                    out.append(f"{h:02d}{mi:02d}{s:02d}{mms:03d}")
            cols[name] = pa.array(out, pa.string())
        elif lt == "datetime":
            out = []
            for j in range(num_rec):
                y, mo, d, ms = struct.unpack("<hBBi", v[j].ljust(8, b"\0"))
                if deleted[j] or (y == 0 and mo == 0):
                    out.append(None)
                else:
                    h, rem = divmod(ms, 3600000)
                    mi, rem = divmod(rem, 60000)
                    s, mms = divmod(rem, 1000)
                    out.append(f"{y:04d}{mo:02d}{d:02d}"
                               f"{h:02d}{mi:02d}{s:02d}{mms:03d}")
            cols[name] = pa.array(out, pa.string())
        else:                                       # char
            out = []
            for j in range(num_rec):
                s = v[j].rstrip(b"\x00 ").decode(encoding, "replace")
                out.append("" if deleted[j] else s)
            cols[name] = pa.array(out, pa.string())
    return cols


def read_dbf_attrs(path: str, encoding: str) -> dict:
    """dBASE sibling (TABTableDBF): all values as strings; columns with
    the dBASE IV deletion type '0' are hidden (reference
    test_ogr_mitab_read_dbf_with_delete_column)."""
    raw = open(path, "rb").read()
    num_rec, first_ptr, rec_size = struct.unpack_from("<ihh", raw, 4)
    descs = []
    off = 32
    while raw[off] != 0x0D:
        name = raw[off:off + 11].split(b"\x00")[0].decode(encoding,
                                                          "replace")
        ctype = chr(raw[off + 11])
        length = raw[off + 16]
        dec = raw[off + 17]
        descs.append((name, ctype, length, dec))
        off += 32
    cols: dict[str, list] = {d[0]: [] for d in descs if d[1] != "0"}
    for r in range(num_rec):
        base = first_ptr + r * rec_size + 1
        pos = base
        for name, ctype, length, dec in descs:
            cell = raw[pos:pos + length]
            pos += length
            if ctype == "0":
                continue
            s = cell.decode(encoding, "replace").strip()
            cols[name].append(s)
    out = {}
    for name, ctype, length, dec in descs:
        if ctype == "0":
            continue
        vals = cols[name]
        if ctype == "N" and dec == 0:
            out[name] = pa.array(
                [int(v) if v not in ("", None) else None for v in vals],
                pa.int64())
        elif ctype in ("N", "F"):
            out[name] = pa.array(
                [float(v) if v not in ("", None) else None for v in vals],
                pa.float64())
        else:
            out[name] = pa.array(vals, pa.string())
    return out


# ---------------------------------------------------------------- .map


class MapHeader:
    """Header block of the .map file (mitab_mapheaderblock.cpp)."""

    def __init__(self, raw: bytes):
        if struct.unpack_from("<i", raw, 0x100)[0] != HDR_MAGIC:
            raise ValueError("not a MapInfo .map file (bad magic)")
        self.version, self.block_size = struct.unpack_from("<hh", raw,
                                                           0x104)
        (self.coordsys2dist,) = struct.unpack_from("<d", raw, 0x108)
        (self.xmin, self.ymin, self.xmax,
         self.ymax) = struct.unpack_from("<iiii", raw, 0x110)
        (self.first_index_block, self.first_garbage,
         self.first_tool) = struct.unpack_from("<iii", raw, 0x130)
        (self.n_points, self.n_lines, self.n_regions, self.n_texts,
         self.max_coord_buf) = struct.unpack_from("<iiiii", raw, 0x13C)
        (self.dist_units, self.max_depth, self.precision,
         self.quadrant, self.reflect_x) = struct.unpack_from(
            "<BBBBB", raw, 0x15E)
        pos = 0x15E + 12
        (datum_id,) = struct.unpack_from("<h", raw, pos)
        self.datum_id = datum_id if self.version >= 500 else 0
        pos += 2 + 1
        self.proj_id, self.ellipsoid_id, self.units_id = raw[pos:pos + 3]
        pos += 3
        (self.xscale, self.yscale, self.xdispl,
         self.ydispl) = struct.unpack_from("<dddd", raw, pos)
        pos += 32
        self.proj_params = list(struct.unpack_from("<6d", raw, pos))
        pos += 48
        self.datum_shift = list(struct.unpack_from("<3d", raw, pos))
        pos += 24
        self.datum_params = list(struct.unpack_from("<5d", raw, pos))
        if self.version <= 100:
            self.xscale = self.yscale = 10.0 ** self.precision
            self.xdispl = self.ydispl = 0.0
        if self.version <= 200:
            self.datum_params = [0.0] * 5
        self.xprec = 10.0 ** round(math.log10(self.xscale))
        self.yprec = 10.0 ** round(math.log10(self.yscale))

    def int2coord(self, nx, ny):
        """Int2Coordsys with the origin-quadrant sign rules."""
        q = self.quadrant
        if q in (2, 3, 0):
            dx = -1.0 * (np.asarray(nx, np.float64) + self.xdispl) \
                / self.xscale
        else:
            dx = (np.asarray(nx, np.float64) - self.xdispl) / self.xscale
        if q in (3, 4, 0):
            dy = -1.0 * (np.asarray(ny, np.float64) + self.ydispl) \
                / self.yscale
        else:
            dy = (np.asarray(ny, np.float64) - self.ydispl) / self.yscale
        if self.xprec > 0 and self.yprec > 0:
            dx = np.round(dx * self.xprec) / self.xprec
            dy = np.round(dy * self.yprec) / self.yprec
        return dx, dy

    def int2dist(self, nx, ny):
        return nx / self.xscale, ny / self.yscale


class _Cursor:
    """Sequential reader inside one object block (objects never span
    object blocks)."""

    def __init__(self, raw: bytes, pos: int):
        self.raw = raw
        self.pos = pos

    def u8(self):
        v = self.raw[self.pos]
        self.pos += 1
        return v

    def i16(self):
        (v,) = struct.unpack_from("<h", self.raw, self.pos)
        self.pos += 2
        return v

    def i32(self):
        (v,) = struct.unpack_from("<i", self.raw, self.pos)
        self.pos += 4
        return v

    def coord(self, compressed: bool, cx: int, cy: int):
        if compressed:
            return cx + self.i16(), cy + self.i16()
        return self.i32(), self.i32()


class CoordReader:
    """Chained coordinate-block reader (block type 3, 8-byte header
    with numDataBytes + next-block pointer; mitab_mapcoordblock.cpp)."""

    def __init__(self, raw: bytes, block_size: int, file_offset: int):
        self.raw = raw
        self.bs = block_size
        self.org = (0, 0)
        self._load((file_offset // block_size) * block_size)
        self.pos = file_offset

    def _load(self, block_start: int):
        self.start = block_start
        (self.ndata,) = struct.unpack_from("<h", self.raw, block_start + 2)
        (self.next,) = struct.unpack_from("<i", self.raw, block_start + 4)
        self.pos = block_start + 8

    def read(self, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            limit = self.start + 8 + self.ndata
            if self.pos >= limit:
                if self.next <= 0:
                    raise ValueError("coordinate chain exhausted")
                self._load((self.next // self.bs) * self.bs)
                self.pos = self.start + 8
                continue
            take = min(n, limit - self.pos)
            out += self.raw[self.pos:self.pos + take]
            self.pos += take
            n -= take
        return bytes(out)

    def i16(self):
        return struct.unpack("<h", self.read(2))[0]

    def i32(self):
        return struct.unpack("<i", self.read(4))[0]

    def coord(self, compressed: bool):
        if compressed:
            return self.org[0] + self.i16(), self.org[1] + self.i16()
        return self.i32(), self.i32()

    def coords(self, compressed: bool, n: int) -> np.ndarray:
        """n (x, y) pairs as an (n, 2) int64 array."""
        if compressed:
            a = np.frombuffer(self.read(4 * n), "<i2").astype(np.int64)
            a = a.reshape(-1, 2)
            return a + np.array(self.org, np.int64)
        return np.frombuffer(self.read(8 * n), "<i4").astype(
            np.int64).reshape(-1, 2)

    def sec_hdrs(self, compressed: bool, version: int, nsec: int):
        """ReadCoordSecHdrs: per-section numVertices/numHoles/MBR/
        data offset; returns [(numV, numHoles, vertex_offset)]."""
        sec_size = 28 if version >= 450 else 24
        total_hdr = sec_size * nsec
        out = []
        for _ in range(nsec):
            nv = self.i32() if version >= 450 else self.i16()
            nh = self.i32() if version >= 800 else self.i16()
            self.coord(compressed)          # section MBR min
            self.coord(compressed)          # section MBR max
            data_off = self.i32()
            out.append((nv, nh, (data_off - total_hdr) // 8))
        return out


def _generate_arc(cx, cy, rx, ry, a0, a1, num_points):
    """TABGenerateArc (mitab_utils.cpp:46): counterclockwise sweep with
    the final angle appended once more."""
    if a1 < a0:
        a1 += 2.0 * math.pi
    step = (a1 - a0) / (num_points - 1.0)
    ang = a0 + np.arange(num_points) * step
    pts = np.c_[cx + rx * np.cos(ang), cy + ry * np.sin(ang)]
    return np.vstack([pts, pts[-1]])


def _close_ring(pts: np.ndarray) -> np.ndarray:
    if len(pts) and (pts[0] != pts[-1]).any():
        return np.vstack([pts, pts[0]])
    return pts


class MapFile:
    """One .map file; decode_object(offset) -> wkb Geometry or None."""

    def __init__(self, path: str, encoding: str = "latin1"):
        self.raw = open(path, "rb").read()
        self.hdr = MapHeader(self.raw)
        self.encoding = encoding

    def _block_center(self, offset: int):
        start = (offset // self.hdr.block_size) * self.hdr.block_size
        return struct.unpack_from("<ii", self.raw, start + 4)

    def _coord_reader(self, ptr: int, org):
        r = CoordReader(self.raw, self.hdr.block_size, ptr)
        r.org = org
        return r

    def _pts(self, ixy: np.ndarray) -> np.ndarray:
        x, y = self.hdr.int2coord(ixy[:, 0], ixy[:, 1])
        return np.c_[x, y]

    def decode_object(self, offset: int):
        if offset == 0:
            return None
        hdr = self.hdr
        cur = _Cursor(self.raw, offset)
        code = cur.u8()
        cur.i32()                                   # object id echo
        kind_compr = _OBJ_KINDS.get(code)
        if kind_compr is None:
            return None
        kind, compr = kind_compr
        version = _geom_version(code)
        bc = self._block_center(offset) if compr else (0, 0)

        if kind in ("point", "fontpoint", "custompoint"):
            if kind == "fontpoint":
                cur.u8(); cur.u8(); cur.i16()
                cur.u8(); cur.u8(); cur.u8()
                cur.u8(); cur.u8(); cur.u8()
                cur.i16()
            elif kind == "custompoint":
                cur.u8(); cur.u8()
            nx, ny = cur.coord(compr, *bc)
            x, y = hdr.int2coord(nx, ny)
            return W.point(float(x), float(y))

        if kind == "line":
            x1, y1 = cur.coord(compr, *bc)
            x2, y2 = cur.coord(compr, *bc)
            (ax, ay) = hdr.int2coord(x1, y1)
            (bx, by) = hdr.int2coord(x2, y2)
            return W.linestring([(float(ax), float(ay)),
                                 (float(bx), float(by))])

        if kind == "pline":
            ptr = cur.i32()
            size = cur.i32() & 0x7FFFFFFF
            cur.i16()                               # numLineSections == 1
            org = self._read_pline_tail(cur, compr)
            npts = size // (4 if compr else 8)
            rd = self._coord_reader(ptr, org)
            return W.linestring(self._pts(rd.coords(compr, npts)))

        if kind in ("multipline", "region"):
            ptr = cur.i32()
            cur.i32()                               # coordDataSize+smooth
            if version >= 800:
                nsec = cur.i32()
                for _ in range(8):
                    cur.i32()
                cur.u8()
            else:
                nsec = cur.i16()
            org = self._read_pline_tail(cur, compr)
            rd = self._coord_reader(ptr, org)
            return self._sections_geom(rd, compr, version, nsec,
                                       kind == "region")

        if kind in ("rect", "roundrect"):
            if kind == "roundrect":
                cw = cur.i16() if compr else cur.i32()
                ch = cur.i16() if compr else cur.i32()
            nx1, ny1 = cur.coord(compr, *bc)
            nx2, ny2 = cur.coord(compr, *bc)
            ax, ay = hdr.int2coord(nx1, ny1)
            bx, by = hdr.int2coord(nx2, ny2)
            xmin, xmax = min(ax, bx), max(ax, bx)
            ymin, ymax = min(ay, by), max(ay, by)
            if kind == "rect":
                return W.polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax),
                                  (xmin, ymax), (xmin, ymin)])
            rxd, ryd = hdr.int2dist(cw, ch)
            rx, ry = rxd / 2.0, ryd / 2.0           # stored as diameters
            if rx == 0.0 or ry == 0.0:
                return W.polygon([(xmin, ymin), (xmax, ymin), (xmax, ymax),
                                  (xmin, ymax), (xmin, ymin)])
            rx2 = min(rx, (xmax - xmin) / 2.0)
            ry2 = min(ry, (ymax - ymin) / 2.0)
            ring = np.vstack([
                _generate_arc(xmin + rx2, ymin + ry2, rx2, ry2,
                              math.pi, 1.5 * math.pi, 45),
                _generate_arc(xmax - rx2, ymin + ry2, rx2, ry2,
                              1.5 * math.pi, 2.0 * math.pi, 45),
                _generate_arc(xmax - rx2, ymax - ry2, rx2, ry2,
                              0.0, 0.5 * math.pi, 45),
                _generate_arc(xmin + rx2, ymax - ry2, rx2, ry2,
                              0.5 * math.pi, math.pi, 45),
            ])
            return W.polygon(_close_ring(ring))

        if kind == "ellipse":
            nx1, ny1 = cur.coord(compr, *bc)
            nx2, ny2 = cur.coord(compr, *bc)
            ax, ay = hdr.int2coord(nx1, ny1)
            bx, by = hdr.int2coord(nx2, ny2)
            cx, cy = (ax + bx) / 2.0, (ay + by) / 2.0
            rx, ry = abs(bx - ax) / 2.0, abs(by - ay) / 2.0
            ring = _generate_arc(cx, cy, rx, ry, 0.0, 2.0 * math.pi, 180)
            return W.polygon(_close_ring(ring))

        if kind == "arc":
            v1 = cur.i16()
            v2 = cur.i16()
            ex1, ey1 = cur.coord(compr, *bc)
            ex2, ey2 = cur.coord(compr, *bc)
            # arc angles: quadrant order + X/Y flips (mitab_feature.cpp
            # TABArc::ReadGeometryFromMAPFile)
            q = hdr.quadrant
            if q in (1, 3, 0):
                a0, a1 = v1 / 10.0, v2 / 10.0
            else:
                a0, a1 = v2 / 10.0, v1 / 10.0
            if q in (2, 3, 0):
                a0 = (180.0 - a0) if a0 <= 180.0 else (540.0 - a0)
                a1 = (180.0 - a1) if a1 <= 180.0 else (540.0 - a1)
            if q in (3, 4, 0):
                a0, a1 = 360.0 - a0, 360.0 - a1
            ax, ay = hdr.int2coord(ex1, ey1)
            bx, by = hdr.int2coord(ex2, ey2)
            cx, cy = (ax + bx) / 2.0, (ay + by) / 2.0
            rx, ry = abs(bx - ax) / 2.0, abs(by - ay) / 2.0
            if a1 < a0:
                npts = max(2, int(abs(((a1 + 360.0) - a0) / 2.0) + 1))
            else:
                npts = max(2, int(abs((a1 - a0) / 2.0) + 1))
            pts = _generate_arc(cx, cy, rx, ry, math.radians(a0),
                                math.radians(a1), npts)
            return W.linestring(pts)

        if kind == "text":
            ptr = cur.i32()
            slen = cur.i16()
            cur.i16()                               # alignment
            angle = cur.i16() / 10.0
            cur.i16()                               # font style
            for _ in range(6):
                cur.u8()                            # fg/bg rgb
            cur.coord(compr, *bc)                   # label line end
            h_int = cur.i16() if compr else cur.i32()
            cur.u8()                                # font id
            n1x, n1y = cur.coord(compr, *bc)
            n2x, n2y = cur.coord(compr, *bc)
            ax, ay = hdr.int2coord(n1x, n1y)
            bx, by = hdr.int2coord(n2x, n2y)
            xmin, xmax = min(ax, bx), max(ax, bx)
            ymin, ymax = min(ay, by), max(ay, by)
            _, height = hdr.int2dist(0, h_int)
            dsin = math.sin(math.radians(angle))
            dcos = math.cos(math.radians(angle))
            if dsin > 0.0 and dcos > 0.0:
                x, y = xmin + height * dsin, ymin
            elif dsin > 0.0 and dcos < 0.0:
                x, y = xmax, ymin - height * dcos
            elif dsin < 0.0 and dcos < 0.0:
                x, y = xmax + height * dsin, ymax
            else:
                x, y = xmin, ymax - height * dcos
            g = W.point(x, y)
            if slen > 0:
                rd = CoordReader(self.raw, hdr.block_size, ptr)
                g.text = rd.read(slen).decode(self.encoding, "replace")
            return g

        if kind == "multipoint":
            ptr = cur.i32()
            npts = cur.i32()
            cur.i32(); cur.i32(); cur.i32()
            cur.u8(); cur.u8(); cur.u8()
            if version >= 800:
                for _ in range(8):
                    cur.i32()
                cur.u8()
            cur.u8()                                # symbol id
            cur.u8()
            org = self._read_pline_tail(cur, compr)
            rd = self._coord_reader(ptr, org)
            return W.multipoint(self._pts(rd.coords(compr, npts)))

        if kind == "collection":
            ptr = cur.i32()
            n_mpoints = cur.i32()
            cur.i32()                               # region data size
            cur.i32()                               # pline data size
            if version >= 800:
                n_reg = cur.i32()
                n_pline = cur.i32()
            else:
                n_reg = cur.i16()
                n_pline = cur.i16()
            if version >= 800:
                cur.u8()
            cur.i32(); cur.i32(); cur.i32()
            cur.u8(); cur.u8(); cur.u8()
            cur.u8()                                # mpoint symbol
            cur.u8(); cur.u8(); cur.u8(); cur.u8()  # pen/brush ids
            if compr:
                orgx = cur.i32()
                orgy = cur.i32()
                org = (orgx, orgy)
            else:
                org = (0, 0)
            rd = self._coord_reader(ptr, org)
            parts = []
            if n_reg > 0:
                if version >= 800:
                    rd.i32()
                self._skip_mini_hdr(rd, compr)
                parts.append(self._sections_geom(
                    rd, compr, max(version, 450), n_reg, True))
            if n_pline > 0:
                if version >= 800:
                    rd.i32()
                self._skip_mini_hdr(rd, compr)
                parts.append(self._sections_geom(
                    rd, compr, max(version, 450), n_pline, False))
            if n_mpoints > 0:
                self._skip_mini_hdr(rd, compr)
                parts.append(W.multipoint(
                    self._pts(rd.coords(compr, n_mpoints))))
            return W.collection(parts)

        return None

    # -- helpers ------------------------------------------------------

    def _read_pline_tail(self, cur: _Cursor, compr: bool):
        """Label point, compressed origin and MBR that close a PLINE/
        REGION/MULTIPOINT object record; returns the compressed coord
        origin for the object's coordinate data."""
        if compr:
            cur.i16(); cur.i16()                    # label (rel to org)
            orgx = cur.i32()
            orgy = cur.i32()
            cur.i16(); cur.i16(); cur.i16(); cur.i16()   # MBR
            return (orgx, orgy)
        cur.i32(); cur.i32()                        # label
        xmin = cur.i32()
        ymin = cur.i32()
        xmax = cur.i32()
        ymax = cur.i32()
        return ((xmin + xmax) // 2, (ymin + ymax) // 2)

    def _skip_mini_hdr(self, rd: CoordReader, compr: bool):
        """Collection mini-header: label point + MBR (6 ints)."""
        for _ in range(3):
            rd.coord(compr)

    def _sections_geom(self, rd: CoordReader, compr: bool, version: int,
                       nsec: int, is_region: bool):
        hdrs = rd.sec_hdrs(compr, version, nsec)
        total = sum(h[0] for h in hdrs)
        ixy = rd.coords(compr, total)
        pts = self._pts(ixy)
        rings = []
        off = 0
        for nv, nh, voff in hdrs:
            rings.append(pts[voff:voff + nv])
            off += nv
        if not is_region:
            if len(rings) == 1:
                return W.linestring(rings[0])
            return W.Geometry(W.MULTILINESTRING,
                              parts=[W.linestring(r) for r in rings])
        # group rings into polygons via the per-section hole counts
        polys = []
        i = 0
        while i < len(rings):
            nh = hdrs[i][1]
            shell = _close_ring(rings[i])
            holes = [_close_ring(rings[j])
                     for j in range(i + 1, min(i + 1 + nh, len(rings)))]
            polys.append(W.polygon(shell, holes))
            i += 1 + nh
        if len(polys) == 1:
            return polys[0]
        return W.Geometry(W.MULTIPOLYGON, parts=polys)


# MapInfo projection ids -> proj-string skeletons for the common cases
# (mitab_coordsys.cpp / the published MapInfo PROJECTION numbers).
def _num(v: float) -> str:
    s = f"{v:.10f}".rstrip("0").rstrip(".")
    return s if s else "0"


# MapInfo spheroid id -> proj ellps (ogrmitabspatialref.cpp
# asSpheroidInfoList; ids are MapInfo's, values the proj aliases)
_ELLIPS = {0: "GRS80", 28: "WGS84", 7: "clrk66", 4: "intl", 5: "intl",
           9: "airy", 10: "bessel", 6: "clrk80", 3: "krass",
           2: "aust_SA", 12: "sphere", 21: "GRS67"}


def coordsys_proj4(h: MapHeader) -> str | None:
    p = h.proj_params
    ell = "+ellps=" + _ELLIPS.get(h.ellipsoid_id, "WGS84")
    datum = ""
    if h.datum_shift != [0.0, 0.0, 0.0] or any(h.datum_params):
        vals = h.datum_shift + h.datum_params[:4]
        datum = " +towgs84=" + ",".join(_num(v) for v in vals[:7])
    elif h.datum_id in (33, 104, 112, 74):   # GRS80/WGS84 family
        datum = " +towgs84=0,0,0,0,0,0,0"
    if h.proj_id == 1:
        return f"+proj=longlat {ell}{datum} +no_defs"
    if h.proj_id == 3:       # Lambert Conformal Conic (2SP; parallels
        sp = sorted((p[2], p[3]), reverse=True)  # are interchangeable)
        return (f"+proj=lcc +lat_0={_num(p[1])} +lon_0={_num(p[0])} "
                f"+lat_1={_num(sp[0])} +lat_2={_num(sp[1])} "
                f"+x_0={_num(p[4])} +y_0={_num(p[5])} {ell}{datum} "
                f"+units=m +no_defs")
    if h.proj_id == 8:       # Transverse Mercator
        return (f"+proj=tmerc +lat_0={_num(p[1])} +lon_0={_num(p[0])} "
                f"+k={_num(p[2])} +x_0={_num(p[3])} +y_0={_num(p[4])} "
                f"{ell}{datum} +units=m +no_defs")
    return None


# ---------------------------------------------------------------- layer


def read_tab_table(path: str) -> pa.Table:
    """MapInfo TAB trio -> Arrow layer table (fid, fields..., wkb,
    envelope), matching read_mif_table's layout."""
    meta = parse_tab_header(path)
    enc = _CHARSETS.get(meta["charset"].lower(), "latin1")

    dat = _sibling(path, "dat")
    dbf = _sibling(path, "dbf")
    if dat is not None:
        cols = read_dat(dat, meta["fields"], enc)
    elif dbf is not None:
        cols = read_dbf_attrs(dbf, enc)
    else:
        raise ValueError(f"{path}: no .dat/.dbf attribute file")
    nrec = len(next(iter(cols.values()))) if cols else 0

    geoms: list[W.Geometry | None] = [None] * nrec
    texts: list[str | None] = [None] * nrec
    mapf = None
    map_path = _sibling(path, "map")
    id_path = _sibling(path, "id")
    if map_path is not None and id_path is not None:
        mapf = MapFile(map_path, enc)
        offsets = np.frombuffer(open(id_path, "rb").read(), "<i4")
        nrec = max(nrec, len(offsets)) if not cols else nrec
        for i in range(min(nrec, len(offsets))):
            g = mapf.decode_object(int(offsets[i]))
            geoms[i] = g
            if g is not None and getattr(g, "text", None) is not None:
                texts[i] = g.text

    out_cols = {"fid": pa.array(range(nrec), pa.int64())}
    out_cols.update(cols)
    t = with_geometry(pa.table(out_cols), geoms)
    md = {b"mitab_charset": meta["charset"].encode()}
    if mapf is not None:
        pj = coordsys_proj4(mapf.hdr)
        if pj:
            md[b"proj4"] = pj.encode()
        md[b"mitab_projection"] = (
            f"{mapf.hdr.proj_id},{mapf.hdr.ellipsoid_id},"
            f"{mapf.hdr.units_id}," +
            ",".join(f"{v:g}" for v in mapf.hdr.proj_params)).encode()
    if any(v is not None for v in texts):
        t = t.append_column("mitab_text", pa.array(texts, pa.string()))
    return t.replace_schema_metadata(md)
