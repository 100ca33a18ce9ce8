"""FlatGeobuf vector driver — pure-python reader/writer, no flatbuffers
dependency.

Format (reference: ogr/ogrsf_frmts/flatgeobuf/, upstream spec
https://flatgeobuf.org):

    magic(8) = 66 67 62 03 66 67 62 XX   ('fgb', major=3, 'fgb', patch)
    uint32 header_size | header flatbuffer (Header table)
    [ packed Hilbert R-tree index  — node = 4×f64 bbox + u64 offset ]
    features: repeat( uint32 size | Feature flatbuffer )

Flatbuffer field ids follow the reference's generated headers
(header_generated.h:521-534, feature_generated.h:32-39,221-223); the
packed R-tree layout and search follow packedrtree.h:78-150 /
packedrtree.cpp:218-252,360-405 (root-first level order, leaf node
``offset`` = feature byte offset, internal ``offset`` = child index).

The reader decodes into the engine's standard layer table
(fid, wkb, minx/miny/maxx/maxy, attributes); ``bbox=`` uses the packed
R-tree to touch only intersecting features. The writer emits a spec-
conformant file WITHOUT an index (index_node_size=0 — the spec's
unindexed variant, what GDAL writes with SPATIAL_INDEX=NO), which every
conformant reader accepts.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, attribute_names, with_geometry

MAGIC = b"fgb\x03fgb"

# GeometryType enum (header_generated.h:29-46) — matches ISO WKB codes
_GT_UNKNOWN = 0

# ColumnType enum (header_generated.h:107-125)
_COL_PA = {0: pa.int8(), 1: pa.uint8(), 2: pa.bool_(), 3: pa.int16(),
           4: pa.uint16(), 5: pa.int32(), 6: pa.uint32(), 7: pa.int64(),
           8: pa.uint64(), 9: pa.float32(), 10: pa.float64(),
           11: pa.string(), 12: pa.string(), 13: pa.string(),
           14: pa.binary()}
_COL_FMT = {0: ("b", 1), 1: ("B", 1), 2: ("?", 1), 3: ("h", 2),
            4: ("H", 2), 5: ("i", 4), 6: ("I", 4), 7: ("q", 8),
            8: ("Q", 8), 9: ("f", 4), 10: ("d", 8)}


# ---------------------------------------------------------------------------
# minimal flatbuffer table walker
# ---------------------------------------------------------------------------

class _Tbl:
    """Read-only accessor for one flatbuffer table at ``pos``."""

    __slots__ = ("buf", "pos", "vt", "vt_len")

    def __init__(self, buf: memoryview, pos: int):
        self.buf = buf
        self.pos = pos
        (soff,) = struct.unpack_from("<i", buf, pos)
        self.vt = pos - soff
        (self.vt_len,) = struct.unpack_from("<H", buf, self.vt)

    def _foff(self, vt_off: int) -> int:
        """vtable slot (4, 6, 8, …) → field offset in table, 0 if absent."""
        if vt_off >= self.vt_len:
            return 0
        (o,) = struct.unpack_from("<H", self.buf, self.vt + vt_off)
        return o

    def scalar(self, vt_off: int, fmt: str, default):
        o = self._foff(vt_off)
        if not o:
            return default
        return struct.unpack_from("<" + fmt, self.buf, self.pos + o)[0]

    def _indirect(self, vt_off: int) -> int:
        """uoffset field → absolute position of the target, or -1."""
        o = self._foff(vt_off)
        if not o:
            return -1
        (u,) = struct.unpack_from("<I", self.buf, self.pos + o)
        return self.pos + o + u

    def string(self, vt_off: int) -> str | None:
        t = self._indirect(vt_off)
        if t < 0:
            return None
        (n,) = struct.unpack_from("<I", self.buf, t)
        return bytes(self.buf[t + 4:t + 4 + n]).decode("utf-8")

    def vec_scalar(self, vt_off: int, dtype) -> np.ndarray | None:
        t = self._indirect(vt_off)
        if t < 0:
            return None
        (n,) = struct.unpack_from("<I", self.buf, t)
        return np.frombuffer(self.buf, dtype=dtype, count=n, offset=t + 4)

    def vec_bytes(self, vt_off: int) -> memoryview | None:
        t = self._indirect(vt_off)
        if t < 0:
            return None
        (n,) = struct.unpack_from("<I", self.buf, t)
        return self.buf[t + 4:t + 4 + n]

    def vec_tables(self, vt_off: int) -> list["_Tbl"]:
        t = self._indirect(vt_off)
        if t < 0:
            return []
        (n,) = struct.unpack_from("<I", self.buf, t)
        out = []
        for i in range(n):
            p = t + 4 + 4 * i
            (u,) = struct.unpack_from("<I", self.buf, p)
            out.append(_Tbl(self.buf, p + u))
        return out

    def table(self, vt_off: int) -> "_Tbl | None":
        t = self._indirect(vt_off)
        return None if t < 0 else _Tbl(self.buf, t)


def _root(buf: memoryview, base: int) -> _Tbl:
    (u,) = struct.unpack_from("<I", buf, base)
    return _Tbl(buf, base + u)


# ---------------------------------------------------------------------------
# geometry decode (feature_generated.h:32-39) → core.wkb Geometry
# ---------------------------------------------------------------------------

# implied child type when a part omits its own (GDAL reader behavior)
_CHILD_TYPE = {W.MULTIPOLYGON: W.POLYGON, W.MULTILINESTRING: W.LINESTRING,
               W.COMPOUNDCURVE: W.LINESTRING, W.MULTICURVE: W.LINESTRING,
               W.MULTISURFACE: W.POLYGON, W.POLYHEDRALSURFACE: W.POLYGON,
               W.TIN: W.TRIANGLE}


def _split(xy: np.ndarray, ends: np.ndarray | None) -> list[np.ndarray]:
    pts = xy.reshape(-1, 2).astype(np.float64)
    if ends is None or len(ends) == 0:
        return [pts]
    out, start = [], 0
    for e in ends:
        out.append(pts[start:int(e)])
        start = int(e)
    return out


def _decode_geom(g: _Tbl, gtype: int) -> W.Geometry:
    t = g.scalar(16, "B", 0) or gtype          # VT_TYPE=16
    xy = g.vec_scalar(6, "<f8")                # VT_XY=6
    ends = g.vec_scalar(4, "<u4")              # VT_ENDS=4
    parts = g.vec_tables(18)                   # VT_PARTS=18

    if parts:
        child = _CHILD_TYPE.get(t, _GT_UNKNOWN)
        sub = [_decode_geom(p, child) for p in parts]
        if t == W.COMPOUNDCURVE:
            segs = [s.coords for s in sub if s.coords is not None and len(s.coords)]
            chain = [segs[0]] if segs else []
            for s in segs[1:]:
                drop = 1 if np.allclose(s[0], chain[-1][-1]) else 0
                chain.append(s[drop:])
            return W.Geometry(W.LINESTRING, coords=np.vstack(chain)
                              if chain else np.empty((0, 2)))
        if t in (W.MULTISURFACE, W.POLYHEDRALSURFACE, W.TIN):
            return W.Geometry(W.MULTIPOLYGON, parts=sub)
        if t == W.MULTICURVE:
            return W.Geometry(W.MULTILINESTRING, parts=sub)
        if t == W.CURVEPOLYGON:
            rings = [W._close_ring(s.coords) for s in sub
                     if s.coords is not None and len(s.coords)]
            return W.Geometry(W.POLYGON, rings=rings)
        return W.Geometry(t if t in (W.MULTIPOLYGON, W.MULTILINESTRING,
                                     W.GEOMETRYCOLLECTION) else
                          W.GEOMETRYCOLLECTION, parts=sub)

    if xy is None:
        xy = np.empty(0, np.float64)
    pts = xy.reshape(-1, 2).astype(np.float64)
    if t == W.POINT:
        return W.Geometry(W.POINT, coords=pts[:1])
    if t == W.MULTIPOINT:
        return W.Geometry(W.MULTIPOINT,
                          parts=[W.point(x, y) for x, y in pts])
    if t == W.LINESTRING:
        return W.Geometry(W.LINESTRING, coords=pts)
    if t == W.CIRCULARSTRING:
        return W.Geometry(W.LINESTRING, coords=W._linearize_arcs(pts))
    if t in (W.POLYGON, W.TRIANGLE):
        return W.Geometry(W.POLYGON, rings=_split(xy, ends))
    if t == W.MULTILINESTRING:
        # ends split parts; a single part may omit ends (gdal #10774)
        return W.Geometry(W.MULTILINESTRING,
                          parts=[W.Geometry(W.LINESTRING, coords=c)
                                 for c in _split(xy, ends)])
    if t == W.MULTIPOLYGON:
        # without parts: one polygon, ends are its rings
        return W.Geometry(W.MULTIPOLYGON,
                          parts=[W.Geometry(W.POLYGON, rings=_split(xy, ends))])
    raise ValueError(f"unsupported FlatGeobuf geometry type {t}")


# ---------------------------------------------------------------------------
# packed Hilbert R-tree (packedrtree.cpp:218-252, 360-405)
# ---------------------------------------------------------------------------

def _level_bounds(num_items: int, node_size: int):
    level_num = [num_items]
    n, total = num_items, num_items
    while True:                        # do-while (packedrtree.cpp:235-240):
        n = (n + node_size - 1) // node_size   # even 1 item gets a root
        total += n
        level_num.append(n)
        if n == 1:
            break
    offs, n = [], total
    for sz in level_num:
        n -= sz
        offs.append(n)
    return [(offs[i], offs[i] + level_num[i]) for i in range(len(level_num))], total


def rtree_size(num_items: int, node_size: int = 16) -> int:
    _, total = _level_bounds(num_items, node_size)
    return total * 40


_HILBERT_MAX = (1 << 16) - 1


def _hilbert_u32(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized 16-bit Hilbert d-index (packedrtree.cpp:74-129, the
    rawrunprotected/hilbert_curves public-domain routine)."""
    x = x.astype(np.uint32)
    y = y.astype(np.uint32)
    FFFF = np.uint32(0xFFFF)
    a = x ^ y
    b = FFFF ^ a
    c = FFFF ^ (x | y)
    d = x & (y ^ FFFF)
    A = a | (b >> 1)
    B = (a >> 1) ^ a
    C = ((c >> 1) ^ (b & (d >> 1))) ^ c
    D = ((a & (c >> 1)) ^ (d >> 1)) ^ d
    a, b, c, d = A, B, C, D
    A = (a & (a >> 2)) ^ (b & (b >> 2))
    B = (a & (b >> 2)) ^ (b & ((a ^ b) >> 2))
    C = c ^ ((a & (c >> 2)) ^ (b & (d >> 2)))
    D = d ^ ((b & (c >> 2)) ^ ((a ^ b) & (d >> 2)))
    a, b, c, d = A, B, C, D
    A = (a & (a >> 4)) ^ (b & (b >> 4))
    B = (a & (b >> 4)) ^ (b & ((a ^ b) >> 4))
    C = c ^ ((a & (c >> 4)) ^ (b & (d >> 4)))
    D = d ^ ((b & (c >> 4)) ^ ((a ^ b) & (d >> 4)))
    a, b, c, d = A, B, C, D
    C = c ^ ((a & (c >> 8)) ^ (b & (d >> 8)))
    D = d ^ ((b & (c >> 8)) ^ ((a ^ b) & (d >> 8)))
    a = C ^ (C >> 1)
    b = D ^ (D >> 1)
    i0 = x ^ y
    i1 = b | (FFFF ^ (i0 | a))
    for sh, m in ((8, 0x00FF00FF), (4, 0x0F0F0F0F),
                  (2, 0x33333333), (1, 0x55555555)):
        i0 = (i0 | (i0 << np.uint32(sh))) & np.uint32(m)
        i1 = (i1 | (i1 << np.uint32(sh))) & np.uint32(m)
    return (i1 << np.uint32(1)) | i0


def _build_rtree(envs: np.ndarray, feat_offsets: np.ndarray,
                 node_size: int = 16) -> bytes:
    """Leaf envelopes (already Hilbert-ordered) + feature byte offsets →
    packed node array bytes (root-first; packedrtree.cpp:253-267)."""
    n = len(envs)
    bounds, num_nodes = _level_bounds(n, node_size)
    nodes = [(np.inf, np.inf, -np.inf, -np.inf, 0)] * num_nodes
    leaf0 = num_nodes - n
    for i in range(n):
        e = envs[i]
        nodes[leaf0 + i] = (float(e[0]), float(e[1]), float(e[2]),
                            float(e[3]), int(feat_offsets[i]))
    for lvl in range(len(bounds) - 1):
        pos, end = bounds[lvl]
        newpos = bounds[lvl + 1][0]
        while pos < end:
            first = pos
            mnx = mny = np.inf
            mxx = mxy = -np.inf
            for _ in range(node_size):
                if pos >= end:
                    break
                c = nodes[pos]
                mnx, mny = min(mnx, c[0]), min(mny, c[1])
                mxx, mxy = max(mxx, c[2]), max(mxy, c[3])
                pos += 1
            nodes[newpos] = (mnx, mny, mxx, mxy, first)
            newpos += 1
    return b"".join(struct.pack("<4dQ", *nd) for nd in nodes)


def _rtree_search(nodes: np.ndarray, num_items: int, node_size: int,
                  bbox) -> list[int]:
    """→ [(feature byte offset, file ordinal)] ascending by offset.
    The ordinal is the hit's position among the leaf items — packed
    Hilbert R-tree leaves are in feature-write order, so it equals the
    fid a full sequential read assigns (bbox and full reads agree)."""
    bounds, num_nodes = _level_bounds(num_items, node_size)
    minx, miny, maxx, maxy = bbox
    queue = [(0, len(bounds) - 1)]
    hits = []
    leaf0 = num_nodes - num_items
    while queue:
        node_index, level = queue.pop()
        end = min(node_index + node_size, bounds[level][1])
        is_leaf = node_index >= leaf0
        for pos in range(node_index, end):
            nminx, nminy, nmaxx, nmaxy = nodes[pos, :4]
            if nmaxx < minx or nmaxy < miny or nminx > maxx or nminy > maxy:
                continue
            off = int(nodes[pos, 4].view(np.uint64)) \
                if nodes.dtype == np.float64 else int(nodes[pos, 4])
            if is_leaf:
                hits.append((off, pos - leaf0))
            else:
                queue.append((off, level - 1))
    return sorted(hits)


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

def read_fgb(path: str, bbox=None) -> pa.Table:
    """FlatGeobuf file → standard layer table (fid, wkb,
    minx/miny/maxx/maxy, attributes). ``bbox=(minx, miny, maxx, maxy)``
    prunes via the packed R-tree — only intersecting features decode."""
    data = open(path, "rb").read() if isinstance(path, str) else path
    mv = memoryview(data)
    if bytes(mv[:7]) != MAGIC[:7]:
        raise ValueError("not a FlatGeobuf file (bad magic)")
    (hsize,) = struct.unpack_from("<I", mv, 8)
    hdr = _root(mv, 12)
    geom_type = hdr.scalar(8, "B", 0)              # VT_GEOMETRY_TYPE
    n_feat = hdr.scalar(20, "Q", 0)                # VT_FEATURES_COUNT
    node_size = hdr.scalar(22, "H", 16)            # VT_INDEX_NODE_SIZE
    cols = []
    for c in hdr.vec_tables(18):                   # VT_COLUMNS
        cols.append((c.string(4), c.scalar(6, "B", 0)))

    feat0 = 12 + hsize
    offsets = None
    if node_size >= 2 and n_feat > 0:
        isz = rtree_size(n_feat, node_size)
        if bbox is not None:
            nodes = np.frombuffer(mv, dtype="<f8",
                                  count=isz // 8, offset=feat0).reshape(-1, 5)
            offsets = _rtree_search(nodes, n_feat, node_size, bbox)
        feat0 += isz

    fids, geoms = [], []
    attrs: dict[str, list] = {name: [] for name, _ in cols}

    def decode_feature(pos: int, fid: int):
        (fsize,) = struct.unpack_from("<I", mv, pos)
        f = _root(mv, pos + 4)
        gt = f.table(4)                            # VT_GEOMETRY
        geoms.append(_decode_geom(gt, geom_type) if gt is not None
                     else None)
        props = f.vec_bytes(6)                     # VT_PROPERTIES
        seen = set()
        if props is not None and len(props):
            p, n = 0, len(props)
            while p + 2 <= n:
                (ci,) = struct.unpack_from("<H", props, p)
                p += 2
                name, ctype = cols[ci]
                if ctype in _COL_FMT:
                    fmt, w = _COL_FMT[ctype]
                    (v,) = struct.unpack_from("<" + fmt, props, p)
                    p += w
                else:                              # length-prefixed
                    (ln,) = struct.unpack_from("<I", props, p)
                    p += 4
                    raw = bytes(props[p:p + ln])
                    v = raw if ctype == 14 else raw.decode("utf-8")
                    p += ln
                attrs[name].append(v)
                seen.add(name)
        for name, _ in cols:
            if name not in seen:
                attrs[name].append(None)
        fids.append(fid)
        return pos + 4 + fsize

    if offsets is not None:
        for off, ordinal in offsets:
            decode_feature(feat0 + off, ordinal)
    else:
        pos, fid = feat0, 0
        while pos + 4 <= len(mv) and (n_feat == 0 or fid < n_feat):
            pos = decode_feature(pos, fid)
            fid += 1

    t = with_geometry(pa.table({"fid": pa.array(fids, pa.int64())}), geoms)
    for (name, ctype), key in zip(cols,
                                  attribute_names(n for n, _ in cols)):
        t = t.append_column(key, pa.array(attrs[name], _COL_PA[ctype]))
    return t


def fgb_crs(path: str) -> dict:
    """CRS record of the file (header_generated.h:380-385):
    {org, code, name, wkt} — any field may be None/0."""
    data = open(path, "rb").read()
    mv = memoryview(data)
    hdr = _root(mv, 12)
    crs = hdr.table(24)                            # VT_CRS
    if crs is None:
        return {"org": None, "code": 0, "name": None, "wkt": None}
    return {"org": crs.string(4), "code": crs.scalar(6, "i", 0),
            "name": crs.string(8), "wkt": crs.string(12)}


# ---------------------------------------------------------------------------
# writer (unindexed variant: index_node_size=0)
# ---------------------------------------------------------------------------

class _Builder:
    """Tiny single-table flatbuffer emitter: one vtable, the table, then
    its out-of-line data, in one contiguous blob prefixed by the root
    uoffset. Alignment is by 8-byte padding of the data region."""

    def __init__(self):
        self.fields: list[tuple[int, bytes, bool]] = []  # (id, payload, is_ref)

    def scalar(self, fid: int, fmt: str, v):
        self.fields.append((fid, struct.pack("<" + fmt, v), False))

    def ref(self, fid: int, blob: bytes):
        """Out-of-line payload (string/vector/table), already encoded."""
        self.fields.append((fid, blob, True))

    @staticmethod
    def strbuf(s: str) -> bytes:
        b = s.encode("utf-8")
        return struct.pack("<I", len(b)) + b + b"\x00"

    @staticmethod
    def vecbuf(arr: np.ndarray) -> bytes:
        a = np.ascontiguousarray(arr)
        return struct.pack("<I", len(a)) + a.tobytes()

    @staticmethod
    def vec_of_tables(blobs: list[bytes]) -> bytes:
        """Each blob is a self-contained [vtable][table][data] chunk with
        the TABLE at a known offset (returned by table_blob)."""
        # layout: u32 count | count × u32 uoffset | blobs...
        head = struct.pack("<I", len(blobs))
        offs, cur = [], 4 + 4 * len(blobs)
        for i, (blob, tbl_off) in enumerate(blobs):
            offs.append(cur + tbl_off - (4 + 4 * i))
            cur += len(blob)
        return head + b"".join(struct.pack("<I", o) for o in offs) \
            + b"".join(b for b, _ in blobs)

    def table_blob(self) -> tuple[bytes, int]:
        """→ (blob, table_offset_within_blob)."""
        max_id = max((f for f, _, _ in self.fields), default=-1)
        n_slots = max_id + 1
        vt_len = 4 + 2 * n_slots
        # table: 4-byte soffset, then inline fields in id order
        inline: list[tuple[int, bytes]] = []
        tpos = 4
        slot_off = [0] * n_slots
        for fid, payload, is_ref in sorted(self.fields):
            size = 4 if is_ref else len(payload)
            # align scalars to their own size
            if not is_ref and size in (2, 4, 8) and tpos % size:
                pad = size - tpos % size
                inline.append((-1, b"\x00" * pad))
                tpos += pad
            slot_off[fid] = tpos
            inline.append((fid, payload if not is_ref else b"REF4"))
            tpos += size
        tbl_size = tpos
        vt = struct.pack("<HH", vt_len, tbl_size) \
            + b"".join(struct.pack("<H", o) for o in slot_off)
        tbl_off = len(vt)
        # assemble: vtable | table | data region
        out = bytearray(vt)
        out += struct.pack("<i", tbl_off)              # soffset → vtable at 0
        body = bytearray()
        refpos: list[tuple[int, int]] = []             # (field pos, data idx)
        data: list[bytes] = []
        pos = 4
        for fid, payload in inline:
            if payload == b"REF4" and fid >= 0:
                blob = next(p for f, p, r in self.fields if f == fid and r)
                refpos.append((pos, len(data)))
                data.append(blob)
                body += b"\x00\x00\x00\x00"
            else:
                body += payload
            pos += 4 if payload == b"REF4" else len(payload)
        out += body
        # data region, 8-aligned
        dstarts = []
        for blob in data:
            while len(out) % 8:
                out += b"\x00"
            dstarts.append(len(out))
            out += blob
        for (fpos, didx) in refpos:
            abs_field = tbl_off + fpos
            struct.pack_into("<I", out, abs_field, dstarts[didx] - abs_field)
        return bytes(out), tbl_off


def _finish(blob_tbl: tuple[bytes, int]) -> bytes:
    blob, tbl_off = blob_tbl
    return struct.pack("<I", 4 + tbl_off) + blob


def _encode_geom(g: W.Geometry) -> tuple[bytes, int]:
    b = _Builder()
    t = g.geom_type
    if t == W.POINT:
        b.ref(1, _Builder.vecbuf(g.coords.astype("<f8").ravel()))
    elif t == W.LINESTRING:
        b.ref(1, _Builder.vecbuf(g.coords.astype("<f8").ravel()))
    elif t == W.POLYGON:
        xy = np.vstack(g.rings) if g.rings else np.empty((0, 2))
        b.ref(1, _Builder.vecbuf(xy.astype("<f8").ravel()))
        if len(g.rings) > 1:
            ends = np.cumsum([len(r) for r in g.rings]).astype("<u4")
            b.ref(0, _Builder.vecbuf(ends))
    elif t == W.MULTIPOINT:
        xy = np.vstack([p.coords for p in g.parts]) if g.parts \
            else np.empty((0, 2))
        b.ref(1, _Builder.vecbuf(xy.astype("<f8").ravel()))
    elif t == W.MULTILINESTRING:
        xy = np.vstack([p.coords for p in g.parts]) if g.parts \
            else np.empty((0, 2))
        b.ref(1, _Builder.vecbuf(xy.astype("<f8").ravel()))
        if len(g.parts) > 1:
            ends = np.cumsum([len(p.coords) for p in g.parts]).astype("<u4")
            b.ref(0, _Builder.vecbuf(ends))
    elif t in (W.MULTIPOLYGON, W.GEOMETRYCOLLECTION):
        parts = [_encode_geom(p) for p in g.parts]
        b.ref(7, _Builder.vec_of_tables(parts))        # VT_PARTS=18 → id 7
    else:
        raise ValueError(f"cannot encode geometry type {t}")
    b.scalar(6, "B", t)                                # VT_TYPE (id 6)
    return b.table_blob()


def write_fgb(table: pa.Table, path: str, *, name: str = "layer",
              crs_code: int = 0,
              index: bool = True, node_size: int = 16) -> int:
    """Standard layer table → FlatGeobuf file. With ``index=True``
    (default, matching the reference driver) features are Hilbert-sorted
    and a packed R-tree is written between header and features; the
    unindexed variant (index_node_size=0) otherwise. Attribute columns
    are every column except the geometry / fid / envelope ones."""
    skip = {"wkb", "fid", *ENVELOPE}
    attr_cols = [(n, _pa_coltype(table.schema.field(n).type))
                 for n in table.column_names if n not in skip]

    wkbs = table["wkb"].to_pylist()
    geoms = [W.loads(x) if x is not None else None for x in wkbs]
    gts = {g.geom_type for g in geoms if g is not None}
    header_gt = gts.pop() if len(gts) == 1 else _GT_UNKNOWN
    n_rows = table.num_rows

    envs = np.array([g.envelope() if g is not None else (np.nan,) * 4
                     for g in geoms], dtype=np.float64).reshape(-1, 4)
    write_index = index and n_rows > 0 and np.isfinite(envs).all()
    order = np.arange(n_rows)
    if write_index:
        # Hilbert sort (descending, matching packedrtree.cpp:160-163)
        eminx, eminy = envs[:, 0].min(), envs[:, 1].min()
        w = envs[:, 2].max() - eminx
        h = envs[:, 3].max() - eminy
        cx = np.zeros(n_rows, np.uint32)
        cy = np.zeros(n_rows, np.uint32)
        if w != 0.0:
            cx = np.floor(_HILBERT_MAX * ((envs[:, 0] + envs[:, 2]) / 2
                                          - eminx) / w).astype(np.uint32)
        if h != 0.0:
            cy = np.floor(_HILBERT_MAX * ((envs[:, 1] + envs[:, 3]) / 2
                                          - eminy) / h).astype(np.uint32)
        order = np.argsort(-_hilbert_u32(cx, cy).astype(np.int64),
                           kind="stable")
        geoms = [geoms[i] for i in order]
        envs = envs[order]

    hb = _Builder()
    hb.ref(0, _Builder.strbuf(name))                   # VT_NAME
    fin = envs[np.isfinite(envs).all(axis=1)]
    if len(fin):
        env = np.array([fin[:, 0].min(), fin[:, 1].min(),
                        fin[:, 2].max(), fin[:, 3].max()], dtype="<f8")
        hb.ref(1, _Builder.vecbuf(env))                # VT_ENVELOPE
    hb.scalar(2, "B", header_gt)                       # VT_GEOMETRY_TYPE
    if attr_cols:
        col_blobs = []
        for cname, ctype in attr_cols:
            cb = _Builder()
            cb.ref(0, _Builder.strbuf(cname))
            cb.scalar(1, "B", ctype)
            col_blobs.append(cb.table_blob())
        hb.ref(7, _Builder.vec_of_tables(col_blobs))   # VT_COLUMNS
    hb.scalar(8, "Q", n_rows)                          # VT_FEATURES_COUNT
    hb.scalar(9, "H", node_size if write_index else 0)  # VT_INDEX_NODE_SIZE
    if crs_code:
        cb = _Builder()
        cb.ref(0, _Builder.strbuf("EPSG"))
        cb.scalar(1, "i", crs_code)
        hb.ref(10, _finish_sub(cb.table_blob()))       # VT_CRS (table field)
    header = _finish(hb.table_blob())

    feats = []
    for k in range(n_rows):
        i = int(order[k])
        fb = _Builder()
        g = geoms[k]
        if g is not None:
            fb.ref(0, _finish_sub(_encode_geom(g)))    # VT_GEOMETRY
        props = bytearray()
        for ci, (cname, ctype) in enumerate(attr_cols):
            v = table[cname][i].as_py()
            if v is None:
                continue
            props += struct.pack("<H", ci)
            if ctype in _COL_FMT:
                props += struct.pack("<" + _COL_FMT[ctype][0], v)
            else:
                raw = v if isinstance(v, bytes) else str(v).encode("utf-8")
                props += struct.pack("<I", len(raw)) + raw
        if props:
            fb.ref(1, _Builder.vecbuf(
                np.frombuffer(bytes(props), np.uint8)))  # VT_PROPERTIES
        feat = _finish(fb.table_blob())
        feats.append(struct.pack("<I", len(feat)) + feat)

    with open(path, "wb") as f:
        f.write(MAGIC + b"\x00")
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        if write_index:
            offs = np.concatenate([[0], np.cumsum(
                [len(b) for b in feats])[:-1]]).astype(np.uint64)
            f.write(_build_rtree(envs, offs, node_size))
        for b in feats:
            f.write(b)
    return n_rows


def _finish_sub(blob_tbl: tuple[bytes, int]) -> bytes:
    """A nested table used as a table FIELD: the payload must BE the
    [vtable][table][data] chunk, with the uoffset later patched to point
    at the TABLE (not the chunk start). We re-wrap: prepend padding so
    the table lands at a fixed offset the parent can compute."""
    blob, tbl_off = blob_tbl
    # parent's ref() will point at chunk start; shift so that chunk
    # start IS the table: move vtable behind the table is not possible
    # in-place, so instead prepend the chunk with a 4-byte uoffset we
    # strip — simplest correct form: emit [table soffset→vtable ...] at
    # chunk start by rotating the vtable to the END region.
    # Rebuild: [table][data][vtable] with soffset negative.
    vt_len = struct.unpack_from("<H", blob, 0)[0]
    vt = blob[:vt_len]
    rest = blob[vt_len:]
    # rest starts with soffset (i32) at the table position
    out = bytearray(rest)
    vt_pos = len(rest)
    struct.pack_into("<i", out, 0, -(vt_pos))  # soffset: table - vtable
    out += vt
    return bytes(out)


def _pa_coltype(t: pa.DataType) -> int:
    if pa.types.is_int8(t):
        return 0
    if pa.types.is_uint8(t):
        return 1
    if pa.types.is_boolean(t):
        return 2
    if pa.types.is_int16(t):
        return 3
    if pa.types.is_uint16(t):
        return 4
    if pa.types.is_int32(t):
        return 5
    if pa.types.is_uint32(t):
        return 6
    if pa.types.is_int64(t):
        return 7
    if pa.types.is_uint64(t):
        return 8
    if pa.types.is_float32(t):
        return 9
    if pa.types.is_float64(t):
        return 10
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return 11
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return 14
    raise ValueError(f"unsupported attribute type {t}")
