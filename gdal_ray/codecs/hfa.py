"""Erdas Imagine HFA (.img) reader — from-scratch, numpy-based.

The HFA container is a little-endian tree of named entries whose data
payloads are described by an embedded MIF type dictionary.  Layout
studied from the reference driver (frmts/hfa/hfaopen.cpp:180-260
header, hfaentry.cpp:56-104 entry records, hfafield.cpp:84-227
dictionary grammar + 822-1360 field byte semantics, hfaband.cpp:
297-550 block maps and 552-900 the ESRI GRID RLE decompression,
hfadataset.cpp / hfaopen.cpp:1033-1125 geotransform); this module is
an independent Python implementation, not a translation.

On-disk essentials:

* bytes 0-15 ``EHFA_HEADER_TAG`` magic, u32 @16 → header record of
  ``{version u32, freeList u32, rootEntryPtr u32, entryHeaderLength
  u16, dictionaryPtr u32}``.
* entry record: 6×i32 ``next, prev, parent, child, data, dataSize``
  then ``name`` char[64], ``type`` char[32].
* the dictionary at ``dictionaryPtr`` is text:
  ``{count:[p|*]T…name,…}TypeName,…`` repeated until ``.``; item type
  chars map to fixed sizes (1/2/4/c/C=1, e/s/S=2, t/l/L/f=4, d/m=8,
  M=16) with ``o`` nesting a named type, ``x`` an inline def, ``b``
  a BASEDATA matrix ``{rows i32, cols i32, baseType i16, +2}``, and a
  ``p``/``*`` prefix meaning ``[count u32][fileoffset u32]`` precedes
  the payload.
* bands are root children of type ``Eimg_Layer``; block maps live in
  a ``RasterDMS`` child (``blockinfo[i].{offset,size,logvalid,
  compressionType}``) or ``ExternalRasterDMS`` (spill ``.ige`` file,
  validity bitmap + fixed-stride uncompressed blocks).
* ESRI GRID compression per block: header ``min i32, numRuns i32,
  dataOffset i32, numBits u8``; ``numRuns==-1`` → packed
  reduced-precision values, else RLE with 2-bit-prefixed big-endian
  repeat counts; 16/32-bit packed values are big-endian; f32 output
  reinterprets the integer bits (reference bug-#1000 behavior).

Goldens in tests/test_hfa.py are the reference autotest expectations
(int.img 6691, float.img 23529, spill.img 1631, dem10.img,
small1bit.img).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ._bits import unpack_fields

__all__ = ["decode_hfa", "open_hfa"]

# pixelType enum (frmts/hfa/hfa.h:121-134) → numpy dtype; sub-byte
# types (u1/u2/u4) expand to uint8 on read like the reference band.
_EPT_DTYPE = {
    0: ("u1", None), 1: ("u2", None), 2: ("u4", None),
    3: ("u8", np.uint8), 4: ("s8", np.int8),
    5: ("u16", np.dtype("<u2")), 6: ("s16", np.dtype("<i2")),
    7: ("u32", np.dtype("<u4")), 8: ("s32", np.dtype("<i4")),
    9: ("f32", np.dtype("<f4")), 10: ("f64", np.dtype("<f8")),
    11: ("c64", np.dtype("<c8")), 12: ("c128", np.dtype("<c16")),
}
_EPT_BITS = {0: 1, 1: 2, 2: 4, 3: 8, 4: 8, 5: 16, 6: 16, 7: 32,
             8: 32, 9: 32, 10: 64, 11: 64, 12: 128}

_ITEM_SIZE = {"1": 1, "2": 1, "4": 1, "c": 1, "C": 1,
              "e": 2, "s": 2, "S": 2,
              "t": 4, "l": 4, "L": 4, "f": 4,
              "d": 8, "m": 8, "M": 16}

# types GDAL supplies when a file's dictionary omits them
# (hfadictionary.cpp apszDefDefn); same field layouts, own text.
_DEFAULT_TYPES = (
    "{1:lnumrows,}Edsc_Table,"
    "{1:lnumRows,1:LcolumnDataPtr,1:e4:integer,real,complex,string,"
    "dataType,1:lmaxNumChars,}Edsc_Column,"
    "{1:dwidth,1:dheight,}Eprj_Size,"
    "{1:dx,1:dy,}Eprj_Coordinate,"
    "{0:pcproName,1:*oEprj_Coordinate,upperLeftCenter,"
    "1:*oEprj_Coordinate,lowerRightCenter,1:*oEprj_Size,pixelSize,"
    "0:pcunits,}Eprj_MapInfo,"
    "{1:dminimum,1:dmaximum,1:dmean,1:dmedian,1:dmode,1:dstddev,}"
    "Esta_Statistics,"
    "{1:lnumBins,1:e4:direct,linear,logarithmic,explicit,"
    "binFunctionType,1:dminLimit,1:dmaxLimit,1:*bbinLimits,}"
    "Edsc_BinFunction,"
    "{1:*bvalueBD,}Eimg_NonInitializedValue,"
    "{0:pcsphereName,1:da,1:db,1:deSquared,1:dradius,}Eprj_Spheroid,"
    "{0:pcdatumname,1:e3:EPRJ_DATUM_PARAMETRIC,EPRJ_DATUM_GRID,"
    "EPRJ_DATUM_REGRESSION,type,0:pdparams,0:pcgridname,}Eprj_Datum,"
    "{1:e2:EPRJ_INTERNAL,EPRJ_EXTERNAL,proType,1:lproNumber,"
    "0:pcproExeName,0:pcproName,1:lproZone,0:pdproParams,"
    "1:*oEprj_Spheroid,proSpheroid,}Eprj_ProParameters,"
)


# ------------------------------------------------------------------
# MIF dictionary
# ------------------------------------------------------------------
class _Field:
    __slots__ = ("count", "ptr", "itype", "objtype", "enums", "name",
                 "size")

    def __init__(self, count, ptr, itype, objtype, enums, name):
        self.count = count
        self.ptr = ptr          # '', 'p' or '*'
        self.itype = itype      # one of 124cCesStlLfdmMbo
        self.objtype = objtype  # type name when itype == 'o'
        self.enums = enums
        self.name = name
        self.size = None        # fixed instance bytes or None


def _parse_field(s: str, pos: int):
    """Parse one ``count:[p|*][type…]name,`` item; return (_Field, pos)."""
    j = s.index(":", pos)
    count = int(s[pos:j])
    pos = j + 1
    ptr = ""
    if s[pos] in "p*":
        ptr = s[pos]
        pos += 1
    itype = s[pos]
    pos += 1
    objtype = None
    enums = None
    if itype == "o":
        j = s.index(",", pos)
        objtype = s[pos:j]
        pos = j + 1
    elif itype == "x":
        # inline {…}TypeName — skip the def, keep the name
        if s[pos] == "{":
            depth = 1
            pos += 1
            while depth:
                if s[pos] == "{":
                    depth += 1
                elif s[pos] == "}":
                    depth -= 1
                pos += 1
        itype = "o"
        j = s.index(",", pos)
        objtype = s[pos:j]
        pos = j + 1
    elif itype == "e":
        j = s.index(":", pos)
        n_enum = int(s[pos:j])
        pos = j + 1
        enums = []
        for _ in range(n_enum):
            j = s.index(",", pos)
            enums.append(s[pos:j])
            pos = j + 1
    j = s.index(",", pos)
    name = s[pos:j]
    return _Field(count, ptr, itype, objtype, enums, name), j + 1


def _parse_dictionary(text: str) -> dict[str, list[_Field]]:
    types: dict[str, list[_Field]] = {}
    for chunk in (text, _DEFAULT_TYPES):
        pos = 0
        while pos < len(chunk) and chunk[pos] == "{":
            pos += 1
            fields = []
            while chunk[pos] != "}":
                f, pos = _parse_field(chunk, pos)
                fields.append(f)
            pos += 1
            j = chunk.index(",", pos)
            name = chunk[pos:j]
            pos = j + 1
            types.setdefault(name, fields)
    # resolve fixed sizes
    def fixed_size(tname, seen=()):
        if tname in seen or tname not in types:
            return None
        total = 0
        for f in types[tname]:
            fs = field_size(f, seen + (tname,))
            if fs is None:
                return None
            total += fs
        return total

    def field_size(f, seen):
        if f.ptr == "p":
            return None
        if f.itype == "b":
            return None
        if f.itype == "o":
            inner = fixed_size(f.objtype, seen)
            if inner is None:
                return None
            n = inner * f.count
        else:
            n = _ITEM_SIZE[f.itype] * f.count
        return n + 8 if f.ptr == "*" else n

    for tname, fields in types.items():
        for f in fields:
            f.size = field_size(f, (tname,))
    return types


# ------------------------------------------------------------------
# entries
# ------------------------------------------------------------------
class _Entry:
    __slots__ = ("hfa", "pos", "next_pos", "child_pos", "data_pos",
                 "data_size", "name", "type", "_children")

    def __init__(self, hfa, pos):
        self.hfa = hfa
        b = hfa.buf
        nxt, _prev, _par, child, data, dsize = struct.unpack_from(
            "<6i", b, pos)
        self.pos = pos
        self.next_pos = nxt
        self.child_pos = child
        self.data_pos = data
        self.data_size = dsize
        self.name = b[pos + 24:pos + 88].split(b"\0")[0].decode(
            "latin-1")
        self.type = b[pos + 88:pos + 120].split(b"\0")[0].decode(
            "latin-1")
        self._children = None

    @property
    def data(self) -> bytes:
        return self.hfa.buf[self.data_pos:self.data_pos +
                            self.data_size]

    def children(self):
        if self._children is None:
            out = []
            p = self.child_pos
            seen = set()
            while p and p not in seen:
                seen.add(p)
                e = _Entry(self.hfa, p)
                out.append(e)
                p = e.next_pos
            self._children = out
        return self._children

    def child(self, name):
        for c in self.children():
            if c.name == name:
                return c
        return None

    def find_type(self, tname):
        for c in self.children():
            if c.type == tname:
                return c
        return None

    # -- field access ------------------------------------------------
    def fields(self) -> dict:
        """Decode this entry's data into {field name: value}."""
        tdef = self.hfa.types.get(self.type)
        if tdef is None:
            return {}
        return _decode_struct(self.data, tdef, self.hfa.types)

    def get(self, path, default=None):
        """``a.b`` / ``a[i].b`` field paths like the reference's
        GetIntField/GetDoubleField."""
        cur = self.fields()
        for part in path.split("."):
            idx = None
            if "[" in part:
                part, rest = part.split("[", 1)
                idx = int(rest.rstrip("]"))
            if not isinstance(cur, dict) or part not in cur:
                return default
            cur = cur[part]
            if idx is not None:
                try:
                    cur = cur[idx]
                except (IndexError, TypeError):
                    return default
        return cur


def _decode_struct(data, tdef, types):
    out = {}
    pos = 0
    n = len(data)
    for f in tdef:
        if pos >= n:
            break
        val, pos = _decode_field(data, pos, f, types)
        out[f.name] = val
    return out


def _decode_field(data, pos, f, types):
    count = f.count
    if f.ptr:
        if pos + 8 > len(data):
            return None, len(data)
        count = struct.unpack_from("<I", data, pos)[0]
        pos += 8
        if f.ptr == "*":
            count = min(count, f.count) if f.count else count
    if f.itype == "b":
        # BASEDATA matrix: rows, cols, base type (+2 pad), payload
        if pos + 12 > len(data):
            return None, len(data)
        rows, cols, bt = struct.unpack_from("<iih", data, pos)
        pos += 12
        if count == 0 or rows <= 0 or cols <= 0 or bt not in _EPT_BITS:
            return None, pos
        nbytes = (_EPT_BITS[bt] + 7) // 8 * rows * cols
        raw = data[pos:pos + nbytes]
        dt = _EPT_DTYPE.get(bt, (None, None))[1]
        if dt is None:          # sub-byte basedata: keep raw bits
            arr = np.frombuffer(raw, np.uint8)
        else:
            arr = np.frombuffer(raw, dt).reshape(rows * cols)
        return arr.astype(np.float64) if arr.dtype.kind != "c" \
            else arr, pos + nbytes
    if f.itype in ("c", "C"):
        end = pos + count
        s = data[pos:end].split(b"\0")[0].decode("latin-1",
                                                 "replace")
        return s, end
    if f.itype == "o":
        tdef = types.get(f.objtype)
        if tdef is None:
            return None, len(data)
        inner_size = _type_size(f.objtype, types)
        if count == 1:
            v = _decode_struct(data[pos:], tdef, types)
            adv = inner_size if inner_size is not None else \
                _instance_size(data[pos:], tdef, types)
            if adv is None:
                adv = len(data) - pos
            return v, pos + adv
        if inner_size is None:
            # variable-size struct array: walk sequentially
            out = []
            p = pos
            for _ in range(count):
                out.append(_decode_struct(data[p:], tdef, types))
                step = _instance_size(data[p:], tdef, types)
                if step is None:
                    break
                p += step
            return out, p
        return _StructArray(data, pos, count, inner_size, tdef,
                            types), pos + inner_size * count
    size = _ITEM_SIZE[f.itype]
    end = pos + size * count
    avail = (len(data) - pos) // size
    count = min(count, avail)
    fmt = {"1": "B", "2": "B", "4": "B", "e": "<u2", "s": "<u2",
           "S": "<i2", "t": "<u4", "l": "<u4", "L": "<i4",
           "f": "<f4", "d": "<f8", "m": "<c8", "M": "<c16"}[f.itype]
    arr = np.frombuffer(data, np.dtype(fmt), count=count, offset=pos)
    if count == 1:
        v = arr[0]
        return (v.item() if arr.dtype.kind in "iuf" else v), end
    return arr, end


class _StructArray:
    """Lazy array of fixed-size struct instances — per-field strided
    numpy views so blockinfo[...] lookups stay vectorized."""

    def __init__(self, data, pos, count, isize, tdef, types):
        self.data = data
        self.pos = pos
        self.count = count
        self.isize = isize
        self.tdef = tdef
        self.types = types

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        if not 0 <= i < self.count:
            raise IndexError(i)
        off = self.pos + i * self.isize
        return _decode_struct(self.data[off:off + self.isize],
                              self.tdef, self.types)

    def column(self, name):
        """All instances' scalar field ``name`` as one numpy array."""
        off = 0
        for f in self.tdef:
            if f.name == name:
                break
            off += f.size or 0
        else:
            raise KeyError(name)
        fmt = {"e": "<u2", "s": "<u2", "S": "<i2", "t": "<u4",
               "l": "<u4", "L": "<i4", "f": "<f4", "d": "<f8",
               "c": "u1", "C": "u1", "1": "u1", "2": "u1",
               "4": "u1"}[f.itype]
        dt = np.dtype(fmt)
        base = np.frombuffer(
            self.data, np.uint8, count=self.count * self.isize,
            offset=self.pos)
        view = np.lib.stride_tricks.as_strided(
            base[off:].view(np.uint8), shape=(self.count, dt.itemsize),
            strides=(self.isize, 1))
        return view.copy().view(dt).reshape(self.count)


def _type_size(tname, types, _seen=()):
    if tname in _seen:
        return None
    tdef = types.get(tname)
    if tdef is None:
        return None
    total = 0
    for f in tdef:
        if f.size is None:
            return None
        total += f.size
    return total


def _instance_size(data, tdef, types):
    pos = 0
    for f in tdef:
        if f.size is not None:
            pos += f.size
            continue
        if f.ptr:
            if pos + 8 > len(data):
                return None
            count = struct.unpack_from("<I", data, pos)[0]
            pos += 8
        else:
            count = f.count
        if f.itype == "b":
            if pos + 12 > len(data):
                return None
            rows, cols, bt = struct.unpack_from("<iih", data, pos)
            pos += 12
            if count and rows > 0 and cols > 0 and bt in _EPT_BITS:
                pos += (_EPT_BITS[bt] + 7) // 8 * rows * cols
        elif f.itype == "o":
            inner = types.get(f.objtype)
            if inner is None:
                return None
            for _ in range(count):
                step = _instance_size(data[pos:], inner, types)
                if step is None:
                    return None
                pos += step
        else:
            pos += _ITEM_SIZE[f.itype] * count
    return pos


# ------------------------------------------------------------------
# file
# ------------------------------------------------------------------
class _HFAFile:
    def __init__(self, path: str):
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.path = path
        if not self.buf.startswith(b"EHFA_HEADER_TAG"):
            raise ValueError("not an Erdas Imagine HFA file")
        hdr_pos = struct.unpack_from("<I", self.buf, 16)[0]
        (_version, _free, root_pos, _ehl, dict_pos) = struct.unpack_from(
            "<IIIhI", self.buf, hdr_pos)
        dtext = self.buf[dict_pos:]
        end = dtext.find(b".")
        dtext = dtext[:end if end >= 0 else None].decode("latin-1",
                                                         "replace")
        self.types = _parse_dictionary(dtext)
        self.root = _Entry(self, root_pos)

    def layers(self):
        return [c for c in self.root.children()
                if c.type == "Eimg_Layer"
                and (c.get("width") or 0) > 0
                and (c.get("height") or 0) > 0]


# ------------------------------------------------------------------
# block decode
# ------------------------------------------------------------------
def _read_packed(values: bytes, nbits: int, count: int) -> np.ndarray:
    """Packed value stream of the ESRI GRID compressor: sub-byte lanes
    LSB-first, 16/32-bit big-endian (hfaband.cpp:600-655)."""
    if nbits == 0:
        return np.zeros(count, np.int64)
    if nbits in (1, 2, 4):
        return unpack_fields(values, nbits, count, lsb=True)
    if nbits == 8:
        return np.frombuffer(values, np.uint8)[:count].astype(np.int64)
    if nbits == 16:
        return np.frombuffer(values, ">u2", count=count).astype(
            np.int64)
    if nbits == 32:
        return np.frombuffer(values, ">i4", count=count).astype(
            np.int64)
    raise ValueError(f"HFA: unsupported packed bit depth {nbits}")


def _decompress_block(cdata: bytes, n_pixels: int, ept: int):
    """ESRI GRID compression → int64 values (pre-dtype-cast)."""
    if len(cdata) < 13:
        raise ValueError("HFA compressed block too short")
    data_min, n_runs, data_off = struct.unpack_from("<iii", cdata, 0)
    nbits = cdata[12]
    if n_runs == -1:
        vals = _read_packed(cdata[13:], nbits, n_pixels)
        return vals + data_min
    counts = np.empty(n_runs, np.int64)
    p = 13
    for i in range(n_runs):
        b0 = cdata[p]
        extra = b0 >> 6
        c = b0 & 0x3F
        for k in range(extra):
            c = c * 256 + cdata[p + 1 + k]
        counts[i] = c
        p += 1 + extra
    vals = _read_packed(cdata[data_off:], nbits, n_runs) + data_min
    out = np.repeat(vals, counts)
    if out.size < n_pixels:
        out = np.pad(out, (0, n_pixels - out.size))
    return out[:n_pixels]


def _cast_block(vals: np.ndarray, ept: int) -> np.ndarray:
    dt = _EPT_DTYPE[ept][1]
    if ept == 9:  # f32: reinterpret int bits (reference bug #1000)
        return vals.astype(np.int32).view(np.float32)
    if dt is None:  # sub-byte → uint8 plane
        return vals.astype(np.uint8)
    return vals.astype(dt)


def _expand_subbyte(raw: bytes, ept: int, n_pixels: int) -> np.ndarray:
    nbits = _EPT_BITS[ept]
    return unpack_fields(raw, nbits, n_pixels, lsb=True).astype(np.uint8)


def _read_band(hfa: _HFAFile, layer: _Entry):
    w = int(layer.get("width"))
    h = int(layer.get("height"))
    ept = int(layer.get("pixelType"))
    bw = int(layer.get("blockWidth"))
    bh = int(layer.get("blockHeight"))
    if ept not in _EPT_DTYPE:
        raise ValueError(f"HFA: pixelType {ept} unsupported")
    bpr = (w + bw - 1) // bw
    bpc = (h + bh - 1) // bh
    dt = _EPT_DTYPE[ept][1] or np.uint8
    nodata = None
    nd_node = layer.child("Eimg_NonInitializedValue")
    if nd_node is not None:
        v = nd_node.get("valueBD")
        if v is not None and np.size(v):
            nodata = float(np.asarray(v).ravel()[0])
    out = np.zeros((h, w), dt)
    if nodata is not None:
        out.fill(dt(nodata) if np.issubdtype(dt, np.integer)
                 else nodata)
    n_pix = bw * bh

    dms = layer.child("RasterDMS")
    if dms is not None:
        info = dms.fields().get("blockinfo")
        if info is None:
            raise ValueError("HFA: RasterDMS without blockinfo")
        if isinstance(info, _StructArray):
            offsets = info.column("offset").astype(np.int64)
            sizes = info.column("size").astype(np.int64)
            valid = info.column("logvalid") != 0
            comp = info.column("compressionType") != 0
        else:  # single block
            info = [info] if isinstance(info, dict) else list(info)
            offsets = np.array([int(b["offset"]) for b in info])
            sizes = np.array([int(b["size"]) for b in info])
            valid = np.array([int(b["logvalid"]) != 0 for b in info])
            comp = np.array(
                [int(b["compressionType"]) != 0 for b in info])
        for ib in range(min(len(offsets), bpr * bpc)):
            if not valid[ib]:
                continue
            raw = hfa.buf[offsets[ib]:offsets[ib] + sizes[ib]]
            if comp[ib]:
                blk = _cast_block(
                    _decompress_block(raw, n_pix, ept), ept)
            elif ept in (0, 1, 2):
                blk = _expand_subbyte(raw, ept, n_pix)
            else:
                blk = np.frombuffer(raw, dt, count=n_pix)
            blk = blk.reshape(bh, bw)
            by, bx = divmod(ib, bpr)
            y0, x0 = by * bh, bx * bw
            ch, cw = min(bh, h - y0), min(bw, w - x0)
            out[y0:y0 + ch, x0:x0 + cw] = blk[:ch, :cw]
        return out, nodata

    ext = layer.child("ExternalRasterDMS")
    if ext is None:
        raise ValueError("HFA: layer has no RasterDMS")
    ige_name = ext.get("fileName.string") or ""
    if isinstance(ige_name, dict):
        ige_name = ige_name.get("string", "")
    base = os.path.dirname(hfa.path)
    cand = os.path.join(base, os.path.basename(str(ige_name)))
    if not os.path.exists(cand):
        stem = os.path.splitext(hfa.path)[0]
        cand = stem + ".ige"
    with open(cand, "rb") as fh:
        ige = fh.read()
    if not ige.startswith(b"ERDAS_IMG_EXTERNAL_RASTER"):
        raise ValueError("HFA spill file is corrupt")
    def big_int(v):
        """GetBigIntField semantics: 2×i32 = unsigned low word +
        (high << 32)."""
        a = np.asarray(v).ravel()
        if a.size >= 2:
            return int(np.uint32(a[0])) + (int(a[1]) << 32)
        return int(a[0])

    flags_off = big_int(ext.get("layerStackValidFlagsOffset"))
    data_off = big_int(ext.get("layerStackDataOffset"))
    block_bytes = (bw * bh * _EPT_BITS[ept] + 7) // 8
    bytes_per_row = (bpr + 7) // 8
    bitmap = np.frombuffer(
        ige, np.uint8, count=bytes_per_row * bpc + 20,
        offset=flags_off)
    for ib in range(bpr * bpc):
        col, row = ib % bpr, ib // bpr
        bit = row * bytes_per_row * 8 + col + 20 * 8
        if not (bitmap[bit >> 3] >> (bit & 7)) & 1:
            continue
        off = data_off + ib * block_bytes
        raw = ige[off:off + block_bytes]
        if ept in (0, 1, 2):
            blk = _expand_subbyte(raw, ept, n_pix)
        else:
            blk = np.frombuffer(raw, dt, count=n_pix)
        blk = blk.reshape(bh, bw)
        y0, x0 = row * bh, col * bw
        ch, cw = min(bh, h - y0), min(bw, w - x0)
        out[y0:y0 + ch, x0:x0 + cw] = blk[:ch, :cw]
    return out, nodata


# ------------------------------------------------------------------
# public API
# ------------------------------------------------------------------
def open_hfa(path: str) -> _HFAFile:
    return _HFAFile(path)


class _HFAOverview:
    __slots__ = ("pixels", "nodata")

    def __init__(self, pixels, nodata):
        self.pixels = pixels
        self.nodata = nodata


def read_hfa_overviews(path: str) -> list:
    """Reduced-resolution layers referenced by the band's
    RRDNamesList — ``file(:Layer:Child)`` strings resolved in the
    dependent ``.rrd`` HFA file (hfaband.cpp:140-215 name handling)."""
    hfa = _HFAFile(path)
    layers = hfa.layers()
    if not layers:
        return []
    rrd = layers[0].child("RRDNamesList")
    if rrd is None:
        return []
    fl = rrd.fields()
    names = fl.get("nameList")
    if names is None:
        return []
    if isinstance(names, dict):
        names = [names]
    deps: dict[str, _HFAFile] = {}
    out = []
    for item in list(names):
        s = item.get("string") if isinstance(item, dict) else None
        if not s or "(:" not in s:
            continue
        fname, node_path = s.split("(:", 1)
        node_path = node_path.rstrip(")").replace(":", ".")
        base = os.path.dirname(path)
        cand = os.path.join(base, os.path.basename(fname))
        if not os.path.exists(cand):
            cand = os.path.splitext(path)[0] + ".rrd"
        if not os.path.exists(cand):
            continue
        if cand not in deps:
            try:
                deps[cand] = _HFAFile(cand)
            except ValueError:
                continue
        dep = deps[cand]
        node = dep.root
        for part in node_path.split("."):
            node = node.child(part) if node is not None else None
        if node is None:
            continue
        try:
            px, nd = _read_band(dep, node)
        except (ValueError, KeyError, TypeError):
            continue
        out.append(_HFAOverview(px, nd))
    return out


def decode_hfa(path: str):
    """Read an Erdas Imagine .img → (pixels, geotransform, nodata,
    meta).  Multi-band files stack to (h, w, bands)."""
    hfa = _HFAFile(path)
    layers = hfa.layers()
    if not layers:
        raise ValueError("HFA file has no raster layers")
    bands = []
    nodata = None
    for lyr in layers:
        px, nd = _read_band(hfa, lyr)
        bands.append(px)
        if nodata is None:
            nodata = nd
    px = bands[0] if len(bands) == 1 else np.dstack(bands)

    # geotransform from the first layer's Map_Info (map coordinates
    # are pixel centers; hfaopen.cpp:1050-1080 corner/sign handling)
    gt = None
    meta = {"driver": "HFA"}
    mi = layers[0].child("Map_Info") or layers[0].find_type(
        "Eprj_MapInfo")
    if mi is not None:
        fl = mi.fields()
        try:
            ulx = float(fl["upperLeftCenter"]["x"])
            uly = float(fl["upperLeftCenter"]["y"])
            lry = float(fl["lowerRightCenter"]["y"])
            pw = float(fl["pixelSize"]["width"])
            ph = float(fl["pixelSize"]["height"])
            ph = -ph if uly >= lry else ph
            gt = (ulx - pw / 2.0, pw, 0.0,
                  uly - ph / 2.0, 0.0, ph)
            if fl.get("units") == "ds":
                gt = tuple(v / 3600.0 for v in gt)
            if fl.get("proName"):
                meta["projection_name"] = fl["proName"]
            if fl.get("units"):
                meta["units"] = fl["units"]
        except (KeyError, TypeError):
            gt = None

    # layer type + statistics passthrough
    lt = layers[0].get("layerType")
    if lt is not None and layers[0].fields().get("layerType") is not None:
        names = None
        tdef = hfa.types.get("Eimg_Layer")
        if tdef:
            for f in tdef:
                if f.name == "layerType" and f.enums:
                    names = f.enums
        if names and 0 <= int(lt) < len(names):
            meta["layer_type"] = names[int(lt)]
    sta = layers[0].child("Statistics")
    if sta is not None and sta.type == "Esta_Statistics":
        fl = sta.fields()
        for k in ("minimum", "maximum", "mean", "median", "mode",
                  "stddev"):
            if k in fl and fl[k] is not None:
                meta[f"statistics_{k}"] = float(fl[k])
    return px, gt, nodata, meta
