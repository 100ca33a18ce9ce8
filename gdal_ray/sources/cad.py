"""CAD (AutoCAD DWG R2000 / AC1015) vector reader — from scratch.

Decodes the R2000 bit-coded object format the reference reads through
libopencad (ogr/ogrsf_frmts/cad/libopencad/dwg/r2000.cpp + io.cpp):
section locator records, the object map (big-endian-sized sections of
modular-char handle/offset deltas), and per-object bit streams (B/BB/
BS/BL/BD/DD/RC/RS/RL/RD/MC/MS/H/TV codes, MSB-first bit order with
little-endian byte payloads).  Supported entities mirror the OGR CAD
layer mapping (ogrcadlayer.cpp): POINT, LINE, CIRCLE (circular string
triplet), ARC, ELLIPSE (approximated arc, 4° steps), TEXT / MTEXT /
ATTRIB / ATTDEF (anchor point + text + LABEL style), LWPOLYLINE,
3DFACE, SOLID; layers come from the LAYER table objects and entities
are grouped by their resolved layer handle (relative handle codes
0x6/0x8/0xA/0xC against the entity's own handle).

Layout per layer table: fid, cadgeom_type, thickness, color, text,
wkb (+ envelope), matching the reference's CAD layer field set.
"""
from __future__ import annotations

import math
import struct

import numpy as np
import pyarrow as pa

from ..codecs._bits import MsbReader
from ..core import wkb as W
from .vector import with_geometry

__all__ = ["read_dwg_table", "list_dwg_layers"]


class DwgReader(MsbReader):
    """DWG bit codes over an MSB-first bit cursor (dwg/io.cpp
    CADBuffer)."""

    __slots__ = ("enc",)

    def __init__(self, buf: bytes, bitpos: int = 0,
                 enc: str = "cp1252"):
        super().__init__(buf, bitpos)
        self.enc = enc

    def bytes_raw(self, n: int) -> bytes:
        """n bytes at the current bit offset."""
        return self.get(8 * n).to_bytes(n, "big")

    # primitive codes ---------------------------------------------------
    def bit(self):
        return self.get(1)

    def bb(self):
        return self.get(2)

    def rc(self):
        return self.bytes_raw(1)[0]

    def rs(self):
        return struct.unpack("<h", self.bytes_raw(2))[0]

    def rl(self):
        return struct.unpack("<i", self.bytes_raw(4))[0]

    def rd(self):
        return struct.unpack("<d", self.bytes_raw(8))[0]

    def bs(self):
        c = self.bb()
        if c == 0:
            return self.rs()
        if c == 1:
            return self.rc()
        return 0 if c == 2 else 256

    def bl(self):
        c = self.bb()
        if c == 0:
            return self.rl()
        if c == 1:
            return self.rc()
        return 0

    def bd(self):
        c = self.bb()
        if c == 0:
            return self.rd()
        return 1.0 if c == 1 else 0.0

    def dd(self, default: float) -> float:
        c = self.bb()
        if c == 0:
            return default
        b = bytearray(struct.pack("<d", default))
        if c == 1:
            b[0:4] = self.bytes_raw(4)
        elif c == 2:
            b[4:6] = self.bytes_raw(2)
            b[0:4] = self.bytes_raw(4)
        else:
            b[:] = self.bytes_raw(8)
        return struct.unpack("<d", bytes(b))[0]

    def mc(self) -> int:
        """Modular char, signed."""
        parts = []
        for _ in range(8):
            v = self.rc()
            parts.append(v & 0x7F)
            if not v & 0x80:
                break
        neg = bool(parts[-1] & 0x40)
        if neg:
            parts[-1] &= 0x3F
        out = 0
        for i, p in enumerate(parts):
            out |= p << (7 * i)
        return -out if neg else out

    def umc(self) -> int:
        out = 0
        for i in range(8):
            v = self.rc()
            out |= (v & 0x7F) << (7 * i)
            if not v & 0x80:
                break
        return out

    def ms(self) -> int:
        """Modular short (object sizes)."""
        a = self.rc()
        b = self.rc()
        lo = a | (b << 8)
        if not b & 0x80:
            return lo & 0x7FFF
        c = self.rc()
        d = self.rc()
        hi = c | (d << 8)
        return (lo & 0x7FFF) | ((hi & 0x7FFF) << 15)

    def handle(self):
        """(code, value) — value from big-endian counter bytes."""
        b0 = self.get(4)
        cnt = self.get(4)
        val = 0
        for _ in range(cnt):
            val = (val << 8) | self.rc()
        return b0, val

    def tv(self) -> str:
        n = self.bs()
        raw = bytes(self.rc() for _ in range(max(0, n)))
        return raw.rstrip(b"\0").decode(self.enc, "replace")

    def vec3(self):
        return self.bd(), self.bd(), self.bd()

    def raw2(self):
        return self.rd(), self.rd()


def _resolve_handle(code: int, val: int, own: int) -> int:
    # cadheader.cpp CADHandle::getAsLong relative codes
    if code == 0x6:
        return own + 1
    if code == 0x8:
        return own - 1
    if code == 0xA:
        return own + val
    if code == 0xC:
        return own - val
    return val


# ------------------------------------------------------------ file scan


# DWGCODEPAGE value -> python codec (ogrcaddriver.cpp CADRecode table)
_CODEPAGES = {1: "ascii", 2: "latin1", 3: "iso8859-2", 5: "iso8859-4",
              6: "iso8859-5", 7: "iso8859-6", 8: "iso8859-7",
              9: "iso8859-8", 10: "iso8859-9", 11: "cp437",
              12: "cp850", 13: "cp852", 14: "cp855", 15: "cp857",
              16: "cp860", 17: "cp861", 18: "cp863", 19: "cp864",
              20: "cp865", 21: "cp869", 22: "cp932", 24: "big5",
              25: "cp949", 27: "cp866", 28: "cp1250", 29: "cp1251",
              30: "cp1252", 31: "gb2312", 32: "cp1253", 33: "cp1254",
              34: "cp1255", 35: "cp1256", 36: "cp1257", 37: "cp874",
              38: "cp932"}


def _section_locators(raw: bytes):
    if raw[:6] != b"AC1015" or len(raw) < 25:
        ver = raw[:6].decode("latin1", "replace")
        raise ValueError(
            f"CAD driver does not support this version ({ver}); "
            "only R2000 (AC1015) is decoded")
    pos = 6 + 7
    pos += 4 + 2 + 2                     # image seeker, skip, codepage
    (count,) = struct.unpack_from("<i", raw, pos)
    pos += 4
    recs = {}
    for _ in range(count):
        num = raw[pos]
        seeker, size = struct.unpack_from("<ii", raw, pos + 1)
        recs[num] = (seeker, size)
        pos += 9
    return recs


def _object_map(raw: bytes, seeker: int) -> dict[int, int]:
    out: dict[int, int] = {}
    pos = seeker
    while pos + 2 <= len(raw):
        size = struct.unpack_from(">H", raw, pos)[0]
        if size <= 2:
            break
        # size counts the payload that FOLLOWS the 2 size bytes; the
        # last 2 payload bytes are the section CRC (r2000.cpp
        # CreateFileMap reads records while bitpos < size*8 with the
        # size word already in the buffer)
        data = raw[pos:pos + size + 2]
        rd = DwgReader(data, 16)
        handle = offset = 0
        first = True
        while (rd.pos >> 3) < size:
            dh = rd.umc()
            do = rd.mc()
            if first:
                handle, offset = dh, do
                first = False
            else:
                handle += dh
                offset += do
            out[handle] = offset
        pos += size + 2
    return out


# --------------------------------------------------------- object decode


_ENTITY_TYPES = {
    0x01: "TEXT", 0x02: "ATTRIB", 0x03: "ATTDEF", 0x11: "ARC",
    0x12: "CIRCLE", 0x13: "LINE", 0x1B: "POINT", 0x1C: "FACE3D",
    0x1F: "SOLID", 0x23: "ELLIPSE", 0x2C: "MTEXT", 0x4D: "LWPOLYLINE",
}


def _read_common_ed(rd: DwgReader):
    ced = {}
    rd.rl()                                   # object size in bits
    code, own = rd.handle()
    ced["handle"] = own
    eed = bytearray()
    while True:
        sz = rd.bs()
        if sz == 0:
            break
        if sz < 0:
            raise ValueError("bad EED")
        rd.handle()
        for _ in range(sz):
            eed.append(rd.rc())
    ced["eed"] = bytes(eed)
    if rd.bit():                              # graphics present
        n = rd.rl()
        rd.pos += 8 * n
    ced["entmode"] = rd.bb()
    ced["nreactors"] = rd.bl()
    if not 0 <= ced["nreactors"] <= 5000:
        raise ValueError("bad reactors")
    ced["nolinks"] = rd.bit()
    ced["color"] = rd.bs()
    rd.bd()                                   # ltype scale
    ced["ltflags"] = rd.bb()
    ced["psflags"] = rd.bb()
    rd.bs()                                   # invisibility
    rd.rc()                                   # lineweight
    return ced


def _read_handles(rd: DwgReader, ced: dict):
    """Common entity handle data → resolved layer handle."""
    if ced["entmode"] == 0:
        rd.handle()                           # owner
    for _ in range(ced["nreactors"]):
        rd.handle()
    rd.handle()                               # xdictionary
    if not ced["nolinks"]:
        rd.handle()                           # prev
        rd.handle()                           # next
    code, val = rd.handle()                   # layer
    ced["layer"] = _resolve_handle(code, val, ced["handle"])
    if ced["ltflags"] == 3:
        rd.handle()
    if ced["psflags"] == 3:
        rd.handle()


def _extrusion(rd: DwgReader):
    if rd.bit():
        return (0.0, 0.0, 1.0)
    return rd.vec3()


def _thickness(rd: DwgReader):
    return 0.0 if rd.bit() else rd.bd()


def _text_body(rd: DwgReader, with_tag: bool, with_prompt: bool):
    """TEXT / ATTRIB / ATTDEF shared layout."""
    flags = rd.rc()
    elev = 0.0
    if not flags & 0x01:
        elev = rd.rd()
    ix, iy = rd.raw2()
    if not flags & 0x02:
        rd.dd(ix)
        rd.dd(iy)
    _extrusion(rd)
    _thickness(rd)
    if not flags & 0x04:
        rd.rd()                               # oblique angle
    if not flags & 0x08:
        rd.rd()                               # rotation
    rd.rd()                                   # height
    if not flags & 0x10:
        rd.rd()                               # width factor
    text = rd.tv()
    if not flags & 0x20:
        rd.bs()
    if not flags & 0x40:
        rd.bs()
    if not flags & 0x80:
        rd.bs()
    tag = None
    if with_tag:
        tag = rd.tv()
        rd.bs()                               # field length
        rd.rc()                               # flags
    if with_prompt:
        rd.tv()                               # prompt (after tag? no)
    return (ix, iy, elev), text, tag


def _approx_arc(cx, cy, cz, rx, ry, rot_deg, a0_deg, a1_deg,
                step_deg=4.0):
    """OGRGeometryFactory::approximateArcAngles: 4° max step,
    end-angle included exactly."""
    if a1_deg < a0_deg:
        a1_deg += 360.0
    n = max(1, int(math.ceil((a1_deg - a0_deg) / step_deg)))
    ang = np.radians(np.linspace(a0_deg, a1_deg, n + 1))
    rot = math.radians(rot_deg)
    ex = rx * np.cos(ang)
    ey = ry * np.sin(ang)
    x = cx + ex * math.cos(rot) + ey * math.sin(rot)
    y = cy - ex * math.sin(rot) + ey * math.cos(rot)
    return np.c_[x, y]


class DwgFile:
    def __init__(self, path_or_bytes):
        raw = path_or_bytes if isinstance(path_or_bytes, bytes) \
            else open(path_or_bytes, "rb").read()
        self.raw = raw
        locs = _section_locators(raw)
        cp = struct.unpack_from("<h", raw, 19)[0]
        self.encoding = _CODEPAGES.get(cp, "cp1252")
        if 2 not in locs:
            raise ValueError("DWG: no object-map section")
        self.objmap = _object_map(raw, locs[2][0])
        self.layers: dict[int, str] = {}
        self.entities: list[dict] = []
        self._scan()

    def _obj_reader(self, offset: int):
        rd = DwgReader(self.raw, offset * 8, self.encoding)
        size = rd.ms()
        if size <= 0 or size > 65536:
            return None, None
        return rd, rd.bs()

    def _scan(self):
        for handle in sorted(self.objmap):
            off = self.objmap[handle]
            if not 0 <= off < len(self.raw) - 4:
                continue
            try:
                rd, otype = self._obj_reader(off)
                if rd is None:
                    continue
                if otype == 0x33:                  # LAYER
                    self._read_layer(rd)
                elif otype in _ENTITY_TYPES:
                    ent = self._read_entity(rd, otype)
                    # an object cut off by the end of the file is skipped
                    if ent is not None and rd.pos <= 8 * len(self.raw):
                        self.entities.append(ent)
            except (IndexError, ValueError, struct.error):
                continue

    def _read_layer(self, rd: DwgReader):
        rd.rl()
        code, own = rd.handle()
        while True:                               # EED
            sz = rd.bs()
            if sz == 0:
                break
            if sz < 0:
                raise ValueError("bad EED")
            rd.handle()
            for _ in range(sz):
                rd.rc()
        nre = rd.bl()
        if not 0 <= nre <= 5000:
            raise ValueError("bad reactors")
        name = rd.tv()
        self.layers[own] = name

    def _read_entity(self, rd: DwgReader, otype: int):
        kind = _ENTITY_TYPES[otype]
        ced = _read_common_ed(rd)
        thickness = 0.0
        text = None
        geom = None
        gtype = None

        if kind == "POINT":
            x, y, z = rd.vec3()
            thickness = _thickness(rd)
            _extrusion(rd)
            rd.bd()                               # x axis angle
            geom = W.Geometry(W.POINT,
                              coords=np.array([[x, y]], np.float64))
            gtype = "CADPoint"
        elif kind == "LINE":
            zzero = rd.bit()
            x1 = rd.rd()
            x2 = rd.dd(x1)
            y1 = rd.rd()
            y2 = rd.dd(y1)
            z1 = z2 = 0.0
            if not zzero:
                z1 = rd.bd()
                z2 = rd.dd(z1)
            thickness = _thickness(rd)
            _extrusion(rd)
            geom = W.Geometry(W.LINESTRING, coords=np.array(
                [[x1, y1], [x2, y2]], np.float64))
            gtype = "CADLine"
        elif kind == "CIRCLE":
            cx, cy, cz = rd.vec3()
            r = rd.bd()
            thickness = _thickness(rd)
            _extrusion(rd)
            # OGR CAD layer: circular string W-N-E-S-W (ogrcadlayer.cpp)
            geom = W.Geometry(W.CIRCULARSTRING, coords=np.array(
                [[cx - r, cy], [cx, cy + r], [cx + r, cy],
                 [cx, cy - r], [cx - r, cy]], np.float64))
            gtype = "CADCircle"
        elif kind == "ARC":
            cx, cy, cz = rd.vec3()
            r = rd.bd()
            thickness = _thickness(rd)
            _extrusion(rd)
            a0 = math.degrees(rd.bd())
            a1 = math.degrees(rd.bd())
            pts = _approx_arc(cx, cy, cz, r, r, 0.0, a0, a1)
            geom = W.Geometry(W.LINESTRING, coords=pts)
            gtype = "CADArc"
        elif kind == "ELLIPSE":
            cx, cy, cz = rd.vec3()
            sx, sy, sz = rd.vec3()               # semi-major axis vector
            _ = rd.vec3()                        # extrusion
            ratio = rd.bd()
            a0 = math.degrees(rd.bd())
            a1 = math.degrees(rd.bd())
            rmaj = math.sqrt(sx * sx + sy * sy + sz * sz)
            rmin = ratio * rmaj
            rot = -math.degrees(math.atan2(sy, sx))
            pts = _approx_arc(cx, cy, cz, rmaj, rmin, rot, a0, a1)
            geom = W.Geometry(W.LINESTRING, coords=pts)
            gtype = "CADEllipse"
        elif kind in ("TEXT", "ATTRIB", "ATTDEF"):
            if kind == "ATTDEF":
                # ATTDEF layout: text body, tag, field length, flags,
                # then the prompt TV (r2000.cpp getAttributesDefn)
                (ix, iy, elev), text, tag = _text_body(rd, True, False)
                rd.tv()                           # prompt
            elif kind == "ATTRIB":
                (ix, iy, elev), text, tag = _text_body(rd, True, False)
            else:
                (ix, iy, elev), text, tag = _text_body(rd, False, False)
            if kind in ("ATTRIB", "ATTDEF"):
                text = tag
            geom = W.Geometry(W.POINT,
                              coords=np.array([[ix, iy]], np.float64))
            gtype = {"TEXT": "CADText", "ATTRIB": "CADAttrib",
                     "ATTDEF": "CADAttdef"}[kind]
        elif kind == "MTEXT":
            ix, iy, iz = rd.vec3()
            rd.vec3()                             # extrusion
            rd.vec3()                             # x axis dir
            rd.bd()                               # rect width
            rd.bd()                               # text height
            rd.bs()                               # attachment
            rd.bs()                               # drawing dir
            rd.bd()                               # extents ht
            rd.bd()                               # extents wid
            text = rd.tv()
            rd.bs()                               # line spacing style
            rd.bd()                               # line spacing factor
            rd.bit()
            geom = W.Geometry(W.POINT,
                              coords=np.array([[ix, iy]], np.float64))
            gtype = "CADMText"
        elif kind == "SOLID" or kind == "FACE3D":
            if kind == "SOLID":
                thickness = _thickness(rd)
                elev = rd.bd()
                pts = []
                for _ in range(4):
                    x, y = rd.raw2()
                    pts.append([x, y])
                _extrusion(rd)
            else:
                # 3DFACE (r2000.cpp get3DFace): has-no-flags bit FIRST,
                # then z-is-zero; corner z is DD-chained even when zero
                has_no_flags = rd.bit()
                zzero = rd.bit()
                x, y = rd.rd(), rd.rd()
                z = 0.0 if zzero else rd.rd()
                pts = [[x, y]]
                zprev = z
                for _ in range(3):
                    x = rd.dd(pts[-1][0])
                    y = rd.dd(pts[-1][1])
                    zprev = rd.dd(zprev)
                    pts.append([x, y])
                if not has_no_flags:
                    rd.bs()
            ring = np.array(pts + [pts[0]], np.float64)
            geom = W.Geometry(W.POLYGON, rings=[ring])
            gtype = "CADSolid" if kind == "SOLID" else "CADFace3D"
        elif kind == "LWPOLYLINE":
            flags = rd.bs()
            const_width = rd.bd() if flags & 4 else 0.0
            elev = rd.bd() if flags & 8 else 0.0
            thickness = rd.bd() if flags & 2 else 0.0
            if flags & 1:
                rd.vec3()                         # normal
            npts = rd.bl()
            nbulges = rd.bl() if flags & 16 else 0
            nwidths = rd.bl() if flags & 32 else 0
            if not 0 < npts < 10_000_000:
                raise ValueError("bad LWPOLYLINE")
            pts = np.zeros((npts, 2), np.float64)
            x, y = rd.rd(), rd.rd()
            pts[0] = x, y
            for i in range(1, npts):
                x = rd.dd(x)
                y = rd.dd(y)
                pts[i] = x, y
            for _ in range(nbulges):
                rd.bd()
            for _ in range(nwidths):
                rd.bd()
                rd.bd()
            closed = bool(flags & 512)
            if closed:
                pts = np.vstack([pts, pts[:1]])
            geom = W.Geometry(W.LINESTRING, coords=pts)
            gtype = "CADLWPolyline"
        else:
            return None

        _read_handles(rd, ced)
        if ced["entmode"] == 1:                   # paper space
            return None
        return {"handle": ced["handle"], "layer": ced["layer"],
                "gtype": gtype, "thickness": thickness,
                "color": ced["color"], "text": text, "geom": geom,
                "eed": ced["eed"] or None}


# ACI color table subset (index -> RGB) for the style/color field
_ACI = {1: 0xFF0000, 2: 0xFFFF00, 3: 0x00FF00, 4: 0x00FFFF,
        5: 0x0000FF, 6: 0xFF00FF, 7: 0xFFFFFF, 0: 0xFFFFFF,
        256: 0xFFFFFF}


def list_dwg_layers(path) -> list[str]:
    f = DwgFile(path)
    return [f.layers[h] for h in sorted(f.layers)]


def read_dwg_table(path, layer: str | None = None) -> pa.Table:
    """DWG → Arrow layer table (the reference CAD layer's field set:
    cadgeom_type, thickness, color, text + wkb/envelope)."""
    f = DwgFile(path)
    by_handle = sorted(f.layers)
    names = {h: f.layers[h] for h in by_handle}
    if layer is None and by_handle:
        wanted = None                          # all layers merged? no:
        # default to the first layer that has entities, else layer "0"
        counts = {}
        for e in f.entities:
            counts[e["layer"]] = counts.get(e["layer"], 0) + 1
        wanted_h = next((h for h in by_handle if counts.get(h)),
                        by_handle[0])
        wanted = names.get(wanted_h)
    else:
        wanted = layer
    ents = [e for e in f.entities
            if names.get(e["layer"], "0") == wanted]
    ents.sort(key=lambda e: e["handle"])
    n = len(ents)
    cols = {
        "fid": pa.array(range(n), pa.int64()),
        "cadgeom_type": pa.array([e["gtype"] for e in ents]),
        "thickness": pa.array([float(e["thickness"]) for e in ents],
                              pa.float64()),
        "color": pa.array(
            [f"#{_ACI.get(e['color'], 0xFFFFFF):06X}FF" for e in ents]),
        "text": pa.array([e["text"] for e in ents], pa.string()),
        "extentity_data": pa.array(
            [e["eed"].hex() if e["eed"] else None for e in ents],
            pa.string()),
    }
    t = with_geometry(pa.table(cols), [e["geom"] for e in ents])
    return t.replace_schema_metadata(
        {b"cad_layers": ",".join(names[h] for h in by_handle).encode(),
         b"cad_layer": (wanted or "").encode()})
