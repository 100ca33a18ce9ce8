"""Geospatial PDF reader/writer — from scratch, no renderer library.

Covers the reference PDF driver's georeferencing model
(frmts/pdf/pdfdataset.cpp): ISO 32000 Adobe supplement /VP viewport
Measure GEO dictionaries (GPTS/LPTS/BBox + GCS EPSG/WKT, GCPs fitted
to a geotransform) and OGC Best Practice /LGIDict (CTM +
Registration + Projection dict + Neatline), with the reference's
DPI-guessing rule (raster grid sized so the page's largest placed
image is read at native resolution).  Unlike the reference — which
needs poppler/pdfium to rasterize — pixels here are recovered by
walking the page content stream (q/Q/cm/Do) and compositing the
decoded image XObjects directly, which is exact for the
one-image-per-page rasters the reference writer produces.

The PDF object layer is a small from-scratch parser: object scan +
classic xref/ObjStm expansion, dictionaries/arrays/names/strings,
stream filters FlateDecode (incl. PNG predictors), LZWDecode,
RunLengthDecode, ASCIIHexDecode, ASCII85Decode, DCTDecode (own
T.81 decoder), JPXDecode (own JPEG2000 decoder), CCITTFaxDecode
(own G3/G4 decoder).

Writer: single-page raster PDFs with FlateDecode image XObjects and
ISO 32000 /VP georeferencing (optionally OGC BP /LGIDict), readable
by this module and laid out like the reference writer's output
(frmts/pdf/pdfcreatecopy.cpp object graph).
"""
from __future__ import annotations

import base64
import re
import struct
import zlib

import numpy as np

from ._bits import lzw_decode, unpack_rows

__all__ = ["PdfFile", "read_pdf", "write_pdf"]


# --------------------------------------------------------------- model


class Name(str):
    """A /Name token."""


class Ref:
    __slots__ = ("num", "gen")

    def __init__(self, num, gen=0):
        self.num = num
        self.gen = gen

    def __repr__(self):
        return f"{self.num}R"

    def __eq__(self, o):
        return isinstance(o, Ref) and o.num == self.num

    def __hash__(self):
        return hash(("R", self.num))


class Stream:
    __slots__ = ("dict", "raw")

    def __init__(self, d, raw):
        self.dict = d
        self.raw = raw


_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class _Lexer:
    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def _skip_ws(self):
        buf, n = self.buf, len(self.buf)
        while self.pos < n:
            c = buf[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:                       # % comment
                e = buf.find(b"\n", self.pos)
                self.pos = n if e < 0 else e + 1
            else:
                break

    def token(self):
        """Next raw token: bytes keyword/number, or structural char."""
        self._skip_ws()
        buf, n = self.buf, len(self.buf)
        if self.pos >= n:
            return None
        c = buf[self.pos]
        if c == 0x3C and self.pos + 1 < n and buf[self.pos + 1] == 0x3C:
            self.pos += 2
            return b"<<"
        if c == 0x3E and self.pos + 1 < n and buf[self.pos + 1] == 0x3E:
            self.pos += 2
            return b">>"
        if c in b"[]{}":
            self.pos += 1
            return bytes([c])
        if c == 0x2F:                              # name
            j = self.pos + 1
            while j < n and buf[j] not in _WS and buf[j] not in _DELIM:
                j += 1
            tok = buf[self.pos:j]
            self.pos = j
            return tok
        if c == 0x28:                              # (string)
            return b"("
        if c == 0x3C:                              # <hex>
            return b"<"
        j = self.pos
        while j < n and buf[j] not in _WS and buf[j] not in _DELIM:
            j += 1
        tok = buf[self.pos:j]
        self.pos = j if j > self.pos else self.pos + 1
        return tok

    def _lit_string(self):
        # self.pos at '('
        buf, n = self.buf, len(self.buf)
        self.pos += 1
        depth = 1
        out = bytearray()
        while self.pos < n:
            c = buf[self.pos]
            if c == 0x5C:                          # backslash
                self.pos += 1
                if self.pos >= n:
                    break
                e = buf[self.pos]
                esc = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12,
                       0x28: 0x28, 0x29: 0x29, 0x5C: 0x5C}
                if e in esc:
                    out.append(esc[e])
                    self.pos += 1
                elif 0x30 <= e <= 0x37:            # octal
                    o = 0
                    k = 0
                    while k < 3 and self.pos < n and \
                            0x30 <= buf[self.pos] <= 0x37:
                        o = o * 8 + (buf[self.pos] - 0x30)
                        self.pos += 1
                        k += 1
                    out.append(o & 0xFF)
                elif e in (10, 13):                # line continuation
                    self.pos += 1
                    if e == 13 and self.pos < n and buf[self.pos] == 10:
                        self.pos += 1
                else:
                    out.append(e)
                    self.pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                self.pos += 1
            elif c == 0x29:
                depth -= 1
                self.pos += 1
                if depth == 0:
                    break
                out.append(c)
            else:
                out.append(c)
                self.pos += 1
        return bytes(out)

    def _hex_string(self):
        buf = self.buf
        self.pos += 1
        e = buf.find(b">", self.pos)
        hx = re.sub(rb"[^0-9A-Fa-f]", b"", buf[self.pos:e])
        self.pos = e + 1
        if len(hx) % 2:
            hx += b"0"
        return bytes.fromhex(hx.decode("ascii"))

    def value(self, tok=None):
        """Parse one PDF object value starting at tok (or next)."""
        if tok is None:
            tok = self.token()
        if tok is None:
            return None
        if tok == b"<<":
            d = {}
            while True:
                k = self.token()
                if k is None or k == b">>":
                    break
                if not k.startswith(b"/"):
                    continue
                d[k[1:].decode("latin1")] = self.value()
            return d
        if tok == b"[":
            a = []
            while True:
                save = self.pos
                t = self.token()
                if t is None or t == b"]":
                    break
                self.pos = save
                a.append(self.value())
            return a
        if tok == b"(":
            return self._lit_string()
        if tok == b"<":
            return self._hex_string()
        if tok.startswith(b"/"):
            return Name(_decode_name(tok[1:]))
        if tok == b"true":
            return True
        if tok == b"false":
            return False
        if tok == b"null":
            return None
        # number — maybe "num gen R"
        try:
            if b"." in tok or b"e" in tok or b"E" in tok:
                return float(tok)
            num = int(tok)
        except ValueError:
            return Name(tok.decode("latin1", "replace"))
        save = self.pos
        t2 = self.token()
        if t2 is not None and t2.isdigit():
            t3 = self.token()
            if t3 == b"R":
                return Ref(num, int(t2))
        self.pos = save
        return num


def _decode_name(b: bytes) -> str:
    out = bytearray()
    i = 0
    while i < len(b):
        if b[i] == 0x23 and i + 2 < len(b):
            out.append(int(b[i + 1:i + 3], 16))
            i += 3
        else:
            out.append(b[i])
            i += 1
    return out.decode("latin1")


# ------------------------------------------------------------- filters


def _png_unpredict(data: bytes, colors: int, bpc: int, columns: int):
    bpp = max(1, colors * bpc // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    nrows = len(data) // (rowlen + 1)
    out = bytearray(nrows * rowlen)
    prev = bytearray(rowlen)
    pos = 0
    for r in range(nrows):
        ft = data[pos]
        row = bytearray(data[pos + 1:pos + 1 + rowlen])
        pos += 1 + rowlen
        if ft == 1:
            for i in range(bpp, rowlen):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:
            for i in range(rowlen):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ft == 4:
            for i in range(rowlen):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pr = a if (pa <= pb and pa <= pc) else \
                    (b if pb <= pc else c)
                row[i] = (row[i] + pr) & 0xFF
        out[r * rowlen:(r + 1) * rowlen] = row
        prev = row
    return bytes(out)


def _apply_predictor(data: bytes, parms: dict):
    pred = int(parms.get("Predictor", 1) or 1)
    if pred < 2:
        return data
    colors = int(parms.get("Colors", 1) or 1)
    bpc = int(parms.get("BitsPerComponent", 8) or 8)
    columns = int(parms.get("Columns", 1) or 1)
    if pred == 2:                               # TIFF horizontal
        arr = np.frombuffer(data, np.uint8).copy()
        rowlen = (columns * colors * bpc + 7) // 8
        arr = arr[:len(arr) // rowlen * rowlen].reshape(-1, rowlen)
        np.cumsum(arr.reshape(arr.shape[0], -1, colors), axis=1,
                  dtype=np.uint8, out=arr.reshape(arr.shape[0], -1,
                                                  colors))
        return arr.tobytes()
    return _png_unpredict(data, colors, bpc, columns)


def _rle_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        if n == 128:
            break
        if n < 128:
            out += data[i + 1:i + 2 + n]
            i += 2 + n
        else:
            out += data[i + 1:i + 2] * (257 - n)
            i += 2
    return bytes(out)


def decode_stream(pdf: "PdfFile", st: Stream) -> bytes:
    """Apply the stream's /Filter chain (image codecs excluded —
    DCT/JPX/CCITT are resolved by the image decoder)."""
    data = st.raw
    filts = pdf.resolve(st.dict.get("Filter"))
    if filts is None:
        return data
    if not isinstance(filts, list):
        filts = [filts]
    parms = pdf.resolve(st.dict.get("DecodeParms") or
                        st.dict.get("DP")) or {}
    if not isinstance(parms, list):
        parms = [parms]
    for i, f in enumerate(filts):
        p = pdf.resolve(parms[i]) if i < len(parms) else {}
        p = p or {}
        if f in ("FlateDecode", "Fl"):
            data = zlib.decompress(data)
            data = _apply_predictor(data, p)
        elif f in ("LZWDecode", "LZW"):
            early = int(pdf.resolve(p.get("EarlyChange", 1)))
            data = lzw_decode(data, lsb=False, min_bits=8,
                              early_change=early)
            data = _apply_predictor(data, p)
        elif f in ("RunLengthDecode", "RL"):
            data = _rle_decode(data)
        elif f in ("ASCIIHexDecode", "AHx"):
            hx = re.sub(rb"[^0-9A-Fa-f]", b"", data.rstrip(b">"))
            if len(hx) % 2:
                hx += b"0"
            data = bytes.fromhex(hx.decode())
        elif f in ("ASCII85Decode", "A85"):
            data = base64.a85decode(data.strip().rstrip(b"~>"),
                                    adobe=False)
        elif f in ("DCTDecode", "DCT", "JPXDecode", "CCITTFaxDecode",
                   "CCF", "JBIG2Decode"):
            return data                          # image codec payload
        else:
            raise ValueError(f"PDF filter {f} not supported")
    return data


# --------------------------------------------------------------- file


class PdfFile:
    """Whole-file object scan (robust to broken xref tables, which the
    reference's fixture set exercises deliberately) + ObjStm
    expansion."""

    def __init__(self, raw: bytes):
        self.raw = raw
        self.offsets: dict[int, int] = {}
        for m in re.finditer(rb"(?:^|[\r\n>])\s*(\d+)\s+(\d+)\s+obj\b",
                             raw):
            self.offsets[int(m.group(1))] = m.end() - 3  # at 'obj'
        self.cache: dict[int, object] = {}
        self._expand_objstms()
        self.trailer = self._find_trailer()

    # -- object access -------------------------------------------------

    def obj(self, num: int):
        if num in self.cache:
            return self.cache[num]
        off = self.offsets.get(num)
        if off is None:
            return None
        lx = _Lexer(self.raw, off + 3)
        val = lx.value()
        if isinstance(val, dict):
            save = lx.pos
            t = lx.token()
            if t == b"stream":
                # EOL after 'stream' keyword
                p = lx.pos
                if self.raw[p:p + 2] == b"\r\n":
                    p += 2
                elif self.raw[p:p + 1] in (b"\n", b"\r"):
                    p += 1
                ln = self.resolve(val.get("Length"))
                if isinstance(ln, (int, float)) and ln >= 0 and \
                        self.raw[p + int(ln):p + int(ln) + 11]\
                        .lstrip(b"\r\n").startswith(b"endstream"):
                    data = self.raw[p:p + int(ln)]
                else:
                    e = self.raw.find(b"endstream", p)
                    data = self.raw[p:e].rstrip(b"\r\n")
                val = Stream(val, data)
            else:
                lx.pos = save
        self.cache[num] = val
        return val

    def resolve(self, v):
        seen = 0
        while isinstance(v, Ref) and seen < 32:
            v = self.obj(v.num)
            seen += 1
        return v

    def _expand_objstms(self):
        for num in list(self.offsets):
            o = self.obj(num)
            if isinstance(o, Stream) and \
                    self.resolve(o.dict.get("Type")) == "ObjStm":
                try:
                    data = decode_stream(self, o)
                except Exception:
                    continue
                n = int(self.resolve(o.dict.get("N", 0)))
                first = int(self.resolve(o.dict.get("First", 0)))
                hdr = _Lexer(data[:first])
                pairs = []
                for _ in range(n):
                    a = hdr.value()
                    b = hdr.value()
                    if a is None or b is None:
                        break
                    pairs.append((int(a), int(b)))
                for onum, ooff in pairs:
                    lx = _Lexer(data, first + ooff)
                    self.cache[onum] = lx.value()
                    self.offsets.setdefault(onum, -1)

    def _find_trailer(self) -> dict:
        out = {}
        for m in re.finditer(rb"trailer", self.raw):
            lx = _Lexer(self.raw, m.end())
            d = lx.value()
            if isinstance(d, dict):
                out.update(d)
        if "Root" not in out:
            for num in list(self.offsets):
                o = self.obj(num)
                d = o.dict if isinstance(o, Stream) else o
                if isinstance(d, dict) and \
                        self.resolve(d.get("Type")) == "XRef" and \
                        "Root" in d:
                    out.update(d)
            if "Root" not in out:
                for num in list(self.offsets):
                    o = self.obj(num)
                    if isinstance(o, dict) and \
                            self.resolve(o.get("Type")) == "Catalog":
                        out["Root"] = Ref(num)
                        break
        return out

    # -- document structure --------------------------------------------

    def pages(self) -> list[dict]:
        root = self.resolve(self.trailer.get("Root")) or {}
        out: list[dict] = []

        def walk(node, inherited):
            node = self.resolve(node)
            if not isinstance(node, dict):
                return
            inh = dict(inherited)
            for k in ("MediaBox", "Resources", "Rotate", "UserUnit"):
                if k in node:
                    inh[k] = node[k]
            if self.resolve(node.get("Type")) == "Page":
                d = dict(node)
                for k, v in inh.items():
                    d.setdefault(k, v)
                out.append(d)
            else:
                for kid in self.resolve(node.get("Kids")) or []:
                    walk(kid, inh)

        walk((self.resolve(self.trailer.get("Root")) or {}).get("Pages")
             if root else None, {})
        return out


# ---------------------------------------------------------- image read


def _decode_image(pdf: PdfFile, st: Stream) -> np.ndarray:
    """Image XObject -> (h, w) or (h, w, 3) uint8/uint16 array."""
    d = st.dict
    w = int(pdf.resolve(d.get("Width")))
    h = int(pdf.resolve(d.get("Height")))
    bpc = int(pdf.resolve(d.get("BitsPerComponent", 8)) or 8)
    filts = pdf.resolve(d.get("Filter"))
    if not isinstance(filts, list):
        filts = [filts] if filts else []
    cs = pdf.resolve(d.get("ColorSpace"))
    if "DCTDecode" in filts or "DCT" in filts:
        from .jpeg import decode_jpeg
        px = decode_jpeg(st.raw)
        return np.asarray(px)
    if "JPXDecode" in filts:
        from .jp2 import decode_jp2
        img = decode_jp2(st.raw)
        px = np.asarray(img.pixels if hasattr(img, "pixels") else img)
        if px.ndim == 3 and px.shape[0] in (1, 3) and \
                px.shape[0] < px.shape[2]:
            px = np.moveaxis(px, 0, -1)
        return px[..., 0] if px.ndim == 3 and px.shape[2] == 1 else px
    if "CCITTFaxDecode" in filts or "CCF" in filts:
        from .fax import decode_g4, decode_g3
        parms = pdf.resolve(d.get("DecodeParms")) or {}
        if isinstance(parms, list):
            parms = pdf.resolve(parms[-1]) or {}
        k = int(pdf.resolve(parms.get("K", 0)) or 0)
        cols = int(pdf.resolve(parms.get("Columns", 1728)) or 1728)
        dec = decode_g4 if k < 0 else decode_g3
        bits = dec(st.raw, cols, h)
        arr = np.asarray(bits, np.uint8)
        if not pdf.resolve(parms.get("BlackIs1", False)):
            arr = 1 - arr
        return arr * np.uint8(255)
    data = decode_stream(pdf, st)
    # palette?
    pal = None
    ncomp = 1
    if isinstance(cs, list) and cs and cs[0] == "Indexed":
        base = pdf.resolve(cs[1])
        lut = pdf.resolve(cs[3])
        if isinstance(lut, Stream):
            lut = decode_stream(pdf, lut)
        nbase = 3 if base in ("DeviceRGB", "CalRGB") or (
            isinstance(base, list) and base and base[0] == "ICCBased"
        ) else 3
        pal = np.frombuffer(lut, np.uint8)
        pal = pal[:len(pal) // nbase * nbase].reshape(-1, nbase)
    elif cs in ("DeviceRGB", "CalRGB"):
        ncomp = 3
    elif isinstance(cs, list) and cs and cs[0] == "ICCBased":
        icc = pdf.resolve(cs[1])
        ncomp = int(pdf.resolve(icc.dict.get("N", 3))) \
            if isinstance(icc, Stream) else 3
    if bpc == 8:
        arr = np.frombuffer(data, np.uint8)
        arr = arr[:h * w * ncomp].reshape(h, w, ncomp)
    elif bpc == 16:
        arr = np.frombuffer(data, ">u2")
        arr = arr[:h * w * ncomp].reshape(h, w, ncomp).astype(np.uint16)
    elif bpc in (1, 2, 4):
        rowbytes = (w * ncomp * bpc + 7) // 8
        rows = np.frombuffer(data, np.uint8)[:h * rowbytes]\
            .reshape(h, rowbytes)
        arr = unpack_rows(rows, bpc, w * ncomp).reshape(h, w, ncomp)
        if pal is None:
            arr = arr * np.uint8(255 // ((1 << bpc) - 1))
    else:
        raise ValueError(f"PDF image bpc {bpc}")
    arr = arr.astype(np.uint8) if arr.dtype != np.uint16 else arr
    if pal is not None:
        arr = pal[arr[:, :, 0]]
        return arr[:, :, 0] if arr.shape[2] == 1 else arr
    return arr[:, :, 0] if ncomp == 1 else arr


def _mat_mul(m1, m2):
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
            e1 * a2 + f1 * c2 + e2, e1 * b2 + f1 * d2 + f2)


def _placed_images(pdf: PdfFile, page: dict):
    """Walk the content stream(s): yield (image_stream, ctm) for each
    image XObject drawn (q/Q/cm/Do; nested Form XObjects recursed)."""
    res = pdf.resolve(page.get("Resources")) or {}
    content = pdf.resolve(page.get("Contents"))
    chunks = []
    items = content if isinstance(content, list) else [content]
    for c in items:
        c = pdf.resolve(c)
        if isinstance(c, Stream):
            chunks.append(decode_stream(pdf, c))
    out = []
    _walk_content(pdf, b"\n".join(chunks), res,
                  (1, 0, 0, 1, 0, 0), out, 0)
    return out


def _walk_content(pdf, data, res, base_ctm, out, depth):
    if depth > 8:
        return
    xobjs = pdf.resolve(res.get("XObject")) or {}
    lx = _Lexer(data)
    stack = []
    ctm = base_ctm
    operands = []
    while True:
        save = lx.pos
        tok = lx.token()
        if tok is None:
            break
        if tok in (b"<<", b"[", b"(", b"<") or tok.startswith(b"/") or \
                re.fullmatch(rb"[-+.0-9]+", tok):
            lx.pos = save
            operands.append(lx.value())
            continue
        op = tok
        if op == b"q":
            stack.append(ctm)
        elif op == b"Q":
            ctm = stack.pop() if stack else base_ctm
        elif op == b"cm" and len(operands) >= 6:
            m = tuple(float(v) for v in operands[-6:])
            ctm = _mat_mul(m, ctm)
        elif op == b"Do" and operands:
            name = operands[-1]
            xo = pdf.resolve(xobjs.get(str(name)))
            if isinstance(xo, Stream):
                sub = pdf.resolve(xo.dict.get("Subtype"))
                if sub == "Image":
                    out.append((xo, ctm))
                elif sub == "Form":
                    m = pdf.resolve(xo.dict.get("Matrix")) or \
                        [1, 0, 0, 1, 0, 0]
                    inner = _mat_mul(tuple(float(v) for v in m), ctm)
                    fres = pdf.resolve(xo.dict.get("Resources")) or res
                    _walk_content(pdf, decode_stream(pdf, xo), fres,
                                  inner, out, depth + 1)
        elif op == b"BI":
            e = data.find(b"EI", lx.pos)
            lx.pos = len(data) if e < 0 else e + 2
        operands = [] if op not in (b"q", b"Q") else operands
    return out


# ------------------------------------------------------------- georef


_DATUM_PROJ = {
    "WE": "+ellps=WGS84", "WGS84": "+ellps=WGS84",
    "NAS": "+datum=NAD27", "NAR": "+ellps=GRS80 +towgs84=0,0,0,0,0,0,0",
}


def _lgi_proj4(pdf: PdfFile, proj: dict) -> str | None:
    """OGC BP Projection dict -> proj string (ParseProjDict subset)."""
    ptype = pdf.resolve(proj.get("ProjectionType"))
    datum = pdf.resolve(proj.get("Datum"))
    if isinstance(datum, bytes):
        datum = datum.decode("latin1")
    ell = _DATUM_PROJ.get(str(datum or "WE"), "+ellps=WGS84")
    if isinstance(ptype, bytes):
        ptype = ptype.decode("latin1")

    def g(k, d=0.0):
        v = pdf.resolve(proj.get(k))
        return float(v) if v is not None else d

    if ptype in ("UT",):                         # UTM
        zone = int(g("Zone", 0))
        hemi = pdf.resolve(proj.get("Hemisphere"))
        south = " +south" if str(hemi or "N").upper().startswith("S") \
            else ""
        return f"+proj=utm +zone={zone}{south} {ell}"
    if ptype in ("TC",):                         # Transverse Mercator
        return (f"+proj=tmerc +lat_0={g('OriginLatitude')} "
                f"+lon_0={g('CentralMeridian')} "
                f"+k={g('ScaleFactor', 1.0)} "
                f"+x_0={g('FalseEasting')} +y_0={g('FalseNorthing')} "
                f"{ell}")
    if ptype in ("LE",):                         # LCC 2SP
        return (f"+proj=lcc +lat_0={g('OriginLatitude')} "
                f"+lon_0={g('CentralMeridian')} "
                f"+lat_1={g('StandardParallelOne')} "
                f"+lat_2={g('StandardParallelTwo')} "
                f"+x_0={g('FalseEasting')} +y_0={g('FalseNorthing')} "
                f"{ell}")
    if ptype in ("MC",):                         # Mercator
        return (f"+proj=merc +lat_ts={g('StandardParallelOne')} "
                f"+lon_0={g('CentralMeridian')} {ell}")
    if ptype in ("GEOGRAPHIC", "GEODETIC", None):
        return f"+proj=longlat {ell}"
    return None


def _parse_lgidict(pdf: PdfFile, lgi, page_h_pts: float,
                   user_unit: float):
    """OGC encoding best practice: returns (gt, proj4, neatline)."""
    lgi = pdf.resolve(lgi)
    cands = lgi if isinstance(lgi, list) else [lgi]
    best = None
    for c in cands:
        c = pdf.resolve(c)
        if isinstance(c, dict):
            if pdf.resolve(c.get("CTM")) is not None or best is None:
                best = c
    if best is None:
        return None, None, None
    d = best
    proj4 = None
    proj = pdf.resolve(d.get("Projection"))
    if isinstance(proj, dict):
        proj4 = _lgi_proj4(pdf, proj)
    gt = None
    ctm = pdf.resolve(d.get("CTM"))
    if isinstance(ctm, list) and len(ctm) == 6:
        m = [float(pdf.resolve(v)) for v in ctm]
        # rotation-0 page: mediabox origin assumed (0, 0)
        gt = (m[4] + m[2] * page_h_pts,
              m[0] / user_unit, -m[2] / user_unit,
              m[5] + m[3] * page_h_pts,
              m[1] / user_unit, -m[3] / user_unit)
    neat = None
    nl = pdf.resolve(d.get("Neatline"))
    if isinstance(nl, list) and len(nl) >= 6 and ctm:
        m = [float(pdf.resolve(v)) for v in ctm]
        pts = [(float(pdf.resolve(nl[i])), float(pdf.resolve(nl[i + 1])))
               for i in range(0, len(nl) - 1, 2)]
        neat = [(m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])
                for x, y in pts]
        if neat and neat[0] != neat[-1]:
            neat.append(neat[0])
    return gt, proj4, neat


def _parse_vp(pdf: PdfFile, vp, media_w, media_h, nx, ny):
    """ISO 32000 /VP array: returns (gt, srs_spec, neatline)."""
    vp = pdf.resolve(vp)
    if isinstance(vp, dict):
        vp = [vp]
    best, area = None, -1.0
    for elt in vp or []:
        elt = pdf.resolve(elt)
        if not isinstance(elt, dict):
            continue
        meas = pdf.resolve(elt.get("Measure"))
        if not isinstance(meas, dict) or \
                pdf.resolve(meas.get("Subtype")) != "GEO":
            continue
        bbox = [float(pdf.resolve(v))
                for v in pdf.resolve(elt.get("BBox")) or [0] * 4]
        a = abs(bbox[2] - bbox[0]) * abs(bbox[3] - bbox[1])
        if a > area:
            best, area = (elt, meas, bbox), a
    if best is None:
        return None, None, None
    elt, meas, bbox = best
    ulx, uly = bbox[0], media_h - bbox[1]
    lrx, lry = bbox[2], media_h - bbox[3]
    gpts = [float(pdf.resolve(v)) for v in pdf.resolve(meas.get("GPTS"))]
    lpts = [float(pdf.resolve(v))
            for v in pdf.resolve(meas.get("LPTS")) or
            [0, 1, 0, 0, 1, 0, 1, 1][:len(gpts)]]
    gcs = pdf.resolve(meas.get("GCS")) or {}
    epsg = pdf.resolve(gcs.get("EPSG"))
    wkt = pdf.resolve(gcs.get("WKT"))
    if isinstance(wkt, bytes):
        wkt = wkt.decode("latin1")
    srs_spec = f"EPSG:{int(epsg)}" if epsg else wkt
    is_projected = bool(wkt and wkt.lstrip().upper().startswith("PROJCS")) \
        or (epsg and not (4000 <= int(epsg) <= 4999))
    # reproject GPTS lat/lon into the target CRS when projected
    xs, ys, px_, ln_ = [], [], [], []
    tf = None
    if is_projected:
        try:
            from ..core.srs import crs_from
            tf = crs_from(wkt if wkt else f"EPSG:{int(epsg)}")
        except Exception:
            tf = None
    # (northing, easting) heuristic: GPTS outside lat/lon range
    reproject = tf is not None
    for i in range(0, len(gpts), 2):
        if abs(gpts[i]) > 91 or abs(gpts[i + 1]) > 361:
            reproject = False
    neat = []
    for i in range(len(gpts) // 2):
        lat, lon = gpts[2 * i], gpts[2 * i + 1]
        if reproject:
            x, y = tf.lonlat_to_xy(lon, lat)
            x, y = float(x), float(y)
        else:
            x, y = lon, lat
        px = (ulx * (1 - lpts[2 * i]) + lrx * lpts[2 * i]) / media_w * nx
        ln = (uly * (1 - lpts[2 * i + 1]) + lry * lpts[2 * i + 1]) \
            / media_h * ny
        xs.append(x)
        ys.append(y)
        px_.append(px)
        ln_.append(ln)
        neat.append((x, y))
    from ..core.gcp import gcps_to_geotransform
    gcps = [(px_[i], ln_[i], xs[i], ys[i]) for i in range(len(xs))]
    gt = gcps_to_geotransform(gcps)
    if gt is not None:
        # nullify numerically-insignificant rotation terms
        ps = min(abs(gt[1]), abs(gt[5]))
        if max(abs(gt[2]), abs(gt[4])) < 1e-5 * ps:
            lrx2 = gt[0] + nx * gt[1] + ny * gt[2]
            lry2 = gt[3] + nx * gt[4] + ny * gt[5]
            gt = (gt[0], (lrx2 - gt[0]) / nx, 0.0,
                  gt[3], 0.0, (lry2 - gt[3]) / ny)
    if neat and neat[0] != neat[-1]:
        neat.append(neat[0])
    return gt, srs_spec, neat


# ------------------------------------------------------------ read API


def read_pdf(path_or_bytes, dpi: float | None = None, page: int = 1,
             pixels: bool = True):
    """Open a (geospatial) PDF -> (pixels, gt, nodata, meta).

    dpi=None applies the reference's DPI guess: size the raster so the
    largest placed image renders 1:1 (pdfdataset.cpp
    GuessDPIAndBandCount); explicit dpi overrides like the DPI open
    option."""
    raw = path_or_bytes if isinstance(path_or_bytes, bytes) \
        else open(path_or_bytes, "rb").read()
    pdf = PdfFile(raw)
    pages = pdf.pages()
    if not pages:
        raise ValueError("PDF has no pages")
    pg = pages[page - 1]
    media = [float(pdf.resolve(v))
             for v in pdf.resolve(pg.get("MediaBox")) or [0, 0, 612, 792]]
    x1, y1, x2, y2 = media
    pw, ph = x2 - x1, y2 - y1
    user_unit = float(pdf.resolve(pg.get("UserUnit", 1)) or 1)

    placed = _placed_images(pdf, pg) if pixels or dpi is None else []
    if dpi is None:
        guess = 150.0
        found = False
        for st, ctm in placed:
            w = float(pdf.resolve(st.dict.get("Width")))
            h = float(pdf.resolve(st.dict.get("Height")))
            if abs(ctm[1]) < 1e-10 and abs(ctm[2]) < 1e-10 and ctm[0]:
                dx = w / abs(ctm[0]) * 72.0
                dy = h / abs(ctm[3]) * 72.0
                if not found or dx > guess:
                    guess = max(dx, dy)
                    found = True
        if found:
            dpi = round(guess, 5)
        elif "UserUnit" in pg:
            # page /UserUnit overrides: dpi = userunit * 72
            # (pdfdataset.cpp GuessDPIAndBandCount tail)
            dpi = user_unit * 72.0
            user_unit = 1.0
        else:
            dpi = 150.0
    usr = dpi / 72.0 * user_unit
    nx = int(pw * usr + 0.5)
    ny = int(ph * usr + 0.5)

    if not pixels:
        gt = srs = neat = None
        meta = {"dpi": dpi, "size": (nx, ny), "page_size": (pw, ph)}
        lgi = pg.get("LGIDict")
        vp = pg.get("VP")
        if lgi is not None:
            gt, srs, neat = _parse_lgidict(pdf, lgi, y2, usr)
        elif vp is not None:
            gt, srs, neat = _parse_vp(pdf, vp, pw, ph, nx, ny)
        if srs:
            meta["crs"] = srs
        if neat:
            meta["neatline"] = neat
        return None, gt, None, meta

    # composite the placed images onto the raster canvas
    nbands = 1
    for st, ctm in placed:
        d = st.dict
        cs = pdf.resolve(d.get("ColorSpace"))
        if cs in ("DeviceRGB", "CalRGB") or isinstance(cs, list):
            nbands = 3
    canvas = np.zeros((ny, nx, nbands), np.uint8)
    for st, ctm in placed:
        try:
            img = _decode_image(pdf, st)
        except Exception:
            continue
        if img.dtype == np.uint16:
            img = (img >> 8).astype(np.uint8)
        if img.ndim == 2 and nbands == 3:
            img = np.repeat(img[:, :, None], 3, axis=2)
        if img.ndim == 3 and img.shape[2] > nbands:
            img = img[:, :, :nbands]
        if img.ndim == 2:
            img = img[:, :, None]
        # target rect in raster pixels (axis-aligned CTM)
        ex = ctm[4] - x1
        fy = ctm[5] - y1
        px0 = int(round(ex * usr))
        px1 = int(round((ex + ctm[0]) * usr))
        row1 = int(round((ph - fy) * usr))
        row0 = int(round((ph - fy - ctm[3]) * usr))
        px0, px1 = min(px0, px1), max(px0, px1)
        row0, row1 = min(row0, row1), max(row0, row1)
        px0c, px1c = max(0, px0), min(nx, px1)
        row0c, row1c = max(0, row0), min(ny, row1)
        if px1c <= px0c or row1c <= row0c:
            continue
        ih, iw = img.shape[:2]
        cols = np.clip(((np.arange(px0c, px1c) + 0.5 - px0)
                        / max(px1 - px0, 1) * iw).astype(int), 0, iw - 1)
        rows = np.clip(((np.arange(row0c, row1c) + 0.5 - row0)
                        / max(row1 - row0, 1) * ih).astype(int), 0,
                       ih - 1)
        canvas[row0c:row1c, px0c:px1c] = img[rows[:, None], cols[None, :]]

    gt = srs = neat = None
    meta: dict = {"dpi": dpi}
    lgi = pg.get("LGIDict")
    vp = pg.get("VP")
    if lgi is not None:
        gt, srs, neat = _parse_lgidict(pdf, lgi, y2, usr)
    elif vp is not None:
        gt, srs, neat = _parse_vp(pdf, vp, pw, ph, nx, ny)
    if srs:
        meta["crs"] = srs
    if neat:
        meta["neatline"] = neat
    px = canvas[:, :, 0] if nbands == 1 else canvas
    return px, gt, None, meta


# ------------------------------------------------------------ writer


def _wkt_geogcs_corners(gt, nx, ny, crs_spec):
    """Corner pixel coords -> lat/lon via the CRS inverse."""
    from ..core.srs import crs_from
    corners_px = [(0, 0), (0, ny), (nx, ny), (nx, 0)]   # UL LL LR UR
    out = []
    tf = None
    if crs_spec and "longlat" not in str(crs_spec):
        try:
            tf = crs_from(crs_spec)
        except Exception:
            tf = None
    for cx, cy in corners_px:
        x = gt[0] + cx * gt[1] + cy * gt[2]
        y = gt[3] + cx * gt[4] + cy * gt[5]
        if tf is not None:
            lon, lat = tf.xy_to_lonlat(x, y)
            out.append((float(lat), float(lon)))
        else:
            out.append((y, x))
    return out


def write_pdf(px: np.ndarray, gt, path: str, *, crs=None,
              wkt: str | None = None, epsg: int | None = None,
              dpi: float = 72.0) -> int:
    """Raster -> single-page geospatial PDF (ISO 32000 /VP Measure GEO
    georeferencing, FlateDecode image XObject), laid out like the
    reference writer (pdfcreatecopy.cpp object graph)."""
    px = np.asarray(px)
    if px.ndim == 2:
        h, w = px.shape
        ncomp, csname = 1, "DeviceGray"
        payload = px.astype(np.uint8).tobytes()
    else:
        h, w = px.shape[:2]
        ncomp, csname = 3, "DeviceRGB"
        payload = px[:, :, :3].astype(np.uint8).tobytes()
    pw = w * 72.0 / dpi
    ph = h * 72.0 / dpi
    comp = zlib.compress(payload, 6)

    corners = _wkt_geogcs_corners(gt, w, h, crs or wkt or
                                  (f"EPSG:{epsg}" if epsg else None))
    gpts = " ".join(f"{lat:.16g} {lon:.16g}" for lat, lon in corners)
    gcs_type = "PROJCS" if (wkt and wkt.lstrip().upper().
                            startswith("PROJCS")) or (
        crs and "longlat" not in str(crs) and not str(crs).startswith(
            "EPSG:43")) else "GEOGCS"
    gcs_parts = [f"/Type /{gcs_type}"]
    if epsg:
        gcs_parts.append(f"/EPSG {int(epsg)}")
    if wkt:
        esc = wkt.replace("\\", r"\\").replace("(", r"\(")\
            .replace(")", r"\)")
        gcs_parts.append(f"/WKT ({esc})")
    elif crs:
        esc = str(crs).replace("\\", r"\\").replace("(", r"\(")\
            .replace(")", r"\)")
        gcs_parts.append(f"/WKT ({esc}) /PROJ4 ({esc})")

    objs: dict[int, bytes] = {}
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = b"<< /Type /Pages /Count 1 /Kids [ 3 0 R ] >>"
    objs[3] = (f"<< /Type /Page /Parent 2 0 R "
               f"/MediaBox [ 0 0 {pw:.10g} {ph:.10g} ] /UserUnit 1 "
               f"/Contents 4 0 R /Resources 5 0 R /VP [ 7 0 R ] "
               f">>").encode()
    content = f"q\n{pw:.10g} 0 0 {ph:.10g} 0 0 cm\n/Image10 Do\nQ\n"\
        .encode()
    objs[4] = (f"<< /Length {len(content)} >>\nstream\n".encode() +
               content + b"\nendstream")
    objs[5] = b"<< /XObject << /Image10 10 0 R >> >>"
    objs[7] = (f"<< /Type /Viewport /BBox [ 0 0 {pw:.10g} {ph:.10g} ] "
               f"/Name (Layers) /Measure 8 0 R >>").encode()
    objs[8] = (f"<< /Type /Measure /Subtype /GEO "
               f"/Bounds [ 0 1 0 0 1 0 1 1 ] "
               f"/GPTS [ {gpts} ] /LPTS [ 0 1 0 0 1 0 1 1 ] "
               f"/GCS 9 0 R >>").encode()
    objs[9] = ("<< " + " ".join(gcs_parts) + " >>").encode()
    objs[10] = (f"<< /Type /XObject /Subtype /Image /Width {w} "
                f"/Height {h} /BitsPerComponent 8 "
                f"/ColorSpace /{csname} /Filter /FlateDecode "
                f"/Length {len(comp)} >>\nstream\n").encode() + \
        comp + b"\nendstream"

    out = bytearray(b"%PDF-1.6\n%\xff\xff\xff\xff\n")
    offsets = {}
    for num in sorted(objs):
        offsets[num] = len(out)
        out += f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n"
    xref_at = len(out)
    maxnum = max(objs)
    out += f"xref\n0 {maxnum + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for num in range(1, maxnum + 1):
        if num in offsets:
            out += f"{offsets[num]:010d} 00000 n \n".encode()
        else:
            out += b"0000000000 65535 f \n"
    out += (f"trailer\n<< /Size {maxnum + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_at}\n%%EOF\n").encode()
    open(path, "wb").write(bytes(out))
    return h * w
