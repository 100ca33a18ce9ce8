"""Minimal PNG codec — pure numpy + zlib, standard-conformant output.

Covers the subset our raster model needs (reference driver:
frmts/png/pngdataset.cpp behavior): 8/16-bit grayscale, gray+alpha,
RGB, RGBA; Adam7 interlaced reads. Encodes 8-bit with filter type 0
(None) per scanline — simple, fast and deterministic; decodes all five
standard filter types (None/Sub/Up/Average/Paeth) so any conformant
producer round-trips. Golden: the reference's uint16_interlaced.png →
checksum 4672 (autotest/gdrivers/png.py:565).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ._bits import unpack_rows

_SIG = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPE = {1: 0, 2: 4, 3: 2, 4: 6}  # nbands -> PNG color type
_NBANDS = {0: 1, 4: 2, 2: 3, 6: 4}


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))


def encode(img: np.ndarray, level: int = 6) -> bytes:
    """(h, w) or (h, w, bands) uint8 → PNG bytes."""
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, nb = img.shape
    if img.dtype != np.uint8:
        raise ValueError("png codec is 8-bit only")
    if nb not in _COLOR_TYPE:
        raise ValueError(f"unsupported band count {nb}")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, _COLOR_TYPE[nb], 0, 0, 0)
    # scanlines with filter byte 0 prepended
    raw = np.empty((h, 1 + w * nb), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = np.ascontiguousarray(img).reshape(h, w * nb)
    idat = zlib.compress(raw.tobytes(), level)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


# Adam7 pass grid: (x0, y0, dx, dy) per pass (the published PNG spec)
_ADAM7 = [(0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2)]


def decode(buf: bytes, expand_palette: bool = False) -> np.ndarray:
    """PNG bytes → (h, w, bands) uint8 or uint16 (bands dim kept even
    for gray). Handles bit depth 8/16 and Adam7 interlacing (each pass
    is an independently-filtered sub-image scattered onto the output
    grid, per the published spec)."""
    if buf[:8] != _SIG:
        raise ValueError("not a PNG")
    off = 8
    w = h = nb = None
    plte = trns = None
    idat = bytearray()
    while off < len(buf):
        (ln,) = struct.unpack_from(">I", buf, off)
        tag = buf[off + 4:off + 8]
        data = buf[off + 8:off + 8 + ln]
        off += 12 + ln
        if tag == b"PLTE":
            plte = data
        elif tag == b"tRNS":
            trns = data
        elif tag == b"IHDR":
            w, h, depth, ctype, comp, filt, inter = struct.unpack(">IIBBBBB", data)
            ok_depth = (8, 16) if ctype not in (0, 3) else (1, 2, 4, 8, 16)
            if ctype == 3 and depth == 16:
                ok_depth = (1, 2, 4, 8)
            if depth not in ok_depth or inter not in (0, 1) or \
                    (ctype not in _NBANDS and ctype != 3):
                raise ValueError("unsupported PNG variant")
            nb = 1 if ctype == 3 else _NBANDS[ctype]
        elif tag == b"IDAT":
            idat += data
        elif tag == b"IEND":
            break
    payload = zlib.decompress(bytes(idat))

    if depth < 8:
        # sub-byte grayscale / palette indices: filters act on the
        # packed row bytes with bpp=1, then bits unpack MSB-first
        def rowdec(chunk, pw, ph):
            rb = (pw * depth + 7) // 8
            sub = _unfilter(chunk, rb, ph, 1, 1)
            return unpack_rows(sub.astype(np.uint8).reshape(ph, rb),
                               depth, pw)

        if inter == 1:
            out = np.zeros((h, w, 1), np.uint8)
            pos = 0
            for x0, y0, dx, dy in _ADAM7:
                pw = (w - x0 + dx - 1) // dx
                ph = (h - y0 + dy - 1) // dy
                if pw == 0 or ph == 0:
                    continue
                nbytes = ph * (1 + (pw * depth + 7) // 8)
                out[y0::dy, x0::dx, 0][:ph, :pw] = \
                    rowdec(payload[pos:pos + nbytes], pw, ph)
                pos += nbytes
        else:
            out = rowdec(payload, w, h)[:, :, None]
        if expand_palette and ctype == 3 and plte is not None:
            return _expand_plte(out[:, :, 0], plte, trns)
        return out

    sw = depth // 8                           # sample width in bytes

    if inter == 1:
        out16 = np.zeros((h, w, nb), np.uint16)
        pos = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw == 0 or ph == 0:
                continue
            nbytes = ph * (1 + pw * nb * sw)
            sub = _unfilter(payload[pos:pos + nbytes], pw, ph, nb, sw)
            pos += nbytes
            vals = sub if depth == 8 else \
                sub.reshape(ph, pw * nb, 2)[:, :, 0].astype(np.uint16) * 256 \
                + sub.reshape(ph, pw * nb, 2)[:, :, 1]
            vals = vals.reshape(ph, pw, nb)
            out16[y0::dy, x0::dx][:ph, :pw] = vals
        return out16.astype(np.uint8) if depth == 8 else out16

    sub = _unfilter(payload, w, h, nb, sw)
    if depth == 16:
        b16 = sub.reshape(h, w * nb, 2)
        return (b16[:, :, 0].astype(np.uint16) * 256
                + b16[:, :, 1]).reshape(h, w, nb)
    out = sub.astype(np.uint8).reshape(h, w, nb)
    if expand_palette and ctype == 3 and plte is not None:
        return _expand_plte(out[:, :, 0], plte, trns)
    return out


def _unfilter(payload: bytes, w: int, h: int, nb: int,
              sw: int = 1) -> np.ndarray:
    """Undo per-scanline filters → (h, w*nb*sw) BYTE array (the filter
    algebra works on bytes regardless of sample depth)."""
    raw = np.frombuffer(payload, dtype=np.uint8,
                        count=h * (1 + w * nb * sw))
    stride = 1 + w * nb * sw
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    data = raw[:, 1:].astype(np.int32)
    wb = w * nb * sw
    if np.all(filters == 0):
        return data.astype(np.uint8)
    out = np.zeros((h, wb), dtype=np.int32)
    bpp = nb * sw
    for y in range(h):
        f = filters[y]
        line = data[y].copy()
        prev = out[y - 1] if y > 0 else np.zeros(wb, dtype=np.int32)
        if f == 0:
            out[y] = line
        elif f == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif f == 1:  # Sub
            for i in range(wb):
                left = out[y, i - bpp] if i >= bpp else 0
                out[y, i] = (line[i] + left) & 0xFF
        elif f == 3:  # Average
            for i in range(wb):
                left = out[y, i - bpp] if i >= bpp else 0
                out[y, i] = (line[i] + (left + prev[i]) // 2) & 0xFF
        elif f == 4:  # Paeth
            for i in range(wb):
                a = out[y, i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                out[y, i] = (line[i] + pred) & 0xFF
        else:
            raise ValueError(f"bad filter {f}")
    return out.astype(np.uint8)


def _expand_plte(idx: "np.ndarray", plte: bytes, trns):
    """Palette indices → (h, w, 4) RGBA via PLTE (+ tRNS alpha)."""
    pal = np.frombuffer(plte, np.uint8)
    n = len(pal) // 3
    rgba = np.zeros((256, 4), np.uint8)
    rgba[:, 3] = 255
    rgba[:n, :3] = pal[:n * 3].reshape(n, 3)
    if trns:
        a = np.frombuffer(trns, np.uint8)
        rgba[:len(a), 3] = a
    return rgba[idx]
