"""BMP codec — the reference's BMP driver (frmts/bmp/bmpdataset.cpp):
BITMAPINFOHEADER files, 1/4/8-bit paletted (incl. RLE4/RLE8) and
24-bit BGR, bottom-up or top-down rows, 4-byte row padding.

Paletted files decode to the INDEX array plus the color table (the
reference exposes the index band with a GDALColorTable — its
checksums are over indices, which is what the golden values in
autotest/gcore/bmp_read.py:34-41 assert: 1bit→200, 4bit_pal→2587,
4bit_rle4→2587, 8bit_pal→4672, byte_rle8→4672).
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import unpack_rows

__all__ = ["decode_bmp", "encode_bmp"]


def decode_bmp(buf: bytes):
    """→ (pixels, palette): pixels (h, w) uint8 indices for paletted
    files (palette (n, 3) RGB uint8) or (h, w, 3) RGB with palette
    None for 24-bit."""
    if buf[:2] != b"BM":
        raise ValueError("not a BMP file")
    data_off = struct.unpack_from("<I", buf, 10)[0]
    hdr_size = struct.unpack_from("<I", buf, 14)[0]
    if hdr_size < 40:
        raise ValueError("BITMAPCOREHEADER not supported")
    w, h_signed = struct.unpack_from("<ii", buf, 18)
    bits = struct.unpack_from("<H", buf, 28)[0]
    comp = struct.unpack_from("<I", buf, 30)[0]
    clr_used = struct.unpack_from("<I", buf, 46)[0]
    top_down = h_signed < 0
    h = abs(h_signed)

    palette = None
    if bits <= 8:
        n_pal = clr_used or (1 << bits)
        pal_off = 14 + hdr_size
        raw = np.frombuffer(buf, np.uint8, n_pal * 4, pal_off)
        bgrx = raw.reshape(-1, 4)
        palette = bgrx[:, [2, 1, 0]].copy()   # BGR → RGB

    if comp == 0:                              # BI_RGB
        row_bytes = (w * bits + 7) // 8
        stride = (row_bytes + 3) & ~3
        rows = np.frombuffer(buf, np.uint8, stride * h, data_off) \
            .reshape(h, stride)[:, :row_bytes]
        if bits == 24:
            px = rows.reshape(h, row_bytes)[:, :w * 3] \
                .reshape(h, w, 3)[:, :, ::-1].copy()   # BGR → RGB
            out = px
        elif bits == 8:
            out = rows[:, :w].copy()
        elif bits in (4, 1):
            out = unpack_rows(rows, bits, w)
        else:
            raise ValueError(f"unsupported bit depth {bits}")
    elif comp in (1, 2):                       # BI_RLE8 / BI_RLE4
        out = _decode_rle(buf[data_off:], w, h, rle4=(comp == 2))
    else:
        raise ValueError(f"unsupported BMP compression {comp}")

    if not top_down:
        out = out[::-1].copy()                 # bottom-up storage
    return out, palette


def _decode_rle(data: bytes, w: int, h: int, *, rle4: bool) -> np.ndarray:
    out = np.zeros((h, w), np.uint8)
    x = y = 0
    i = 0
    n = len(data)
    while i + 1 < n:
        cnt, val = data[i], data[i + 1]
        i += 2
        if cnt > 0:                             # encoded run
            if rle4:
                hi, lo = val >> 4, val & 0x0F
                run = np.empty(cnt, np.uint8)
                run[0::2] = hi
                run[1::2] = lo
            else:
                run = np.full(cnt, val, np.uint8)
            end = min(x + cnt, w)
            if y < h:
                out[y, x:end] = run[:end - x]
            x += cnt
        elif val == 0:                          # end of line
            x, y = 0, y + 1
        elif val == 1:                          # end of bitmap
            break
        elif val == 2:                          # delta
            x += data[i]
            y += data[i + 1]
            i += 2
        else:                                   # absolute mode
            cnt = val
            if rle4:
                nbytes = (cnt + 1) // 2
                raw = np.frombuffer(data, np.uint8, nbytes, i)
                nib = np.empty(nbytes * 2, np.uint8)
                nib[0::2] = raw >> 4
                nib[1::2] = raw & 0x0F
                run = nib[:cnt]
                i += (nbytes + 1) & ~1          # word-aligned
            else:
                run = np.frombuffer(data, np.uint8, cnt, i)
                i += (cnt + 1) & ~1
            end = min(x + cnt, w)
            if y < h:
                out[y, x:end] = run[:end - x]
            x += cnt
    return out


def encode_bmp(px: np.ndarray, palette=None) -> bytes:
    """Encode (h, w, 3) RGB as 24-bit, or (h, w) uint8 indices as
    8-bit paletted (grayscale identity palette when none given)."""
    px = np.asarray(px)
    h, w = px.shape[:2]
    if px.ndim == 3:
        bits, n_pal = 24, 0
        row_bytes = w * 3
    else:
        bits, n_pal = 8, 256
        row_bytes = w
    stride = (row_bytes + 3) & ~3
    data_off = 14 + 40 + n_pal * 4
    size = data_off + stride * h
    out = bytearray()
    out += struct.pack("<2sIHHI", b"BM", size, 0, 0, data_off)
    out += struct.pack("<IiiHHIIiiII", 40, w, h, 1, bits, 0,
                       stride * h, 2835, 2835, n_pal, 0)
    if bits == 8:
        tbl = np.zeros((256, 4), np.uint8)
        if palette is None:
            tbl[:, 0] = tbl[:, 1] = tbl[:, 2] = np.arange(256)
        else:
            p = np.asarray(palette, np.uint8)
            tbl[:len(p), 0] = p[:, 2]
            tbl[:len(p), 1] = p[:, 1]
            tbl[:len(p), 2] = p[:, 0]
        out += tbl.tobytes()
    rows = np.zeros((h, stride), np.uint8)
    if bits == 24:
        rows[:, :row_bytes] = px[:, :, ::-1].reshape(h, -1)   # RGB → BGR
    else:
        rows[:, :row_bytes] = px
    out += rows[::-1].tobytes()                               # bottom-up
    return bytes(out)
