"""GIF raster codec — pure-Python LZW decoder + encoder.

Reference: frmts/gif/gifdataset.cpp (via giflib; the raster band is
the palette-index plane, color table exposed separately, transparency
from the 89a Graphic Control Extension, interlaced row order
supported). This is an independent implementation of the published
GIF87a/89a spec: logical screen + image descriptors, global/local
color tables, variable-width LSB-first LZW with CLEAR/EOI handling,
4-pass interlacing.

Golden parity (tests/test_gif.py): bug407.gif → checksum 57921 on the
index band (autotest/gdrivers/gif.py:48).
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import LsbWriter, lzw_decode

__all__ = ["decode_gif", "encode_gif"]


def _sub_blocks(buf: bytes, pos: int):
    """Data sub-blocks from ``pos`` → (joined payload, position after
    the zero-length terminator)."""
    chunks = []
    while pos < len(buf) and buf[pos]:
        chunks.append(buf[pos + 1:pos + 1 + buf[pos]])
        pos += 1 + buf[pos]
    if pos >= len(buf):
        raise ValueError("truncated GIF sub-block chain")
    return b"".join(chunks), pos + 1


def decode_gif(buf: bytes):
    """GIF bytes → (indices (h, w) uint8, palette (n, 3) uint8,
    transparent_index | None). First frame only (the reference's GIF
    driver also exposes frame 1 as the dataset)."""
    if buf[:6] not in (b"GIF87a", b"GIF89a") or len(buf) < 13:
        raise ValueError("not a GIF file")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", buf, 6)
    pos = 13
    palette = None
    if packed & 0x80:
        n = 2 << (packed & 7)
        palette = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3
    transparent = None
    while pos < len(buf):
        b = buf[pos]
        if b == 0x3B:                        # trailer
            break
        if b == 0x21:                        # extension
            label = buf[pos + 1:pos + 2]
            ext, pos = _sub_blocks(buf, pos + 2)
            if label == b"\xF9" and len(ext) >= 4 and ext[0] & 1:
                transparent = ext[3]
            continue
        if b != 0x2C:
            raise ValueError(f"unexpected GIF block 0x{b:02X}")
        if pos + 11 > len(buf):
            raise ValueError("truncated GIF image descriptor")
        left, top, w, h, ipack = struct.unpack_from("<HHHHB", buf, pos + 1)
        pos += 10
        pal = palette
        if ipack & 0x80:
            n = 2 << (ipack & 7)
            pal = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        if pos >= len(buf):
            raise ValueError("truncated GIF image data")
        mcs = buf[pos]
        data, pos = _sub_blocks(buf, pos + 1)
        # a truncated stream decodes as far as it goes (best effort)
        flat = lzw_decode(data, lsb=True, min_bits=mcs,
                          early_change=0, limit=w * h)
        img = np.zeros(w * h, np.uint8)
        img[:len(flat)] = np.frombuffer(flat, np.uint8)
        img = img.reshape(h, w)
        if ipack & 0x40:                     # interlaced: 4-pass order
            rows = np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                                   np.arange(2, h, 4), np.arange(1, h, 2)])
            out = np.empty_like(img)
            out[rows] = img
            img = out
        if pal is None:
            pal = np.stack([np.arange(256)] * 3, 1).astype(np.uint8)
        return img, pal, transparent
    raise ValueError("GIF contains no image block")


def _lzw_encode(mcs: int, pixels: np.ndarray) -> bytes:
    clear = 1 << mcs
    eoi = clear + 1
    bw = LsbWriter()
    emit = bw.put
    width = mcs + 1
    table = {bytes([i]): i for i in range(clear)}
    nxt = eoi + 1
    emit(clear, width)
    prev = b""
    for v in pixels.tobytes():
        cur = prev + bytes([v])
        if cur in table:
            prev = cur
            continue
        emit(table[prev], width)
        table[cur] = nxt
        nxt += 1
        if nxt - 1 == (1 << width) and width < 12:
            width += 1
        if nxt >= 4096:
            emit(clear, width)
            table = {bytes([i]): i for i in range(clear)}
            nxt = eoi + 1
            width = mcs + 1
        prev = bytes([v])
    if prev:
        emit(table[prev], width)
    emit(eoi, width)
    return bw.finish()


def encode_gif(indices: np.ndarray, palette: np.ndarray,
               transparent: int | None = None) -> bytes:
    """(h, w) uint8 palette indices + (n, 3) palette → GIF89a bytes."""
    img = np.ascontiguousarray(indices, np.uint8)
    if img.ndim != 2:
        raise ValueError("GIF stores a single palette-index band")
    h, w = img.shape
    pal = np.asarray(palette, np.uint8)
    bits = max(1, int(np.ceil(np.log2(max(len(pal), 2)))))
    n = 1 << bits
    table = np.zeros((n, 3), np.uint8)
    table[:len(pal)] = pal[:n]
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | ((bits - 1) & 7), 0, 0)
    out += table.tobytes()
    if transparent is not None:
        out += bytes([0x21, 0xF9, 4, 1, 0, 0, transparent & 0xFF, 0])
    out += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0)
    mcs = max(2, bits)
    out += bytes([mcs])
    payload = _lzw_encode(mcs, img.reshape(-1))
    for i in range(0, len(payload), 255):
        chunk = payload[i:i + 255]
        out += bytes([len(chunk)]) + chunk
    out += b"\x00\x3B"
    return bytes(out)
