"""Test-side LZW encoders for the three variants the codecs decode:
TIFF and PDF (MSB-first codes, ClearCode 256 and EOI 257, the code
width grows one code early unless ``early_change=0``) and GIF
(LSB-first codes, CLEAR = 1 << min_bits, no early change). Written
from the published specs so the decoders are checked against an
independent implementation, not against themselves."""

from __future__ import annotations


def _pack(codes, lsb: bool) -> bytes:
    """(code, width) pairs → bytes, MSB- or LSB-first."""
    acc = 0
    n = 0
    if lsb:
        for code, width in codes:
            acc |= code << n
            n += width
        return acc.to_bytes((n + 7) // 8, "little")
    for code, width in codes:
        acc = (acc << width) | code
        n += width
    pad = -n % 8
    return (acc << pad).to_bytes((n + pad) // 8, "big")


def lzw_codes(data: bytes, *, min_bits: int = 8, early_change: int = 1,
              clear_every: int | None = None):
    """``data`` → the (code, width) sequence an encoder emits: CLEAR
    first, CLEAR again when the table is full (12-bit codes) or every
    ``clear_every`` codes, EOI last."""
    clear = 1 << min_bits
    eoi = clear + 1
    codes = []

    def reset():
        return {bytes([i]): i for i in range(clear)}, eoi + 1, min_bits + 1

    table, nxt, width = reset()
    codes.append((clear, width))
    since = 0
    prev = b""
    for v in data:
        cur = prev + bytes([v])
        if cur in table:
            prev = cur
            continue
        codes.append((table[prev], width))
        since += 1
        table[cur] = nxt
        nxt += 1
        # the decoder's table lags the encoder's by one entry
        if nxt - 1 + early_change >= (1 << width) and width < 12:
            width += 1
        if nxt + early_change >= 4096 or (clear_every and
                                          since >= clear_every):
            codes.append((clear, width))
            table, nxt, width = reset()
            since = 0
        prev = bytes([v])
    if prev:
        codes.append((table[prev], width))
        nxt += 1
        if nxt - 1 + early_change >= (1 << width) and width < 12:
            width += 1
    codes.append((eoi, width))
    return codes


def lzw_encode(data: bytes, *, lsb: bool = False, min_bits: int = 8,
               early_change: int = 1,
               clear_every: int | None = None) -> bytes:
    return _pack(lzw_codes(data, min_bits=min_bits,
                           early_change=early_change,
                           clear_every=clear_every), lsb)


def tiff_lzw(data: bytes, **kw) -> bytes:
    return lzw_encode(data, lsb=False, min_bits=8, early_change=1, **kw)


def gif_lzw(data: bytes, min_bits: int, **kw) -> bytes:
    return lzw_encode(data, lsb=True, min_bits=min_bits, early_change=0,
                      **kw)
