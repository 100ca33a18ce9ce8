"""Bit-level I/O shared by the codecs: readers, writers, the LZW
decoder (TIFF, PDF and GIF variants) and fixed-width field unpacking.

End of data: a read past the end of the buffer returns zero bits and
never raises. A caller that must stop at the end compares ``pos``
with ``8 * len(data)`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MsbReader", "LsbReader", "MsbWriter", "LsbWriter",
           "lzw_decode", "unpack_fields", "unpack_rows"]


class MsbReader:
    """Bit cursor over ``data``, most significant bit of each byte
    first; ``pos`` is the bit position."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0):
        self.data = data
        self.pos = pos

    def peek(self, n: int) -> int:
        p = self.pos
        k = (n >> 3) + 2                  # window bytes covering n bits
        w = self.data[p >> 3:(p >> 3) + k]
        return ((int.from_bytes(w, "big") << ((k - len(w)) << 3))
                >> ((k << 3) - (p & 7) - n)) & ((1 << n) - 1)

    def get(self, n: int) -> int:
        p = self.pos
        self.pos = p + n
        k = (n >> 3) + 2
        w = self.data[p >> 3:(p >> 3) + k]
        return ((int.from_bytes(w, "big") << ((k - len(w)) << 3))
                >> ((k << 3) - (p & 7) - n)) & ((1 << n) - 1)

    def align(self):
        self.pos = (self.pos + 7) & ~7


class LsbReader:
    """Bit cursor over ``data``, least significant bit of each byte
    first (values are assembled low bit first)."""

    __slots__ = ("data", "pos")

    def __init__(self, data, pos: int = 0):
        self.data = data
        self.pos = pos

    def peek(self, n: int) -> int:
        p = self.pos
        return (int.from_bytes(
            self.data[p >> 3:(p >> 3) + (n >> 3) + 2],
            "little") >> (p & 7)) & ((1 << n) - 1)

    def get(self, n: int) -> int:
        p = self.pos
        self.pos = p + n
        return (int.from_bytes(
            self.data[p >> 3:(p >> 3) + (n >> 3) + 2],
            "little") >> (p & 7)) & ((1 << n) - 1)

    def align(self):
        self.pos = (self.pos + 7) & ~7


class MsbWriter:
    """Packs values most significant bit first; ``finish`` pads the
    last byte with zero bits. ``n`` is the count of pending bits."""

    __slots__ = ("out", "acc", "n")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, value: int, nbits: int):
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.n += nbits
        if self.n >= 32:
            r = self.n & 7
            self.out += (self.acc >> r).to_bytes(self.n >> 3, "big")
            self.acc &= (1 << r) - 1
            self.n = r

    def finish(self) -> bytes:
        pad = -self.n & 7
        self.out += (self.acc << pad).to_bytes((self.n + pad) >> 3, "big")
        self.acc = self.n = 0
        return bytes(self.out)


class LsbWriter:
    """Packs values least significant bit first; ``finish`` pads the
    last byte with zero bits."""

    __slots__ = ("out", "acc", "n")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def put(self, value: int, nbits: int):
        self.acc |= (value & ((1 << nbits) - 1)) << self.n
        self.n += nbits
        if self.n >= 32:
            k = self.n >> 3
            self.out += (self.acc & ((1 << (k << 3)) - 1)).to_bytes(
                k, "little")
            self.acc >>= k << 3
            self.n &= 7

    def put_bits(self, bits: np.ndarray):
        """Append a 0/1 uint8 array, first element first."""
        head = (np.int64(self.acc) >> np.arange(self.n)) & 1
        bits = np.concatenate([head.astype(np.uint8), bits])
        whole = len(bits) & ~7
        self.out += np.packbits(bits[:whole], bitorder="little").tobytes()
        tail = bits[whole:]
        self.acc = int(np.packbits(tail, bitorder="little")[0]) \
            if len(tail) else 0
        self.n = len(tail)

    def finish(self) -> bytes:
        self.out += self.acc.to_bytes((self.n + 7) >> 3, "little")
        self.acc = self.n = 0
        return bytes(self.out)


def lzw_decode(data, *, lsb: bool, min_bits: int, early_change: int,
               limit: int | None = None) -> bytes:
    """Variable-width LZW: codes start ``min_bits + 1`` wide and grow
    to 12 bits; CLEAR is ``1 << min_bits`` and EOI the code after it.
    TIFF and PDF pack codes MSB-first and widen one code early
    (``early_change=1``; PDF's /EarlyChange 0 turns that off); GIF
    packs them LSB-first with ``early_change=0``. Decoding stops at
    EOI, at the first code the data does not hold in full, or once
    ``limit`` bytes are out. A code beyond the next free table slot,
    or a non-literal first code, raises ValueError."""
    if not 0 <= min_bits <= 11:
        raise ValueError(f"LZW minimum code size {min_bits} out of range")
    clear = 1 << min_bits
    eoi = clear + 1
    base = [bytes([i]) for i in range(clear)] + [b"", b""]
    table = base[:]
    width = min_bits + 1
    stop = len(data) * 8
    order = "little" if lsb else "big"
    want = (1 << 62) if limit is None else limit
    out = bytearray()
    prev = None
    pos = 0
    while pos + width <= stop:
        b = pos >> 3
        k = ((pos & 7) + width + 7) >> 3
        word = int.from_bytes(data[b:b + k], order)
        if lsb:
            code = (word >> (pos & 7)) & ((1 << width) - 1)
        else:
            code = (word >> ((k << 3) - (pos & 7) - width)) \
                & ((1 << width) - 1)
        pos += width
        if code == clear:
            table = base[:]
            width = min_bits + 1
            prev = None
            continue
        if code == eoi:
            break
        if prev is None:
            if code >= clear:
                raise ValueError(f"corrupt LZW stream: first code {code}")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError(f"corrupt LZW stream: code {code} beyond "
                             f"table size {len(table)}")
        out += entry
        if len(out) >= want:
            break
        prev = entry
        if len(table) + early_change >= (1 << width) and width < 12:
            width += 1
    return bytes(out[:want])


def _lanes(a: np.ndarray, nbits: int, lsb: bool) -> np.ndarray:
    """uint8 bytes along the last axis → uint8 samples, 8 // ``nbits``
    per byte (``nbits`` 1, 2, 4 or 8)."""
    if nbits == 8:
        return a
    if nbits == 1:
        return np.unpackbits(a, axis=-1, bitorder="little" if lsb else "big")
    shifts = np.arange(0, 8, nbits, dtype=np.uint8)
    v = (a[..., None] >> (shifts if lsb else shifts[::-1])) \
        & np.uint8((1 << nbits) - 1)
    return v.reshape(*a.shape[:-1], -1)


def unpack_fields(buf, nbits: int, count: int, *, bit_offset: int = 0,
                  lsb: bool = False) -> np.ndarray:
    """``count`` unsigned ``nbits``-wide fields (``nbits`` <= 63) read
    from one continuous bit stream starting ``bit_offset`` bits into
    ``buf`` → int64 array. MSB-first by default; ``lsb`` reads bytes
    low bit first and assembles each field low bit first. Bits past
    the end of ``buf`` read as zero."""
    if nbits == 0 or count == 0:
        return np.zeros(count, np.int64)
    a = np.frombuffer(buf, np.uint8)[bit_offset >> 3:]
    bit_offset &= 7
    end = bit_offset + nbits * count
    nbytes = (end + 7) >> 3
    if len(a) < nbytes:
        a = np.concatenate([a, np.zeros(nbytes - len(a), np.uint8)])
    a = a[:nbytes]
    if 8 % nbits == 0 and bit_offset == 0:
        return _lanes(a, nbits, lsb)[:count].astype(np.int64)
    bits = np.unpackbits(a, bitorder="little" if lsb else "big")
    bits = bits[bit_offset:end].reshape(count, nbits).astype(np.int64)
    shifts = np.arange(nbits, dtype=np.int64)
    return bits @ (np.int64(1) << (shifts if lsb else shifts[::-1]))


def unpack_rows(rows, nbits: int, width: int) -> np.ndarray:
    """(h, rowbytes) rows of MSB-first ``nbits`` samples, each row
    padded to whole bytes → (h, width) samples: uint8 up to 8 bits,
    int64 above. Samples past the end of a row read as zero."""
    rows = np.asarray(rows, np.uint8)
    h, rowbytes = rows.shape
    need = (width * nbits + 7) >> 3
    if rowbytes < need:
        rows = np.pad(rows, ((0, 0), (0, need - rowbytes)))
    else:
        rows = rows[:, :need]
    if 8 % nbits == 0:
        return np.ascontiguousarray(_lanes(rows, nbits, False)[:, :width])
    bits = np.unpackbits(rows, axis=1)[:, :width * nbits]
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
    v = bits.reshape(h, width, nbits).astype(np.int64) @ (np.int64(1)
                                                          << shifts)
    return v.astype(np.uint8) if nbits <= 8 else v
