"""LZ4 block codec and the c-blosc v1 container, from their published
formats (lz4 block spec; c-blosc README_HEADER.rst).  The reference
Zarr driver (frmts/zarr/) wraps liblz4/libblosc; this module
implements both in Python so default-configuration Zarr v2 stores
(numcodecs ``blosc`` cname=lz4 with byte shuffle, and raw ``lz4``
with the uint32 original-size prefix) decode without any codec
library.

- ``lz4_decompress(data, out_size)`` / ``lz4_compress(data)`` — the
  LZ4 *block* format: token (literal-run nibble, match-len nibble,
  15 → extended 255-bytes), 2-byte LE match offset, overlapping
  copies byte-exact; the compressor is a greedy 4-byte-hash matcher
  emitting valid (not byte-identical to liblz4) streams.
- ``numcodecs_lz4_decode`` — reads the 4-byte LE uncompressed-size
  prefix numcodecs' LZ4 codec adds around a block.
- ``blosc_decompress/blosc_compress`` — the 16-byte blosc header
  (version, versionlz, flags with shuffle bits 0/2 and codec id in
  bits 5-7, typesize, nbytes/blocksize/cbytes LE), the memcpyed
  fast path, per-block int32 offset table, per-block split streams
  (typesize splits for blosclz/lz4 full blocks when blocksize/
  typesize >= 128 and typesize <= 16, one for leftovers), int32
  sub-stream sizes with stored-uncompressed equal-size rule, and
  per-block byte shuffle (trailing non-multiple bytes verbatim).
  Codecs supported inside the container: lz4/lz4hc (1), zlib (3);
  blosclz, snappy and zstd payloads fail fast by name.  Bit shuffle
  (flag bit 2) fails fast by name.
"""

from __future__ import annotations

import struct
import zlib as _zlib

import numpy as np

__all__ = ["lz4_compress", "lz4_decompress", "numcodecs_lz4_decode",
           "blosc_compress", "blosc_decompress"]


# --------------------------------------------------------------- LZ4 block
def lz4_decompress(data: bytes, out_size: int) -> bytes:
    out = bytearray(out_size)
    oi = 0
    i = 0
    n = len(data)
    while i < n:
        token = data[i]
        i += 1
        # literals
        lit = token >> 4
        if lit == 15:
            while True:
                b = data[i]
                i += 1
                lit += b
                if b != 255:
                    break
        if lit:
            out[oi:oi + lit] = data[i:i + lit]
            i += lit
            oi += lit
        if i >= n:                       # last sequence: literals only
            break
        # match
        offset = data[i] | (data[i + 1] << 8)
        i += 2
        if offset == 0:
            raise ValueError("LZ4: zero match offset")
        mlen = (token & 0x0F) + 4
        if (token & 0x0F) == 15:
            while True:
                b = data[i]
                i += 1
                mlen += b
                if b != 255:
                    break
        src = oi - offset
        if src < 0:
            raise ValueError("LZ4: match offset before start")
        if offset >= mlen:
            out[oi:oi + mlen] = out[src:src + mlen]
            oi += mlen
        else:
            # overlapping copy: repeat the window
            while mlen > 0:
                take = min(offset, mlen)
                out[oi:oi + take] = out[src:src + take]
                oi += take
                src += take
                mlen -= take
    if oi != out_size:
        raise ValueError(f"LZ4: decoded {oi} of {out_size} bytes")
    return bytes(out)


def lz4_compress(data: bytes) -> bytes:
    """Greedy LZ4 block compressor (valid stream, modest ratio).
    Spec constraints honored: the last 5 bytes are always literals
    and matches must end >= 12 bytes before the block end."""
    n = len(data)
    out = bytearray()
    if n < 13:
        _emit_seq(out, data, 0, 0)
        return bytes(out)
    table: dict[bytes, int] = {}
    anchor = 0
    i = 0
    limit = n - 12                       # last match must start before
    while i < limit:
        key = data[i:i + 4]
        cand = table.get(key)
        table[key] = i
        if cand is not None and i - cand <= 0xFFFF and \
                data[cand:cand + 4] == key:
            # extend match
            mlen = 4
            while i + mlen < n - 5 and \
                    data[cand + mlen] == data[i + mlen]:
                mlen += 1
            _emit_seq(out, data[anchor:i], i - cand, mlen)
            i += mlen
            anchor = i
        else:
            i += 1
    _emit_seq(out, data[anchor:], 0, 0)
    return bytes(out)


def _emit_seq(out: bytearray, literals: bytes, offset: int,
              mlen: int) -> None:
    lit = len(literals)
    tok_lit = 15 if lit >= 15 else lit
    if mlen:
        m = mlen - 4
        tok_m = 15 if m >= 15 else m
    else:
        tok_m = 0
    out.append((tok_lit << 4) | tok_m)
    if lit >= 15:
        rem = lit - 15
        while rem >= 255:
            out.append(255)
            rem -= 255
        out.append(rem)
    out += literals
    if mlen:
        out += struct.pack("<H", offset)
        if mlen - 4 >= 15:
            rem = mlen - 4 - 15
            while rem >= 255:
                out.append(255)
                rem -= 255
            out.append(rem)


def numcodecs_lz4_decode(data: bytes) -> bytes:
    (size,) = struct.unpack_from("<I", data, 0)
    return lz4_decompress(data[4:], size)


# --------------------------------------------------------------- blosc
_BLOSC_CODECS = {0: "blosclz", 1: "lz4", 2: "snappy", 3: "zlib",
                 4: "zstd"}
_MIN_BUFFERSIZE = 128
_MAX_SPLITS = 16


def _byte_unshuffle(block: bytes, typesize: int) -> bytes:
    n = len(block)
    nel = n // typesize
    if typesize <= 1 or nel == 0:
        return block
    body = np.frombuffer(block, dtype=np.uint8, count=nel * typesize)
    out = np.empty(nel * typesize, dtype=np.uint8)
    out.reshape(nel, typesize)[:] = body.reshape(typesize, nel).T
    return out.tobytes() + block[nel * typesize:]


def _byte_shuffle(block: bytes, typesize: int) -> bytes:
    n = len(block)
    nel = n // typesize
    if typesize <= 1 or nel == 0:
        return block
    body = np.frombuffer(block, dtype=np.uint8, count=nel * typesize)
    out = np.ascontiguousarray(body.reshape(nel, typesize).T)
    return out.tobytes() + block[nel * typesize:]


def _split_count(codec: int, typesize: int, blocksize: int,
                 leftover: bool) -> int:
    if leftover:
        return 1
    if codec in (0, 1) and 1 <= typesize <= _MAX_SPLITS and \
            blocksize // typesize >= _MIN_BUFFERSIZE:
        return typesize
    return 1


def blosc_decompress(data: bytes) -> bytes:
    if len(data) < 16:
        raise ValueError("blosc: truncated header")
    version, versionlz, flags, typesize = data[0], data[1], data[2], data[3]
    nbytes, blocksize, cbytes = struct.unpack_from("<iii", data, 4)
    if version < 1 or nbytes < 0:
        raise ValueError("blosc: bad header")
    byte_shuffle = bool(flags & 0x01)
    memcpyed = bool(flags & 0x02)
    bit_shuffle = bool(flags & 0x04)
    codec = (flags >> 5) & 0x07
    if bit_shuffle:
        raise ValueError("blosc: bit shuffle not supported")
    if memcpyed:
        return data[16:16 + nbytes]
    if codec not in (1, 2, 3, 4):
        raise ValueError(
            f"blosc: codec {_BLOSC_CODECS.get(codec, codec)!r} "
            "not supported (lz4/snappy/zlib/zstd only)")
    nblocks = -(-nbytes // blocksize) if blocksize else 0
    offsets = struct.unpack_from(f"<{nblocks}i", data, 16)
    out = bytearray(nbytes)
    for bi, off in enumerate(offsets):
        bsize = min(blocksize, nbytes - bi * blocksize)
        leftover = bsize < blocksize
        nsplits = _split_count(codec, typesize, blocksize, leftover)
        neblock = bsize // nsplits
        pos = off
        dec = bytearray()
        for j in range(nsplits):
            part = neblock if j < nsplits - 1 else bsize - neblock * (nsplits - 1)
            (cb,) = struct.unpack_from("<i", data, pos)
            pos += 4
            if cb == part:               # stored uncompressed
                dec += data[pos:pos + part]
            elif codec == 1:
                dec += lz4_decompress(data[pos:pos + cb], part)
            elif codec == 2:
                from .zstd import snappy_decompress
                dec += snappy_decompress(data[pos:pos + cb])
            elif codec == 4:
                from .zstd import zstd_decompress
                dec += zstd_decompress(data[pos:pos + cb], part)
            else:
                dec += _zlib.decompress(data[pos:pos + cb])
            pos += cb
        block = bytes(dec)
        if byte_shuffle:
            block = _byte_unshuffle(block, typesize)
        out[bi * blocksize:bi * blocksize + bsize] = block
    return bytes(out)


def blosc_compress(data: bytes, typesize: int = 1,
                   shuffle: bool = True, codec: str = "lz4",
                   blocksize: int = 0) -> bytes:
    """Minimal conforming blosc writer (single code path used by the
    Zarr sink and the roundtrip tests)."""
    nbytes = len(data)
    codec_id = {"lz4": 1, "zlib": 3}[codec]
    if blocksize <= 0:
        blocksize = min(max(nbytes, 1), 256 * 1024)
        if typesize > 1:
            blocksize -= blocksize % typesize
            blocksize = max(blocksize, typesize)
    flags = (0x01 if shuffle and typesize > 1 else 0) | (codec_id << 5)
    nblocks = -(-nbytes // blocksize) if nbytes else 0
    chunks = []
    for bi in range(nblocks):
        bsize = min(blocksize, nbytes - bi * blocksize)
        block = data[bi * blocksize:bi * blocksize + bsize]
        if flags & 0x01:
            block = _byte_shuffle(block, typesize)
        leftover = bsize < blocksize
        nsplits = _split_count(codec_id, typesize, blocksize, leftover)
        neblock = bsize // nsplits
        parts = []
        for j in range(nsplits):
            part_len = neblock if j < nsplits - 1 \
                else bsize - neblock * (nsplits - 1)
            sub = block[j * neblock:j * neblock + part_len]
            enc = lz4_compress(sub) if codec_id == 1 \
                else _zlib.compress(sub, 5)
            if len(enc) >= part_len:
                parts.append(struct.pack("<i", part_len) + sub)
            else:
                parts.append(struct.pack("<i", len(enc)) + enc)
        chunks.append(b"".join(parts))
    total = 16 + 4 * nblocks + sum(len(c) for c in chunks)
    if total >= nbytes + 16:             # store raw (memcpyed)
        header = bytes((2, 1, 0x02 | (codec_id << 5), max(typesize, 1)))
        header += struct.pack("<iii", nbytes, blocksize, nbytes + 16)
        return header + data
    header = bytes((2, 1, flags, max(typesize, 1)))
    header += struct.pack("<iii", nbytes, blocksize, total)
    out = bytearray(header)
    off = 16 + 4 * nblocks
    for c in chunks:
        out += struct.pack("<i", off)
        off += len(c)
    for c in chunks:
        out += c
    return bytes(out)
