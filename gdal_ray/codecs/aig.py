"""ESRI ArcInfo Binary Grid (AIG) coverage reader — the w001001.adf
tile format, from the public gridlib layout (frmts/aigrid/gridlib.c,
aigopen.c).

Coverage directory: hdr.adf (cell type at +16, compressed flag +20,
cell sizes +256/264, blocks-per-row/column +288/292, block size
+296/304 — all big-endian), dblbnd.adf (LLX/LLY/URX/URY doubles),
sta.adf (min/max/mean[/stddev]), w001001x.adf block index (100-byte
header, then offset/size u32 pairs in 2-byte units), w001001.adf
tile data. Compressed int tiles: magic byte + min-size + min value,
then run encodings 0xE0/0xF0/0xFC/0xF8 (repeat 32/16/8-bit), 0xDF
(repeat min), 0xD7/0xCF (literal 8/16-bit), raw 0x08/0x10/0x20/0x04/
0x01, const 0x00, and >128 nodata runs. Float tiles are raw BE f4.

The reference exposes int grids with 0 <= min, max <= 254 as Byte
with nodata 255 (aigdataset.cpp type promotion) — replicated so the
autotest goldens (abc3x1 cs 3, gt (-0.5,1,0,0.5,0,-1), nodata 255)
hold.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from ._bits import unpack_fields

__all__ = ["decode_aig"]

_NODATA_INT = -2147483647
_MAGIC_FF_MSG = "AIG 0xFF (CCITT RLE) tiles not supported"


def _process_block(data: bytes, magic: int, nmin: int, bw: int,
                   bh: int) -> np.ndarray:
    tot = bw * bh
    out = np.zeros(tot, np.int64)
    if magic == 0x00:  # constant
        out[:] = nmin
        return out.reshape(bh, bw)
    if magic == 0x08:
        v = np.frombuffer(data, np.uint8, min(tot, len(data)))
        out[:len(v)] = v.astype(np.int64) + nmin
        return out.reshape(bh, bw)
    if magic == 0x10:
        n = min(tot, len(data) // 2)
        v = np.frombuffer(data, ">u2", n)
        out[:n] = v.astype(np.int64) + nmin
        return out.reshape(bh, bw)
    if magic == 0x20:
        n = min(tot, len(data) // 4)
        v = np.frombuffer(data, ">i4", n)
        out[:n] = v.astype(np.int64) + nmin
        return out.reshape(bh, bw)
    if magic in (0x04, 0x01):  # 4-bit / 1-bit, MSB-first
        nbits = 4 if magic == 0x04 else 1
        n = min(tot, len(data) * 8 // nbits)
        out[:n] = unpack_fields(data, nbits, n) + nmin
        return out.reshape(bh, bw)
    if magic == 0xFF:
        raise ValueError(_MAGIC_FF_MSG)

    # run-length families
    pos = 0
    i = 0
    n = len(data)
    while pos < tot and i < n:
        marker = data[i]
        i += 1
        if magic == 0xE0:
            val = struct.unpack_from(">i", data, i)[0] + nmin
            i += 4
            out[pos:pos + marker] = val
            pos += marker
        elif magic == 0xF0:
            val = (data[i] * 256 + data[i + 1]) + nmin
            i += 2
            out[pos:pos + marker] = val
            pos += marker
        elif magic in (0xFC, 0xF8):
            val = data[i] + nmin
            i += 1
            out[pos:pos + marker] = val
            pos += marker
        elif magic == 0xDF and marker < 128:
            out[pos:pos + marker] = nmin
            pos += marker
        elif magic == 0xD7 and marker < 128:
            k = min(marker, n - i, tot - pos)
            out[pos:pos + k] = np.frombuffer(
                data, np.uint8, k, i).astype(np.int64) + nmin
            pos += k
            i += k
        elif magic == 0xCF and marker < 128:
            k = min(marker, (n - i) // 2, tot - pos)
            out[pos:pos + k] = np.frombuffer(
                data, ">u2", k, i).astype(np.int64) + nmin
            pos += k
            i += 2 * k
        elif marker > 128:
            run = 256 - marker
            out[pos:pos + run] = _NODATA_INT
            pos += run
        else:
            raise ValueError(f"AIG run magic {magic:#x} marker {marker}")
    if pos < tot:
        out[pos:] = _NODATA_INT
    return out.reshape(bh, bw)


def _find(d: str, name: str) -> str | None:
    for f in os.listdir(d):
        if f.lower() == name:
            return os.path.join(d, f)
    return None


def decode_aig(path: str):
    """path: the coverage directory (or any file inside it)."""
    d = path if os.path.isdir(path) else os.path.dirname(path)
    hdr = open(_find(d, "hdr.adf"), "rb").read()
    cell_type, compressed_flag = struct.unpack_from(">2i", hdr, 16)
    csx, csy = struct.unpack_from(">2d", hdr, 256)
    bpr, bpc, bxs = struct.unpack_from(">3i", hdr, 288)
    (bys,) = struct.unpack_from(">i", hdr, 304)
    compressed = not compressed_flag
    llx, lly, urx, ury = struct.unpack_from(
        ">4d", open(_find(d, "dblbnd.adf"), "rb").read())
    w = int((urx - llx + 0.5 * csx) / csx)
    h = int((ury - lly + 0.5 * csy) / csy)

    sta = open(_find(d, "sta.adf"), "rb").read()
    smin, smax = struct.unpack_from(">2d", sta, 0)

    idx = open(_find(d, "w001001x.adf"), "rb").read()
    (nlen,) = struct.unpack_from(">I", idx, 24)
    nblocks = (nlen * 2 - 100) // 8
    entries = [struct.unpack_from(">2I", idx, 100 + 8 * i)
               for i in range(min(nblocks, bpr * bpc))]
    data = open(_find(d, "w001001.adf"), "rb").read()

    is_float = cell_type == 2
    full = np.full((bpc * bys, bpr * bxs), _NODATA_INT, np.int64) \
        if not is_float else np.full((bpc * bys, bpr * bxs),
                                     np.float32(-3.4028235e38), np.float64)
    for bi, (off2, size2) in enumerate(entries):
        by, bx = divmod(bi, bpr)
        off = off2 * 2
        size = size2 * 2
        if size == 0:
            continue
        block = data[off + 2:off + 2 + size]
        if is_float:
            n = bxs * bys
            v = np.frombuffer(block, ">f4", min(n, len(block) // 4))
            tile = np.full(n, -3.4028235e38, np.float64)
            tile[:len(v)] = v
            tile = tile.reshape(bys, bxs)
        elif not compressed:
            n = bxs * bys
            v = np.frombuffer(block, ">i4", min(n, len(block) // 4))
            tile = np.full(n, _NODATA_INT, np.int64)
            tile[:len(v)] = v
            tile = tile.reshape(bys, bxs)
        else:
            magic = block[0]
            min_size = block[1]
            p = 2
            nmin = 0
            if min_size == 4:
                nmin = struct.unpack_from(">i", block, p)[0]
            else:
                for k in range(min_size):
                    nmin = nmin * 256 + block[p + k]
                if min_size and block[2] > 127:
                    nmin -= 1 << (8 * min_size)
            p += min_size
            tile = _process_block(block[p:], magic, nmin, bxs, bys)
        full[by * bys:(by + 1) * bys, bx * bxs:(bx + 1) * bxs] = tile

    px = full[:h, :w]
    meta: dict = {"driver": "AIG", "cell_type": "float" if is_float
                  else "int", "min": smin, "max": smax}
    if is_float:
        out = px.astype(np.float32)
        nodata = -3.4028235e38
    elif 0 <= smin and smax <= 254:
        # reference type promotion: Byte with nodata 255
        out = np.where(px == _NODATA_INT, 255, px).astype(np.uint8)
        nodata = 255
    elif -32767 <= smin and smax <= 32767:
        out = np.where(px == _NODATA_INT, -32768, px).astype(np.int16)
        nodata = -32768
    else:
        out = px.astype(np.int32)
        nodata = float(_NODATA_INT)
    gt = (llx, csx, 0.0, ury, 0.0, -csy)
    prj = _find(d, "prj.adf")
    if prj:
        meta["prj_text"] = open(prj, errors="replace").read()
    return np.ascontiguousarray(out), gt, nodata, meta
