"""OpenEXR PIZ / PXR24 / B44 / B44A block codecs, from the published
algorithms (OpenEXR "Technical Introduction" + the open ImfPiz/
ImfWav/ImfHuf/ImfPxr24/ImfB44 sources; the reference driver
frmts/exr/exrdataset.cpp wraps the library instead).

All entry points share the scanline-interleaved raw-block contract of
``codecs/exr.py`` — for each scanline of the chunk, each channel's
row back-to-back, channels in file (sorted-name) order:

- ``piz_compress / piz_uncompress`` — lossless: bitmap + forward LUT
  over the used 16-bit values, the 2D Haar-style wavelet (14-bit mode
  when maxValue < 2^14, mod-2^16 otherwise) per channel and per
  16-bit lane (32-bit types are two lanes), canonical Huffman with
  the 6-bit packed length table (zero-run codes 59-63) and the
  run-length pseudo-symbol one past the largest data symbol.
- ``pxr24_compress / pxr24_uncompress`` — per-(row, channel)
  byte-planar horizontal deltas, FLOAT rounded to a 24-bit float
  (lossy; HALF/UINT lossless), zlib over the whole block.
- ``b44_compress / b44_uncompress`` — HALF channels as 4x4 blocks of
  14 bytes (monotonic bit-flip order, per-block shift with 6-bit
  running differences at bias 0x20); B44A adds the 3-byte flat-block
  form (third byte 0xfc); non-HALF channels are stored verbatim.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ._bits import MsbReader, MsbWriter

__all__ = ["piz_compress", "piz_uncompress",
           "pxr24_compress", "pxr24_uncompress",
           "b44_compress", "b44_uncompress"]

# shorts per sample: UINT(0) and FLOAT(2) are two 16-bit lanes
_SIZE_SHORTS = {0: 2, 1: 1, 2: 2}
_BITMAP_SIZE = 8192          # 2^16 bits
_HUF_ENCSIZE = 65537


# --------------------------------------------------------------- wavelet
def _wenc14(a, b):
    a16 = a.astype(np.int16)
    b16 = b.astype(np.int16)
    m = ((a16.astype(np.int32) + b16) >> 1).astype(np.int16)
    d = (a16.astype(np.int32) - b16).astype(np.int16)
    return m.astype(np.uint16), d.astype(np.uint16)


def _wdec14(l, h):
    ls = l.astype(np.int16).astype(np.int32)
    hs = h.astype(np.int16).astype(np.int32)
    ai = ls + (hs & 1) + (hs >> 1)
    a16 = ai.astype(np.int16)
    b16 = (a16.astype(np.int32) - hs).astype(np.int16)
    return a16.astype(np.uint16), b16.astype(np.uint16)


_NBITS = 16
_A_OFFSET = 1 << (_NBITS - 1)
_MOD_MASK = (1 << _NBITS) - 1


def _wenc16(a, b):
    ao = (a.astype(np.int32) + _A_OFFSET) & _MOD_MASK
    m = (ao + b) >> 1
    d = ao - b
    m = np.where(d < 0, (m + _A_OFFSET) & _MOD_MASK, m)
    d &= _MOD_MASK
    return m.astype(np.uint16), d.astype(np.uint16)


def _wdec16(l, h):
    m = l.astype(np.int32)
    d = h.astype(np.int32)
    bb = (m - (d >> 1)) & _MOD_MASK
    aa = (d + bb - _A_OFFSET) & _MOD_MASK
    return aa.astype(np.uint16), bb.astype(np.uint16)


def _wav2_encode(a: np.ndarray, maxval: int) -> None:
    """In-place 2D wavelet over a (ny, nx) uint16 view.  Each level's
    2x2 quads are independent → vectorized with strided slices."""
    enc = _wenc14 if maxval < (1 << 14) else _wenc16
    ny, nx = a.shape
    n = min(nx, ny)
    p, p2 = 1, 2
    while p2 <= n:
        ys = np.arange(0, ny - p2 + 1, p2)
        xs = np.arange(0, nx - p2 + 1, p2)
        if len(ys) and len(xs):
            yy = ys[:, None]
            xx = xs[None, :]
            p00 = a[yy, xx]
            p01 = a[yy, xx + p]
            p10 = a[yy + p, xx]
            p11 = a[yy + p, xx + p]
            i00, i01 = enc(p00, p01)
            i10, i11 = enc(p10, p11)
            a[yy, xx], a[yy + p, xx] = enc(i00, i10)
            a[yy, xx + p], a[yy + p, xx + p] = enc(i01, i11)
        if nx & p and len(ys):                 # odd column
            x = xs[-1] + p2 if len(xs) else 0
            l, h = enc(a[ys, x], a[ys + p, x])
            a[ys, x], a[ys + p, x] = l, h
        if ny & p and len(xs):                 # odd line
            y = ys[-1] + p2 if len(ys) else 0
            l, h = enc(a[y, xs], a[y, xs + p])
            a[y, xs], a[y, xs + p] = l, h
        p, p2 = p2, p2 << 1


def _wav2_decode(a: np.ndarray, maxval: int) -> None:
    dec = _wdec14 if maxval < (1 << 14) else _wdec16
    ny, nx = a.shape
    n = min(nx, ny)
    p = 1
    while p <= n:
        p <<= 1
    p >>= 1
    p2 = p
    p >>= 1
    while p >= 1:
        ys = np.arange(0, ny - p2 + 1, p2)
        xs = np.arange(0, nx - p2 + 1, p2)
        if len(ys) and len(xs):
            yy = ys[:, None]
            xx = xs[None, :]
            i00, i10 = dec(a[yy, xx], a[yy + p, xx])
            i01, i11 = dec(a[yy, xx + p], a[yy + p, xx + p])
            a[yy, xx], a[yy, xx + p] = dec(i00, i01)
            a[yy + p, xx], a[yy + p, xx + p] = dec(i10, i11)
        if nx & p and len(ys):
            x = xs[-1] + p2 if len(xs) else 0
            a00, a10 = dec(a[ys, x], a[ys + p, x])
            a[ys, x], a[ys + p, x] = a00, a10
        if ny & p and len(xs):
            y = ys[-1] + p2 if len(ys) else 0
            a00, a01 = dec(a[y, xs], a[y, xs + p])
            a[y, xs], a[y, xs + p] = a00, a01
        p2 = p
        p >>= 1


# --------------------------------------------------------------- Huffman
def _huf_build_lengths(freq: dict[int, int]) -> dict[int, int]:
    """Huffman code lengths (heap merge with parent pointers; the
    library's hlink merge produces the same optimal lengths)."""
    import heapq
    syms = sorted(freq)
    n = len(syms)
    if n == 1:
        return {syms[0]: 1}
    parent = [-1] * (2 * n - 1)
    heap = [(freq[s], i) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    nxt = n
    while len(heap) > 1:
        f1, i1 = heapq.heappop(heap)
        f2, i2 = heapq.heappop(heap)
        parent[i1] = nxt
        parent[i2] = nxt
        heapq.heappush(heap, (f1 + f2, nxt))
        nxt += 1
    lengths = {}
    for i, s in enumerate(syms):
        d = 0
        j = i
        while parent[j] != -1:
            d += 1
            j = parent[j]
        if d > 58:
            raise ValueError("PIZ: Huffman code length > 58")
        lengths[s] = d
    return lengths


def _huf_canonical(lengths: np.ndarray) -> np.ndarray:
    """hufCanonicalCodeTable: canonical codes from lengths; returns
    int64 array code = (value << 6) | length.  Same-length symbols
    get consecutive codes in index order (vectorized per length)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    n = np.bincount(lengths, minlength=59)
    c = 0
    start = np.zeros(59, dtype=np.int64)
    for i in range(58, 0, -1):
        nc = (c + n[i]) >> 1
        start[i] = c
        c = nc
    out = np.zeros(len(lengths), dtype=np.int64)
    for l in range(1, 59):
        if not n[l]:
            continue
        idx = np.flatnonzero(lengths == l)
        out[idx] = l | ((start[l] + np.arange(len(idx))) << 6)
    return out


def _huf_pack_table(codes: np.ndarray, im: int, iM: int) -> bytes:
    bw = MsbWriter()
    i = im
    while i <= iM:
        l = int(codes[i]) & 63
        if l == 0:
            run = 1
            while i + run <= iM and (int(codes[i + run]) & 63) == 0 \
                    and run < 255 + 6:
                run += 1
            if run >= 6:
                bw.put(63, 6)
                bw.put(run - 6, 8)
            elif run >= 2:
                bw.put(59 + run - 2, 6)
            else:
                bw.put(0, 6)
            i += run
        else:
            bw.put(l, 6)
            i += 1
    return bw.finish()


def _huf_unpack_table(data: bytes, off: int, im: int, iM: int):
    """→ (lengths ndarray over 0..iM, new bit offset in bits)."""
    lengths = np.zeros(_HUF_ENCSIZE, dtype=np.int64)
    br = MsbReader(data, off * 8)
    i = im
    while i <= iM:
        l = br.get(6)
        if l == 63:
            run = br.get(8) + 6
            i += run
        elif l >= 59:
            i += l - 59 + 2
        else:
            lengths[i] = l
            i += 1
    return lengths, (br.pos + 7) >> 3


_HUF_DECBITS = 14


def _huf_build_dec(codes: np.ndarray, im: int, iM: int):
    """Fast table for codes <= 14 bits (prefix → (len, sym)), dict
    for longer codes keyed by (len, code).  Canonical same-length
    codes are consecutive, so each length fills one contiguous
    fast-table span (vectorized)."""
    fast_len = np.zeros(1 << _HUF_DECBITS, dtype=np.int32)
    fast_sym = np.zeros(1 << _HUF_DECBITS, dtype=np.int32)
    long_codes: dict[tuple[int, int], int] = {}
    sub = codes[im:iM + 1]
    lens = (sub & 63).astype(np.int64)
    vals = (sub >> 6).astype(np.int64)
    for l in range(1, _HUF_DECBITS + 1):
        idx = np.flatnonzero(lens == l)
        if not len(idx):
            continue
        shift = _HUF_DECBITS - l
        span = 1 << shift
        base = int(vals[idx[0]]) << shift
        end = base + span * len(idx)
        fast_len[base:end] = l
        fast_sym[base:end] = np.repeat(idx + im, span)
    for i in np.flatnonzero(lens > _HUF_DECBITS):
        long_codes[(int(lens[i]), int(vals[i]))] = int(i) + im
    return fast_len, fast_sym, long_codes


def _huf_encode(data: np.ndarray, codes: np.ndarray, rlc: int) -> tuple[bytes, int]:
    """hufEncode with the run-length pseudo symbol, vectorized:
    collapse runs, split over the 8-bit repeat limit, choose per
    piece between the (code, rlCode, count) form and plain copies
    (the sendCode rule), then bit-pack all variable-length codes in
    one numpy pass.  Returns (bytes, nBits)."""
    n = len(data)
    if n == 0:
        return b"", 0
    rl_code = int(codes[rlc])
    rl_len = rl_code & 63
    rl_val = rl_code >> 6

    change = np.flatnonzero(np.diff(data)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    totals = ends - starts                       # symbols per run
    syms = data[starts].astype(np.int64)

    # split runs into pieces of <= 256 symbols (count byte <= 255)
    nfull = (totals - 1) // 256                  # full 256-pieces
    piece_sym = np.repeat(syms, nfull + 1)
    # within-run piece rank: full pieces carry count 255, the last
    # piece carries the remainder
    tot_rep = np.repeat(totals, nfull + 1)
    last_rep = np.repeat(nfull, nfull + 1)
    cum = np.concatenate(([0], np.cumsum(nfull + 1)))[:-1]
    rank = np.arange(len(piece_sym)) - np.repeat(cum, nfull + 1)
    counts = np.where(rank < last_rep, 255, tot_rep - 1 - 256 * last_rep)

    cv = codes[piece_sym]
    l = (cv & 63).astype(np.int64)
    v = (cv >> 6).astype(np.int64)
    use_rle = (l + rl_len + 8) < (l * counts)

    # item streams: RLE pieces emit 3 items, copy pieces c+1 items
    n_items = np.where(use_rle, 3, counts + 1)
    item_piece = np.repeat(np.arange(len(piece_sym)), n_items)
    off = np.concatenate(([0], np.cumsum(n_items)))[:-1]
    item_rank = np.arange(len(item_piece)) - np.repeat(off, n_items)
    item_vals = v[item_piece].copy()
    item_lens = l[item_piece].copy()
    rle_items = use_rle[item_piece]
    m1 = rle_items & (item_rank == 1)
    m2 = rle_items & (item_rank == 2)
    item_vals[m1] = rl_val
    item_lens[m1] = rl_len
    item_vals[m2] = counts[item_piece[m2]]
    item_lens[m2] = 8

    # vectorized MSB-first bit packing
    endb = np.cumsum(item_lens)
    startb = endb - item_lens
    total_bits = int(endb[-1])
    idx = np.repeat(np.arange(len(item_lens)), item_lens)
    pos_in = np.arange(total_bits) - startb[idx]
    bits = (item_vals[idx] >> (item_lens[idx] - 1 - pos_in)) & 1
    pad = (-total_bits) % 8
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=bits.dtype)])
    out = np.packbits(bits.astype(np.uint8)).tobytes()
    return out, total_bits


def _huf_decode(data: bytes, off: int, nbits: int, codes: np.ndarray,
                fast_len, fast_sym, long_codes, rlc: int,
                nout: int) -> np.ndarray:
    out = np.empty(nout, dtype=np.uint16)
    oi = 0
    c = 0
    lc = 0
    pos = off
    end = off + ((nbits + 7) >> 3)
    while pos < end:
        c = ((c << 8) | data[pos]) & ((1 << 72) - 1)
        pos += 1
        lc += 8
        while lc >= _HUF_DECBITS:
            idx = (c >> (lc - _HUF_DECBITS)) & ((1 << _HUF_DECBITS) - 1)
            l = int(fast_len[idx])
            if l:
                sym = int(fast_sym[idx])
                lc -= l
            else:
                # long code: try lengths 15..58
                sym = None
                for ll in range(_HUF_DECBITS + 1, 59):
                    while lc < ll and pos < end:
                        c = ((c << 8) | data[pos]) & ((1 << 72) - 1)
                        pos += 1
                        lc += 8
                    if lc < ll:
                        break
                    cand = (c >> (lc - ll)) & ((1 << ll) - 1)
                    s = long_codes.get((ll, cand))
                    if s is not None:
                        sym = s
                        lc -= ll
                        break
                if sym is None:
                    raise ValueError("PIZ: invalid Huffman code")
            if sym == rlc:
                while lc < 8 and pos < end:
                    c = ((c << 8) | data[pos]) & ((1 << 72) - 1)
                    pos += 1
                    lc += 8
                if lc < 8:
                    raise ValueError("PIZ: truncated RLE count")
                run = (c >> (lc - 8)) & 0xFF
                lc -= 8
                if oi == 0 or oi + run > nout:
                    raise ValueError("PIZ: bad RLE run")
                out[oi:oi + run] = out[oi - 1]
                oi += run
            else:
                out[oi] = sym
                oi += 1
            if oi >= nout:
                return out
    # tail: drop the padding bits of the final byte
    i = (8 - nbits) & 7
    c >>= i
    lc -= i
    while lc > 0:
        idx = (c << (_HUF_DECBITS - lc)) & ((1 << _HUF_DECBITS) - 1)
        l = int(fast_len[idx])
        if l and l <= lc:
            sym = int(fast_sym[idx])
            lc -= l
            if sym == rlc:
                if lc < 8 or oi == 0:
                    raise ValueError("PIZ: truncated trailing RLE")
                run = (c >> (lc - 8)) & 0xFF
                lc -= 8
                if oi + run > nout:
                    raise ValueError("PIZ: bad RLE run")
                out[oi:oi + run] = out[oi - 1]
                oi += run
            else:
                out[oi] = sym
                oi += 1
            if oi >= nout:
                return out
        else:
            raise ValueError("PIZ: trailing Huffman bits")
    if oi != nout:
        raise ValueError(f"PIZ: decoded {oi} of {nout} values")
    return out


def _huf_compress(raw: np.ndarray) -> bytes:
    """hufCompress: 20-byte header (im, iM, tableLength, nBits, 0) +
    packed table + bit stream."""
    if len(raw) == 0:
        return b""
    vals, counts = np.unique(raw, return_counts=True)
    freq = {int(v): int(c) for v, c in zip(vals, counts)}
    im = int(vals[0])
    iM = int(vals[-1]) + 1           # run-length pseudo-symbol
    freq[iM] = 1
    lengths_d = _huf_build_lengths(freq)
    lengths = np.zeros(_HUF_ENCSIZE, dtype=np.int64)
    for s, l in lengths_d.items():
        lengths[s] = l
    codes = _huf_canonical(lengths)
    table = _huf_pack_table(codes, im, iM)
    bits, nbits = _huf_encode(raw, codes, iM)
    return (struct.pack("<IIIII", im, iM, len(table), nbits, 0)
            + table + bits)


def _huf_uncompress(data: bytes, nout: int) -> np.ndarray:
    if nout == 0:
        return np.empty(0, dtype=np.uint16)
    im, iM, _tl, nbits, _ = struct.unpack_from("<IIIII", data, 0)
    if im >= _HUF_ENCSIZE or iM >= _HUF_ENCSIZE:
        raise ValueError("PIZ: corrupt Huffman header")
    lengths, off = _huf_unpack_table(data, 20, im, iM)
    codes = _huf_canonical(lengths)
    fast_len, fast_sym, long_codes = _huf_build_dec(codes, im, iM)

    from .native import get_huf
    lib = get_huf()
    if lib is not None:
        import ctypes
        # canonical long codes per length are contiguous: ship range
        # tables (base code, symbol list offset, count)
        long_base = np.zeros(59, dtype=np.int64)
        long_off = np.zeros(59, dtype=np.int64)
        long_cnt = np.zeros(59, dtype=np.int64)
        syms_flat: list[int] = []
        by_len: dict[int, list[tuple[int, int]]] = {}
        for (l, code), s in long_codes.items():
            by_len.setdefault(l, []).append((code, s))
        for l, items in sorted(by_len.items()):
            items.sort()
            long_base[l] = items[0][0]
            long_off[l] = len(syms_flat)
            long_cnt[l] = len(items)
            syms_flat.extend(s for _, s in items)
        long_syms = np.asarray(syms_flat or [0], dtype=np.int32)
        out = np.empty(nout, dtype=np.uint16)
        payload = data[off:]
        rc = lib.huf_decode(
            payload, len(payload), int(nbits),
            fast_len.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            fast_sym.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            long_base.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            long_off.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            long_cnt.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            long_syms.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
            int(iM), out.ctypes.data_as(
                ctypes.POINTER(ctypes.c_uint16)), nout)
        if rc == 0:
            return out
        raise ValueError(f"PIZ: corrupt Huffman stream ({rc})")
    return _huf_decode(data, off, nbits, codes, fast_len, fast_sym,
                       long_codes, iM, nout)


# --------------------------------------------------------------- PIZ
def _plane_layout(channels, w: int, rows: int):
    """(shorts offset, nx, ny, size_shorts) per channel in the planar
    tmp buffer, plus the total shorts count."""
    layout = []
    off = 0
    for _, t in channels:
        size = _SIZE_SHORTS[t]
        layout.append((off, w, rows, size))
        off += w * rows * size
    return layout, off


def _interleaved_to_planar(raw: bytes, channels, w: int, rows: int):
    layout, total = _plane_layout(channels, w, rows)
    tmp = np.empty(total, dtype=np.uint16)
    src = np.frombuffer(raw, dtype=np.uint16)
    # scanline-interleaved: per row, each channel's nx*size shorts
    row_shorts = sum(w * _SIZE_SHORTS[t] for _, t in channels)
    for r in range(rows):
        base = r * row_shorts
        for (off, nx, ny, size) in layout:
            n = nx * size
            tmp[off + r * n:off + (r + 1) * n] = src[base:base + n]
            base += n
    return tmp, layout


def _planar_to_interleaved(tmp: np.ndarray, layout, channels,
                           w: int, rows: int) -> bytes:
    row_shorts = sum(w * _SIZE_SHORTS[t] for _, t in channels)
    out = np.empty(rows * row_shorts, dtype=np.uint16)
    for r in range(rows):
        base = r * row_shorts
        for (off, nx, ny, size) in layout:
            n = nx * size
            out[base:base + n] = tmp[off + r * n:off + (r + 1) * n]
            base += n
    return out.tobytes()


def piz_compress(raw: bytes, channels, w: int, rows: int) -> bytes:
    tmp, layout = _interleaved_to_planar(raw, channels, w, rows)

    bitmap = np.zeros(1 << 16, dtype=bool)
    bitmap[tmp] = True
    bitmap[0] = False                     # zero is not stored
    lut = np.zeros(1 << 16, dtype=np.uint16)
    used = np.flatnonzero(bitmap)
    order = np.concatenate(([0], used))   # forwardLutFromBitmap: 0 first
    lut[order] = np.arange(len(order), dtype=np.uint16)
    maxval = len(order) - 1
    tmp = lut[tmp]

    for (off, nx, ny, size) in layout:
        for j in range(size):
            view = tmp[off + j:off + nx * ny * size:size].reshape(ny, nx) \
                if size > 1 else tmp[off:off + nx * ny].reshape(ny, nx)
            # need a contiguous 2D view with element stride `size`
            sub = np.ascontiguousarray(view)
            _wav2_encode(sub, maxval)
            if size > 1:
                tmp[off + j:off + nx * ny * size:size] = sub.ravel()
            else:
                tmp[off:off + nx * ny] = sub.ravel()

    bits = np.packbits(bitmap.reshape(-1, 8)[:, ::-1], axis=1).ravel()
    nz = np.flatnonzero(bits)
    if len(nz):
        mn, mx = int(nz[0]), int(nz[-1])
        bm = bits[mn:mx + 1].tobytes()
    else:                                 # bitmapFromData: empty bitmap
        mn, mx = _BITMAP_SIZE - 1, 0
        bm = b""
    huf = _huf_compress(tmp)
    return (struct.pack("<HH", mn, mx) + bm
            + struct.pack("<i", len(huf)) + huf)


def piz_uncompress(data: bytes, channels, w: int, rows: int) -> bytes:
    mn, mx = struct.unpack_from("<HH", data, 0)
    pos = 4
    bits = np.zeros(_BITMAP_SIZE, dtype=np.uint8)
    if mn <= mx:
        nbytes = mx - mn + 1
        bits[mn:mx + 1] = np.frombuffer(data, dtype=np.uint8,
                                        count=nbytes, offset=pos)
        pos += nbytes
    bitmap = np.unpackbits(np.frombuffer(bits.tobytes(), dtype=np.uint8)
                           .reshape(-1, 1), axis=1)[:, ::-1].ravel() \
        .astype(bool)
    bitmap[0] = False
    used = np.flatnonzero(bitmap)
    order = np.concatenate(([0], used))
    # reverseLutFromBitmap: indexes past the used range map to 0
    rev = np.zeros(1 << 16, dtype=np.uint16)
    rev[:len(order)] = order
    maxval = len(order) - 1

    (length,) = struct.unpack_from("<i", data, pos)
    pos += 4
    layout, total = _plane_layout(channels, w, rows)
    tmp = _huf_uncompress(data[pos:pos + length], total)

    for (off, nx, ny, size) in layout:
        for j in range(size):
            if size > 1:
                sub = np.ascontiguousarray(
                    tmp[off + j:off + nx * ny * size:size].reshape(ny, nx))
            else:
                sub = np.ascontiguousarray(
                    tmp[off:off + nx * ny].reshape(ny, nx))
            _wav2_decode(sub, maxval)
            if size > 1:
                tmp[off + j:off + nx * ny * size:size] = sub.ravel()
            else:
                tmp[off:off + nx * ny] = sub.ravel()

    tmp = rev[tmp]
    return _planar_to_interleaved(tmp, layout, channels, w, rows)


# --------------------------------------------------------------- PXR24
def _float_to_float24(f: np.ndarray) -> np.ndarray:
    """Round float32 to the top 24 bits (ImfPxr24Compressor
    floatToFloat24), vectorized; returns uint32 of the 24-bit value."""
    i = f.view(np.uint32).astype(np.uint64)
    s = i & 0x80000000
    e = i & 0x7F800000
    m = i & 0x007FFFFF
    # finite: round significand to 15 bits, truncate on overflow
    rounded = ((e | m) + (m & 0x80)) >> 8
    rounded = np.where(rounded >= 0x7F8000, (e | m) >> 8, rounded)
    # inf / nan
    nan_m = m >> 8
    special = (e >> 8) | nan_m | ((m != 0) & (nan_m == 0)).astype(np.uint64)
    out = np.where(e == 0x7F800000,
                   np.where(m != 0, special, e >> 8), rounded)
    return ((s >> 8) | out).astype(np.uint32)


def pxr24_compress(raw: bytes, channels, w: int, rows: int) -> bytes:
    src = np.frombuffer(raw, dtype=np.uint8)
    parts = []
    pos = 0
    for r in range(rows):
        for _, t in channels:
            if t == 1:        # HALF: 2 byte planes
                px = np.frombuffer(src[pos:pos + 2 * w].tobytes(),
                                   dtype="<u2").astype(np.int64)
                pos += 2 * w
                diff = np.diff(px, prepend=0) & 0xFFFF
                parts.append(((diff >> 8) & 0xFF).astype(np.uint8))
                parts.append((diff & 0xFF).astype(np.uint8))
            elif t == 0:      # UINT: 4 byte planes
                px = np.frombuffer(src[pos:pos + 4 * w].tobytes(),
                                   dtype="<u4").astype(np.int64)
                pos += 4 * w
                diff = np.diff(px, prepend=0) & 0xFFFFFFFF
                for sh in (24, 16, 8, 0):
                    parts.append(((diff >> sh) & 0xFF).astype(np.uint8))
            else:             # FLOAT: 24-bit, 3 byte planes
                f = np.frombuffer(src[pos:pos + 4 * w].tobytes(),
                                  dtype="<f4")
                pos += 4 * w
                p24 = _float_to_float24(f).astype(np.int64)
                diff = np.diff(p24, prepend=0) & 0xFFFFFF
                for sh in (16, 8, 0):
                    parts.append(((diff >> sh) & 0xFF).astype(np.uint8))
    planar = np.concatenate(parts).tobytes() if parts else b""
    return zlib.compress(planar, 6)


def pxr24_uncompress(data: bytes, channels, w: int, rows: int) -> bytes:
    planar = np.frombuffer(zlib.decompress(data), dtype=np.uint8)
    out = bytearray()
    pos = 0
    for r in range(rows):
        for _, t in channels:
            if t == 1:
                p0 = planar[pos:pos + w].astype(np.int64)
                p1 = planar[pos + w:pos + 2 * w].astype(np.int64)
                pos += 2 * w
                diff = (p0 << 8) | p1
                px = np.cumsum(diff) & 0xFFFF
                out += px.astype("<u2").tobytes()
            elif t == 0:
                ps = [planar[pos + k * w:pos + (k + 1) * w].astype(np.int64)
                      for k in range(4)]
                pos += 4 * w
                diff = (ps[0] << 24) | (ps[1] << 16) | (ps[2] << 8) | ps[3]
                px = np.cumsum(diff) & 0xFFFFFFFF
                out += px.astype("<u4").tobytes()
            else:
                ps = [planar[pos + k * w:pos + (k + 1) * w].astype(np.int64)
                      for k in range(3)]
                pos += 3 * w
                diff = (ps[0] << 24) | (ps[1] << 16) | (ps[2] << 8)
                px = np.cumsum(diff) & 0xFFFFFFFF
                out += px.astype("<u4").tobytes()
    return bytes(out)


# --------------------------------------------------------------- B44
def _b44_shift_round(x: np.ndarray, shift: int) -> np.ndarray:
    x = x.astype(np.int64) << 1
    a = (1 << shift) - 1
    shift += 1
    b = (x >> shift) & 1
    return (x + a + b) >> shift


def _b44_pack_blocks(t: np.ndarray, optflat: bool):
    """t: (nblk, 16) int64 monotonic-order values.  Returns list of
    per-block byte strings (14, or 3 for flat blocks when optflat)."""
    nblk = t.shape[0]
    tmax = t.max(axis=1)
    # per-block shift search (vectorized over blocks, loop over the
    # 16 possible shifts)
    pend = np.ones(nblk, dtype=bool)
    shift = np.zeros(nblk, dtype=np.int64)
    r = np.zeros((nblk, 15), dtype=np.int64)
    d_at_shift = np.zeros((nblk, 16), dtype=np.int64)
    idx_a = [0, 4, 8, 0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14]
    idx_b = [4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
    for sh in range(17):
        if not pend.any():
            break
        sel = np.flatnonzero(pend)
        d = _b44_shift_round(tmax[sel, None] - t[sel], sh)
        rr = d[:, idx_a] - d[:, idx_b] + 0x20
        ok = (rr.min(axis=1) >= 0) & (rr.max(axis=1) <= 0x3F)
        done = sel[ok]
        shift[done] = sh
        r[done] = rr[ok]
        d_at_shift[done] = d[ok]
        pend[done] = False
    blocks = []
    for i in range(nblk):
        ri = r[i]
        if optflat and ri.min() == 0x20 and ri.max() == 0x20:
            t0 = int(t[i, 0])
            blocks.append(bytes((t0 >> 8 & 0xFF, t0 & 0xFF, 0xFC)))
            continue
        # exactMax: adjust t[0] so tMax round-trips exactly
        t0 = int(tmax[i] - (d_at_shift[i, 0] << shift[i])) & 0xFFFF
        sh = int(shift[i])
        b = bytearray(14)
        b[0] = (t0 >> 8) & 0xFF
        b[1] = t0 & 0xFF
        b[2] = ((sh << 2) | (int(ri[0]) >> 4)) & 0xFF
        b[3] = ((int(ri[0]) << 4) | (int(ri[1]) >> 2)) & 0xFF
        b[4] = ((int(ri[1]) << 6) | int(ri[2])) & 0xFF
        b[5] = ((int(ri[3]) << 2) | (int(ri[4]) >> 4)) & 0xFF
        b[6] = ((int(ri[4]) << 4) | (int(ri[5]) >> 2)) & 0xFF
        b[7] = ((int(ri[5]) << 6) | int(ri[6])) & 0xFF
        b[8] = ((int(ri[7]) << 2) | (int(ri[8]) >> 4)) & 0xFF
        b[9] = ((int(ri[8]) << 4) | (int(ri[9]) >> 2)) & 0xFF
        b[10] = ((int(ri[9]) << 6) | int(ri[10])) & 0xFF
        b[11] = ((int(ri[11]) << 2) | (int(ri[12]) >> 4)) & 0xFF
        b[12] = ((int(ri[12]) << 4) | (int(ri[13]) >> 2)) & 0xFF
        b[13] = ((int(ri[13]) << 6) | int(ri[14])) & 0xFF
        blocks.append(bytes(b))
    return blocks


def _b44_unpack14(b: bytes) -> np.ndarray:
    s = np.zeros(16, dtype=np.int64)
    s[0] = (b[0] << 8) | b[1]
    shift = b[2] >> 2
    bias = 0x20 << shift
    s[4] = s[0] + ((((b[2] << 4) | (b[3] >> 4)) & 0x3F) << shift) - bias
    s[8] = s[4] + ((((b[3] << 2) | (b[4] >> 6)) & 0x3F) << shift) - bias
    s[12] = s[8] + ((b[4] & 0x3F) << shift) - bias
    s[1] = s[0] + ((b[5] >> 2) << shift) - bias
    s[5] = s[4] + ((((b[5] << 4) | (b[6] >> 4)) & 0x3F) << shift) - bias
    s[9] = s[8] + ((((b[6] << 2) | (b[7] >> 6)) & 0x3F) << shift) - bias
    s[13] = s[12] + ((b[7] & 0x3F) << shift) - bias
    s[2] = s[1] + ((b[8] >> 2) << shift) - bias
    s[6] = s[5] + ((((b[8] << 4) | (b[9] >> 4)) & 0x3F) << shift) - bias
    s[10] = s[9] + ((((b[9] << 2) | (b[10] >> 6)) & 0x3F) << shift) - bias
    s[14] = s[13] + ((b[10] & 0x3F) << shift) - bias
    s[3] = s[2] + ((b[11] >> 2) << shift) - bias
    s[7] = s[6] + ((((b[11] << 4) | (b[12] >> 4)) & 0x3F) << shift) - bias
    s[11] = s[10] + ((((b[12] << 2) | (b[13] >> 6)) & 0x3F) << shift) - bias
    s[15] = s[14] + ((b[13] & 0x3F) << shift) - bias
    s &= 0xFFFF
    return s


def _b44_from_linear(s: np.ndarray) -> np.ndarray:
    """half bits → monotonic order (pack() preamble)."""
    t = np.where((s & 0x7C00) == 0x7C00, 0x8000,
                 np.where(s & 0x8000, ~s & 0xFFFF, s | 0x8000))
    return t.astype(np.int64)


def _b44_to_linear(s: np.ndarray) -> np.ndarray:
    return np.where(s & 0x8000, s & 0x7FFF, ~s & 0xFFFF).astype(np.uint16)


def b44_compress(raw: bytes, channels, w: int, rows: int,
                 flat: bool = False) -> bytes:
    """flat=True → B44A (3-byte flat blocks)."""
    row_bytes_per = [w * _SIZE_SHORTS[t] * 2 for _, t in channels]
    row_stride = sum(row_bytes_per)
    src = np.frombuffer(raw, dtype=np.uint8)
    out = bytearray()
    ch_off = 0
    for (nm, t), rb in zip(channels, row_bytes_per):
        # planar channel data
        plane = np.empty((rows, rb), dtype=np.uint8)
        for r in range(rows):
            base = r * row_stride + ch_off
            plane[r] = src[base:base + rb]
        if t != 1:
            out += plane.tobytes()
        else:
            halfs = plane.reshape(rows, rb).view("<u2").reshape(rows, w)
            nby, nbx = -(-rows // 4), -(-w // 4)
            # edge-padded (4*nby, 4*nbx) grid
            yi = np.minimum(np.arange(4 * nby), rows - 1)
            xi = np.minimum(np.arange(4 * nbx), w - 1)
            g = halfs[yi[:, None], xi[None, :]]
            blk = (g.reshape(nby, 4, nbx, 4).transpose(0, 2, 1, 3)
                   .reshape(nby * nbx, 16))
            tvals = _b44_from_linear(blk.astype(np.int64))
            for bbytes in _b44_pack_blocks(tvals, flat):
                out += bbytes
        ch_off += rb
    return bytes(out)


def b44_uncompress(data: bytes, channels, w: int, rows: int) -> bytes:
    pos = 0
    planes = []
    for nm, t in channels:
        rb = w * _SIZE_SHORTS[t] * 2
        if t != 1:
            n = rb * rows
            planes.append(np.frombuffer(data, dtype=np.uint8,
                                        count=n, offset=pos)
                          .reshape(rows, rb))
            pos += n
        else:
            nby, nbx = -(-rows // 4), -(-w // 4)
            grid = np.empty((nby * 4, nbx * 4), dtype=np.uint16)
            for by in range(nby):
                for bx in range(nbx):
                    if data[pos + 2] == 0xFC:       # B44A flat block
                        t0 = (data[pos] << 8) | data[pos + 1]
                        s = np.full(16, t0, dtype=np.int64)
                        pos += 3
                    else:
                        s = _b44_unpack14(data[pos:pos + 14])
                        pos += 14
                    lin = _b44_to_linear(s)
                    grid[by * 4:by * 4 + 4, bx * 4:bx * 4 + 4] = \
                        lin.reshape(4, 4)
            planes.append(np.ascontiguousarray(grid[:rows, :w])
                          .view(np.uint8).reshape(rows, w * 2))
    row_stride = sum(p.shape[1] for p in planes)
    out = np.empty((rows, row_stride), dtype=np.uint8)
    off = 0
    for p in planes:
        out[:, off:off + p.shape[1]] = p
        off += p.shape[1]
    return out.tobytes()
