"""JPEG (JFIF) decoder + encoder — pure Python/numpy.

Independently implements ITU-T T.81 baseline sequential DCT (SOF0)
AND progressive DCT (SOF2: spectral selection, successive
approximation, EOB runs, DC/AC refinement passes per Annex G):
Huffman entropy coding, 8-bit quantization tables, restart intervals,
4:4:4 / 4:2:2 / 4:2:0 chroma sampling, JFIF YCbCr. The progressive
encoder uses the libjpeg standard scan script, emitting the same
quantized coefficients as the baseline stream — so baseline and
progressive decodes of one image are bit-identical, which is the
conformance test. The reference reads JPEG via libjpeg
(frmts/jpeg/jpgdataset.cpp); bit-exact IDCT parity across
implementations is NOT defined by the standard (the reference's own
test suite accepts multiple checksums per libjpeg version,
autotest/gdrivers/jpeg.py:43-47), so conformance here is validated by
(a) decoding the reference's fixture files and (b) encoder→decoder
roundtrip PSNR ≥ 40 dB, the lossy-format invariant from BASELINE.json.

Performance notes: Huffman decode walks symbols in Python with a
16-bit peek LUT (O(1) per symbol); dequant + IDCT run vectorized over
all blocks at once (matmul IDCT). Good enough for tests and per-file
decode; the synthetic corpus's hot path keeps the vectorized GRJ1
stand-in (dct.py) for generation speed.
"""

from __future__ import annotations

import struct

import numpy as np

from ._bits import MsbReader, MsbWriter

# zigzag order (T.81 Figure A.6)
_ZZ = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63])
_UNZZ = np.argsort(_ZZ)

# 8x8 DCT-II basis (orthonormal)
_k = np.arange(8)
_C = np.sqrt(2.0 / 8.0) * np.cos((2 * _k[None, :] + 1) * _k[:, None]
                                 * np.pi / 16.0)
_C[0] *= np.sqrt(0.5)

# Annex K.1 quantization tables
_Q_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56, 14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int32).reshape(8, 8)
_Q_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int32).reshape(8, 8)

# Annex K.3 typical Huffman tables: (bits[1..16], values)
_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            list(range(12)))
_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_AC_LUMA = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_CHROMA = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])


def _canonical_codes(bits, values):
    """(bits[16], values) → list of (code, length, symbol)."""
    out = []
    code = 0
    vi = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out.append((code, length, values[vi]))
            code += 1
            vi += 1
        code <<= 1
    return out


def _decode_lut(bits, values):
    """16-bit peek LUT: window → (symbol, code_length). Entries with
    length 0 mean invalid prefix."""
    sym = np.zeros(1 << 16, dtype=np.int16)
    ln = np.zeros(1 << 16, dtype=np.int8)
    for code, length, symbol in _canonical_codes(bits, values):
        lo = code << (16 - length)
        hi = (code + 1) << (16 - length)
        sym[lo:hi] = symbol
        ln[lo:hi] = length
    return sym, ln


def _extend(v, t):
    """T.81 EXTEND: map t-bit magnitude to signed value."""
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def _collect_entropy(buf: bytes, pos: int):
    """Unstuff the entropy-coded segment starting at ``pos``. Returns
    (bytes, restart bit positions, position of the next marker)."""
    ecs = bytearray()
    rst_bitpos = []
    i = pos
    n = len(buf)
    while i < n - 1:
        b = buf[i]
        if b == 0xFF:
            m = buf[i + 1]
            if m == 0x00:
                ecs.append(0xFF)
                i += 2
                continue
            if 0xD0 <= m <= 0xD7:
                rst_bitpos.append(len(ecs) * 8)
                i += 2
                continue
            break        # EOI or next marker
        ecs.append(b)
        i += 1
    return bytes(ecs), rst_bitpos, i


def _huffdec(br, sym, ln, what: str) -> int:
    win = br.peek(16)
    L = int(ln[win])
    if L == 0:
        raise ValueError(f"bad Huffman prefix ({what})")
    br.pos += L
    return int(sym[win])


def _decode_scan(scan, comps, comp_by_id, coefs, nblocks,
                 hmax, vmax, mcux, mcuy, w, h, progressive):
    """Decode one entropy-coded scan into the per-component coefficient
    stores. Sequential scans decode DC+AC per block; progressive scans
    decode the (Ss..Se) band at successive-approximation bit Al with
    EOB-run and refinement semantics (T.81 G.1.2)."""
    (scan_comps, ss, se, ah, al, huff, restart, ecs, rst_bitpos) = scan
    br = MsbReader(ecs)
    end_bits = len(ecs) * 8
    dc_pred = {cs: 0 for cs, _, _ in scan_comps}
    eobrun = 0
    rst_i = 0
    p1, m1 = 1 << al, -1 << al

    def resync():
        nonlocal eobrun, rst_i, dc_pred
        if rst_i < len(rst_bitpos):
            br.pos = rst_bitpos[rst_i]
            rst_i += 1
        else:
            br.align()
        dc_pred = {cs: 0 for cs, _, _ in scan_comps}
        eobrun = 0

    def dc_first(blk, cs, dsym, dlen):
        t = _huffdec(br, dsym, dlen, "DC")
        diff = _extend(br.get(t), t) if t else 0
        dc_pred[cs] += diff
        blk[0] = dc_pred[cs] << al

    def dc_refine(blk):
        if br.get(1):
            blk[0] |= p1

    def ac_first(blk, asym, alen):
        nonlocal eobrun
        if eobrun > 0:
            eobrun -= 1
            return
        k = ss
        while k <= se:
            rs = _huffdec(br, asym, alen, "AC")
            r, s = rs >> 4, rs & 15
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                eobrun = (1 << r) - 1
                if r:
                    eobrun += br.get(r)
                break
            k += r
            if k > se:
                break
            blk[k] = _extend(br.get(s), s) << al
            k += 1

    def ac_refine(blk, asym, alen):
        # T.81 G.1.2.3 correction pass: newly-nonzero coefficients
        # arrive as ±1<<Al; every already-nonzero coefficient passed
        # over consumes one refinement bit.
        nonlocal eobrun
        k = ss
        if eobrun == 0:
            while k <= se:
                rs = _huffdec(br, asym, alen, "AC")
                r, s = rs >> 4, rs & 15
                val = 0
                if s == 0:
                    if r != 15:
                        # NB: 1<<r (not -1): the current block's tail
                        # still consumes refinement bits below, then
                        # decrements the run
                        eobrun = 1 << r
                        if r:
                            eobrun += br.get(r)
                        break
                    # r == 15, s == 0: skip 16 zero-history coefficients
                else:
                    if s != 1:
                        raise ValueError("corrupt AC refinement scan")
                    val = p1 if br.get(1) else m1
                while k <= se:
                    c = int(blk[k])
                    if c != 0:
                        if br.get(1) and (c & p1) == 0:
                            blk[k] = c + (p1 if c >= 0 else m1)
                    else:
                        if r == 0:
                            break
                        r -= 1
                    k += 1
                if val and k <= se:
                    blk[k] = val
                k += 1
        if eobrun > 0:
            while k <= se:
                c = int(blk[k])
                if c != 0:
                    if br.get(1) and (c & p1) == 0:
                        blk[k] = c + (p1 if c >= 0 else m1)
                k += 1
            eobrun -= 1

    def seq_block(blk, cs, dsym, dlen, asym, alen):
        t = _huffdec(br, dsym, dlen, "DC")
        diff = _extend(br.get(t), t) if t else 0
        dc_pred[cs] += diff
        blk[0] = dc_pred[cs]
        k = 1
        while k < 64:
            rs = _huffdec(br, asym, alen, "AC")
            r, s = rs >> 4, rs & 15
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                break           # EOB
            k += r
            if k > 63:
                break
            blk[k] = _extend(br.get(s), s)
            k += 1

    def tables_for(td, ta, need_dc, need_ac):
        d = a = (None, None)
        if need_dc:
            if (0, td) not in huff:
                raise ValueError(f"missing Huffman table DC{td}")
            d = huff[(0, td)]
        if need_ac:
            if (1, ta) not in huff:
                raise ValueError(f"missing Huffman table AC{ta}")
            a = huff[(1, ta)]
        return d, a

    is_dc_band = ss == 0
    first_pass = ah == 0
    if progressive and not is_dc_band and len(scan_comps) > 1:
        raise ValueError("progressive AC scans must be single-component")

    if len(scan_comps) > 1:
        # interleaved MCU walk (sequential scans and progressive DC
        # scans over several components)
        unit = 0
        for my in range(mcuy):
            for mx in range(mcux):
                if br.pos > end_bits:
                    raise ValueError("truncated JPEG entropy stream")
                if restart and unit and unit % restart == 0:
                    resync()
                for cs, td, ta in scan_comps:
                    cid, ch, cv, _tq = comp_by_id[cs]
                    if progressive:
                        (dsym, dlen), _ = tables_for(td, ta, first_pass, False)
                    else:
                        (dsym, dlen), (asym, alen) = \
                            tables_for(td, ta, True, True)
                    cols = nblocks[cs][1]
                    for by in range(cv):
                        for bx in range(ch):
                            blk = coefs[cs][(my * cv + by) * cols +
                                            (mx * ch + bx)]
                            if not progressive:
                                seq_block(blk, cs, dsym, dlen, asym, alen)
                            elif first_pass:
                                dc_first(blk, cs, dsym, dlen)
                            else:
                                dc_refine(blk)
                unit += 1
    else:
        # non-interleaved: walk this component's own ceil-grid
        cs, td, ta = scan_comps[0]
        cid, ch, cv, _tq = comp_by_id[cs]
        comp_w = -(-w * ch // hmax)          # ceil: component pixel dims
        comp_h = -(-h * cv // vmax)
        bw = -(-comp_w // 8)
        bh = -(-comp_h // 8)
        cols = nblocks[cs][1]
        if progressive:
            need_dc = is_dc_band and first_pass
            need_ac = not is_dc_band
            (dsym, dlen), (a_s, a_l) = tables_for(td, ta, need_dc, need_ac)
        else:
            (dsym, dlen), (a_s, a_l) = tables_for(td, ta, True, True)
        unit = 0
        for by in range(bh):
            for bx in range(bw):
                if br.pos > end_bits:
                    raise ValueError("truncated JPEG entropy stream")
                if restart and unit and unit % restart == 0:
                    resync()
                blk = coefs[cs][by * cols + bx]
                if not progressive:
                    seq_block(blk, cs, dsym, dlen, a_s, a_l)
                elif is_dc_band:
                    if first_pass:
                        dc_first(blk, cs, dsym, dlen)
                    else:
                        dc_refine(blk)
                elif first_pass:
                    ac_first(blk, a_s, a_l)
                else:
                    ac_refine(blk, a_s, a_l)
                unit += 1


def _idct_islow(blocks: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """Bit-exact libjpeg jidctint.c JDCT_ISLOW inverse DCT on a stack
    of (N, 8, 8) int blocks with integer dequantization — the default
    IDCT every stock libjpeg/libjpeg-turbo build uses, so decoded
    samples (and GDAL golden checksums) match byte-for-byte.
    CONST_BITS=13, PASS1_BITS=2; columns first, then rows, final
    +128 level shift with clamping (the range-limit table)."""
    C = blocks * qtab[None, :, :]               # integer dequant

    def pass_(a, shift):
        # a: (..., 8) along the transformed axis (last); returns same
        s = a.astype(np.int64)
        z2, z3 = s[..., 2], s[..., 6]
        z1 = (z2 + z3) * 4433                   # FIX_0_541196100
        tmp2 = z1 + z3 * -15137                 # -FIX_1_847759065
        tmp3 = z1 + z2 * 6270                   # FIX_0_765366865
        z2, z3 = s[..., 0], s[..., 4]
        tmp0 = (z2 + z3) << 13
        tmp1 = (z2 - z3) << 13
        tmp10, tmp13 = tmp0 + tmp3, tmp0 - tmp3
        tmp11, tmp12 = tmp1 + tmp2, tmp1 - tmp2
        t0, t1, t2, t3 = s[..., 7], s[..., 5], s[..., 3], s[..., 1]
        z1 = t0 + t3
        z2 = t1 + t2
        z3 = t0 + t2
        z4 = t1 + t3
        z5 = (z3 + z4) * 9633                   # FIX_1_175875602
        t0 = t0 * 2446                          # FIX_0_298631336
        t1 = t1 * 16819                         # FIX_2_053119869
        t2 = t2 * 25172                         # FIX_3_072711026
        t3 = t3 * 12299                         # FIX_1_501321110
        z1 = z1 * -7373                         # -FIX_0_899976223
        z2 = z2 * -20995                        # -FIX_2_562915447
        z3 = z3 * -16069 + z5                   # -FIX_1_961570560
        z4 = z4 * -3196 + z5                    # -FIX_0_390180644
        t0 += z1 + z3
        t1 += z2 + z4
        t2 += z2 + z3
        t3 += z1 + z4
        half = 1 << (shift - 1)
        out = np.empty_like(s)
        out[..., 0] = (tmp10 + t3 + half) >> shift
        out[..., 7] = (tmp10 - t3 + half) >> shift
        out[..., 1] = (tmp11 + t2 + half) >> shift
        out[..., 6] = (tmp11 - t2 + half) >> shift
        out[..., 2] = (tmp12 + t1 + half) >> shift
        out[..., 5] = (tmp12 - t1 + half) >> shift
        out[..., 3] = (tmp13 + t0 + half) >> shift
        out[..., 4] = (tmp13 - t0 + half) >> shift
        return out

    cols = pass_(np.swapaxes(C, 1, 2), 13 - 2)      # column pass
    rows = pass_(np.swapaxes(cols, 1, 2), 13 + 2 + 3)
    return np.clip(rows + 128, 0, 255).astype(np.uint8)


def _idct_4x4(blocks: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """libjpeg jidctred.c jpeg_idct_4x4 — the scale-1/2 reduced
    transform (input column/row 4 ignored)."""
    C = blocks * qtab[None, :, :]

    def pass_(s, shift):
        # s: (..., 8) → (..., 4)
        s = s.astype(np.int64)
        tmp0 = s[..., 0] << 14                      # CONST_BITS+1
        tmp2 = s[..., 2] * 15137 + s[..., 6] * -6270
        tmp10, tmp12 = tmp0 + tmp2, tmp0 - tmp2
        z1, z2, z3, z4 = s[..., 7], s[..., 5], s[..., 3], s[..., 1]
        t0 = (z1 * -1730 + z2 * 11893 + z3 * -17799 + z4 * 8697)
        t2 = (z1 * -4176 + z2 * -4926 + z3 * 7373 + z4 * 20995)
        half = 1 << (shift - 1)
        out = np.empty(s.shape[:-1] + (4,), np.int64)
        out[..., 0] = (tmp10 + t2 + half) >> shift
        out[..., 3] = (tmp10 - t2 + half) >> shift
        out[..., 1] = (tmp12 + t0 + half) >> shift
        out[..., 2] = (tmp12 - t0 + half) >> shift
        return out

    cols = pass_(np.swapaxes(C, 1, 2), 13 - 2 + 1)     # (N, 8, 4)
    rows = pass_(np.swapaxes(cols, 1, 2), 13 + 2 + 3 + 1)
    return np.clip(rows + 128, 0, 255).astype(np.uint8)


def _idct_2x2(blocks: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """libjpeg jidctred.c jpeg_idct_2x2 (scale 1/4)."""
    C = blocks * qtab[None, :, :]

    def pass_(s, shift):
        s = s.astype(np.int64)
        tmp4 = s[..., 0] << 15                      # CONST_BITS+2
        t0 = (s[..., 7] * -5906 + s[..., 5] * 6967
              + s[..., 3] * -10426 + s[..., 1] * 29692)
        half = 1 << (shift - 1)
        out = np.empty(s.shape[:-1] + (2,), np.int64)
        out[..., 0] = (tmp4 + t0 + half) >> shift
        out[..., 1] = (tmp4 - t0 + half) >> shift
        return out

    cols = pass_(np.swapaxes(C, 1, 2), 13 - 2 + 2)
    rows = pass_(np.swapaxes(cols, 1, 2), 13 + 2 + 3 + 2)
    return np.clip(rows + 128, 0, 255).astype(np.uint8)


def _idct_1x1(blocks: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """libjpeg jidctred.c jpeg_idct_1x1 (scale 1/8): DC only."""
    dc = blocks[:, 0, 0].astype(np.int64) * int(qtab[0, 0])
    v = (dc + 4) >> 3
    return np.clip(v + 128, 0, 255).astype(np.uint8)[:, None, None]


def _fancy_upsample(plane: np.ndarray, vfac: int, hfac: int,
                    maxval: int) -> np.ndarray:
    """libjpeg jdsample.c fancy upsampling for factor-2 ratios:
    vertical pairs weighted 3:1 into 4.4-fixed column sums, then
    horizontal 3:1 with the +8/+7 bias pair; 2:1-in-one-axis uses the
    +1/+2 bias pair.  Non-2 factors fall back to replication."""
    p = plane.astype(np.int32)
    if vfac == 2 and hfac == 2:
        prev = np.vstack([p[:1], p[:-1]])
        nxt = np.vstack([p[1:], p[-1:]])
        cs = np.empty((p.shape[0] * 2, p.shape[1]), np.int32)
        cs[0::2] = 3 * p + prev
        cs[1::2] = 3 * p + nxt
        lastc = np.hstack([cs[:, :1], cs[:, :-1]])
        nextc = np.hstack([cs[:, 1:], cs[:, -1:]])
        out = np.empty((cs.shape[0], cs.shape[1] * 2), np.int32)
        out[:, 0::2] = (cs * 3 + lastc + 8) >> 4
        out[:, 1::2] = (cs * 3 + nextc + 7) >> 4
        out[:, 0] = (cs[:, 0] * 4 + 8) >> 4
        out[:, -1] = (cs[:, -1] * 4 + 7) >> 4
    elif vfac == 1 and hfac == 2:
        lastc = np.hstack([p[:, :1], p[:, :-1]])
        nextc = np.hstack([p[:, 1:], p[:, -1:]])
        out = np.empty((p.shape[0], p.shape[1] * 2), np.int32)
        out[:, 0::2] = (p * 3 + lastc + 1) >> 2
        out[:, 1::2] = (p * 3 + nextc + 2) >> 2
        out[:, 0] = p[:, 0]
        out[:, -1] = p[:, -1]
    elif vfac == 2 and hfac == 1:
        prev = np.vstack([p[:1], p[:-1]])
        nxt = np.vstack([p[1:], p[-1:]])
        out = np.empty((p.shape[0] * 2, p.shape[1]), np.int32)
        out[0::2] = (p * 3 + prev + 1) >> 2
        out[1::2] = (p * 3 + nxt + 2) >> 2
    else:
        out = np.repeat(np.repeat(p, vfac, axis=0), hfac, axis=1)
    return np.clip(out, 0, maxval)


def decode(buf: bytes, scale: int = 1,
           raw_planes: bool = False) -> np.ndarray:
    """JPEG → (h, w, 3) or (h, w, 1) uint8. Handles baseline sequential
    (SOF0/1) and progressive (SOF2: spectral selection + successive
    approximation per T.81 Annex G, incl. EOB runs, DC/AC refinement
    passes, restart markers, multi-scan table redefinition).
    ``scale`` ∈ {1,2,4,8} decodes at a reduced size via libjpeg's
    jidctred transforms (4x4/2x2/1x1), bit-exact with
    jpeg_decompress scale_denom (used by RasterLite2 pyramids)."""
    if buf[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG (no SOI)")
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], tuple] = {}     # (class, id) -> LUT pair
    comps = []          # (id, h, v, tq)
    w = h = 0
    restart = 0
    precision = 8
    progressive = False
    adobe_transform = None
    pos = 2
    n = len(buf)
    scans = []          # (scan_comps, Ss, Se, Ah, Al, huff snapshot,
                        #  restart interval, ecs, rst_bitpos)
    while pos < n:
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", buf, pos)
        seg = buf[pos + 2:pos + seglen]
        if marker == 0xDB:                      # DQT
            o = 0
            while o < len(seg):
                pq, tq = seg[o] >> 4, seg[o] & 15
                o += 1
                if pq == 0:
                    tbl = np.frombuffer(seg[o:o + 64], np.uint8).astype(np.int32)
                    o += 64
                else:
                    tbl = np.frombuffer(seg[o:o + 128], ">u2").astype(np.int32)
                    o += 128
                qt[tq] = tbl[_UNZZ].reshape(8, 8)
        elif marker in (0xC0, 0xC1, 0xC2):      # SOF0/1 baseline, SOF2 prog
            progressive = marker == 0xC2
            precision = seg[0]                  # 8 or 12 (T.81 extended)
            if precision not in (8, 12):
                raise ValueError(f"unsupported JPEG precision {precision}")
            h = struct.unpack_from(">H", seg, 1)[0]
            w = struct.unpack_from(">H", seg, 3)[0]
            nc = seg[5]
            comps = []
            for ci in range(nc):
                cid = seg[6 + ci * 3]
                hv = seg[7 + ci * 3]
                comps.append((cid, hv >> 4, hv & 15, seg[8 + ci * 3]))
        elif marker == 0xC3:                    # SOF3: lossless
            return _decode_lossless(buf, pos, seg, scale, raw_planes)
        elif marker in (0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise ValueError(f"unsupported JPEG SOF marker 0xFF{marker:02X} "
                             "(baseline sequential + progressive only)")
        elif marker == 0xC4:                    # DHT
            o = 0
            while o < len(seg):
                tc, th = seg[o] >> 4, seg[o] & 15
                bits = list(seg[o + 1:o + 17])
                nv = sum(bits)
                values = list(seg[o + 17:o + 17 + nv])
                huff[(tc, th)] = _decode_lut(bits, values)
                o += 17 + nv
        elif marker == 0xEE and seg[:5] == b"Adobe":   # APP14
            adobe_transform = seg[11] if len(seg) > 11 else None
        elif marker == 0xDD:                    # DRI
            restart = struct.unpack_from(">H", seg, 0)[0]
        elif marker == 0xDA:                    # SOS
            ns = seg[0]
            scan_comps = []
            for si in range(ns):
                cs = seg[1 + si * 2]
                td_ta = seg[2 + si * 2]
                scan_comps.append((cs, td_ta >> 4, td_ta & 15))
            ss, se = seg[1 + ns * 2], seg[2 + ns * 2]
            ahal = seg[3 + ns * 2]
            ecs, rst_bitpos, pos = _collect_entropy(buf, pos + seglen)
            scans.append((scan_comps, ss, se, ahal >> 4, ahal & 15,
                          dict(huff), restart, ecs, rst_bitpos))
            continue
        pos += seglen

    if not comps or not scans:
        raise ValueError("JPEG missing SOF/SOS")

    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    # corrupt-stream guard: a truncated/oversized header would otherwise
    # walk millions of phantom MCUs off the end of the entropy data
    if mcux * mcuy > 1 << 22:
        raise ValueError(f"implausible MCU count {mcux}x{mcuy}")

    # per-component block coefficient stores on the MCU-padded grid
    nblocks = {c[0]: (mcuy * c[2], mcux * c[1]) for c in comps}
    coefs = {c[0]: np.zeros((nblocks[c[0]][0] * nblocks[c[0]][1], 64),
                            np.int32) for c in comps}
    comp_by_id = {c[0]: c for c in comps}

    for scan in scans:
        _decode_scan(scan, comps, comp_by_id, coefs, nblocks,
                     hmax, vmax, mcux, mcuy, w, h, progressive)

    # dequant + batch IDCT per component.  8-bit uses the bit-exact
    # libjpeg jidctint.c islow fixed-point transform so checksums
    # match libjpeg-decoded goldens; 12-bit keeps the float path
    # (level shift 2048, range 0..4095 — T.81 extended precision).
    center = 1 << (precision - 1)
    maxval = (1 << precision) - 1
    odt = np.uint8 if precision == 8 else np.uint16
    if scale not in (1, 2, 4, 8):
        raise ValueError("JPEG scale must be 1, 2, 4 or 8")
    if scale > 1 and precision != 8:
        raise ValueError("scaled decode is 8-bit only")
    min_bs = 8 // scale                         # min_DCT_scaled_size
    out_h, out_w = -(-h // scale), -(-w // scale)
    _IDCTS = {8: _idct_islow, 4: _idct_4x4, 2: _idct_2x2, 1: _idct_1x1}
    planes = {}
    for cid, ch, cv, tq in comps:
        # per-component DCT size (jdmaster.c): scale chroma up via a
        # larger reduced-IDCT rather than upsampling when possible
        bs = min_bs
        while bs < 8 and ch * bs * 2 <= hmax * min_bs \
                and cv * bs * 2 <= vmax * min_bs:
            bs *= 2
        bl = coefs[cid][:, _UNZZ].reshape(-1, 8, 8)
        if precision == 8:
            spatial = _IDCTS[bs](bl.astype(np.int64),
                                 qt[tq].astype(np.int64))
        else:
            blf = bl.astype(np.float64) * qt[tq][None, :, :]
            spatial = _C.T @ blf @ _C           # vectorized IDCT
            spatial = np.clip(np.round(spatial + center), 0,
                              maxval).astype(odt)
        rows, cols = nblocks[cid]
        plane = spatial.reshape(rows, cols, bs, bs) \
            .transpose(0, 2, 1, 3).reshape(rows * bs, cols * bs)
        if raw_planes:
            # subsampled component at its natural size (OJPEG-in-TIFF
            # path: the caller replicates + converts with the TIFF
            # tags' luma/refBW tables, not JPEG full-range)
            cw = -(-w * ch // hmax)
            chh = -(-h * cv // vmax)
            planes[cid] = plane[:chh, :cw]
            continue
        # upsample to the output grid — libjpeg's default "fancy"
        # triangular filter for the 2:1 ratios (jdsample.c
        # h2v2/h2v1_fancy_upsample); plain replication otherwise
        vf = (vmax * min_bs) // (cv * bs)
        hf = (hmax * min_bs) // (ch * bs)
        if vf != 1 or hf != 1:
            sub_h = -(-out_h // vf)
            sub_w = -(-out_w // hf)
            plane = plane[:sub_h, :sub_w]
            plane = _fancy_upsample(plane, vf, hf, maxval)
        planes[cid] = plane[:out_h, :out_w]

    if raw_planes:
        return {cid: (planes[cid], ch, cv)
                for cid, ch, cv, _tq in comps}
    if len(comps) == 1:
        return planes[comps[0][0]][:, :, None]
    # non-YCbCr layouts stay raw (libjpeg jdmaster color-space
    # inference): component ids 'R','G','B' or Adobe transform 0 →
    # RGB stored directly; 4 components without an Adobe YCCK
    # transform (TIFF RGBA strips, CMYK) pass through unconverted
    ids = tuple(c[0] for c in comps)
    if len(comps) == 3 and (ids == (0x52, 0x47, 0x42)
                            or adobe_transform == 0):
        return np.stack([planes[i] for i in ids], axis=2)
    if len(comps) == 4:
        if adobe_transform == 2:
            raise ValueError("JPEG: Adobe YCCK not supported")
        return np.stack([planes[i] for i in ids], axis=2)
    if len(comps) != 3:
        return np.stack([planes[i] for i in ids], axis=2)
    if precision == 8:
        # libjpeg jdcolor.c ycc_rgb_convert fixed-point tables
        y = planes[comps[0][0]].astype(np.int64)
        cb = planes[comps[1][0]].astype(np.int64)
        cr = planes[comps[2][0]].astype(np.int64)
        x = np.arange(256, dtype=np.int64) - 128
        crr = (91881 * x + 32768) >> 16          # FIX(1.40200)
        cbb = (116130 * x + 32768) >> 16         # FIX(1.77200)
        crg = -46802 * x                         # -FIX(0.71414)
        cbg = -22554 * x + 32768                 # -FIX(0.34414)
        r = np.clip(y + crr[cr], 0, 255)
        g = np.clip(y + ((cbg[cb] + crg[cr]) >> 16), 0, 255)
        b = np.clip(y + cbb[cb], 0, 255)
        return np.stack([r, g, b], axis=2).astype(np.uint8)
    y = planes[comps[0][0]].astype(np.float64)
    cb = planes[comps[1][0]].astype(np.float64) - center
    cr = planes[comps[2][0]].astype(np.float64) - center
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, maxval).astype(odt)


# ---------------------------------------------------------------------------
# encoder (baseline, 4:4:4, Annex K tables)
# ---------------------------------------------------------------------------

def _scale_q(tbl: np.ndarray, quality: int) -> np.ndarray:
    quality = max(1, min(100, quality))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (tbl * s + 50) // 100
    return np.clip(q, 1, 255).astype(np.int32)


def _segment(bw: MsbWriter) -> bytes:
    """Close an entropy-coded segment: pad the last byte with 1-bits
    and stuff a 0x00 after every 0xFF (T.81 F.1.2.3, B.1.1.5)."""
    bw.put(0xFF, -bw.n & 7)
    return bw.finish().replace(b"\xff", b"\xff\x00")


def _enc_table(bits, values):
    return {sym: (code, length)
            for code, length, sym in _canonical_codes(bits, values)}


# progressive AC table: every K.3 symbol plus the EOBn run symbols
# (r<<4 for r=1..14), all at code length 8 — a valid canonical Huffman
# table (176 < 255 codes, all-ones code unused) that can express any
# EOB run up to 32767. Size-suboptimal, correctness-exact.
_AC_PROG_SYMS = sorted(set(_AC_LUMA[1]) | {r << 4 for r in range(1, 15)})
_AC_PROG = ([0, 0, 0, 0, 0, 0, 0, len(_AC_PROG_SYMS), 0, 0, 0, 0, 0, 0,
             0, 0], _AC_PROG_SYMS)


def _prog_scan_script(ncomp: int):
    """libjpeg-style standard progressive scan script (jcparam.c
    standard_script): (component indices, Ss, Se, Ah, Al)."""
    if ncomp == 1:
        return [([0], 0, 0, 0, 1), ([0], 1, 5, 0, 2), ([0], 6, 63, 0, 2),
                ([0], 1, 63, 2, 1), ([0], 0, 0, 1, 0), ([0], 1, 63, 1, 0)]
    return [([0, 1, 2], 0, 0, 0, 1),
            ([0], 1, 5, 0, 2), ([2], 1, 63, 0, 1), ([1], 1, 63, 0, 1),
            ([0], 6, 63, 0, 2), ([0], 1, 63, 2, 1),
            ([0, 1, 2], 0, 0, 1, 0),
            ([2], 1, 63, 1, 0), ([1], 1, 63, 1, 0), ([0], 1, 63, 1, 0)]


class _ProgACWriter:
    """AC scan emitter with EOB-run and buffered-correction-bit state
    (the jchuff.c/jcphuff.c emit_eobrun/BE-buffer mechanics)."""

    def __init__(self, bw, ac_tab):
        self.bw = bw
        self.tab = ac_tab
        self.eobrun = 0
        self.pending = []        # correction bits queued behind the run

    def sym(self, s):
        code, ln = self.tab[s]
        self.bw.put(code, ln)

    def flush_pending(self):
        for bit in self.pending:
            self.bw.put(bit, 1)
        self.pending = []

    def emit_eobrun(self):
        if self.eobrun > 0:
            nbits = self.eobrun.bit_length() - 1
            self.sym(nbits << 4)
            if nbits:
                self.bw.put(self.eobrun & ((1 << nbits) - 1), nbits)
            self.eobrun = 0
        self.flush_pending()


def _emit_ac_first(pw: _ProgACWriter, vals):
    """One block of an AC first pass (vals already point-transformed,
    indices 0..len-1 = Ss..Se)."""
    nz = np.nonzero(vals)[0]
    if len(nz) == 0:
        pw.eobrun += 1
        if pw.eobrun == 0x7FFF:
            pw.emit_eobrun()
        return
    pw.emit_eobrun()
    r = 0
    last = nz[-1]
    for k in range(last + 1):
        v = int(vals[k])
        if v == 0:
            r += 1
            continue
        while r > 15:
            pw.sym(0xF0)
            r -= 16
        s = abs(v).bit_length()
        pw.sym((r << 4) | s)
        pw.bw.put(v if v >= 0 else v + (1 << s) - 1, s)
        r = 0
    if last < len(vals) - 1:
        pw.eobrun += 1
        if pw.eobrun == 0x7FFF:
            pw.emit_eobrun()


def _emit_ac_refine(pw: _ProgACWriter, band, al):
    """One block of an AC refinement pass (band = raw coefficient
    values at Ss..Se; Ah = al+1 implied)."""
    absv = [abs(int(v)) >> al for v in band]
    eob = -1
    for k, t in enumerate(absv):
        if t == 1:
            eob = k
    r = 0
    corr = []                    # correction bits since last symbol
    for k, t in enumerate(absv):
        if t == 0:
            r += 1
            continue
        # emit required ZRLs before ANY nonzero coefficient (history or
        # new) so correction bits stay in decoder pass order — unless
        # the run can fold into the EOB (jcphuff.c emit_mcu_AC_refine)
        while r > 15 and k <= eob:
            pw.emit_eobrun()
            pw.sym(0xF0)
            r -= 16
            for bit in corr:
                pw.bw.put(bit, 1)
            corr = []
        if t > 1:
            corr.append(t & 1)
            continue
        # t == 1: newly significant
        pw.emit_eobrun()
        pw.sym((r << 4) | 1)
        pw.bw.put(1 if int(band[k]) >= 0 else 0, 1)
        for bit in corr:
            pw.bw.put(bit, 1)
        corr = []
        r = 0
    if r > 0 or corr:
        pw.eobrun += 1
        pw.pending.extend(corr)
        if pw.eobrun == 0x7FFF or len(pw.pending) > 900:
            pw.emit_eobrun()


def _emit_progressive_scans(out: bytearray, zz, ncomp: int) -> None:
    """Append DHT + the scan-script SOS/entropy segments for a
    progressive stream (coefficients in zigzag per component)."""
    dc_tab = _enc_table(*_DC_LUMA)
    ac_tab = _enc_table(*_AC_PROG)
    for tc, th, (bits, values) in ((0, 0, _DC_LUMA), (1, 0, _AC_PROG)):
        out += b"\xFF\xC4" + struct.pack(">H", 19 + len(values)) \
            + bytes([(tc << 4) | th]) + bytes(bits) + bytes(values)
    nb = zz[0].shape[0]
    for comps_idx, ss, se, ah, al in _prog_scan_script(ncomp):
        out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * len(comps_idx),
                                         len(comps_idx))
        for ci in comps_idx:
            out += bytes([ci + 1, 0x00])
        out += bytes([ss, se, (ah << 4) | al])
        bw = MsbWriter()
        if ss == 0 and ah == 0:              # DC first (arithmetic >>)
            preds = {ci: 0 for ci in comps_idx}
            for bi in range(nb):
                for ci in comps_idx:
                    v = int(zz[ci][bi][0]) >> al
                    diff = v - preds[ci]
                    preds[ci] = v
                    t = abs(diff).bit_length()
                    code, ln = dc_tab[t]
                    bw.put(code, ln)
                    if t:
                        bw.put(diff if diff >= 0 else diff + (1 << t) - 1, t)
        elif ss == 0:                        # DC refinement: 1 bit/block
            for bi in range(nb):
                for ci in comps_idx:
                    bw.put((int(zz[ci][bi][0]) >> al) & 1, 1)
        elif ah == 0:                        # AC first (truncate-to-zero)
            pw = _ProgACWriter(bw, ac_tab)
            ci = comps_idx[0]
            for bi in range(nb):
                band = zz[ci][bi][ss:se + 1]
                a = np.abs(band) >> al
                _emit_ac_first(pw, np.where(band >= 0, a, -a))
            pw.emit_eobrun()
        else:                                # AC refinement
            pw = _ProgACWriter(bw, ac_tab)
            ci = comps_idx[0]
            for bi in range(nb):
                _emit_ac_refine(pw, zz[ci][bi][ss:se + 1], al)
            pw.emit_eobrun()
        out += _segment(bw)


def encode(img: np.ndarray, quality: int = 90,
           progressive: bool = False) -> bytes:
    """(h, w[, 1|3]) uint8 → JFIF bytes (4:4:4). ``progressive=True``
    emits SOF2 with the libjpeg standard scan script (spectral
    selection + successive approximation); the quantized coefficients
    are identical to the baseline stream, so both decode to the same
    pixels exactly."""
    px = img if img.ndim == 3 else img[:, :, None]
    if px.shape[2] not in (1, 3):
        px = px[:, :, :3]
    h, w, nc = px.shape
    gray = nc == 1
    qy = _scale_q(_Q_LUMA, quality)
    qc = _scale_q(_Q_CHROMA, quality)

    if gray:
        planes = [px[:, :, 0].astype(np.float64)]
    else:
        f = px.astype(np.float64)
        y = 0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]
        cb = -0.168736 * f[:, :, 0] - 0.331264 * f[:, :, 1] \
            + 0.5 * f[:, :, 2] + 128.0
        cr = 0.5 * f[:, :, 0] - 0.418688 * f[:, :, 1] \
            - 0.081312 * f[:, :, 2] + 128.0
        planes = [y, cb, cr]

    bh, bwd = -(-h // 8) * 8, -(-w // 8) * 8
    zz_per_comp = []
    for ci, plane in enumerate(planes):
        p = np.empty((bh, bwd))
        p[:h, :w] = plane
        p[h:, :w] = plane[-1:, :]
        p[:, w:] = p[:, w - 1:w]
        blocks = p.reshape(bh // 8, 8, bwd // 8, 8).transpose(0, 2, 1, 3) \
            .reshape(-1, 8, 8) - 128.0
        q = qy if ci == 0 else qc
        dct = _C @ blocks @ _C.T                 # vectorized forward DCT
        qz = np.round(dct / q[None, :, :]).astype(np.int32)
        zz_per_comp.append(qz.reshape(-1, 64)[:, _ZZ])

    out = bytearray(b"\xFF\xD8")
    out += b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00" \
        + struct.pack(">HH", 1, 1) + b"\x00\x00"
    for tq, q in ([(0, qy)] if gray else [(0, qy), (1, qc)]):
        out += b"\xFF\xDB" + struct.pack(">H", 67) + bytes([tq]) \
            + bytes(q.reshape(-1)[_ZZ].astype(np.uint8).tolist())
    ncomp = 1 if gray else 3
    if progressive:
        out += b"\xFF\xC2" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w,
                                         ncomp)
        for ci in range(ncomp):
            out += bytes([ci + 1, 0x11, 0 if ci == 0 else 1])
        _emit_progressive_scans(out, zz_per_comp, ncomp)
        out += b"\xFF\xD9"
        return bytes(out)
    out += b"\xFF\xC0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        out += bytes([ci + 1, 0x11, 0 if ci == 0 else 1])
    tables = [(0, 0, _DC_LUMA), (1, 0, _AC_LUMA)]
    if not gray:
        tables += [(0, 1, _DC_CHROMA), (1, 1, _AC_CHROMA)]
    for tc, th, (bits, values) in tables:
        out += b"\xFF\xC4" + struct.pack(">H", 19 + len(values)) \
            + bytes([(tc << 4) | th]) + bytes(bits) + bytes(values)
    out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        out += bytes([ci + 1, 0x00 if ci == 0 else 0x11])
    out += b"\x00\x3F\x00"

    bw_ = MsbWriter()
    dc_y, ac_y = _enc_table(*_DC_LUMA), _enc_table(*_AC_LUMA)
    dc_c, ac_c = _enc_table(*_DC_CHROMA), _enc_table(*_AC_CHROMA)
    # interleave per MCU (1 block per component at 4:4:4)
    nb = zz_per_comp[0].shape[0]
    preds = [0] * ncomp
    for bi in range(nb):
        for ci in range(ncomp):
            bz = zz_per_comp[ci][bi]
            dct_tab = dc_y if ci == 0 else dc_c
            act_tab = ac_y if ci == 0 else ac_c
            diff = int(bz[0]) - preds[ci]
            preds[ci] = int(bz[0])
            mag = abs(diff)
            t = mag.bit_length()
            code, ln = dct_tab[t]
            bw_.put(code, ln)
            if t:
                bw_.put(diff if diff >= 0 else diff + (1 << t) - 1, t)
            k = 1
            run = 0
            nz = np.nonzero(bz[1:])[0]
            last = (nz[-1] + 1) if len(nz) else 0
            while k <= last:
                v = int(bz[k])
                if v == 0:
                    run += 1
                    k += 1
                    continue
                while run > 15:
                    code, ln = act_tab[0xF0]
                    bw_.put(code, ln)
                    run -= 16
                s = abs(v).bit_length()
                code, ln = act_tab[(run << 4) | s]
                bw_.put(code, ln)
                bw_.put(v if v >= 0 else v + (1 << s) - 1, s)
                run = 0
                k += 1
            if last < 63:
                code, ln = act_tab[0x00]
                bw_.put(code, ln)
    out += _segment(bw_)
    out += b"\xFF\xD9"
    return bytes(out)


def _decode_lossless(buf: bytes, sof_pos: int, sof_seg: bytes,
                     scale: int, raw_planes: bool) -> np.ndarray:
    """SOF3 lossless JPEG (T.81 Annex H): Huffman-coded prediction
    residuals, predictors 1-7 with the first-sample/first-line
    fallbacks, restart intervals, modulo-2^16 arithmetic.  Supports
    1..4 components at 1x1 sampling (the DNG/TIFF profile)."""
    precision = sof_seg[0]
    h = struct.unpack_from(">H", sof_seg, 1)[0]
    w = struct.unpack_from(">H", sof_seg, 3)[0]
    nc = sof_seg[5]
    comps = []
    for c in range(nc):
        cid, hv, _tq = sof_seg[6 + 3 * c:9 + 3 * c]
        if hv != 0x11:
            raise ValueError("lossless JPEG: only 1x1 sampling")
        comps.append(cid)

    # walk the remaining markers for DHT / SOS / DRI
    huff = {}
    restart = 0
    pos = sof_pos + struct.unpack_from(">H", buf, sof_pos)[0]
    n = len(buf)
    while pos < n:
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        pos += 2
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            raise ValueError("lossless JPEG: no SOS")
        (seglen,) = struct.unpack_from(">H", buf, pos)
        seg = buf[pos + 2:pos + seglen]
        if marker == 0xC4:
            o = 0
            while o < len(seg):
                tc_th = seg[o]
                bits = list(seg[o + 1:o + 17])
                nsym = sum(bits)
                vals = list(seg[o + 17:o + 17 + nsym])
                huff[(tc_th >> 4, tc_th & 15)] = _decode_lut(bits, vals)
                o += 17 + nsym
        elif marker == 0xDD:
            restart = struct.unpack_from(">H", seg, 0)[0]
        elif marker == 0xDA:
            ns = seg[0]
            scomps = []
            for i in range(ns):
                cs, tbl = seg[1 + 2 * i], seg[2 + 2 * i]
                scomps.append((cs, tbl >> 4))
            pred_sel = seg[1 + 2 * ns]
            pt = seg[3 + 2 * ns] & 15
            ecs, rst_bitpos, _ = _collect_entropy(buf, pos + seglen)
            return _lossless_scan(ecs, rst_bitpos, w, h, precision,
                                  scomps, huff, pred_sel, pt,
                                  restart, raw_planes)
        pos += seglen
    raise ValueError("lossless JPEG: truncated")


def _lossless_scan(ecs, rst_bitpos, w, h, precision, scomps, huff,
                   pred_sel, pt, restart, raw_planes):
    br = MsbReader(ecs)
    nc = len(scomps)
    out = np.zeros((h, w, nc), np.int64)
    default = 1 << (precision - pt - 1)
    luts = [huff[(0, tbl)] for _, tbl in scomps]
    rst_iter = iter(rst_bitpos)
    count = 0
    reset_at = 0                         # restart resets prediction

    for y in range(h):
        for x in range(w):
            for ci in range(nc):
                sym, ln = luts[ci]
                window = br.peek(16)
                s = int(sym[window])
                length = int(ln[window])
                if length == 0:
                    raise ValueError("lossless JPEG: bad Huffman code")
                br.pos += length
                if s == 16:
                    diff = 32768
                elif s == 0:
                    diff = 0
                else:
                    diff = _extend(br.get(s), s)
                idx = y * w + x
                if idx == reset_at:
                    px = default          # scan / restart start
                elif y == 0:
                    px = int(out[y, x - 1, ci])     # first line: Ra
                elif x == 0:
                    px = int(out[y - 1, x, ci])     # first col: Rb
                else:
                    ra = int(out[y, x - 1, ci])
                    rb = int(out[y - 1, x, ci])
                    rc = int(out[y - 1, x - 1, ci])
                    px = {1: ra, 2: rb, 3: rc,
                          4: ra + rb - rc,
                          5: ra + ((rb - rc) >> 1),
                          6: rb + ((ra - rc) >> 1),
                          7: (ra + rb) >> 1}[pred_sel]
                out[y, x, ci] = (px + diff) & 0xFFFF
            count += 1
            if restart and count % restart == 0 and count < w * h:
                try:
                    br.pos = next(rst_iter)
                except StopIteration:
                    pass
                reset_at = count
    vals = (out << pt) & ((1 << 16) - 1)
    odt = np.uint8 if precision <= 8 else np.uint16
    vals = vals.astype(odt)
    if raw_planes:
        return {cs: (vals[:, :, i], 1, 1)
                for i, (cs, _t) in enumerate(scomps)}
    return vals
