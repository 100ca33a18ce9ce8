"""VP8 still-image decoder — RFC 6386, keyframe/intra only.

Reference: frmts/webp/webpdataset.cpp wraps libwebp; this module
implements the published bitstream spec directly for the WebP lossy
payload (a single VP8 key frame):

  * boolean arithmetic decoder (§7), frame + first-partition headers
    (§9: segmentation, loop-filter params, quantizer indices,
    coefficient-probability updates);
  * keyframe intra modes (§11.5: contextual 4x4 B modes over
    kf_bmode_prob, 16x16 Y and chroma modes);
  * DCT/WHT token decoding (§13: token tree, band/ctx probabilities,
    category extra bits), dequantization (§14.1), exact integer
    inverse DCT/WHT (§14.3-14.4);
  * intra prediction (§12: 16x16/8x8 DC/V/H/TM, the ten 4x4 B modes
    with VP8's stale top-right convention);
  * the normal + simple in-loop deblocking filters (§15).

Tables in vp8_tables.py are the RFC's published constants. Output is
the YUV 4:2:0 planes; webp.py owns upsampling/RGB (libwebp-parity
fancy upsampler). Conformance: decoded planes equal libwebp's
WebPDecodeYUV byte-for-byte on the reference fixtures
(tests/test_webp.py)."""

from __future__ import annotations

import numpy as np

from .vp8_tables import (AC_QLOOKUP, COEFF_UPDATE_PROBS, DC_QLOOKUP,
                         DEFAULT_COEFF_PROBS)
from .vp8_tables import KF_BMODE_PROB as _KF_BMODE_LIBWEBP

# vp8_tables.KF_BMODE_PROB was recovered from libwebp, whose b-mode
# enum permutes the RFC 6386 one (libwebp: RD=4 VR=5 LD=6; RFC: LD=4
# RD=5 VR=6). Re-index both context axes into RFC order, which this
# module uses throughout (verified against libwebp on synthetic
# streams exercising every context row).
_ENUM_RFC_TO_LIBWEBP = (0, 1, 2, 3, 6, 4, 5, 7, 8, 9)
KF_BMODE_PROB = np.asarray(_KF_BMODE_LIBWEBP)[
    np.ix_(_ENUM_RFC_TO_LIBWEBP, _ENUM_RFC_TO_LIBWEBP)]

# mode numbering (§11.2)
DC_PRED, V_PRED, H_PRED, TM_PRED, B_PRED = 0, 1, 2, 3, 4
(B_DC, B_TM, B_VE, B_HE, B_LD, B_RD, B_VR, B_VL, B_HD, B_HU) = range(10)

KF_YMODE_TREE = (-B_PRED, 2, 4, 6, -DC_PRED, -V_PRED,
                 -H_PRED, -TM_PRED)
KF_YMODE_PROB = (145, 156, 163, 128)
UV_MODE_TREE = (-DC_PRED, 2, -V_PRED, 4, -H_PRED, -TM_PRED)
KF_UV_MODE_PROB = (142, 114, 183)
BMODE_TREE = (-B_DC, 2, -B_TM, 4, -B_VE, 6, 8, 12,
              -B_HE, 10, -B_RD, -B_VR, -B_LD, 14,
              -B_VL, 16, -B_HD, -B_HU)
# 16x16 mode → implied uniform b-mode for the context of the MB below
_MODE_TO_B = {DC_PRED: B_DC, V_PRED: B_VE, H_PRED: B_HE, TM_PRED: B_TM}

# token tree (§13.2); negative leaves: 0..4 literal, 5..10 cat1..6,
# 11 EOB
DCT_EOB, DCT_0, DCT_1, DCT_2, DCT_3, DCT_4 = 11, 0, 1, 2, 3, 4
COEFF_TREE = (-DCT_EOB, 2, -DCT_0, 4, -DCT_1, 6, 8, 12,
              -DCT_2, 10, -DCT_3, -DCT_4, 14, 16,
              -5, -6, 18, 20, -7, -8, -9, -10)
CAT_PROBS = ((159,), (165, 145), (173, 148, 140),
             (176, 155, 140, 135), (180, 157, 141, 134, 130),
             (254, 254, 243, 230, 196, 177, 153, 140, 133, 130, 129))
CAT_BASE = (5, 7, 11, 19, 35, 67)
COEFF_BANDS = (0, 1, 2, 3, 6, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7)
ZIGZAG = (0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15)


class BoolDec:
    """§7.3 boolean decoder."""
    __slots__ = ("data", "pos", "rng", "value", "bit_count")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 2
        self.rng = 255
        b0 = data[0] if len(data) > 0 else 0
        b1 = data[1] if len(data) > 1 else 0
        self.value = (b0 << 8) | b1
        self.bit_count = 0

    def get(self, prob: int) -> int:
        split = 1 + (((self.rng - 1) * prob) >> 8)
        big = split << 8
        if self.value >= big:
            ret = 1
            self.rng -= split
            self.value -= big
        else:
            ret = 0
            self.rng = split
        while self.rng < 128:
            self.value <<= 1
            self.rng <<= 1
            self.bit_count += 1
            if self.bit_count == 8:
                self.bit_count = 0
                b = self.data[self.pos] if self.pos < len(self.data) \
                    else 0
                self.pos += 1
                self.value |= b
        return ret

    def literal(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.get(128)
        return v

    def signed(self, n: int) -> int:
        v = self.literal(n)
        return -v if self.get(128) else v

    def tree(self, tree, probs, start: int = 0) -> int:
        i = start
        while True:
            i = tree[i + self.get(probs[i >> 1])]
            if i <= 0:
                return -i


def _clip255(a):
    return np.clip(a, 0, 255)


def _idct4x4(coefs) -> np.ndarray:
    """§14.4 exact integer inverse DCT (input raster order 4x4)."""
    c1, c2 = 20091, 35468
    ip = [int(v) for v in coefs]
    tmp = [0] * 16
    for i in range(4):
        a1 = ip[i] + ip[i + 8]
        b1 = ip[i] - ip[i + 8]
        t1 = (ip[i + 4] * c2) >> 16
        t2 = ip[i + 12] + ((ip[i + 12] * c1) >> 16)
        cc = t1 - t2
        t1 = ip[i + 4] + ((ip[i + 4] * c1) >> 16)
        t2 = (ip[i + 12] * c2) >> 16
        dd = t1 + t2
        tmp[i] = a1 + dd
        tmp[i + 12] = a1 - dd
        tmp[i + 4] = b1 + cc
        tmp[i + 8] = b1 - cc
    out = np.empty((4, 4), np.int32)
    for i in range(4):
        r = tmp[i * 4:i * 4 + 4]
        a1 = r[0] + r[2]
        b1 = r[0] - r[2]
        t1 = (r[1] * c2) >> 16
        t2 = r[3] + ((r[3] * c1) >> 16)
        cc = t1 - t2
        t1 = r[1] + ((r[1] * c1) >> 16)
        t2 = (r[3] * c2) >> 16
        dd = t1 + t2
        out[i, 0] = (a1 + dd + 4) >> 3
        out[i, 3] = (a1 - dd + 4) >> 3
        out[i, 1] = (b1 + cc + 4) >> 3
        out[i, 2] = (b1 - cc + 4) >> 3
    return out


def _iwht4x4(coefs) -> list:
    """§14.3 inverse Walsh-Hadamard for the Y2 block."""
    ip = [int(v) for v in coefs]
    tmp = [0] * 16
    for i in range(4):
        a1 = ip[i] + ip[i + 12]
        b1 = ip[i + 4] + ip[i + 8]
        c1 = ip[i + 4] - ip[i + 8]
        d1 = ip[i] - ip[i + 12]
        tmp[i] = a1 + b1
        tmp[i + 4] = c1 + d1
        tmp[i + 8] = a1 - b1
        tmp[i + 12] = d1 - c1
    out = [0] * 16
    for i in range(4):
        r = tmp[i * 4:i * 4 + 4]
        a1 = r[0] + r[3]
        b1 = r[1] + r[2]
        c1 = r[1] - r[2]
        d1 = r[0] - r[3]
        out[i * 4] = (a1 + b1 + 3) >> 3
        out[i * 4 + 1] = (c1 + d1 + 3) >> 3
        out[i * 4 + 2] = (a1 - b1 + 3) >> 3
        out[i * 4 + 3] = (d1 - c1 + 3) >> 3
    return out


# ---------------------------------------------------------------------------
# intra predictors
# ---------------------------------------------------------------------------

def _pred_dc(above, left, have_a, have_l, size):
    if have_a and have_l:
        s = int(above[:size].sum() + left[:size].sum())
        return np.full((size, size), (s + size) >> _log2p1(size),
                       np.int32)
    if have_a:
        s = int(above[:size].sum())
        return np.full((size, size), (s + size // 2) >> _log2(size),
                       np.int32)
    if have_l:
        s = int(left[:size].sum())
        return np.full((size, size), (s + size // 2) >> _log2(size),
                       np.int32)
    return np.full((size, size), 128, np.int32)


def _log2(size):
    return {4: 2, 8: 3, 16: 4}[size]


def _log2p1(size):
    return _log2(size) + 1


def _pred_tm(above, left, al, size):
    a = above[:size].astype(np.int32)
    l = left[:size].astype(np.int32)
    return _clip255(l[:, None] + a[None, :] - int(al))


def _avg3(a, b, c):
    return (a + 2 * b + c + 2) >> 2


def _avg2(a, b):
    return (a + b + 1) >> 1


def _pred_b(mode, ctx):
    """4x4 B-mode prediction. ctx = 13 ints: A[-1..7] (above-left,
    above 0..3, above-right 4..7) and L[0..3]."""
    al = ctx[0]
    A = ctx[1:9]
    L = ctx[9:13]
    out = np.empty((4, 4), np.int32)
    if mode == B_DC:
        out[:] = (sum(A[:4]) + sum(L) + 4) >> 3
    elif mode == B_TM:
        out[:] = _clip255(np.array(L, np.int32)[:, None]
                          + np.array(A[:4], np.int32)[None, :] - al)
    elif mode == B_VE:
        row = [_avg3(al, A[0], A[1]), _avg3(A[0], A[1], A[2]),
               _avg3(A[1], A[2], A[3]), _avg3(A[2], A[3], A[4])]
        out[:] = np.array(row, np.int32)[None, :]
    elif mode == B_HE:
        col = [_avg3(al, L[0], L[1]), _avg3(L[0], L[1], L[2]),
               _avg3(L[1], L[2], L[3]), _avg3(L[2], L[3], L[3])]
        out[:] = np.array(col, np.int32)[:, None]
    elif mode == B_LD:
        p = [_avg3(A[0], A[1], A[2]), _avg3(A[1], A[2], A[3]),
             _avg3(A[2], A[3], A[4]), _avg3(A[3], A[4], A[5]),
             _avg3(A[4], A[5], A[6]), _avg3(A[5], A[6], A[7]),
             _avg3(A[6], A[7], A[7])]
        for y in range(4):
            for x in range(4):
                out[y, x] = p[x + y]
    elif mode == B_RD:
        p = [_avg3(L[3], L[2], L[1]), _avg3(L[2], L[1], L[0]),
             _avg3(L[1], L[0], al), _avg3(L[0], al, A[0]),
             _avg3(al, A[0], A[1]), _avg3(A[0], A[1], A[2]),
             _avg3(A[1], A[2], A[3])]
        for y in range(4):
            for x in range(4):
                out[y, x] = p[x - y + 3]
    elif mode == B_VR:
        out[0, 0] = out[2, 0] = _avg2(al, A[0])
        out[0, 1] = out[2, 1] = _avg2(A[0], A[1])
        out[0, 2] = out[2, 2] = _avg2(A[1], A[2])
        out[0, 3] = out[2, 3] = _avg2(A[2], A[3])
        out[1, 0] = out[3, 0] = _avg3(L[0], al, A[0])
        out[1, 1] = out[3, 1] = _avg3(al, A[0], A[1])
        out[1, 2] = out[3, 2] = _avg3(A[0], A[1], A[2])
        out[1, 3] = out[3, 3] = _avg3(A[1], A[2], A[3])
        out[2, 0] = _avg3(al, L[0], L[1])
        out[3, 0] = _avg3(L[0], L[1], L[2])
        out[2, 1:] = out[0, :3]
        out[3, 1:] = out[1, :3]
    elif mode == B_VL:
        out[0, 0] = _avg2(A[0], A[1])
        out[0, 1] = out[2, 0] = _avg2(A[1], A[2])
        out[0, 2] = out[2, 1] = _avg2(A[2], A[3])
        out[0, 3] = out[2, 2] = _avg2(A[3], A[4])
        out[1, 0] = _avg3(A[0], A[1], A[2])
        out[1, 1] = out[3, 0] = _avg3(A[1], A[2], A[3])
        out[1, 2] = out[3, 1] = _avg3(A[2], A[3], A[4])
        out[1, 3] = out[3, 2] = _avg3(A[3], A[4], A[5])
        out[2, 3] = _avg3(A[4], A[5], A[6])
        out[3, 3] = _avg3(A[5], A[6], A[7])
    elif mode == B_HD:
        out[0, 0] = _avg2(al, L[0])
        out[0, 1] = _avg3(A[0], al, L[0])
        out[0, 2] = _avg3(al, A[0], A[1])
        out[0, 3] = _avg3(A[0], A[1], A[2])
        out[1, 0] = _avg2(L[0], L[1])
        out[1, 1] = _avg3(al, L[0], L[1])
        out[1, 2:] = out[0, :2]
        out[2, 0] = _avg2(L[1], L[2])
        out[2, 1] = _avg3(L[0], L[1], L[2])
        out[2, 2:] = out[1, :2]
        out[3, 0] = _avg2(L[2], L[3])
        out[3, 1] = _avg3(L[1], L[2], L[3])
        out[3, 2:] = out[2, :2]
    elif mode == B_HU:
        out[0, 0] = _avg2(L[0], L[1])
        out[0, 1] = _avg3(L[0], L[1], L[2])
        out[0, 2] = _avg2(L[1], L[2])
        out[0, 3] = _avg3(L[1], L[2], L[3])
        out[1, 0], out[1, 1] = out[0, 2], out[0, 3]
        out[1, 2] = _avg2(L[2], L[3])
        out[1, 3] = _avg3(L[2], L[3], L[3])
        out[2, 0], out[2, 1] = out[1, 2], out[1, 3]
        out[2, 2] = out[2, 3] = L[3]
        out[3, :] = L[3]
    else:
        raise ValueError(f"bad b-mode {mode}")
    return out


# ---------------------------------------------------------------------------
# frame decode
# ---------------------------------------------------------------------------

def decode_vp8(data: bytes, _debug: dict | None = None):
    """VP8 key frame → (Y, U, V) uint8 planes (cropped to the frame
    dimensions; U/V are ceil(w/2) × ceil(h/2))."""
    if len(data) < 10:
        raise ValueError("VP8 payload too short")
    tag = data[0] | (data[1] << 8) | (data[2] << 16)
    keyframe = not (tag & 1)
    part0_size = tag >> 5
    if not keyframe:
        raise ValueError("VP8 inter frame: only still images "
                         "(key frames) are supported")
    if data[3:6] != b"\x9d\x01\x2a":
        raise ValueError("bad VP8 keyframe start code")
    w = (data[6] | (data[7] << 8)) & 0x3FFF
    h = (data[8] | (data[9] << 8)) & 0x3FFF
    if w == 0 or h == 0:
        raise ValueError("empty VP8 frame")
    bd = BoolDec(data[10:10 + part0_size])

    bd.get(128)                          # color space
    bd.get(128)                          # clamping type

    # segmentation (§9.3)
    seg_enabled = bd.get(128)
    update_map = 0
    seg_tree_probs = [255, 255, 255]
    seg_quant = [0, 0, 0, 0]
    seg_lf = [0, 0, 0, 0]
    seg_abs = 0
    if seg_enabled:
        update_map = bd.get(128)
        update_data = bd.get(128)
        if update_data:
            seg_abs = bd.get(128)
            for i in range(4):
                if bd.get(128):
                    seg_quant[i] = bd.signed(7)
            for i in range(4):
                if bd.get(128):
                    seg_lf[i] = bd.signed(6)
        if update_map:
            for i in range(3):
                if bd.get(128):
                    seg_tree_probs[i] = bd.literal(8)

    # loop filter (§9.4)
    filter_type = bd.get(128)            # 1 = simple
    filter_level = bd.literal(6)
    sharpness = bd.literal(3)
    lf_delta_enabled = bd.get(128)
    ref_lf_deltas = [0, 0, 0, 0]
    mode_lf_deltas = [0, 0, 0, 0]
    if lf_delta_enabled:
        if bd.get(128):                  # mode_ref_lf_delta_update
            for i in range(4):
                if bd.get(128):
                    ref_lf_deltas[i] = bd.signed(6)
            for i in range(4):
                if bd.get(128):
                    mode_lf_deltas[i] = bd.signed(6)

    # token partitions (§9.5)
    nparts = 1 << bd.literal(2)
    part_base = 10 + part0_size
    sizes = []
    psz = data[part_base:part_base + 3 * (nparts - 1)]
    rest = part_base + 3 * (nparts - 1)
    for i in range(nparts - 1):
        sizes.append(psz[3 * i] | (psz[3 * i + 1] << 8)
                     | (psz[3 * i + 2] << 16))
    parts = []
    off = rest
    for i in range(nparts):
        end = off + sizes[i] if i < nparts - 1 else len(data)
        parts.append(BoolDec(data[off:end]))
        off = end

    # quantizers (§9.6)
    y_ac_qi = bd.literal(7)
    y1dc_d = bd.signed(4) if bd.get(128) else 0
    y2dc_d = bd.signed(4) if bd.get(128) else 0
    y2ac_d = bd.signed(4) if bd.get(128) else 0
    uvdc_d = bd.signed(4) if bd.get(128) else 0
    uvac_d = bd.signed(4) if bd.get(128) else 0

    bd.get(128)                          # refresh entropy probs

    # coefficient probability updates (§13.4)
    coeff_probs = DEFAULT_COEFF_PROBS.copy()
    up = COEFF_UPDATE_PROBS
    for i in range(4):
        for j in range(8):
            for k in range(3):
                for ll in range(11):
                    if bd.get(int(up[i, j, k, ll])):
                        coeff_probs[i, j, k, ll] = bd.literal(8)

    mb_no_skip = bd.get(128)
    prob_skip_false = bd.literal(8) if mb_no_skip else 0

    mb_w = (w + 15) >> 4
    mb_h = (h + 15) >> 4

    def _q(idx, base, delta, lookup):
        i = max(0, min(127, idx + delta))
        return int(lookup[i])

    def seg_qi(seg):
        if not seg_enabled:
            return y_ac_qi
        return seg_quant[seg] if seg_abs else y_ac_qi + seg_quant[seg]

    dequants = []
    for s in range(4):
        qi = max(0, min(127, seg_qi(s)))
        y1dc = _q(qi, 0, y1dc_d, DC_QLOOKUP)
        y1ac = _q(qi, 0, 0, AC_QLOOKUP)
        y2dc = _q(qi, 0, y2dc_d, DC_QLOOKUP) * 2
        y2ac = _q(qi, 0, y2ac_d, AC_QLOOKUP) * 155 // 100
        if y2ac < 8:
            y2ac = 8
        uvdc = _q(qi, 0, uvdc_d, DC_QLOOKUP)
        if uvdc > 132:
            uvdc = 132
        uvac = _q(qi, 0, uvac_d, AC_QLOOKUP)
        dequants.append((y1dc, y1ac, y2dc, y2ac, uvdc, uvac))

    # planes with 1-MB border padding left/top for prediction edges
    YW = mb_w * 16
    YH = mb_h * 16
    CW = mb_w * 8
    CH = mb_h * 8
    Y = np.empty((YH + 1, YW + 8), np.uint8)
    U = np.empty((CH + 1, CW + 8), np.uint8)
    V = np.empty((CH + 1, CW + 8), np.uint8)
    # top row "virtual" pixels = 127; left col = 129 (§12.2)
    Y[0, :] = 127
    U[0, :] = 127
    V[0, :] = 127
    # actual pixel area starts at [1, 1]; column 0 = left border
    # handled per row below

    # per-MB mode state
    ymodes = np.zeros((mb_h, mb_w), np.int32)
    bmodes = {}                          # (my,mx) -> 4x4 submode grid
    segments = np.zeros((mb_h, mb_w), np.int32)
    skips = np.zeros((mb_h, mb_w), np.int32)
    uvmodes = np.zeros((mb_h, mb_w), np.int32)
    has_y2 = np.zeros((mb_h, mb_w), np.int32)
    nz_map = np.zeros((mb_h, mb_w), np.int32)  # any coeffs (filter)

    # --- mode parsing (all from first partition, full pass §11)
    above_sub = [np.zeros(4, np.int32) for _ in range(mb_w)]
    for my in range(mb_h):
        left_sub = np.zeros(4, np.int32)
        for mx in range(mb_w):
            if update_map:
                if bd.get(seg_tree_probs[0]):
                    seg = 2 + bd.get(seg_tree_probs[2])
                else:
                    seg = bd.get(seg_tree_probs[1])
            else:
                seg = 0
            segments[my, mx] = seg
            if mb_no_skip:
                skips[my, mx] = bd.get(prob_skip_false)
            ym = bd.tree(KF_YMODE_TREE, KF_YMODE_PROB)
            ymodes[my, mx] = ym
            if ym == B_PRED:
                grid = np.zeros((4, 4), np.int32)
                for sy in range(4):
                    for sx in range(4):
                        a = above_sub[mx][sx] if sy == 0 else \
                            grid[sy - 1, sx]
                        l = left_sub[sy] if sx == 0 else grid[sy, sx - 1]
                        grid[sy, sx] = bd.tree(
                            BMODE_TREE, KF_BMODE_PROB[a][l])
                bmodes[(my, mx)] = grid
                above_sub[mx] = grid[3].copy()
                left_sub = grid[:, 3].copy()
            else:
                b = _MODE_TO_B[ym]
                above_sub[mx] = np.full(4, b, np.int32)
                left_sub = np.full(4, b, np.int32)
            uvmodes[my, mx] = bd.tree(UV_MODE_TREE, KF_UV_MODE_PROB)

    # --- residue + reconstruction
    # nonzero contexts: per-plane above (per mb column) and left
    above_nz_y = np.zeros((mb_w, 4), np.int32)
    above_nz_u = np.zeros((mb_w, 2), np.int32)
    above_nz_v = np.zeros((mb_w, 2), np.int32)
    above_nz_y2 = np.zeros(mb_w, np.int32)

    def decode_block(bdp, ctx, first, probs_t, qdc, qac):
        """→ (coeffs int32[16] raster order, nonzero flag)."""
        out = np.zeros(16, np.int32)
        n = first
        nonzero = 0
        prev_zero = False
        while n < 16:
            p = probs_t[COEFF_BANDS[n]][ctx]
            tok = bdp.tree(COEFF_TREE, p, start=2 if prev_zero else 0)
            if tok == DCT_EOB:
                break
            if tok == DCT_0:
                ctx = 0
                prev_zero = True
                n += 1
                continue
            prev_zero = False
            if tok <= DCT_4:
                val = tok
            else:
                cat = tok - 5
                extra = 0
                for pr in CAT_PROBS[cat]:
                    extra = (extra << 1) | bdp.get(pr)
                val = CAT_BASE[cat] + extra
            ctx = 1 if val == 1 else 2
            if bdp.get(128):
                val = -val
            out[ZIGZAG[n]] = val * (qdc if n == 0 else qac)
            nonzero = 1
            n += 1
        return out, nonzero

    # native twin: one call decodes a whole MB's tokens + IDCT (the
    # token stream is strictly sequential; see codecs/_vp8t.c)
    from .native import get_vp8t
    _t = get_vp8t()
    if _t is not None:
        import ctypes as _ct
        _i32p = _ct.POINTER(_ct.c_int32)
        _i64p = _ct.POINTER(_ct.c_int64)
        _u8p = _ct.POINTER(_ct.c_uint8)
        probs_c = np.ascontiguousarray(coeff_probs, np.uint8)
        _st = np.empty(4, np.int64)
        _res = np.empty((24, 16), np.int32)
        _nzv = np.empty(25, np.int32)
        left_y2_arr = np.zeros(1, np.int32)

        def _p32(a):
            return a.ctypes.data_as(_i32p)

    for my in range(mb_h):
        bdp = parts[my % nparts]
        left_nz_y = np.zeros(4, np.int32)
        left_nz_u = np.zeros(2, np.int32)
        left_nz_v = np.zeros(2, np.int32)
        left_nz_y2 = 0
        if _t is not None:
            left_y2_arr[0] = 0
        # per-row left borders (129)
        y0 = 1 + my * 16
        c0 = 1 + my * 8
        Y[y0:y0 + 16, 0] = 129
        U[c0:c0 + 8, 0] = 129
        V[c0:c0 + 8, 0] = 129
        if my == 0:
            Y[0, 0] = U[0, 0] = V[0, 0] = 127
        for mx in range(mb_w):
            seg = int(segments[my, mx])
            y1dc, y1ac, y2dc, y2ac, uvdc, uvac = dequants[seg]
            ym = int(ymodes[my, mx])
            skip = bool(skips[my, mx])
            mb_has_y2 = ym != B_PRED
            has_y2[my, mx] = mb_has_y2

            any_nz = 0
            if _t is not None:
                _st[0] = bdp.pos
                _st[1] = bdp.rng
                _st[2] = bdp.value
                _st[3] = bdp.bit_count
                _t.vp8_mb_coeffs(
                    bdp.data, len(bdp.data),
                    _st.ctypes.data_as(_i64p),
                    probs_c.ctypes.data_as(_u8p),
                    int(mb_has_y2), int(skip),
                    int(y1dc), int(y1ac), int(y2dc), int(y2ac),
                    int(uvdc), int(uvac),
                    _p32(above_nz_y[mx]), _p32(left_nz_y),
                    _p32(above_nz_u[mx]), _p32(left_nz_u),
                    _p32(above_nz_v[mx]), _p32(left_nz_v),
                    _p32(above_nz_y2[mx:mx + 1]), _p32(left_y2_arr),
                    _p32(_res), _p32(_nzv))
                bdp.pos = int(_st[0])
                bdp.rng = int(_st[1])
                bdp.value = int(_st[2])
                bdp.bit_count = int(_st[3])
                any_nz = int(_nzv[24])
                # spatial residual sub-blocks, IDCT already applied
                ycoeffs = list(_res[:16].reshape(16, 4, 4))
                ucoeffs = list(_res[16:20].reshape(4, 4, 4))
                vcoeffs = list(_res[20:24].reshape(4, 4, 4))
            elif not skip:
                ycoeffs = [np.zeros(16, np.int32) for _ in range(16)]
                ucoeffs = [np.zeros(16, np.int32) for _ in range(4)]
                vcoeffs = [np.zeros(16, np.int32) for _ in range(4)]
                first = 0
                probs_y = coeff_probs[0 if mb_has_y2 else 3]
                dcs = None
                if mb_has_y2:
                    ctx = int(above_nz_y2[mx]) + int(left_nz_y2)
                    y2, nz2 = decode_block(
                        bdp, ctx, 0, coeff_probs[1], y2dc, y2ac)
                    above_nz_y2[mx] = left_nz_y2 = nz2
                    any_nz |= nz2
                    dcs = _iwht4x4(y2)
                    first = 1
                ynz = [[0] * 4 for _ in range(4)]
                for b in range(16):
                    sy, sx = b >> 2, b & 3
                    a = int(above_nz_y[mx][sx]) if sy == 0 else \
                        ynz[sy - 1][sx]
                    l = int(left_nz_y[sy]) if sx == 0 else \
                        ynz[sy][sx - 1]
                    co, nz = decode_block(bdp, a + l, first, probs_y,
                                          y1dc, y1ac)
                    # the AC-only nonzero drives the neighbor context;
                    # the Y2-derived DC is tracked by the Y2 context
                    ynz[sy][sx] = nz
                    any_nz |= nz
                    if dcs is not None:
                        co[0] = dcs[b]
                    ycoeffs[b] = co
                for sy in range(4):
                    left_nz_y[sy] = ynz[sy][3]
                for sx in range(4):
                    above_nz_y[mx][sx] = ynz[3][sx]
                for coeffs, anz, lnz in (
                        (ucoeffs, above_nz_u, left_nz_u),
                        (vcoeffs, above_nz_v, left_nz_v)):
                    cnz = [[0, 0], [0, 0]]
                    for b in range(4):
                        sy, sx = b >> 1, b & 1
                        a = int(anz[mx][sx]) if sy == 0 else \
                            cnz[sy - 1][sx]
                        l = int(lnz[sy]) if sx == 0 else cnz[sy][sx - 1]
                        co, nz = decode_block(bdp, a + l, 0,
                                              coeff_probs[2],
                                              uvdc, uvac)
                        cnz[sy][sx] = nz
                        any_nz |= nz
                        coeffs[b] = co
                    for sy in range(2):
                        lnz[sy] = cnz[sy][1]
                    for sx in range(2):
                        anz[mx][sx] = cnz[1][sx]
                ycoeffs = [_idct4x4(c) for c in ycoeffs]
                ucoeffs = [_idct4x4(c) for c in ucoeffs]
                vcoeffs = [_idct4x4(c) for c in vcoeffs]
            else:
                if mb_has_y2:
                    above_nz_y2[mx] = left_nz_y2 = 0
                above_nz_y[mx][:] = 0
                left_nz_y[:] = 0
                above_nz_u[mx][:] = 0
                above_nz_v[mx][:] = 0
                left_nz_u[:] = 0
                left_nz_v[:] = 0
                _z = np.zeros((4, 4), np.int32)
                ycoeffs = [_z] * 16
                ucoeffs = [_z] * 4
                vcoeffs = [_z] * 4
            nz_map[my, mx] = any_nz

            # ---- reconstruct luma
            x0 = 1 + mx * 16
            if ym == B_PRED:
                grid = bmodes[(my, mx)]
                if mx == mb_w - 1:
                    # off-frame top-right: libwebp replicates the last
                    # above-row pixel into the 4 padding columns
                    Y[y0 - 1, YW + 1:YW + 5] = Y[y0 - 1, YW]
                for b in range(16):
                    sy, sx = b >> 2, b & 3
                    py = y0 + sy * 4
                    px = x0 + sx * 4
                    A = Y[py - 1, px - 1:px + 8].astype(np.int32)
                    # VP8 quirk: for rows > 0 the top-right pixels
                    # come from the row ABOVE THE MB, not the
                    # reconstructed neighbor
                    if sy > 0 and sx == 3:
                        tr = Y[y0 - 1, x0 + 16:x0 + 20].astype(np.int32)
                        A = np.concatenate([A[:5], tr])
                    L = Y[py:py + 4, px - 1].astype(np.int32)
                    ctx13 = [int(A[0])] + [int(v) for v in A[1:9]] \
                        + [int(v) for v in L]
                    pred = _pred_b(int(grid[sy, sx]), ctx13)
                    res = ycoeffs[b]
                    Y[py:py + 4, px:px + 4] = _clip255(pred + res) \
                        .astype(np.uint8)
            else:
                above = Y[y0 - 1, x0:x0 + 16].astype(np.int32)
                left = Y[y0:y0 + 16, x0 - 1].astype(np.int32)
                al = int(Y[y0 - 1, x0 - 1])
                if ym == DC_PRED:
                    pred = _pred_dc(above, left, my > 0, mx > 0, 16)
                elif ym == V_PRED:
                    pred = np.repeat(above[None, :], 16, 0)
                elif ym == H_PRED:
                    pred = np.repeat(left[:, None], 16, 1)
                else:
                    pred = _pred_tm(above, left, al, 16)
                rec = pred.copy()
                for b in range(16):
                    sy, sx = b >> 2, b & 3
                    rec[sy * 4:sy * 4 + 4, sx * 4:sx * 4 + 4] += \
                        ycoeffs[b]
                Y[y0:y0 + 16, x0:x0 + 16] = _clip255(rec) \
                    .astype(np.uint8)

            # ---- reconstruct chroma
            cx0 = 1 + mx * 8
            uvm = int(uvmodes[my, mx])
            for plane, coeffs in ((U, ucoeffs), (V, vcoeffs)):
                above = plane[c0 - 1, cx0:cx0 + 8].astype(np.int32)
                left = plane[c0:c0 + 8, cx0 - 1].astype(np.int32)
                al = int(plane[c0 - 1, cx0 - 1])
                if uvm == DC_PRED:
                    pred = _pred_dc(above, left, my > 0, mx > 0, 8)
                elif uvm == V_PRED:
                    pred = np.repeat(above[None, :], 8, 0)
                elif uvm == H_PRED:
                    pred = np.repeat(left[:, None], 8, 1)
                else:
                    pred = _pred_tm(above, left, al, 8)
                rec = pred.copy()
                for b in range(4):
                    sy, sx = b >> 1, b & 1
                    rec[sy * 4:sy * 4 + 4, sx * 4:sx * 4 + 4] += \
                        coeffs[b]
                plane[c0:c0 + 8, cx0:cx0 + 8] = _clip255(rec) \
                    .astype(np.uint8)

    if _debug is not None:
        _debug.update(ymodes=ymodes, uvmodes=uvmodes, bmodes=bmodes,
                      segments=segments, skips=skips, nz_map=nz_map,
                      dequants=dequants, filter_level=filter_level,
                      filter_type=filter_type, sharpness=sharpness,
                      nparts=nparts, mb_no_skip=mb_no_skip)
    # strip borders
    Yp = Y[1:1 + YH, 1:1 + YW]
    Up = U[1:1 + CH, 1:1 + CW]
    Vp = V[1:1 + CH, 1:1 + CW]

    if filter_level > 0:
        Yp, Up, Vp = _loop_filter(
            Yp.copy(), Up.copy(), Vp.copy(), mb_w, mb_h, filter_type,
            filter_level, sharpness, seg_enabled, seg_abs, seg_lf,
            segments, lf_delta_enabled, ref_lf_deltas, mode_lf_deltas,
            ymodes, skips, nz_map, has_y2)

    cw, ch = (w + 1) >> 1, (h + 1) >> 1
    return (Yp[:h, :w].copy(), Up[:ch, :cw].copy(),
            Vp[:ch, :cw].copy())


# ---------------------------------------------------------------------------
# loop filter (§15)
# ---------------------------------------------------------------------------

def _c127(x):
    return np.clip(x, -128, 127)


def _common_adjust(use_outer, p1, p0, q0, q1):
    """§15.1 common filter core on int32 signed-shifted values.
    Returns (a-derived adjustment applied in place)."""
    a = _c127(p1 - q1)
    if not use_outer:
        a = a * 0
    a = _c127(a + 3 * (q0 - p0))
    f1 = _c127(a + 4) >> 3
    f2 = _c127(a + 3) >> 3
    return f1, f2


def _filter_mask(limit, interior, p3, p2, p1, p0, q0, q1, q2, q3):
    m = (np.abs(p0 - q0) * 2 + (np.abs(p1 - q1) >> 1)) <= limit
    for a, b in ((p3, p2), (p2, p1), (p1, p0), (q1, q0), (q2, q1),
                 (q3, q2)):
        m &= np.abs(a - b) <= interior
    return m


def _hev(thresh, p1, p0, q0, q1):
    return (np.abs(p1 - p0) > thresh) | (np.abs(q1 - q0) > thresh)


def _subblock_filter(mask, hev, p1, p0, q0, q1):
    f1, f2 = _common_adjust(True, p1, p0, q0, q1)
    # high-edge-variance pixels use the simple filter; others also
    # nudge p1/q1
    use = mask
    fh1 = np.where(hev, f1, 0)
    fh2 = np.where(hev, f2, 0)
    # non-hev: recompute without outer taps
    g1, g2 = _common_adjust(False, p1, p0, q0, q1)
    a1 = np.where(hev, fh1, g1)
    a2 = np.where(hev, fh2, g2)
    q0n = _c127(q0 - np.where(use, a1, 0))
    p0n = _c127(p0 + np.where(use, a2, 0))
    a3 = (_c127(a1 + 1) >> 1) * np.where(hev, 0, 1)
    q1n = _c127(q1 - np.where(use, a3, 0))
    p1n = _c127(p1 + np.where(use, a3, 0))
    return p1n, p0n, q0n, q1n


def _mbedge_filter(mask, hev, p2, p1, p0, q0, q1, q2):
    use = mask & ~hev
    a = _c127(_c127(p1 - q1) + 3 * (q0 - p0))
    w = _c127(a)
    a1 = (27 * w + 63) >> 7
    q0n = _c127(q0 - np.where(use, a1, 0))
    p0n = _c127(p0 + np.where(use, a1, 0))
    a2 = (18 * w + 63) >> 7
    q1n = _c127(q1 - np.where(use, a2, 0))
    p1n = _c127(p1 + np.where(use, a2, 0))
    a3 = (9 * w + 63) >> 7
    q2n = _c127(q2 - np.where(use, a3, 0))
    p2n = _c127(p2 + np.where(use, a3, 0))
    # hev pixels: plain subblock common adjust
    f1, f2 = _common_adjust(True, p1, p0, q0, q1)
    sel = mask & hev
    q0n = np.where(sel, _c127(q0 - f1), q0n)
    p0n = np.where(sel, _c127(p0 + f2), p0n)
    return p2n, p1n, p0n, q0n, q1n, q2n


def _loop_filter(Y, U, V, mb_w, mb_h, ftype, base_level, sharpness,
                 seg_en, seg_abs, seg_lf, segments, delta_en,
                 ref_d, mode_d, ymodes, skips, nz_map, has_y2):
    """§15.2/15.3 frame-level deblocking. Planes are unpadded."""
    def to_s(p):
        return p.astype(np.int32) - 128

    Ys = to_s(Y)
    Us = to_s(U)
    Vs = to_s(V)

    # per-MB filter level (segment + delta logic) and skip-interior
    # flags, for the native twin and for the Python loop alike
    lvl_mb = np.full((mb_h, mb_w), base_level, np.int64)
    if seg_en:
        sl = np.asarray(seg_lf, np.int64)[segments.astype(np.int64)]
        lvl_mb = sl if seg_abs else lvl_mb + sl
    if delta_en:
        lvl_mb = lvl_mb + ref_d[0]           # keyframe: INTRA ref
        lvl_mb = lvl_mb + np.where(
            np.asarray(ymodes) == B_PRED, mode_d[0], 0)
    lvl_mb = np.clip(lvl_mb, 0, 63).astype(np.uint8)
    skip_mb = (np.logical_and(~np.asarray(nz_map, bool),
                              np.asarray(has_y2, bool))
               ).astype(np.uint8)

    from .native import get_vp8f
    lib = get_vp8f()
    if lib is not None:
        import ctypes
        i32p = ctypes.POINTER(ctypes.c_int32)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        lvl_c = np.ascontiguousarray(lvl_mb)
        skip_c = np.ascontiguousarray(skip_mb)
        lib.vp8_loop_filter(
            Ys.ctypes.data_as(i32p), Us.ctypes.data_as(i32p),
            Vs.ctypes.data_as(i32p), mb_w, mb_h, int(ftype),
            int(sharpness), lvl_c.ctypes.data_as(u8p),
            skip_c.ctypes.data_as(u8p))

        def back(p):
            return np.clip(p + 128, 0, 255).astype(np.uint8)

        return back(Ys), back(Us), back(Vs)

    for my in range(mb_h):
        for mx in range(mb_w):
            lvl = base_level
            if seg_en:
                lvl = seg_lf[int(segments[my, mx])] if seg_abs \
                    else lvl + seg_lf[int(segments[my, mx])]
            if delta_en:
                lvl += ref_d[0]          # keyframe: INTRA frame ref
                if int(ymodes[my, mx]) == B_PRED:
                    lvl += mode_d[0]
            lvl = max(0, min(63, lvl))
            if lvl == 0:
                continue
            interior = lvl
            if sharpness:
                interior >>= 2 if sharpness > 4 else 1
                if interior > 9 - sharpness:
                    interior = 9 - sharpness
            if interior < 1:
                interior = 1
            hev_t = 0
            if lvl >= 40:
                hev_t = 2
            elif lvl >= 15:
                hev_t = 1
            # keyframe: threshold bumps only for inter frames
            edge_limit_mb = (lvl + 2) * 2 + interior
            edge_limit_sb = lvl * 2 + interior
            # interior edges are skipped only for coefficient-free
            # non-B_PRED MBs (RFC §15.2: B_PRED always filters them)
            skip_sub = not nz_map[my, mx] and has_y2[my, mx]

            if ftype == 1:               # simple: luma only
                _simple_mb(Ys, my, mx, edge_limit_mb, edge_limit_sb,
                           skip_sub)
                continue

            y0, x0 = my * 16, mx * 16
            c0, cx0 = my * 8, mx * 8
            # vertical MB edge (left)
            if mx > 0:
                _v_edge_mb(Ys, y0, x0, 16, edge_limit_mb, interior,
                           hev_t)
                _v_edge_mb(Us, c0, cx0, 8, edge_limit_mb, interior,
                           hev_t)
                _v_edge_mb(Vs, c0, cx0, 8, edge_limit_mb, interior,
                           hev_t)
            if not skip_sub:
                for dx in (4, 8, 12):
                    _v_edge_sb(Ys, y0, x0 + dx, 16, edge_limit_sb,
                               interior, hev_t)
                _v_edge_sb(Us, c0, cx0 + 4, 8, edge_limit_sb,
                           interior, hev_t)
                _v_edge_sb(Vs, c0, cx0 + 4, 8, edge_limit_sb,
                           interior, hev_t)
            # horizontal MB edge (top)
            if my > 0:
                _h_edge_mb(Ys, y0, x0, 16, edge_limit_mb, interior,
                           hev_t)
                _h_edge_mb(Us, c0, cx0, 8, edge_limit_mb, interior,
                           hev_t)
                _h_edge_mb(Vs, c0, cx0, 8, edge_limit_mb, interior,
                           hev_t)
            if not skip_sub:
                for dy in (4, 8, 12):
                    _h_edge_sb(Ys, y0 + dy, x0, 16, edge_limit_sb,
                               interior, hev_t)
                _h_edge_sb(Us, c0 + 4, cx0, 8, edge_limit_sb,
                           interior, hev_t)
                _h_edge_sb(Vs, c0 + 4, cx0, 8, edge_limit_sb,
                           interior, hev_t)

    def back(p):
        return np.clip(p + 128, 0, 255).astype(np.uint8)

    return back(Ys), back(Us), back(Vs)


def _v_edge_mb(P, y0, x0, n, limit, interior, hev_t):
    p3, p2, p1, p0 = (P[y0:y0 + n, x0 - 4], P[y0:y0 + n, x0 - 3],
                      P[y0:y0 + n, x0 - 2], P[y0:y0 + n, x0 - 1])
    q0, q1, q2, q3 = (P[y0:y0 + n, x0], P[y0:y0 + n, x0 + 1],
                      P[y0:y0 + n, x0 + 2], P[y0:y0 + n, x0 + 3])
    m = _filter_mask(limit, interior, p3, p2, p1, p0, q0, q1, q2, q3)
    hv = _hev(hev_t, p1, p0, q0, q1)
    r = _mbedge_filter(m, hv, p2, p1, p0, q0, q1, q2)
    (P[y0:y0 + n, x0 - 3], P[y0:y0 + n, x0 - 2],
     P[y0:y0 + n, x0 - 1], P[y0:y0 + n, x0],
     P[y0:y0 + n, x0 + 1], P[y0:y0 + n, x0 + 2]) = r


def _v_edge_sb(P, y0, x0, n, limit, interior, hev_t):
    p3, p2, p1, p0 = (P[y0:y0 + n, x0 - 4], P[y0:y0 + n, x0 - 3],
                      P[y0:y0 + n, x0 - 2], P[y0:y0 + n, x0 - 1])
    q0, q1, q2, q3 = (P[y0:y0 + n, x0], P[y0:y0 + n, x0 + 1],
                      P[y0:y0 + n, x0 + 2], P[y0:y0 + n, x0 + 3])
    m = _filter_mask(limit, interior, p3, p2, p1, p0, q0, q1, q2, q3)
    hv = _hev(hev_t, p1, p0, q0, q1)
    r = _subblock_filter(m, hv, p1, p0, q0, q1)
    (P[y0:y0 + n, x0 - 2], P[y0:y0 + n, x0 - 1],
     P[y0:y0 + n, x0], P[y0:y0 + n, x0 + 1]) = r


def _h_edge_mb(P, y0, x0, n, limit, interior, hev_t):
    p3, p2, p1, p0 = (P[y0 - 4, x0:x0 + n], P[y0 - 3, x0:x0 + n],
                      P[y0 - 2, x0:x0 + n], P[y0 - 1, x0:x0 + n])
    q0, q1, q2, q3 = (P[y0, x0:x0 + n], P[y0 + 1, x0:x0 + n],
                      P[y0 + 2, x0:x0 + n], P[y0 + 3, x0:x0 + n])
    m = _filter_mask(limit, interior, p3, p2, p1, p0, q0, q1, q2, q3)
    hv = _hev(hev_t, p1, p0, q0, q1)
    r = _mbedge_filter(m, hv, p2, p1, p0, q0, q1, q2)
    (P[y0 - 3, x0:x0 + n], P[y0 - 2, x0:x0 + n],
     P[y0 - 1, x0:x0 + n], P[y0, x0:x0 + n],
     P[y0 + 1, x0:x0 + n], P[y0 + 2, x0:x0 + n]) = r


def _h_edge_sb(P, y0, x0, n, limit, interior, hev_t):
    p3, p2, p1, p0 = (P[y0 - 4, x0:x0 + n], P[y0 - 3, x0:x0 + n],
                      P[y0 - 2, x0:x0 + n], P[y0 - 1, x0:x0 + n])
    q0, q1, q2, q3 = (P[y0, x0:x0 + n], P[y0 + 1, x0:x0 + n],
                      P[y0 + 2, x0:x0 + n], P[y0 + 3, x0:x0 + n])
    m = _filter_mask(limit, interior, p3, p2, p1, p0, q0, q1, q2, q3)
    hv = _hev(hev_t, p1, p0, q0, q1)
    r = _subblock_filter(m, hv, p1, p0, q0, q1)
    (P[y0 - 2, x0:x0 + n], P[y0 - 1, x0:x0 + n],
     P[y0, x0:x0 + n], P[y0 + 1, x0:x0 + n]) = r


# ---------------------------------------------------------------------------
# fancy chroma upsampling + YUV->RGB (libwebp parity, vectorized)
# ---------------------------------------------------------------------------

def _upsample_pair(T, C, w):
    """libwebp fancy upsampler body for a batch of chroma row pairs.
    T, C: (n, cw) int32 top/current chroma rows → (top, bottom) each
    (n, w) int32, exact integer parity with upsampling.c."""
    n, cw = T.shape
    top = np.empty((n, w), np.int32)
    bot = np.empty((n, w), np.int32)
    top[:, 0] = (3 * T[:, 0] + C[:, 0] + 2) >> 2
    bot[:, 0] = (3 * C[:, 0] + T[:, 0] + 2) >> 2
    if w > 1:
        tl, t = T[:, :-1], T[:, 1:]
        l, c = C[:, :-1], C[:, 1:]
        avg = tl + t + l + c + 8
        d12 = (avg + 2 * (t + l)) >> 3
        d03 = (avg + 2 * (tl + c)) >> 3
        odd_end = w - 1 if w % 2 == 0 else w
        top[:, 1:odd_end:2] = (d12 + tl) >> 1
        bot[:, 1:odd_end:2] = (d03 + l) >> 1
        top[:, 2:w:2] = (d03 + t) >> 1
        bot[:, 2:w:2] = (d12 + c) >> 1
        if w % 2 == 0:
            top[:, w - 1] = (3 * T[:, -1] + C[:, -1] + 2) >> 2
            bot[:, w - 1] = (3 * C[:, -1] + T[:, -1] + 2) >> 2
    return top, bot


def fancy_upsample(plane: np.ndarray, h: int, w: int) -> np.ndarray:
    """Half-res chroma plane → (h, w) int32 at luma resolution with
    libwebp's fancy (9-3-3-1 diagonal) filter and edge replication."""
    C = plane.astype(np.int32)
    ch = C.shape[0]
    out = np.empty((h, w), np.int32)
    t0, _ = _upsample_pair(C[0:1], C[0:1], w)
    out[0] = t0[0]
    if ch > 1:
        top, bot = _upsample_pair(C[:-1], C[1:], w)
        out[1:2 * ch - 2:2] = top
        out[2:2 * ch - 1:2] = bot
    if h % 2 == 0 and h > 1:
        tl, _ = _upsample_pair(C[-1:], C[-1:], w)
        out[h - 1] = tl[0]
    return out


def _clip_fix2(v: np.ndarray) -> np.ndarray:
    # VP8Clip8: in-range values >> YUV_FIX2 (6), else saturate
    return np.where((v & ~16383) == 0, v >> 6,
                    np.where(v < 0, 0, 255)).astype(np.uint8)


def yuv420_to_rgba(Y: np.ndarray, U: np.ndarray,
                   V: np.ndarray) -> np.ndarray:
    """(Y, U, V) planes from decode_vp8 → (h, w, 4) uint8 RGBA via
    libwebp's fancy upsampler + fixed-point YUV->RGB (yuv.h)."""
    h, w = Y.shape
    Uf = fancy_upsample(U, h, w)
    Vf = fancy_upsample(V, h, w)
    y1 = (Y.astype(np.int32) * 19077) >> 8
    out = np.empty((h, w, 4), np.uint8)
    out[:, :, 0] = _clip_fix2(y1 + ((Vf * 26149) >> 8) - 14234)
    out[:, :, 1] = _clip_fix2(y1 - ((Uf * 6419) >> 8)
                              - ((Vf * 13320) >> 8) + 8708)
    out[:, :, 2] = _clip_fix2(y1 + ((Uf * 33050) >> 8) - 17685)
    out[:, :, 3] = 255
    return out


def _simple_mb(P, my, mx, limit_mb, limit_sb, skip_sub):
    y0, x0 = my * 16, mx * 16

    def sfilter(p1, p0, q0, q1, limit):
        m = (np.abs(p0 - q0) * 2 + (np.abs(p1 - q1) >> 1)) <= limit
        f1, f2 = _common_adjust(True, p1, p0, q0, q1)
        q0n = np.where(m, _c127(q0 - f1), q0)
        p0n = np.where(m, _c127(p0 + f2), p0)
        return p0n, q0n

    if mx > 0:
        p1, p0 = P[y0:y0 + 16, x0 - 2], P[y0:y0 + 16, x0 - 1]
        q0, q1 = P[y0:y0 + 16, x0], P[y0:y0 + 16, x0 + 1]
        P[y0:y0 + 16, x0 - 1], P[y0:y0 + 16, x0] = \
            sfilter(p1, p0, q0, q1, limit_mb)
    if not skip_sub:
        for dx in (4, 8, 12):
            p1, p0 = P[y0:y0 + 16, x0 + dx - 2], \
                P[y0:y0 + 16, x0 + dx - 1]
            q0, q1 = P[y0:y0 + 16, x0 + dx], P[y0:y0 + 16, x0 + dx + 1]
            P[y0:y0 + 16, x0 + dx - 1], P[y0:y0 + 16, x0 + dx] = \
                sfilter(p1, p0, q0, q1, limit_sb)
    if my > 0:
        p1, p0 = P[y0 - 2, x0:x0 + 16], P[y0 - 1, x0:x0 + 16]
        q0, q1 = P[y0, x0:x0 + 16], P[y0 + 1, x0:x0 + 16]
        P[y0 - 1, x0:x0 + 16], P[y0, x0:x0 + 16] = \
            sfilter(p1, p0, q0, q1, limit_mb)
    if not skip_sub:
        for dy in (4, 8, 12):
            p1, p0 = P[y0 + dy - 2, x0:x0 + 16], \
                P[y0 + dy - 1, x0:x0 + 16]
            q0, q1 = P[y0 + dy, x0:x0 + 16], P[y0 + dy + 1, x0:x0 + 16]
            P[y0 + dy - 1, x0:x0 + 16], P[y0 + dy, x0:x0 + 16] = \
                sfilter(p1, p0, q0, q1, limit_sb)
