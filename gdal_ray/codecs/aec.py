"""CCSDS 121.0-B-2 adaptive entropy (Rice) decoder — GRIB2 DRS 5.42.

Reference: frmts/grib wraps g2clib's aecunpack → libaec; this module
implements the published CCSDS 121.0-B-2 lossless coder directly:

  * blocks of J samples, each prefixed by an option ID
    (3/4/5 bits for n ≤ 8 / ≤ 16 / > 16 bits per sample);
  * split-sample options k = id−1 (FS high parts then k LSBs each),
    the all-ones ID = uncompressed raw samples;
  * low-entropy options (ID 0 + 1 selector bit): zero-block runs
    (FS count, ROS = rest of 64-block segment / reference interval)
    and second extension (pairs coded as one FS value
    γ = (d0+d1)(d0+d1+1)/2 + d1);
  * unit-delay predictor + standard mapper, inverted sequentially;
    a raw reference sample starts every RSI (reference sample
    interval) when preprocessing is on.

Flags follow the libaec convention GRIB template 5.42 stores
verbatim: 1 = signed data, 8 = preprocessed (mapper on); byte-order
flags only affect libaec's output buffer and are ignored here (an
int64 array is returned).

Golden (tests/test_grib2.py): the reference's own
template_5_42_ccsds_aec.grb2 fixture, band checksum 41970
(autotest/gdrivers/grib.py
test_grib_grib2_template_5_42_CCDS_aes_decompression).
"""

from __future__ import annotations

import numpy as np

from ._bits import MsbReader, unpack_fields

_SIGNED = 0x01
_PREPROCESS = 0x08


def aec_decode(data: bytes, nbits: int, flags: int, block_size: int,
               rsi: int, nsamples: int) -> np.ndarray:
    """Decode a CCSDS 121.0 stream → int64 array of nsamples."""
    if block_size <= 0 or nbits <= 0 or nbits > 32:
        raise ValueError(
            f"CCSDS parameters unsupported (n={nbits}, J={block_size})")
    bits = np.unpackbits(np.frombuffer(data, np.uint8))
    ones = np.flatnonzero(bits).astype(np.int64)
    id_len = 5 if nbits > 16 else (4 if nbits > 8 else 3)
    max_id = (1 << id_len) - 1
    signed = bool(flags & _SIGNED)
    preprocess = bool(flags & _PREPROCESS)
    if signed:
        xmin, xmax = -(1 << (nbits - 1)), (1 << (nbits - 1)) - 1
    else:
        xmin, xmax = 0, (1 << nbits) - 1

    J = block_size
    total_blocks = -(-nsamples // J)     # encoder pads the last block
    padded = total_blocks * J
    out = np.zeros(padded, np.int64)
    br = MsbReader(data)                 # bit cursor
    n_out = 0                            # samples emitted

    def get_fs_run(count: int) -> np.ndarray:
        """count consecutive FS codewords (runs of 0s ending in a 1)
        at the cursor → values. Vectorized: the codewords are
        delimited by the next `count` one-bits."""
        i0 = int(np.searchsorted(ones, br.pos))
        if i0 + count > len(ones):
            raise ValueError("CCSDS stream truncated in FS run")
        ends = ones[i0:i0 + count]
        starts = np.empty(count, np.int64)
        starts[0] = br.pos
        starts[1:] = ends[:-1] + 1
        br.pos = int(ends[-1]) + 1
        return ends - starts

    def get_samples(count: int, width: int) -> np.ndarray:
        """count fixed-width big-endian values at the cursor."""
        if br.pos + count * width > len(bits):
            raise ValueError("CCSDS stream truncated in sample run")
        vals = unpack_fields(data, width, count, bit_offset=br.pos)
        br.pos += count * width
        return vals

    while n_out < padded:
        blocks_in_rsi = min(rsi, (padded - n_out) // J)
        rsi_start = n_out
        b = 0
        while b < blocks_in_rsi:
            ref = preprocess and b == 0
            id_ = br.get(id_len)
            if id_ == 0:                 # low-entropy options
                sel = br.get(1)
                if ref:
                    rv = br.get(nbits)
                    out[n_out] = rv
                if sel == 0:             # zero-block run
                    run = get_fs_run(1)
                    fs = int(run[0])
                    if fs + 1 == 5:      # ROS: rest of segment
                        zb = min(64 - b % 64, blocks_in_rsi - b)
                    elif fs + 1 > 5:
                        zb = fs
                    else:
                        zb = fs + 1
                    # mapped deltas stay 0 (out pre-zeroed)
                    n_out += zb * J
                    b += zb
                    continue
                # second extension: (J - ref) samples, pairwise FS
                npair = -(-((J - (1 if ref else 0))) // 2)
                gam = get_fs_run(npair)
                m = ((np.sqrt(8.0 * gam + 1.0) - 1.0) / 2.0) \
                    .astype(np.int64)
                # guard float edges
                m = np.where(m * (m + 1) // 2 > gam, m - 1, m)
                m = np.where((m + 1) * (m + 2) // 2 <= gam, m + 1, m)
                d1 = gam - m * (m + 1) // 2
                d0 = m - d1
                pair = np.empty(npair * 2, np.int64)
                pair[0::2] = d0
                pair[1::2] = d1
                if ref:                  # ref occupies position 0:
                    vals = pair[1:J]     # first pair emits d1 only
                    out[n_out + 1:n_out + J] = vals
                else:
                    out[n_out:n_out + J] = pair[:J]
            elif id_ == max_id:          # uncompressed
                nsamp = J
                vals = get_samples(nsamp, nbits)
                out[n_out:n_out + J] = vals
            else:                        # split-sample, k = id − 1
                k = id_ - 1
                if ref:
                    rv = br.get(nbits)
                    out[n_out] = rv
                nsamp = J - (1 if ref else 0)
                hi = get_fs_run(nsamp)
                lo = get_samples(nsamp, k)
                out[n_out + (1 if ref else 0):n_out + J] = \
                    (hi << k) | lo
            n_out += J
            b += 1
        if preprocess:
            _unmap_rsi(out, rsi_start, n_out, xmin, xmax)
    if signed and not preprocess:
        # raw two's-complement samples
        sign_bit = np.int64(1) << (nbits - 1)
        out = np.where(out & sign_bit, out - (sign_bit << 1), out)
    return out[:nsamples]


def _unmap_rsi(out: np.ndarray, start: int, stop: int,
               xmin: int, xmax: int) -> None:
    """Invert the unit-delay predictor + mapper in place over one
    reference sample interval. out[start] is the raw reference."""
    seg = out[start:stop]
    n = len(seg)
    if n <= 1:
        return
    d = seg[1:]
    # candidate deltas assuming the in-range branch (pure zigzag)
    zig = np.where(d & 1, -((d + 1) >> 1), d >> 1)
    x = int(seg[0])
    vals = seg                           # write-through view
    # vectorized run with escape fix-up: candidates = prefix sums of
    # zigzag deltas; an "escape" index is one where D > 2θ(prev) and
    # the zigzag branch was the wrong one. Escapes only happen near
    # the data range boundary, so scan for the first violation, fix
    # it, shift the remaining prefix sums by the correction, repeat.
    cand = x + np.cumsum(zig)
    off = 0
    i = 0
    while i < n - 1:
        cur = cand[i:] + off
        prev = np.empty(len(cur), np.int64)
        prev[0] = x
        prev[1:] = cur[:-1]
        theta = np.minimum(prev - xmin, xmax - prev)
        bad = np.flatnonzero(d[i:] > 2 * theta)
        if len(bad) == 0:
            vals[1 + i:] = cur
            return
        j = int(bad[0])                  # first escape
        if j > 0:
            vals[1 + i:1 + i + j] = cur[:j]
            x = int(cur[j - 1])
        p = x
        dd = int(d[i + j])
        th = min(p - xmin, xmax - p)
        if p - xmin <= xmax - p:
            nx = p + (dd - th)
        else:
            nx = p - (dd - th)
        vals[1 + i + j] = nx
        # future corrected values are cand[m] − cand[i+j] + nx: fold
        # the constant into off (assignment — cand is never mutated)
        off = nx - int(cand[i + j])
        x = nx
        i += j + 1
