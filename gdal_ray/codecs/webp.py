"""WebP codec — real RIFF container + FULL from-scratch decoders for
both VP8L (lossless) and VP8 (lossy), plus a VP8L literal-subset
encoder.

Reference: frmts/webp/webpdataset.cpp (GDAL's driver is a thin wrapper
over libwebp). What is REAL and from-scratch here:

* container parsing for all three layouts — ``VP8 `` (lossy), ``VP8L``
  (lossless), ``VP8X`` (extended, with feature flags + ANIM/ALPH/XMP/
  EXIF chunks) — verified against the reference's
  autotest/gdrivers/data/webp fixtures;
* a COMPLETE VP8L decoder ("WebP Lossless Bitstream Specification"):
  canonical prefix codes via the code-length code, LZ77 backward
  references with the 120-entry 2D distance map, color cache, meta
  prefix codes (entropy image), and all four transforms — predictor
  (14 modes, C-truncation arithmetic), cross-color, subtract-green,
  color indexing with pixel bundling. Real-world lossless WebP files
  decode pixel-exactly (verified against libwebp-encoded streams and
  hand-crafted spec bitstreams, tests/test_webp.py);
* a spec-conformant VP8L encoder for the literal subset (no
  transforms/LZ77 — any conformant reader decodes its files).

Lossy VP8 (still-image key frames) decodes with the own RFC 6386
implementation in codecs/vp8.py — boolean coder, keyframe intra
modes, DCT/WHT tokens, dequant, exact integer inverse transforms,
both loop filters — followed by libwebp-parity fancy chroma
upsampling and fixed-point YUV->RGB; the ALPH chunk (raw or
VP8L-compressed alpha with all four prediction filters) is honored.
Byte-exact vs libwebp on the reference fixtures and random encoder
output (tests/test_vp8.py); the libwebp ctypes plug (tests/webp_sys.py) is
the test-time conformance oracle only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._bits import LsbReader, LsbWriter

# code length code order (spec §"Prefix code groups"; identical to the
# constant in libwebp src/utils/huffman_encode_utils.c)
_CLC_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13,
              14, 15]


@dataclass
class WebPInfo:
    width: int
    height: int
    flavor: str          # "lossy" | "lossless" | "extended"
    has_alpha: bool
    has_xmp: bool = False
    has_exif: bool = False
    has_anim: bool = False


def sniff_webp(buf: bytes) -> bool:
    return len(buf) >= 16 and buf[:4] == b"RIFF" and buf[8:12] == b"WEBP"


def webp_info(buf: bytes) -> WebPInfo:
    """Container + header parse, no pixel decode."""
    if not sniff_webp(buf):
        raise ValueError("not a WebP file")
    pos, end = 12, 8 + struct.unpack_from("<I", buf, 4)[0]
    info = None
    has_xmp = has_exif = has_anim = has_alpha = False
    while pos + 8 <= end and pos + 8 <= len(buf):
        tag = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = pos + 8
        if tag == b"VP8 " and info is None:
            # frame tag (3B) + start code 9d 01 2a + 14-bit w/h
            if buf[body + 3:body + 6] != b"\x9d\x01\x2a":
                raise ValueError("bad VP8 start code")
            (w,) = struct.unpack_from("<H", buf, body + 6)
            (h,) = struct.unpack_from("<H", buf, body + 8)
            info = WebPInfo(w & 0x3FFF, h & 0x3FFF, "lossy", False)
        elif tag == b"VP8L" and info is None:
            if buf[body] != 0x2F:
                raise ValueError("bad VP8L signature")
            (bits,) = struct.unpack_from("<I", buf, body + 1)
            w = (bits & 0x3FFF) + 1
            h = ((bits >> 14) & 0x3FFF) + 1
            has_alpha = bool((bits >> 28) & 1)
            info = WebPInfo(w, h, "lossless", has_alpha)
        elif tag == b"VP8X":
            flags = buf[body]
            has_anim = has_anim or bool(flags & 0x02)
            has_alpha = bool(flags & 0x10)
            w = 1 + int.from_bytes(buf[body + 4:body + 7], "little")
            h = 1 + int.from_bytes(buf[body + 7:body + 10], "little")
            info = WebPInfo(w, h, "extended", has_alpha)
        elif tag in (b"XMP ", b"META"):     # META = legacy mux XMP chunk
            has_xmp = True
        elif tag == b"EXIF":
            has_exif = True
        elif tag == b"ANIM":
            has_anim = True
        pos = body + size + (size & 1)          # chunks are 2-aligned
    if info is None:
        raise ValueError("no VP8/VP8L/VP8X chunk found")
    info.has_xmp, info.has_exif, info.has_anim = has_xmp, has_exif, has_anim
    if info.flavor != "lossless":
        info.has_alpha = info.has_alpha or has_alpha
    return info


# ---------------------------------------------------------------------------
# canonical prefix codes
# ---------------------------------------------------------------------------

def _huffman_lengths(freqs: np.ndarray, max_len: int = 15) -> np.ndarray:
    """Code lengths from symbol frequencies (heap Huffman + depth clamp
    with Kraft repair). Complete code by construction."""
    import heapq
    idx = np.flatnonzero(freqs)
    n = len(idx)
    lengths = np.zeros(len(freqs), np.int64)
    if n == 0:
        return lengths
    if n == 1:
        lengths[idx[0]] = 1
        return lengths
    heap = [(int(freqs[i]), int(i), ()) for i in idx]
    heapq.heapify(heap)
    cnt = len(freqs)
    parent: dict[int, list] = {}
    while len(heap) > 1:
        fa, ia, _ = heapq.heappop(heap)
        fb, ib, _ = heapq.heappop(heap)
        parent[cnt] = [ia, ib]
        heapq.heappush(heap, (fa + fb, cnt, ()))
        cnt += 1
    root = heap[0][1]

    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        if node in parent:
            for c in parent[node]:
                stack.append((c, d + 1))
        else:
            lengths[node] = max(1, d)
    if lengths.max() > max_len:
        # clamp + Kraft repair (zlib bit_length_limit approach)
        lengths[lengths > max_len] = max_len
        k = np.sum((lengths > 0) * (2.0 ** (-lengths)))
        order = np.argsort(-lengths)
        i = 0
        while k > 1.0 + 1e-12:
            s = order[i % len(order)]
            if 0 < lengths[s] < max_len:
                k -= 2.0 ** (-lengths[s] - 1)
                lengths[s] += 1
            i += 1
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code assignment (spec: BuildHuffmanTable order —
    symbols sorted by (length, symbol))."""
    codes = np.zeros(len(lengths), np.int64)
    code = 0
    for ln in range(1, int(lengths.max()) + 1 if lengths.any() else 1):
        for s in np.flatnonzero(lengths == ln):
            codes[s] = code
            code += 1
        code <<= 1
    return codes


def _rev_bits(v: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


class _PrefixEncoder:
    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self.codes = _canonical_codes(lengths)
        # spec: a single-symbol code consumes ZERO bits per symbol
        self.single = np.count_nonzero(lengths) == 1

    def emit(self, bw: LsbWriter, sym: int):
        if self.single:
            return
        ln = int(self.lengths[sym])
        # prefix codes are written MSB-first into the LSB-first stream
        bw.put(_rev_bits(int(self.codes[sym]), ln), ln)


class _PrefixDecoder:
    """Table-driven canonical-prefix decoder: one LUT of 2^max_len
    entries maps the next max_len stream bits straight to (symbol,
    code length) — one peek per symbol instead of a per-bit walk.
    Canonical codes are MSB-first in the LSB-first stream, so each
    code is bit-reversed before fan-out over its suffixes."""

    def __init__(self, lengths: np.ndarray):
        self.max_len = int(lengths.max()) if lengths.any() else 0
        self.single = int(np.flatnonzero(lengths)[0]) \
            if np.count_nonzero(lengths) == 1 else None
        if self.single is not None or self.max_len == 0:
            self.lut = None
            return
        codes = _canonical_codes(lengths)
        ml = self.max_len
        lut = np.zeros(1 << ml, np.int64)    # (sym << 5) | len; 0=bad
        for s in np.flatnonzero(lengths):
            ln = int(lengths[s])
            base = _rev_bits(int(codes[s]), ln)
            step = 1 << ln
            lut[base::step] = (int(s) << 5) | ln
        self.lut = lut.tolist()              # plain list: faster index

    def read(self, br: LsbReader) -> int:
        if self.single is not None:            # zero-bit code (spec)
            return self.single
        e = self.lut[br.peek(self.max_len)]
        if e == 0:
            raise ValueError("invalid prefix code in VP8L stream")
        br.pos += e & 31
        return e >> 5


def _write_code_lengths(bw: LsbWriter, lengths: np.ndarray):
    """Transmit one prefix code: simple 1/2-symbol form when possible,
    else the full code-length-code form (spec §5.2.2)."""
    nz = np.flatnonzero(lengths)
    if 1 <= len(nz) <= 2 and all(int(s) < 256 for s in nz):
        bw.put(1, 1)                      # simple code
        bw.put(len(nz) - 1, 1)            # num symbols - 1
        s0 = int(nz[0])
        if s0 <= 1:
            bw.put(0, 1)                  # first symbol in 1 bit
            bw.put(s0, 1)
        else:
            bw.put(1, 1)
            bw.put(s0, 8)
        if len(nz) == 2:
            bw.put(int(nz[1]), 8)
        return
    bw.put(0, 1)                          # normal code
    # run-length encode the length array with symbols 0-15, 16, 17, 18
    seq: list[tuple[int, int]] = []         # (symbol, extra)
    i = 0
    # encode ALL symbol lengths (trailing zeros as 17/18 runs): the
    # decoder reads until the alphabet is covered
    arr = lengths
    prev = 8
    while i < len(arr):
        v = int(arr[i])
        run = 1
        while i + run < len(arr) and int(arr[i + run]) == v:
            run += 1
        if v == 0:
            r = run
            while r >= 11:
                take = min(r, 138)
                seq.append((18, take - 11))
                r -= take
            while r >= 3:
                take = min(r, 10)
                seq.append((17, take - 3))
                r -= take
            for _ in range(r):
                seq.append((0, 0))
        else:
            seq.append((v, -1))
            prev = v
            r = run - 1
            while r >= 3:
                take = min(r, 6)
                seq.append((16, take - 3))
                r -= take
            for _ in range(r):
                seq.append((v, -1))
        i += run
    # mini prefix code over the 19 code-length symbols
    f = np.zeros(19, np.int64)
    for s, _ in seq:
        f[s] += 1
    clc_len = _huffman_lengths(f, max_len=7)
    order_lens = [int(clc_len[s]) for s in _CLC_ORDER]
    while len(order_lens) > 4 and order_lens[-1] == 0:
        order_lens.pop()
    num = max(4, len(order_lens))
    bw.put(num - 4, 4)
    for k in range(num):
        bw.put(order_lens[k] if k < len(order_lens) else 0, 3)
    bw.put(0, 1)                          # no explicit max_symbol
    enc = _PrefixEncoder(clc_len)
    extra_bits = {16: 2, 17: 3, 18: 7}
    for s, extra in seq:
        enc.emit(bw, s)
        if s >= 16:
            bw.put(extra, extra_bits[s])


def _read_code_lengths(br: LsbReader, alphabet: int) -> np.ndarray:
    lengths = np.zeros(alphabet, np.int64)
    if br.get(1):                          # simple code
        n = br.get(1) + 1
        if br.get(1):
            s0 = br.get(8)
        else:
            s0 = br.get(1)
        lengths[s0] = 1
        if n == 2:
            lengths[br.get(8)] = 1
        return lengths
    num = br.get(4) + 4
    clc_len = np.zeros(19, np.int64)
    for k in range(num):
        clc_len[_CLC_ORDER[k]] = br.get(3)
    max_symbol = alphabet
    if br.get(1):                          # explicit max symbol count
        bits = 2 + 2 * br.get(3)
        max_symbol = 2 + br.get(bits)
    dec = _PrefixDecoder(clc_len)
    i, prev = 0, 8
    while i < alphabet and max_symbol > 0:
        max_symbol -= 1
        s = dec.read(br)
        if s < 16:
            lengths[i] = s
            i += 1
            if s:
                prev = s
        elif s == 16:
            rep = 3 + br.get(2)
            lengths[i:i + rep] = prev
            i += rep
        elif s == 17:
            i += 3 + br.get(3)
        else:
            i += 11 + br.get(7)
    return lengths


# ---------------------------------------------------------------------------
# VP8L encode / decode (literal subset)
# ---------------------------------------------------------------------------

def encode_webp_lossless(img: np.ndarray) -> bytes:
    """(h, w[, 3|4]) uint8 → lossless WebP (VP8L, literal ARGB coding,
    no transforms). Any conformant WebP reader decodes this exactly."""
    img = np.asarray(img)
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=-1)
    h, w = img.shape[:2]
    if w > 1 << 14 or h > 1 << 14:
        raise ValueError("VP8L dimensions limited to 16384")
    has_alpha = img.shape[2] == 4
    r = img[:, :, 0].ravel().astype(np.int64)
    g = img[:, :, 1].ravel().astype(np.int64)
    b = img[:, :, 2].ravel().astype(np.int64)
    a = (img[:, :, 3].ravel().astype(np.int64) if has_alpha
         else np.full(h * w, 255, np.int64))

    bw = LsbWriter()
    bw.put(w - 1, 14)
    bw.put(h - 1, 14)
    bw.put(1 if has_alpha else 0, 1)
    bw.put(0, 3)                          # version
    bw.put(0, 1)                          # no transforms
    bw.put(0, 1)                          # no color cache
    bw.put(0, 1)                          # no meta prefix codes

    def hist(vals, alphabet):
        f = np.bincount(vals, minlength=alphabet)
        return _huffman_lengths(f)

    lens = [hist(g, 256 + 24),              # green + length prefixes
            hist(r, 256), hist(b, 256), hist(a, 256),
            np.zeros(40, np.int64)]
    lens[4][0] = 1                          # dummy 1-symbol distance code
    encs = []
    for ln in lens:
        _write_code_lengths(bw, ln)
        encs.append(_PrefixEncoder(ln))
    # vectorized literal emission: per-channel (reversed-code, length)
    # LUTs, the four channel codes packed into one <=60-bit word per
    # pixel, then expanded to a contiguous bit sequence — consecutive
    # codes are adjacent in the stream, so no scatter is needed.
    luts = []
    for enc in encs[:4]:
        ln = np.asarray(enc.lengths, np.int64)
        if enc.single:                      # zero bits per symbol
            luts.append((np.zeros(len(ln), np.uint64),
                         np.zeros(len(ln), np.int64)))
            continue
        rev = np.array([_rev_bits(int(c), int(l))
                        for c, l in zip(enc.codes, ln)], np.uint64)
        luts.append((rev, ln))
    (grev, glen), (rrev, rlen), (brev, blen), (arev, alen) = luts
    CH = 1 << 16                            # pixel chunks bound memory
    for c0 in range(0, h * w, CH):
        gs, rs, bs, as_ = (v[c0:c0 + CH] for v in (g, r, b, a))
        val = grev[gs]
        shift = glen[gs]
        val = val | (rrev[rs] << shift.astype(np.uint64))
        shift = shift + rlen[rs]
        val = val | (brev[bs] << shift.astype(np.uint64))
        shift = shift + blen[bs]
        val = val | (arev[as_] << shift.astype(np.uint64))
        ln = shift + alen[as_]
        total = int(ln.sum())
        starts = np.concatenate(([0], np.cumsum(ln)[:-1]))
        within = (np.arange(total, dtype=np.int64)
                  - np.repeat(starts, ln)).astype(np.uint64)
        bits = ((np.repeat(val, ln) >> within)
                & np.uint64(1)).astype(np.uint8)
        bw.put_bits(bits)
    payload = b"\x2f" + bw.finish()
    if len(payload) & 1:
        chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload + b"\x00"
    else:
        chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff


# ---------------------------------------------------------------------------
# full VP8L decode: LZ77 + color cache + meta prefix + 4 transforms
# ---------------------------------------------------------------------------

# 2D offset map for the first 120 distance codes (spec §4.2.2; verified
# bit-exactly against libwebp by decoding 120 crafted single-backref
# streams, tests/test_webp.py::TestDistMap)
_DIST_MAP = [
    (0, 1), (1, 0), (1, 1), (-1, 1), (0, 2), (2, 0), (1, 2), (-1, 2),
    (2, 1), (-2, 1), (2, 2), (-2, 2), (0, 3), (3, 0), (1, 3), (-1, 3),
    (3, 1), (-3, 1), (2, 3), (-2, 3), (3, 2), (-3, 2), (0, 4), (4, 0),
    (1, 4), (-1, 4), (4, 1), (-4, 1), (3, 3), (-3, 3), (2, 4), (-2, 4),
    (4, 2), (-4, 2), (0, 5), (3, 4), (-3, 4), (4, 3), (-4, 3), (5, 0),
    (1, 5), (-1, 5), (5, 1), (-5, 1), (2, 5), (-2, 5), (5, 2), (-5, 2),
    (4, 4), (-4, 4), (3, 5), (-3, 5), (5, 3), (-5, 3), (0, 6), (6, 0),
    (1, 6), (-1, 6), (6, 1), (-6, 1), (2, 6), (-2, 6), (6, 2), (-6, 2),
    (4, 5), (-4, 5), (5, 4), (-5, 4), (3, 6), (-3, 6), (6, 3), (-6, 3),
    (0, 7), (7, 0), (1, 7), (-1, 7), (5, 5), (-5, 5), (7, 1), (-7, 1),
    (4, 6), (-4, 6), (6, 4), (-6, 4), (2, 7), (-2, 7), (7, 2), (-7, 2),
    (3, 7), (-3, 7), (7, 3), (-7, 3), (5, 6), (-5, 6), (6, 5), (-6, 5),
    (8, 0), (4, 7), (-4, 7), (7, 4), (-7, 4), (8, 1), (8, 2), (6, 6),
    (-6, 6), (8, 3), (5, 7), (-5, 7), (7, 5), (-7, 5), (8, 4), (6, 7),
    (-6, 7), (7, 6), (-7, 6), (8, 5), (7, 7), (-7, 7), (8, 6), (8, 7)]


def _prefix_value(code: int, br: LsbReader) -> int:
    """LZ77 length/distance prefix coding (spec §4.2.2)."""
    if code < 4:
        return code + 1
    extra = (code - 2) >> 1
    offset = (2 + (code & 1)) << extra
    return offset + br.get(extra) + 1


def _subsample_size(size: int, bits: int) -> int:
    return (size + (1 << bits) - 1) >> bits


def _read_prefix_group(br: LsbReader, cache_size: int):
    alphabets = (256 + 24 + cache_size, 256, 256, 256, 40)
    return [_PrefixDecoder(_read_code_lengths(br, a)) for a in alphabets]


def _decode_image_stream(br: LsbReader, w: int, h: int,
                         is_level0: bool) -> np.ndarray:
    """One VP8L 'spatially coded image' → flat uint32 ARGB array of
    length w*h (transform-inverted when is_level0). Recursion decodes
    transform data / palettes / entropy images (is_level0=False: no
    transforms, no meta prefix — libwebp DecodeImageStream)."""
    transforms = []                 # (type, data, w_before, w_after)
    if is_level0:
        seen = set()
        while br.get(1):
            ttype = br.get(2)
            if ttype in seen:
                raise ValueError("VP8L transform repeated")
            seen.add(ttype)
            w_before = w
            if ttype == 2:                       # subtract green
                data = None
            elif ttype in (0, 1):                # predictor / color
                bits = br.get(3) + 2
                tw = _subsample_size(w, bits)
                th = _subsample_size(h, bits)
                data = (bits, _decode_image_stream(br, tw, th, False))
            elif ttype == 3:                     # color indexing
                n_colors = br.get(8) + 1
                pal = _decode_image_stream(br, n_colors, 1, False)
                # palette entries are componentwise delta-coded
                b4 = pal.view(np.uint8).reshape(-1, 4)
                pal = np.cumsum(b4.astype(np.uint32), axis=0) \
                    .astype(np.uint8).reshape(-1, 4).view(np.uint32) \
                    .ravel()
                xbits = (3 if n_colors <= 2 else 2 if n_colors <= 4
                         else 1 if n_colors <= 16 else 0)
                w = _subsample_size(w, xbits)
                data = (xbits, pal, n_colors)
            transforms.append((ttype, data, w_before, w))

    cache_bits = br.get(4) if br.get(1) else 0
    cache_size = (1 << cache_bits) if cache_bits else 0

    meta = None
    mbits = 0
    n_groups = 1
    if is_level0 and br.get(1):
        mbits = br.get(3) + 2
        mw = _subsample_size(w, mbits)
        mh = _subsample_size(h, mbits)
        mimg = _decode_image_stream(br, mw, mh, False)
        meta = ((mimg >> np.uint32(8)) & np.uint32(0xFFFF)) \
            .astype(np.int64).reshape(mh, mw)
        n_groups = int(meta.max()) + 1

    groups = [_read_prefix_group(br, cache_size) for _ in range(n_groups)]

    pix = np.zeros(w * h, np.uint32)
    cache = np.zeros(cache_size, np.uint32) if cache_size else None
    shift = 32 - cache_bits if cache_bits else 0
    MUL = 0x1E35A7BD
    g5 = groups[0]
    pos, total = 0, w * h
    row_meta = None
    my = -1
    while pos < total:
        if meta is not None:
            y = pos // w
            if y >> mbits != my:
                my = y >> mbits
                row_meta = meta[my]
            g5 = groups[int(row_meta[(pos % w) >> mbits])]
        s = g5[0].read(br)
        if s < 256:
            r = g5[1].read(br)
            b = g5[2].read(br)
            a = g5[3].read(br)
            v = (a << 24) | (r << 16) | (s << 8) | b
            pix[pos] = v
            if cache_size:
                cache[((MUL * v) & 0xFFFFFFFF) >> shift] = v
            pos += 1
        elif s < 280:
            length = _prefix_value(s - 256, br)
            dcode = _prefix_value(g5[4].read(br), br)
            if dcode > 120:
                dist = dcode - 120
            else:
                dx, dy = _DIST_MAP[dcode - 1]
                dist = max(dx + dy * w, 1)
            if dist > pos:
                raise ValueError("VP8L backref before image start")
            endp = pos + min(length, total - pos)
            if cache_size:
                while pos < endp:
                    v = int(pix[pos - dist])
                    pix[pos] = v
                    cache[((MUL * v) & 0xFFFFFFFF) >> shift] = v
                    pos += 1
            elif dist >= length:
                pix[pos:endp] = pix[pos - dist:endp - dist]
                pos = endp
            else:                    # overlapping copy: sequential
                while pos < endp:
                    pix[pos] = pix[pos - dist]
                    pos += 1
        else:
            pix[pos] = cache[s - 280]
            pos += 1

    for ttype, data, w_before, w_after in reversed(transforms):
        pix = _inverse_transform(pix, ttype, data, w_before, w_after, h)
        w = w_before
    return pix


def _argb_split(v: np.ndarray):
    return ((v >> np.uint32(24)) & np.uint32(0xFF),
            (v >> np.uint32(16)) & np.uint32(0xFF),
            (v >> np.uint32(8)) & np.uint32(0xFF),
            v & np.uint32(0xFF))


def _inverse_transform(pix: np.ndarray, ttype: int, data, w: int,
                       w_reduced: int, h: int) -> np.ndarray:
    if ttype == 2:                              # add green (inverse)
        a, r, g, b = _argb_split(pix)
        r = (r + g) & np.uint32(0xFF)
        b = (b + g) & np.uint32(0xFF)
        return ((a << np.uint32(24)) | (r << np.uint32(16))
                | (g << np.uint32(8)) | b)

    if ttype == 3:                              # color indexing
        xbits, pal, n_colors = data
        img = pix.reshape(h, w_reduced)
        gch = ((img >> np.uint32(8)) & np.uint32(0xFF)).astype(np.int64)
        if xbits:
            bits_per = 8 >> xbits
            mask = (1 << bits_per) - 1
            xs = np.arange(w, dtype=np.int64)
            packed = gch[:, xs >> xbits]
            idx = (packed >> ((xs & ((1 << xbits) - 1)) * bits_per)) \
                & mask
        else:
            idx = gch[:, :w]
        out = np.zeros((h, w), np.uint32)
        valid = idx < n_colors          # out-of-range: transparent 0
        out[valid] = pal[idx[valid]]
        return out.ravel()

    if ttype == 1:                              # cross-color (inverse)
        bits, timg = data
        tw = _subsample_size(w, bits)
        tiles = timg.reshape(-1, tw)
        img = pix.reshape(h, w)
        g2r = ((tiles & np.uint32(0xFF)).astype(np.uint8)
               .astype(np.int8).astype(np.int64))          # blue ch
        g2b = (((tiles >> np.uint32(8)) & np.uint32(0xFF)).astype(np.uint8)
               .astype(np.int8).astype(np.int64))          # green ch
        r2b = (((tiles >> np.uint32(16)) & np.uint32(0xFF)).astype(np.uint8)
               .astype(np.int8).astype(np.int64))          # red ch
        a, r, g, b = (c.astype(np.int64) for c in _argb_split(img))
        ys = np.arange(h) >> bits
        xs = np.arange(w) >> bits
        tg2r = g2r[ys][:, xs]
        tg2b = g2b[ys][:, xs]
        tr2b = r2b[ys][:, xs]
        gs = g.astype(np.uint8).astype(np.int8).astype(np.int64)
        r = (r + ((tg2r * gs) >> 5)) & 0xFF
        rs = r.astype(np.uint8).astype(np.int8).astype(np.int64)
        b = (b + ((tg2b * gs) >> 5) + ((tr2b * rs) >> 5)) & 0xFF
        out = ((a.astype(np.uint32) << np.uint32(24))
               | (r.astype(np.uint32) << np.uint32(16))
               | (g.astype(np.uint32) << np.uint32(8))
               | b.astype(np.uint32))
        return out.ravel()

    # ttype == 0: predictor — sequential (each pixel needs its
    # reconstructed neighbors); linear-array neighbor semantics match
    # libwebp (TR of the last column wraps to the current row start)
    bits, timg = data
    tw = _subsample_size(w, bits)
    modes = ((timg.reshape(-1, tw) >> np.uint32(8))
             & np.uint32(0xFF)).astype(np.int64)
    from .native import get_vp8l
    lib = get_vp8l()
    if lib is not None:
        import ctypes
        buf = np.ascontiguousarray(pix, np.uint32).copy()
        m8 = np.ascontiguousarray(modes, np.uint8)
        rc = lib.vp8l_pred_inverse(
            buf.ctypes.data_as(ctypes.POINTER(ctypes.c_uint32)), w, h,
            m8.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            tw, bits)
        if rc == 0:
            return buf.ravel()
    out = pix.astype(np.int64).copy()
    ch = np.empty((w * h, 4), np.int64)      # a r g b per pixel
    ch[:, 0] = (out >> 24) & 0xFF
    ch[:, 1] = (out >> 16) & 0xFF
    ch[:, 2] = (out >> 8) & 0xFF
    ch[:, 3] = out & 0xFF

    def avg2(p, q):
        return (p + q) >> 1

    for pos in range(w * h):
        y, x = divmod(pos, w)
        if pos == 0:
            pred = np.array([255, 0, 0, 0], np.int64)
        elif y == 0:
            pred = ch[pos - 1]                   # L
        elif x == 0:
            pred = ch[pos - w]                   # T
        else:
            mode = int(modes[y >> bits, x >> bits])
            L = ch[pos - 1]
            T = ch[pos - w]
            TL = ch[pos - w - 1]
            TR = ch[pos - w + 1]
            if mode == 0:
                pred = np.array([255, 0, 0, 0], np.int64)
            elif mode == 1:
                pred = L
            elif mode == 2:
                pred = T
            elif mode == 3:
                pred = TR
            elif mode == 4:
                pred = TL
            elif mode == 5:
                pred = avg2(avg2(L, TR), T)
            elif mode == 6:
                pred = avg2(L, TL)
            elif mode == 7:
                pred = avg2(L, T)
            elif mode == 8:
                pred = avg2(TL, T)
            elif mode == 9:
                pred = avg2(T, TR)
            elif mode == 10:
                pred = avg2(avg2(L, TL), avg2(T, TR))
            elif mode == 11:                     # Select
                p = L + T - TL
                pl = int(np.abs(p - L).sum())
                pt = int(np.abs(p - T).sum())
                pred = L if pl < pt else T
            elif mode == 12:                     # ClampAddSubtractFull
                pred = np.clip(L + T - TL, 0, 255)
            elif mode == 13:                     # ClampAddSubtractHalf
                # C semantics: (a - b) / 2 truncates toward zero
                ave = avg2(L, T)
                d = ave - TL
                pred = np.clip(ave + ((d + (d < 0)) >> 1), 0, 255)
            else:
                raise ValueError(f"bad predictor mode {mode}")
            ch[pos] = (ch[pos] + pred) & 0xFF
            continue
        ch[pos] = (ch[pos] + pred) & 0xFF

    return ((ch[:, 0].astype(np.uint32) << np.uint32(24))
            | (ch[:, 1].astype(np.uint32) << np.uint32(16))
            | (ch[:, 2].astype(np.uint32) << np.uint32(8))
            | ch[:, 3].astype(np.uint32))


def decode_webp_lossless(buf: bytes) -> np.ndarray:
    """Lossless WebP → (h, w, 4) uint8 RGBA. Full VP8L feature set:
    LZ77 backward references (2D distance map), color cache, meta
    prefix codes (entropy image), and all four transforms (predictor,
    cross-color, subtract-green, color indexing incl. pixel bundling).
    Verified pixel-exact against libwebp-encoded streams
    (tests/test_webp.py)."""
    info = webp_info(buf)
    if info.flavor == "lossy" or (info.flavor == "extended"
                                  and b"VP8L" not in _chunks(buf)):
        return _decode_lossy(buf)
    # locate the VP8L chunk
    pos, end = 12, 8 + struct.unpack_from("<I", buf, 4)[0]
    body = None
    while pos + 8 <= end:
        tag = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        if tag == b"VP8L":
            body = buf[pos + 8:pos + 8 + size]
            break
        pos += 8 + size + (size & 1)
    if body is None or body[0] != 0x2F:
        raise ValueError("no VP8L chunk")
    br = LsbReader(body, 8)
    w = br.get(14) + 1
    h = br.get(14) + 1
    br.get(1)                              # alpha hint
    br.get(3)                              # version
    argb = _decode_image_stream(br, w, h, True)
    out = np.empty((h * w, 4), np.uint8)
    out[:, 0] = (argb >> np.uint32(16)) & np.uint32(0xFF)
    out[:, 1] = (argb >> np.uint32(8)) & np.uint32(0xFF)
    out[:, 2] = argb & np.uint32(0xFF)
    out[:, 3] = (argb >> np.uint32(24)) & np.uint32(0xFF)
    return out.reshape(h, w, 4)


def _chunks(buf: bytes) -> dict:
    """RIFF chunk map (first occurrence of each tag)."""
    pos, end = 12, 8 + struct.unpack_from("<I", buf, 4)[0]
    out = {}
    while pos + 8 <= end and pos + 8 <= len(buf):
        tag = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        if pos + 8 + size > len(buf):
            raise ValueError("truncated WebP chunk %r" % tag)
        out.setdefault(tag, buf[pos + 8:pos + 8 + size])
        pos += 8 + size + (size & 1)
    return out


def _unfilter_alpha(a: np.ndarray, method: int) -> np.ndarray:
    """Invert the ALPH prediction filter (filters.c parity)."""
    if method == 0:
        return a
    h, w = a.shape
    v = a.astype(np.int64)
    if method == 1:                          # horizontal
        col0 = np.cumsum(v[:, 0])
        out = np.cumsum(v, axis=1) - v[:, 0:1] + col0[:, None]
        return (out & 0xFF).astype(np.uint8)
    if method == 2:                          # vertical
        row0 = np.cumsum(v[0]) & 0xFF
        v = v.copy()
        v[0] = row0
        return (np.cumsum(v, axis=0) & 0xFF).astype(np.uint8)
    out = np.empty((h, w), np.uint8)         # gradient (sequential)
    row = np.cumsum(v[0]) & 0xFF
    out[0] = row
    for y in range(1, h):
        prev = out[y - 1]
        left = int(prev[0])
        tl = left
        r = a[y]
        cur = out[y]
        for x in range(w):
            top = int(prev[x])
            g = left + top - tl
            g = 0 if g < 0 else (255 if g > 255 else g)
            left = (int(r[x]) + g) & 0xFF
            tl = top
            cur[x] = left
    return out


def _decode_alpha(body: bytes, w: int, h: int) -> np.ndarray:
    """ALPH chunk → (h, w) uint8 alpha plane."""
    hdr = body[0]
    method = hdr & 3
    filt = (hdr >> 2) & 3
    if method == 0:
        plane = np.frombuffer(body[1:1 + w * h], np.uint8) \
            .reshape(h, w).copy()
    else:
        # lossless-compressed: a headerless VP8L stream, alpha in the
        # green channel
        br = LsbReader(body[1:], 0)
        argb = _decode_image_stream(br, w, h, True)
        plane = ((argb >> np.uint32(8)) & np.uint32(0xFF)) \
            .astype(np.uint8).reshape(h, w)
    return _unfilter_alpha(plane, filt)


def _decode_lossy(buf: bytes) -> np.ndarray:
    """Lossy WebP via the own RFC 6386 VP8 decoder (codecs/vp8.py) +
    libwebp-parity fancy upsampling; honors an ALPH chunk."""
    from .vp8 import decode_vp8, yuv420_to_rgba
    ch = _chunks(buf)
    if b"VP8 " not in ch:
        raise ValueError("no VP8 chunk in lossy WebP")
    Y, U, V = decode_vp8(ch[b"VP8 "])
    rgba = yuv420_to_rgba(Y, U, V)
    if b"ALPH" in ch:
        rgba[:, :, 3] = _decode_alpha(ch[b"ALPH"], rgba.shape[1],
                                      rgba.shape[0])
    return rgba


def decode_webp(buf: bytes) -> np.ndarray:
    return decode_webp_lossless(buf)


def encode_webp(img: np.ndarray, **kw) -> bytes:
    return encode_webp_lossless(img)
