"""Zstandard (RFC 8878) frame decoder and a store-mode encoder,
implemented from the published spec — no libzstd.  The reference Zarr
driver (frmts/zarr/) wraps the library; tests cross-check this
decoder against pyarrow's bundled zstd (the same oracle pattern the
WebP codec uses with libwebp).

Decode path: frame header (window descriptor, optional content size,
dictionary refusal), raw / RLE / compressed blocks; compressed-block
literals (raw, RLE, Huffman with direct or FSE-compressed weights,
1- or 4-stream with the 6-byte jump table, treeless repeats across
blocks); sequences with predefined / RLE / FSE-compressed / repeat
tables for literal-length, offset and match-length codes, the
backward bitstream (LL→OF→ML state init, OF→ML→LL extra bits,
LL→ML→OF updates), the 3-slot repeat-offset history with the
literals-length-0 shift, and overlap-correct match copies.  Content
checksums are skipped, dictionaries fail fast.

``zstd_compress`` emits valid store-mode frames (raw blocks only) so
sinks can produce decodable .zst output without the library.

Also here: ``snappy_decompress`` (varint length + literal/copy
tags), the blosc container's codec 2.
"""

from __future__ import annotations

import struct

from ._bits import LsbReader

__all__ = ["zstd_decompress", "zstd_compress", "snappy_decompress"]

_MAGIC = 0xFD2FB528


# ----------------------------------------------------- bit reader
class _BackBits:
    """Backward bitstream: bits written LSB-first forward are read
    from the top; the last byte's highest set bit is the sentinel.
    ``pos`` may go negative — reads then return zero-padded values
    and ``exhausted`` turns true (callers stop per the FSE rule)."""

    def __init__(self, data: bytes):
        if not data or data[-1] == 0:
            raise ValueError("zstd: corrupt backward bitstream")
        self.data = data
        last = data[-1]
        self.pos = (len(data) - 1) * 8 + last.bit_length() - 1

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        self.pos -= n
        p = self.pos
        v = 0
        # gather bits p .. p+n-1 (absolute LSB-first positions)
        for i in range(n):
            bp = p + i
            if bp >= 0:
                v |= ((self.data[bp >> 3] >> (bp & 7)) & 1) << i
        return v

    @property
    def exhausted(self) -> bool:
        return self.pos < 0


# ----------------------------------------------------- FSE
def _fse_read_distribution(br: LsbReader, max_symbol: int):
    """→ (accuracy_log, probabilities list incl. -1 entries)."""
    al = br.get(4) + 5
    remaining = 1 << al
    probs = []
    while remaining > 0 and len(probs) <= max_symbol:
        bits = (remaining + 1).bit_length()
        val = br.get(bits)
        lower_mask = (1 << (bits - 1)) - 1
        threshold = (1 << bits) - 1 - (remaining + 1)
        if (val & lower_mask) < threshold:
            br.pos -= 1
            val &= lower_mask
        elif val > lower_mask:
            val -= threshold
        p = val - 1
        probs.append(p)
        remaining -= -p if p < 0 else p
        if p == 0:
            while True:
                rep = br.get(2)
                probs.extend([0] * rep)
                if rep != 3:
                    break
    if remaining != 0:
        raise ValueError("zstd: corrupt FSE distribution")
    return al, probs


def _fse_build_dtable(al: int, probs):
    """→ list of (symbol, nb_bits, baseline) per state."""
    size = 1 << al
    symbols = [0] * size
    high = size - 1
    counts = {}
    for s, p in enumerate(probs):
        if p == -1:
            symbols[high] = s
            high -= 1
            counts[s] = 1
    step = (size >> 1) + (size >> 3) + 3
    mask = size - 1
    pos = 0
    for s, p in enumerate(probs):
        if p <= 0:
            continue
        counts[s] = p
        for _ in range(p):
            symbols[pos] = s
            pos = (pos + step) & mask
            while pos > high:
                pos = (pos + step) & mask
    if pos != 0:
        raise ValueError("zstd: FSE table spread error")
    nxt = dict(counts)
    table = [None] * size
    for i in range(size):
        s = symbols[i]
        x = nxt[s]
        nxt[s] += 1
        nb = al - (x.bit_length() - 1)
        table[i] = (s, nb, (x << nb) - size)
    return table


def _fse_rle_table(symbol: int):
    return [(symbol, 0, 0)]


# ----------------------------------------------------- Huffman
def _huf_build(weights):
    """weights (w=0 unused) → (max_bits, symbol table, nbits table)
    as flat lists of size 1 << max_bits."""
    total = sum((1 << (w - 1)) for w in weights if w > 0)
    if total == 0:
        raise ValueError("zstd: empty Huffman table")
    max_bits = (total - 1).bit_length() if total > 1 else 1
    # last weight is implied by the caller; here weights are complete
    bits = [0 if w == 0 else max_bits + 1 - w for w in weights]
    rank_count = [0] * (max_bits + 1)
    for b in bits:
        rank_count[b] += 1
    rank_idx = [0] * (max_bits + 2)
    rank_idx[max_bits] = 0
    for i in range(max_bits, 0, -1):
        rank_idx[i - 1] = rank_idx[i] + rank_count[i] * (1 << (max_bits - i))
    size = 1 << max_bits
    sym_t = [0] * size
    nb_t = [0] * size
    for s, b in enumerate(bits):
        if b == 0:
            continue
        code = rank_idx[b]
        ln = 1 << (max_bits - b)
        for j in range(code, code + ln):
            sym_t[j] = s
            nb_t[j] = b
        rank_idx[b] += ln
    return max_bits, sym_t, nb_t


def _huf_read_weights(data: bytes, pos: int):
    """Huffman tree description → (weights incl. the implied last,
    new pos)."""
    hbyte = data[pos]
    pos += 1
    if hbyte >= 128:
        n = hbyte - 127
        weights = []
        for i in range(n):
            b = data[pos + (i >> 1)]
            weights.append((b >> 4) if i % 2 == 0 else (b & 0x0F))
        pos += (n + 1) // 2
    else:
        comp = data[pos:pos + hbyte]
        pos += hbyte
        br = LsbReader(comp)
        al, probs = _fse_read_distribution(br, 255)
        if al > 6:
            raise ValueError("zstd: Huffman-weight FSE accuracy > 6")
        table = _fse_build_dtable(al, probs)
        stream = comp[(br.pos + 7) >> 3:]
        bb = _BackBits(stream)
        s1 = bb.read(al)
        s2 = bb.read(al)
        weights = []
        while True:
            sym, nb, base = table[s1]
            weights.append(sym)
            s1 = base + bb.read(nb)
            if bb.exhausted:
                weights.append(table[s2][0])
                break
            sym, nb, base = table[s2]
            weights.append(sym)
            s2 = base + bb.read(nb)
            if bb.exhausted:
                weights.append(table[s1][0])
                break
            if len(weights) > 255:
                raise ValueError("zstd: too many Huffman weights")
    # implied last weight: remainder to the next power of two
    total = sum((1 << (w - 1)) for w in weights if w > 0)
    if total == 0:
        raise ValueError("zstd: bad Huffman weights")
    size = 1 << total.bit_length()
    left = size - total
    if left & (left - 1):
        raise ValueError("zstd: Huffman weights don't sum to 2^n-1")
    weights.append(left.bit_length())
    return weights, pos


def _huf_decode_stream(data: bytes, max_bits, sym_t, nb_t,
                       nout: int) -> bytes:
    bb = _BackBits(data)
    out = bytearray(nout)
    mask = (1 << max_bits) - 1
    # peek-based: maintain a window
    for i in range(nout):
        bb.pos -= max_bits
        p = bb.pos
        v = 0
        for k in range(max_bits):
            bp = p + k
            if bp >= 0:
                v |= ((data[bp >> 3] >> (bp & 7)) & 1) << k
        idx = v & mask
        out[i] = sym_t[idx]
        bb.pos += max_bits - nb_t[idx]
        if bb.pos < 0:
            raise ValueError("zstd: Huffman stream overrun")
    return bytes(out)


# ----------------------------------------------------- code tables
_LL_BASE = (list(range(16)) +
            [16, 18, 20, 22, 24, 28, 32, 40, 48, 64, 128, 256, 512,
             1024, 2048, 4096, 8192, 16384, 32768, 65536])
_LL_BITS = ([0] * 16 +
            [1, 1, 1, 1, 2, 2, 3, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13,
             14, 15, 16])
_ML_BASE = ([i + 3 for i in range(32)] +
            [35, 37, 39, 41, 43, 47, 51, 59, 67, 83, 99, 131, 259,
             515, 1027, 2051, 4099, 8195, 16387, 32771, 65539])
_ML_BITS = ([0] * 32 +
            [1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 7, 8, 9, 10, 11, 12,
             13, 14, 15, 16])

_LL_DEFAULT = (6, [4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1,
                   2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 1, 1, 1, 1, 1,
                   -1, -1, -1, -1])
_ML_DEFAULT = (6, [1, 4, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1,
                   -1, -1, -1, -1, -1, -1])
_OF_DEFAULT = (5, [1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1])

_MAX_SYMBOL = {"ll": 35, "ml": 52, "of": 31}
_MAX_AL = {"ll": 9, "ml": 9, "of": 8}


# ----------------------------------------------------- frame decode
class _FrameState:
    def __init__(self):
        self.huf = None                  # (max_bits, sym_t, nb_t)
        self.fse = {"ll": None, "ml": None, "of": None}


def _decode_literals(data: bytes, pos: int, st: _FrameState):
    b0 = data[pos]
    ltype = b0 & 3
    sf = (b0 >> 2) & 3
    if ltype in (0, 1):                  # raw / RLE
        if sf in (0, 2):
            regen = b0 >> 3
            pos += 1
        elif sf == 1:
            regen = (b0 >> 4) | (data[pos + 1] << 4)
            pos += 2
        else:
            regen = ((b0 >> 4) | (data[pos + 1] << 4)
                     | (data[pos + 2] << 12))
            pos += 3
        if ltype == 0:
            lit = data[pos:pos + regen]
            pos += regen
        else:
            lit = bytes([data[pos]]) * regen
            pos += 1
        return lit, pos
    # compressed (2) / treeless (3)
    if sf in (0, 1):
        regen = (b0 >> 4) | ((data[pos + 1] & 0x3F) << 4)
        comp = (data[pos + 1] >> 6) | (data[pos + 2] << 2)
        pos += 3
        streams = 1 if sf == 0 else 4
    elif sf == 2:
        regen = (b0 >> 4) | (data[pos + 1] << 4) \
            | ((data[pos + 2] & 3) << 12)
        comp = (data[pos + 2] >> 2) | (data[pos + 3] << 6)
        pos += 4
        streams = 4
    else:
        regen = (b0 >> 4) | (data[pos + 1] << 4) \
            | ((data[pos + 2] & 0x3F) << 12)
        comp = (data[pos + 2] >> 6) | (data[pos + 3] << 2) \
            | (data[pos + 4] << 10)
        pos += 5
        streams = 4
    end = pos + comp
    if ltype == 2:
        weights, pos = _huf_read_weights(data, pos)
        st.huf = _huf_build(weights)
    elif st.huf is None:
        raise ValueError("zstd: treeless literals without a table")
    max_bits, sym_t, nb_t = st.huf
    if streams == 1:
        lit = _huf_decode_stream(data[pos:end], max_bits, sym_t,
                                 nb_t, regen)
    else:
        s1, s2, s3 = struct.unpack_from("<HHH", data, pos)
        pos += 6
        part = (regen + 3) // 4
        sizes_out = [part, part, part, regen - 3 * part]
        sizes_in = [s1, s2, s3, end - pos - s1 - s2 - s3]
        lit = b""
        for so, si in zip(sizes_out, sizes_in):
            lit += _huf_decode_stream(data[pos:pos + si], max_bits,
                                      sym_t, nb_t, so)
            pos += si
    return lit, end


def _read_seq_table(data, pos, mode, kind, st: _FrameState):
    if mode == 0:                        # predefined
        al, probs = {"ll": _LL_DEFAULT, "ml": _ML_DEFAULT,
                     "of": _OF_DEFAULT}[kind]
        table = _fse_build_dtable(al, probs)
        st.fse[kind] = (al, table)
        return pos
    if mode == 1:                        # RLE: single symbol byte
        st.fse[kind] = (0, _fse_rle_table(data[pos]))
        return pos + 1
    if mode == 2:                        # FSE-compressed
        br = LsbReader(data, pos * 8)
        al, probs = _fse_read_distribution(br, _MAX_SYMBOL[kind])
        if al > _MAX_AL[kind]:
            raise ValueError(f"zstd: {kind} accuracy log {al}")
        st.fse[kind] = (al, _fse_build_dtable(al, probs))
        return (br.pos + 7) >> 3
    if st.fse[kind] is None:             # repeat
        raise ValueError("zstd: repeat mode without previous table")
    return pos


def _decode_block(data: bytes, st: _FrameState, out: bytearray,
                  rep: list) -> None:
    lit, pos = _decode_literals(data, 0, st)
    # sequences header
    b0 = data[pos]
    pos += 1
    if b0 == 0:
        out += lit
        return
    if b0 < 128:
        nseq = b0
    elif b0 < 255:
        nseq = ((b0 - 128) << 8) + data[pos]
        pos += 1
    else:
        nseq = data[pos] + (data[pos + 1] << 8) + 0x7F00
        pos += 2
    modes = data[pos]
    pos += 1
    pos = _read_seq_table(data, pos, (modes >> 6) & 3, "ll", st)
    pos = _read_seq_table(data, pos, (modes >> 4) & 3, "of", st)
    pos = _read_seq_table(data, pos, (modes >> 2) & 3, "ml", st)
    ll_al, ll_t = st.fse["ll"]
    of_al, of_t = st.fse["of"]
    ml_al, ml_t = st.fse["ml"]
    bb = _BackBits(data[pos:])
    s_ll = bb.read(ll_al)
    s_of = bb.read(of_al)
    s_ml = bb.read(ml_al)
    lit_pos = 0
    for i in range(nseq):
        of_code = of_t[s_of][0]
        ml_code = ml_t[s_ml][0]
        ll_code = ll_t[s_ll][0]
        ofv = (1 << of_code) + bb.read(of_code)
        ml = _ML_BASE[ml_code] + bb.read(_ML_BITS[ml_code])
        ll = _LL_BASE[ll_code] + bb.read(_LL_BITS[ll_code])
        if bb.exhausted:
            raise ValueError("zstd: sequence bitstream overrun")
        # repeat-offset resolution
        if ofv > 3:
            offset = ofv - 3
            rep[2] = rep[1]
            rep[1] = rep[0]
            rep[0] = offset
        else:
            idx = ofv - 1 + (1 if ll == 0 else 0)
            if idx == 0:
                offset = rep[0]
            else:
                offset = rep[0] - 1 if idx == 3 else rep[idx]
                if offset == 0:
                    raise ValueError("zstd: zero repeat offset")
                if idx != 1:
                    rep[2] = rep[1]
                rep[1] = rep[0]
                rep[0] = offset
        # execute
        out += lit[lit_pos:lit_pos + ll]
        lit_pos += ll
        if offset > len(out):
            raise ValueError("zstd: match offset beyond history")
        if ml:
            if offset >= ml:
                start = len(out) - offset
                out += out[start:start + ml]
            else:
                start = len(out) - offset
                m = ml
                while m > 0:
                    take = min(offset, m)
                    out += out[start:start + take]
                    start += take
                    m -= take
        if i < nseq - 1:
            s_ll = ll_t[s_ll][2] + bb.read(ll_t[s_ll][1])
            s_ml = ml_t[s_ml][2] + bb.read(ml_t[s_ml][1])
            s_of = of_t[s_of][2] + bb.read(of_t[s_of][1])
    out += lit[lit_pos:]


def zstd_decompress(data: bytes, expected: int | None = None) -> bytes:
    out = bytearray()
    pos = 0
    n = len(data)
    while pos < n:
        (magic,) = struct.unpack_from("<I", data, pos)
        if (magic & 0xFFFFFFF0) == 0x184D2A50:     # skippable frame
            (size,) = struct.unpack_from("<I", data, pos + 4)
            pos += 8 + size
            continue
        if magic != _MAGIC:
            raise ValueError("zstd: bad magic")
        pos += 4
        fhd = data[pos]
        pos += 1
        single = bool(fhd & 0x20)
        checksum = bool(fhd & 0x04)
        did_flag = fhd & 3
        fcs_flag = fhd >> 6
        if not single:
            pos += 1                     # window descriptor
        pos += (0, 1, 2, 4)[did_flag]
        if did_flag:
            raise ValueError("zstd: dictionaries not supported")
        if fcs_flag == 0:
            pos += 1 if single else 0
        elif fcs_flag == 1:
            pos += 2
        elif fcs_flag == 2:
            pos += 4
        else:
            pos += 8
        st = _FrameState()
        rep = [1, 4, 8]
        while True:
            bh = data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16)
            pos += 3
            last = bh & 1
            btype = (bh >> 1) & 3
            bsize = bh >> 3
            if btype == 0:
                out += data[pos:pos + bsize]
                pos += bsize
            elif btype == 1:
                out += bytes([data[pos]]) * bsize
                pos += 1
            elif btype == 2:
                _decode_block(data[pos:pos + bsize], st, out, rep)
                pos += bsize
            else:
                raise ValueError("zstd: reserved block type")
            if last:
                break
        if checksum:
            pos += 4
    if expected is not None and len(out) != expected:
        raise ValueError(f"zstd: got {len(out)} bytes, "
                         f"expected {expected}")
    return bytes(out)


def zstd_compress(data: bytes) -> bytes:
    """Store-mode zstd frame: raw blocks only (valid per RFC 8878,
    no entropy coding)."""
    out = bytearray(struct.pack("<I", _MAGIC))
    # frame header: single-segment off, content size 8-byte form
    out.append((3 << 6) | 0)             # FCS 8 bytes, no checksum
    # window descriptor: exponent such that window >= 128K
    out.append(0x58)                     # 2^(10+11)=... generous
    out += struct.pack("<Q", len(data))
    step = 1 << 20
    if not data:
        out += b"\x01\x00\x00"           # last empty raw block
        return bytes(out)
    for i in range(0, len(data), step):
        chunk = data[i:i + step]
        last = 1 if i + step >= len(data) else 0
        bh = last | (0 << 1) | (len(chunk) << 3)
        out += struct.pack("<I", bh)[:3]
        out += chunk
    return bytes(out)


# ----------------------------------------------------- snappy
def snappy_decompress(data: bytes) -> bytes:
    # varint uncompressed length
    n = 0
    shift = 0
    pos = 0
    while True:
        b = data[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    out = bytearray()
    ln = len(data)
    while pos < ln:
        tag = data[pos]
        pos += 1
        t = tag & 3
        if t == 0:                       # literal
            l = (tag >> 2) + 1
            if l > 60:
                nb = l - 60
                l = int.from_bytes(data[pos:pos + nb], "little") + 1
                pos += nb
            out += data[pos:pos + l]
            pos += l
            continue
        if t == 1:
            l = ((tag >> 2) & 7) + 4
            off = ((tag >> 5) << 8) | data[pos]
            pos += 1
        elif t == 2:
            l = (tag >> 2) + 1
            off = data[pos] | (data[pos + 1] << 8)
            pos += 2
        else:
            l = (tag >> 2) + 1
            off = int.from_bytes(data[pos:pos + 4], "little")
            pos += 4
        if off == 0 or off > len(out):
            raise ValueError("snappy: bad copy offset")
        start = len(out) - off
        while l > 0:
            take = min(off, l)
            out += out[start:start + take]
            start += take
            l -= take
    if len(out) != n:
        raise ValueError("snappy: length mismatch")
    return bytes(out)
