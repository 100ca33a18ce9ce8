"""codecs/_bits.py: the shared bit readers, writers, LZW decoder and
field unpacking, checked against test-side references (the LZW
encoders in lzw_synth.py and a bit-string model of unpacking), plus
the robustness contract of the LZW codecs and an AST ratchet that
keeps the copies _bits.py replaced from coming back."""

from __future__ import annotations

import ast
import pathlib
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdal_ray.codecs._bits import (LsbReader, LsbWriter, MsbReader,
                                   MsbWriter, lzw_decode, unpack_fields,
                                   unpack_rows)
from lzw_synth import gif_lzw, lzw_codes, lzw_encode, tiff_lzw

PKG = pathlib.Path(__file__).resolve().parent.parent / "gdal_ray"


def _bitstring(buf: bytes, lsb: bool) -> str:
    return "".join(f"{b:08b}"[::-1] if lsb else f"{b:08b}" for b in buf)


def _field(s: str, lsb: bool) -> int:
    return int(s[::-1] if lsb else s, 2) if s else 0


# ------------------------------------------------------------ readers
@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=24), st.lists(st.integers(0, 40), max_size=12),
       st.booleans())
def test_reader_matches_bit_string_model(buf, widths, lsb):
    """get/peek/align against a string of the stream's bits; reads past
    the end see zero bits and never raise."""
    bits = _bitstring(buf, lsb)
    br = (LsbReader if lsb else MsbReader)(buf)
    pos = 0
    for n in widths:
        want = _field(bits[pos:pos + n].ljust(n, "0"), lsb)
        assert br.peek(n) == want
        assert br.get(n) == want
        pos += n
        assert br.pos == pos
        if n % 3 == 0:
            br.align()
            pos = (pos + 7) // 8 * 8
            assert br.pos == pos


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 40), st.integers(0, 40)),
                max_size=40), st.booleans())
def test_writer_reader_roundtrip(items, lsb):
    bw = LsbWriter() if lsb else MsbWriter()
    for v, n in items:
        bw.put(v, n)
    buf = bw.finish()
    assert len(buf) == (sum(n for _, n in items) + 7) // 8
    br = (LsbReader if lsb else MsbReader)(buf)
    for v, n in items:
        assert br.get(n) == v & ((1 << n) - 1)
    assert br.get(8 - br.pos % 8 if br.pos % 8 else 0) == 0   # zero pad


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 8)),
                max_size=10), st.lists(st.integers(0, 1), max_size=40))
def test_lsb_put_bits_matches_put(head, bits):
    a, b = LsbWriter(), LsbWriter()
    for v, n in head:
        a.put(v, n)
        b.put(v, n)
    a.put_bits(np.array(bits, np.uint8))
    for bit in bits:
        b.put(bit, 1)
    assert a.finish() == b.finish()


# ------------------------------------------------------------ unpack
@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40), st.integers(1, 40), st.integers(0, 60),
       st.integers(0, 20), st.booleans())
def test_unpack_fields_matches_model(buf, nbits, count, offset, lsb):
    """Short buffers included: missing bits read as zero."""
    bits = _bitstring(buf, lsb)[offset:].ljust(nbits * count, "0")
    want = [_field(bits[i * nbits:(i + 1) * nbits], lsb)
            for i in range(count)]
    got = unpack_fields(buf, nbits, count, bit_offset=offset, lsb=lsb)
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(1, 16),
       st.integers(0, 40), st.randoms(use_true_random=False))
def test_unpack_rows_matches_model(h, rowbytes, nbits, width, rnd):
    """Each row restarts on a byte; rows too short read as zero."""
    rows = np.frombuffer(rnd.randbytes(h * rowbytes), np.uint8)\
        .reshape(h, rowbytes)
    want = [[_field(_bitstring(r.tobytes(), False)
                    .ljust(width * nbits, "0")[i * nbits:(i + 1) * nbits],
                    False) for i in range(width)] for r in rows]
    got = unpack_rows(rows, nbits, width)
    assert got.shape == (h, width)
    assert got.dtype == (np.uint8 if nbits <= 8 else np.int64)
    assert got.tolist() == want


# ------------------------------------------------------------ LZW
_VARIANTS = {
    "tiff": dict(lsb=False, min_bits=8, early_change=1),
    "pdf_early0": dict(lsb=False, min_bits=8, early_change=0),
    "gif": dict(lsb=True, min_bits=8, early_change=0),
    "gif4": dict(lsb=True, min_bits=4, early_change=0),
}


@pytest.mark.parametrize("name", list(_VARIANTS))
@pytest.mark.parametrize("alphabet,size,clear_every", [
    (4, 30000, None),           # long strings, KwKwK, 12-bit codes, CLEAR
    (256, 12000, None),         # table fills: CLEAR at 4096 entries
    (16, 3000, 37),             # CLEAR every 37 codes
    (3, 1, None), (3, 0, None)])
def test_lzw_roundtrip(name, alphabet, size, clear_every):
    kw = _VARIANTS[name]
    alphabet = min(alphabet, 1 << kw["min_bits"])
    data = np.random.default_rng(size).integers(0, alphabet, size)\
        .astype(np.uint8).tobytes()
    codes = lzw_codes(data, min_bits=kw["min_bits"],
                      early_change=kw["early_change"],
                      clear_every=clear_every)
    if size > 10000:
        assert max(w for _, w in codes) == 12
        assert sum(c == 1 << kw["min_bits"] for c, _ in codes) > 1
    enc = lzw_encode(data, clear_every=clear_every, **kw)
    assert lzw_decode(enc, **kw) == data
    assert lzw_decode(enc, limit=size // 2, **kw) == data[:size // 2]


def test_lzw_stops_at_a_partial_code():
    enc = tiff_lzw(b"abcabcabc")
    full = lzw_decode(enc, lsb=False, min_bits=8, early_change=1)
    cut = lzw_decode(enc[:3], lsb=False, min_bits=8, early_change=1)
    assert full == b"abcabcabc" and cut == b"a"    # 2 whole 9-bit codes


@pytest.mark.parametrize("stream", [
    b"\xff\xff\xff",                               # first code 511
    bytes([0x80, 0x00 | 0x20, 0x3f, 0xf0])])       # CLEAR, 'A', 511
def test_tiff_corrupt_lzw_raises_valueerror(stream):
    """Through the compression-5 path; libtiff rejects a code beyond
    the next free slot ("Corrupted LZW table")."""
    from gdal_ray.codecs.gtiff import _decompress
    with pytest.raises(ValueError, match="LZW"):
        _decompress(stream, 5)


def test_gif_corrupt_lzw_raises_valueerror():
    from gdal_ray.codecs.gif import decode_gif, encode_gif
    idx = (np.arange(64).reshape(8, 8) % 5).astype(np.uint8)
    buf = bytearray(encode_gif(idx, np.zeros((8, 3), np.uint8)))
    # image descriptor (10 bytes) + min code size + sub-block length
    data = buf.index(b"\x2c") + 10 + 2
    buf[data:data + 2] = b"\xff\xff"
    with pytest.raises(ValueError, match="LZW"):
        decode_gif(bytes(buf))
    # a code past the next free slot after a valid first code
    bad = gif_lzw(bytes(10), 3)[:1] + b"\xff\xff"
    with pytest.raises(ValueError, match="LZW"):
        lzw_decode(bad, lsb=True, min_bits=3, early_change=0)


def _pdf_lzw(parms):
    from gdal_ray.codecs.pdf import PdfFile, Stream, decode_stream
    d = {"Filter": "LZWDecode"}
    if parms is not None:
        d["DecodeParms"] = parms
    data = bytes(np.random.default_rng(1).integers(0, 3, 4000)
                 .astype(np.uint8))
    early = 1 if parms is None else parms["EarlyChange"]
    body = lzw_encode(data, lsb=False, min_bits=8, early_change=early)
    return data, decode_stream(PdfFile(b"%PDF-1.4\n%%EOF\n"),
                               Stream(d, body))


@pytest.mark.parametrize("parms", [None, {"EarlyChange": 1},
                                   {"EarlyChange": 0}])
def test_pdf_lzw_honours_early_change(parms):
    data, got = _pdf_lzw(parms)
    assert got == data


# ------------------------------------------------------------ robustness
def _mangle(buf: bytes, cut: int, flips: list[int]) -> bytes:
    b = bytearray(buf[:max(0, len(buf) - cut)])
    for f in flips:
        if b:
            b[f % len(b)] ^= 1 << (f % 8)
    return bytes(b)


def _only_valueerror(fn, limit_s=2.0):
    t0 = time.perf_counter()
    try:
        fn()
    except ValueError:
        pass
    assert time.perf_counter() - t0 < limit_s


_SRC = bytes(np.random.default_rng(7).integers(0, 6, 3000)
             .astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_VARIANTS)), st.integers(0, 400),
       st.lists(st.integers(0, 1 << 20), max_size=6))
def test_lzw_decode_fuzz_only_valueerror(name, cut, flips):
    kw = _VARIANTS[name]
    enc = lzw_encode(bytes(v & ((1 << kw["min_bits"]) - 1) for v in _SRC),
                     **kw)
    _only_valueerror(lambda: lzw_decode(_mangle(enc, cut, flips), **kw))


def _gif_file():
    from gdal_ray.codecs.gif import encode_gif
    idx = (np.random.default_rng(3).integers(0, 7, (40, 50))
           .astype(np.uint8))
    return encode_gif(idx, np.zeros((8, 3), np.uint8), transparent=2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 600), st.lists(st.integers(0, 1 << 20),
                                     max_size=6))
def test_decode_gif_fuzz_only_valueerror(cut, flips):
    from gdal_ray.codecs.gif import decode_gif
    buf = _mangle(_gif_file(), cut, flips)
    _only_valueerror(lambda: decode_gif(buf))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 120), st.lists(st.integers(0, 1 << 20),
                                     max_size=6))
def test_rik_lzw_fuzz_only_valueerror(cut, flips):
    from gdal_ray.codecs.rik import _LZW
    from test_rik import _lzw_encode_literals
    px = np.random.default_rng(5).integers(0, 256, 16 * 12)
    buf = _mangle(_lzw_encode_literals(px), cut, flips)
    _only_valueerror(lambda: _LZW(buf, 16, 12).decode())


def test_rik_lzw_max_bits_below_code_width_is_valueerror():
    # a header claiming 5-bit codes once indexed the 32-slot table with
    # a 9-bit code (IndexError; the fuzz test above found it)
    from gdal_ray.codecs.rik import _LZW
    from test_rik import _lzw_encode_literals
    px = np.random.default_rng(5).integers(0, 256, 16 * 12)
    buf = _mangle(_lzw_encode_literals(px), 52, [297275])
    with pytest.raises(ValueError, match="max bits"):
        _LZW(buf, 16, 12).decode()


# ------------------------------------------------------------ DWG codes
def test_dwg_bytes_at_a_bit_offset():
    from gdal_ray.sources.cad import DwgReader
    buf = bytes(range(1, 40))
    bits = _bitstring(buf, False)
    for off in range(9):
        rd = DwgReader(buf, off)
        assert rd.rl() == struct.unpack(
            "<i", int(bits[off:off + 32], 2).to_bytes(4, "big"))[0]
        assert rd.pos == off + 32
    rd = DwgReader(buf, 8 * len(buf) - 4)
    assert rd.rs() == struct.unpack("<h", bytes([buf[-1] << 4 & 0xFF,
                                                 0]))[0]


# ------------------------------------------------------------ ratchet
# the bit-level code that stays outside _bits.py, and why; may only
# shrink
ALLOWED = {
    ("codecs/rmf.py", "_lzw_decompress"):
        "its codes are hash-table slots: a different algorithm",
    ("codecs/rik.py", "_LZW"):
        "realigns code groups on a width change and emits pixels "
        "bottom-up",
    ("codecs/jp2.py", "_HdrBits"):
        "skips one stuffed bit after each 0xFF byte",
    ("codecs/zstd.py", "_BackBits"):
        "reads the stream backwards from a sentinel bit",
}


def _is_bit_io(node, nested: bool) -> bool:
    name = node.name
    if isinstance(node, ast.ClassDef):
        return name.endswith(("BitReader", "BitWriter", "Bits")) \
            or "LZW" in name.upper()
    return "lzw" in name.lower() and "encode" not in name.lower() \
        or name == "_unpack_bits" \
        or (nested and name in ("getbits", "grab", "take"))


def _bit_io_defs():
    found = set()
    for path in PKG.rglob("*.py"):
        rel = path.relative_to(PKG).as_posix()
        if rel == "codecs/_bits.py":
            continue

        def walk(node, nested):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    if _is_bit_io(child, nested):
                        found.add((rel, child.name))
                    walk(child, nested or
                         isinstance(child, ast.FunctionDef))
                else:
                    walk(child, nested)
        walk(ast.parse(path.read_text()), False)
    return found


def test_no_bit_io_copies_outside_bits_module():
    assert _bit_io_defs() == set(ALLOWED)


def test_allow_list_only_shrinks():
    assert len(ALLOWED) <= 4
