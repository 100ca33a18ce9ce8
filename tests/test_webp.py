"""WebP codec: container parity with the reference autotest fixtures
(frmts/webp/webpdataset.cpp driver, autotest/gdrivers/webp.py), VP8L
lossless bitstream roundtrip (literal subset), failing-fast plug point
for lossy VP8."""

import os

import numpy as np
import pytest

from gdal_ray.codecs.webp import (decode_webp, decode_webp_lossless,
                                  encode_webp_lossless, sniff_webp,
                                  webp_info)

FIX = "/root/reference/autotest/gdrivers/data/webp"


@pytest.mark.skipif(not os.path.isdir(FIX), reason="reference absent")
class TestContainerParity:
    def test_lossy_fixture_info(self):
        buf = open(f"{FIX}/rgbsmall.webp", "rb").read()
        assert sniff_webp(buf)
        i = webp_info(buf)
        # gdrivers/webp.py test_webp_2 opens this as a 50x50 RGB raster
        assert (i.width, i.height) == (50, 50)
        assert i.flavor == "lossy" and not i.has_alpha and not i.has_xmp

    def test_vp8x_fixture_with_metadata(self):
        buf = open(f"{FIX}/rgbsmall_with_xmp.webp", "rb").read()
        i = webp_info(buf)
        assert (i.width, i.height) == (50, 50)
        assert i.flavor == "extended"
        assert i.has_xmp            # legacy META chunk carries the XMP

    def test_lossy_decode_own_vp8(self):
        """Lossy VP8 decodes with the own RFC 6386 decoder
        (codecs/vp8.py) — no libwebp needed; band-1 checksum must
        match the reference's own expectation
        (autotest/gdrivers/webp.py:30-34)."""
        from gdal_ray.core.checksum import checksum
        buf = open(f"{FIX}/rgbsmall.webp", "rb").read()
        img = decode_webp(buf)
        assert img.shape == (50, 50, 4)
        assert int(checksum(img[:, :, 0])) in (21464, 21450, 21459)


class TestLosslessRoundtrip:
    def test_rgb_noise(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (37, 23, 3), np.uint8)
        back = decode_webp_lossless(encode_webp_lossless(img))
        assert back.shape == (37, 23, 4)
        assert (back[:, :, :3] == img).all()
        assert (back[:, :, 3] == 255).all()

    def test_rgba_and_single_symbol_channels(self):
        img = np.zeros((9, 9, 4), np.uint8)
        img[:, :, 1] = 77
        img[:, :, 3] = 200
        back = decode_webp_lossless(encode_webp_lossless(img))
        assert (back == img).all()

    def test_gradient_tile(self):
        g = (np.add.outer(np.arange(64), np.arange(64)) % 256).astype(np.uint8)
        img = np.stack([g, g.T, 255 - g], axis=-1)
        back = decode_webp_lossless(encode_webp_lossless(img))
        assert (back[:, :, :3] == img).all()

    def test_grayscale_promotes(self):
        g = (np.arange(100, dtype=np.uint8).reshape(10, 10))
        back = decode_webp_lossless(encode_webp_lossless(g))
        assert (back[:, :, 0] == g).all() and (back[:, :, 1] == g).all()

    def test_riff_layout_is_spec_conformant(self):
        import struct
        buf = encode_webp_lossless(np.zeros((5, 7, 3), np.uint8))
        assert buf[:4] == b"RIFF" and buf[8:12] == b"WEBP"
        assert buf[12:16] == b"VP8L"
        (riff_size,) = struct.unpack_from("<I", buf, 4)
        assert 8 + riff_size == len(buf)
        assert buf[20] == 0x2F                     # VP8L signature
        i = webp_info(buf)
        assert (i.width, i.height, i.flavor) == (7, 5, "lossless")

    def test_codec_registry_dispatch(self):
        from gdal_ray.codecs import decode, encode
        img = np.full((6, 6, 3), 42, np.uint8)
        buf = encode(img, "webp")
        assert (decode(buf)[:, :, :3] == img).all()     # magic sniff
        assert (decode(buf, "webp")[:, :, :3] == img).all()


# ---------------------------------------------------------------------------
# full VP8L conformance: crafted spec streams + libwebp as oracle
# ---------------------------------------------------------------------------

def _have_libwebp():
    from webp_sys import system_available
    return system_available()


def _sym_for_value(v):
    """Inverse of the LZ77 length/distance prefix-value scheme."""
    if v <= 4:
        return v - 1, 0, 0
    for sym in range(4, 40):
        extra = (sym - 2) >> 1
        offset = (2 + (sym & 1)) << extra
        lo, hi = offset + 1, offset + (1 << extra)
        if lo <= v <= hi:
            return sym, v - lo, extra
    raise ValueError(v)


class _Crafter:
    """Hand-writes spec-level VP8L bitstreams (the features the own
    ENCODER does not emit) so the decoder's LZ77/cache/meta/transform
    paths are tested bit-by-bit; libwebp cross-checks every stream."""

    def __init__(self, w, h):
        from gdal_ray.codecs._bits import LsbWriter
        self.bw = LsbWriter()
        self.w, self.h = w, h
        self.bw.put(w - 1, 14)
        self.bw.put(h - 1, 14)
        self.bw.put(0, 1)
        self.bw.put(0, 3)

    def emit_codes_and_literals(self, ops, cache_size=0):
        """ops: list of ('lit', a, r, g, b) | ('ref', length, dist_code)
        | ('cache', idx). Builds the 5 prefix codes from the op
        histogram and emits the coded pixels."""
        import numpy as np
        from gdal_ray.codecs.webp import (_huffman_lengths,
                                          _write_code_lengths,
                                          _PrefixEncoder)
        gf = np.zeros(256 + 24 + cache_size, np.int64)
        rf = np.zeros(256, np.int64)
        bf = np.zeros(256, np.int64)
        af = np.zeros(256, np.int64)
        df = np.zeros(40, np.int64)
        plan = []
        for op in ops:
            if op[0] == "lit":
                _, a, r, g, b = op
                gf[g] += 1; rf[r] += 1; bf[b] += 1; af[a] += 1
                plan.append(("lit", a, r, g, b))
            elif op[0] == "ref":
                _, length, dist_code = op
                ls, lev, leb = _sym_for_value(length)
                ds, dev, deb = _sym_for_value(dist_code)
                gf[256 + ls] += 1
                df[ds] += 1
                plan.append(("ref", ls, lev, leb, ds, dev, deb))
            else:
                _, idx = op
                gf[280 + idx] += 1
                plan.append(("cache", idx))
        lens = [_huffman_lengths(f) for f in (gf, rf, bf, af, df)]
        if not lens[4].any():
            lens[4][0] = 1                   # dummy distance code
        encs = []
        for ln in lens:
            _write_code_lengths(self.bw, ln)
            encs.append(_PrefixEncoder(ln))
        eg, er, eb, ea, ed = encs
        for p in plan:
            if p[0] == "lit":
                _, a, r, g, b = p
                eg.emit(self.bw, g); er.emit(self.bw, r)
                eb.emit(self.bw, b); ea.emit(self.bw, a)
            elif p[0] == "ref":
                _, ls, lev, leb, ds, dev, deb = p
                eg.emit(self.bw, 256 + ls)
                if leb:
                    self.bw.put(lev, leb)
                ed.emit(self.bw, ds)
                if deb:
                    self.bw.put(dev, deb)
            else:
                eg.emit(self.bw, 280 + p[1])

    def subimage(self, ops):
        """Entropy-coded subimage: [cache bit 0][codes][pixels]."""
        self.bw.put(0, 1)
        self.emit_codes_and_literals(ops)

    def finish(self):
        import struct
        payload = b"\x2f" + self.bw.finish()
        pad = b"\x00" if len(payload) & 1 else b""
        chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload + pad
        riff = b"WEBP" + chunk
        return b"RIFF" + struct.pack("<I", len(riff)) + riff


def _lits(vals):
    return [("lit", a, r, g, b) for (a, r, g, b) in vals]


class TestDistMap:
    def test_all_120_codes_copy_from_mapped_offset(self):
        """Each of the 120 2D distance codes must copy from exactly the
        (dx, dy) neighbor in _DIST_MAP (extracted from libwebp;
        re-verified here against the own decoder, and against libwebp
        when present)."""
        from gdal_ray.codecs.webp import _DIST_MAP, decode_webp_lossless
        W, H, NPRE = 17, 10, 161
        oracle = _have_libwebp()
        if oracle:
            from webp_sys import decode_webp_system
        for k in (1, 2, 3, 4, 7, 19, 40, 77, 96, 104, 119, 120):
            c = _Crafter(W, H)
            c.bw.put(0, 1)        # no transform
            c.bw.put(0, 1)        # no cache
            c.bw.put(0, 1)        # no meta
            ops = _lits([(255, 1, i % 256, 2) for i in range(NPRE)])
            ops.append(("ref", 1, k))
            ops += _lits([(255, 1, (NPRE + 1 + j) % 256, 2)
                          for j in range(W * H - NPRE - 1)])
            c.emit_codes_and_literals(ops)
            buf = c.finish()
            got = decode_webp_lossless(buf)
            dx, dy = _DIST_MAP[k - 1]
            dist = max(dx + dy * W, 1)
            g = got[:, :, 1].ravel()
            assert g[NPRE] == g[NPRE - dist], k
            if oracle:
                assert np.array_equal(got, decode_webp_system(buf)), k

    def test_long_reference_and_plain_distance(self):
        from gdal_ray.codecs.webp import decode_webp_lossless
        W, H = 20, 6
        c = _Crafter(W, H)
        c.bw.put(0, 1); c.bw.put(0, 1); c.bw.put(0, 1)
        ops = _lits([(255, i, i, i) for i in range(30)])
        # plain distance (code 120 + 25 = dist 25), overlapping length 60
        ops.append(("ref", 60, 120 + 25))
        ops += _lits([(255, 0, 9, 0) for _ in range(W * H - 90)])
        c.emit_codes_and_literals(ops)
        got = decode_webp_lossless(c.finish())
        g = got[:, :, 1].ravel()
        for i in range(60):
            assert g[30 + i] == g[30 + i - 25]
        if _have_libwebp():
            from webp_sys import decode_webp_system
            assert np.array_equal(got, decode_webp_system(c.finish()))


class TestColorCacheCrafted:
    def test_cache_hits(self):
        from gdal_ray.codecs.webp import decode_webp_lossless
        W, H, CB = 8, 4, 4
        vals = [(255, 10, 20, 30), (255, 40, 50, 60), (200, 1, 2, 3)]

        def key(a, r, g, b):
            v = (a << 24) | (r << 16) | (g << 8) | b
            return ((0x1E35A7BD * v) & 0xFFFFFFFF) >> (32 - CB)

        c = _Crafter(W, H)
        c.bw.put(0, 1)            # no transform
        c.bw.put(1, 1)            # color cache
        c.bw.put(CB, 4)
        c.bw.put(0, 1)            # no meta
        ops = _lits(vals)
        for v in (vals * 10)[:W * H - 3]:
            ops.append(("cache", key(*v)))
        c.emit_codes_and_literals(ops, cache_size=1 << CB)
        buf = c.finish()
        got = decode_webp_lossless(buf)
        flat = got.reshape(-1, 4)
        for i, (a, r, g, b) in enumerate((vals + vals * 10)[:W * H]):
            assert tuple(flat[i]) == (r, g, b, a), i
        if _have_libwebp():
            from webp_sys import decode_webp_system
            assert np.array_equal(got, decode_webp_system(buf))


class TestMetaPrefixCrafted:
    def test_two_entropy_groups(self):
        from gdal_ray.codecs.webp import decode_webp_lossless
        W, H = 8, 4                 # mbits=2 -> tiles of 4: 2x1 tiles
        c = _Crafter(W, H)
        c.bw.put(0, 1)            # no transform
        c.bw.put(0, 1)            # no cache
        c.bw.put(1, 1)            # meta prefix present
        c.bw.put(0, 3)            # mbits = 2
        # entropy image 2x1: groups 0 and 1 ((r<<8)|g)
        c.subimage(_lits([(0, 0, 0, 0), (0, 0, 1, 0)]))
        # group 0 codes+...: emission interleaves groups per pixel tile,
        # but CODES are transmitted group after group first
        import numpy as np
        from gdal_ray.codecs.webp import (_huffman_lengths,
                                          _write_code_lengths,
                                          _PrefixEncoder)
        pix = np.zeros((H, W, 4), np.int64)      # a r g b
        for y in range(H):
            for x in range(W):
                if x < 4:
                    pix[y, x] = (255, 7, (x + y) % 4, 9)       # group 0
                else:
                    pix[y, x] = (255, 100 + x, 200, 50 + y)    # group 1
        groups = []
        for gi in (0, 1):
            sel = pix[:, gi * 4:(gi + 1) * 4].reshape(-1, 4)
            lens = []
            for ch, alpha in ((2, 256 + 24), (1, 256), (3, 256), (0, 256)):
                f = np.zeros(alpha, np.int64)
                for v in sel[:, ch]:
                    f[int(v)] += 1
                lens.append(_huffman_lengths(f))
            dlen = np.zeros(40, np.int64)
            dlen[0] = 1
            lens.append(dlen)
            groups.append(lens)
        encs = []
        for lens in groups:
            es = []
            for ln in lens:
                _write_code_lengths(c.bw, ln)
                es.append(_PrefixEncoder(ln))
            encs.append(es)
        for y in range(H):
            for x in range(W):
                eg, er, eb, ea, _ = encs[0 if x < 4 else 1]
                a, r, g, b = (int(v) for v in pix[y, x])
                eg.emit(c.bw, g); er.emit(c.bw, r)
                eb.emit(c.bw, b); ea.emit(c.bw, a)
        buf = c.finish()
        got = decode_webp_lossless(buf)
        want = np.stack([pix[:, :, 1], pix[:, :, 2],
                         pix[:, :, 3], pix[:, :, 0]], -1).astype(np.uint8)
        assert np.array_equal(got, want)
        if _have_libwebp():
            from webp_sys import decode_webp_system
            assert np.array_equal(got, decode_webp_system(buf))


class TestCraftedPredictors:
    @pytest.mark.parametrize("modes", [list(range(0, 8)),
                                       list(range(6, 14))])
    def test_all_14_modes_match_libwebp(self, modes):
        """Every predictor mode decodes identically to libwebp,
        including TR linear wrap at the last column and the
        Select/ClampAddSubtract arithmetic."""
        if not _have_libwebp():
            pytest.skip("libwebp not available")
        from gdal_ray.codecs.webp import decode_webp_lossless
        from webp_sys import decode_webp_system
        rng = np.random.default_rng(sum(modes))
        W, H, bits = 32, 8, 2       # tiles of 4px -> 8x2 tiles
        c = _Crafter(W, H)
        c.bw.put(1, 1)            # transform present
        c.bw.put(0, 2)            # predictor
        c.bw.put(bits - 2, 3)
        tiles = (modes * 16)[:16]
        c.subimage(_lits([(0, 0, m, 0) for m in tiles]))
        c.bw.put(0, 1)            # no more transforms
        c.bw.put(0, 1)            # no cache
        c.bw.put(0, 1)            # no meta
        res = rng.integers(0, 256, (W * H, 4))
        c.emit_codes_and_literals(
            _lits([tuple(int(v) for v in row) for row in res]))
        buf = c.finish()
        got = decode_webp_lossless(buf)
        want = decode_webp_system(buf)
        assert np.array_equal(got, want)


class TestFullVp8lVsLibwebp:
    @pytest.mark.parametrize("seed", range(8))
    def test_libwebp_encodes_decode_exactly(self, seed):
        """libwebp-encoded lossless streams (which use predictor,
        cross-color, subtract-green, palettes+bundling, LZ77 and the
        color cache adaptively) must decode pixel-exactly."""
        if not _have_libwebp():
            pytest.skip("libwebp not available")
        from gdal_ray.codecs.webp import decode_webp_lossless
        from webp_sys import decode_webp_system, encode_webp_system
        r = np.random.default_rng(seed)
        h, w = int(r.integers(5, 150)), int(r.integers(5, 150))
        kind = seed % 4
        if kind == 0:
            x, y = np.meshgrid(np.arange(w), np.arange(h))
            img = np.stack([(x * (seed + 2) + y) % 256,
                            np.minimum(x, 255), (y // 2) % 256],
                           -1).astype(np.uint8)
        elif kind == 1:
            img = r.integers(0, 256, (h, w, 4), dtype=np.uint8)
        elif kind == 2:
            npal = int(r.integers(2, 30))
            pal = r.integers(0, 256, (npal, 3), dtype=np.uint8)
            img = pal[r.integers(0, npal, (h, w))]
        else:
            img = np.zeros((h, w, 3), np.uint8)
            for _ in range(10):
                y0, x0 = int(r.integers(0, h)), int(r.integers(0, w))
                img[y0:y0 + int(r.integers(1, h)),
                    x0:x0 + int(r.integers(1, w))] = r.integers(0, 256, 3)
        buf = encode_webp_system(img, lossless=True)
        assert np.array_equal(decode_webp_lossless(buf),
                              decode_webp_system(buf))


class TestNativePredictorParity:
    """codecs/_vp8l.c transcribes the Python predictor inverse —
    assert identical output, and conformance stays green with the
    native path disabled."""

    def test_native_matches_python(self, monkeypatch):
        import gdal_ray.codecs.native as native
        from gdal_ray.codecs import webp as W
        if native.get_vp8l() is None:
            pytest.skip("no C compiler in environment")
        rng = np.random.default_rng(3)
        w, h, bits = 37, 23, 2
        tw = (w + (1 << bits) - 1) >> bits
        th = (h + (1 << bits) - 1) >> bits
        pix = rng.integers(0, 2**32, w * h, dtype=np.uint64) \
            .astype(np.uint32)
        modes = rng.integers(0, 14, (th, tw), dtype=np.uint32) \
            .astype(np.uint32) << np.uint32(8)
        out_n = W._inverse_transform(pix.copy(), 0,
                                     (bits, modes.ravel()), w, w, h)
        monkeypatch.setitem(native._CACHE, "_vp8l", False)
        out_p = W._inverse_transform(pix.copy(), 0,
                                     (bits, modes.ravel()), w, w, h)
        monkeypatch.delitem(native._CACHE, "_vp8l", raising=False)
        np.testing.assert_array_equal(
            out_n.astype(np.uint32), out_p.astype(np.uint32))
