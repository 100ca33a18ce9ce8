"""Own VP8 (lossy WebP) decoder — RFC 6386 conformance.

Reference driver: frmts/webp/webpdataset.cpp (wraps libwebp);
fixtures autotest/gdrivers/data/webp. Synthetic streams come from
tests/vp8_synth.py (own RFC §7.2 bool encoder); when libwebp is
present it serves as the byte-exact conformance oracle for both
synthetic and real encoder output, including the loop filter, fancy
upsampling and the ALPH alpha chunk."""

import os

import numpy as np
import pytest

from gdal_ray.codecs import vp8
from gdal_ray.codecs.webp import _chunks, decode_webp_lossless
from webp_sys import system_available

from vp8_synth import make_vp8

FIX = "/root/reference/autotest/gdrivers/data/webp"

needs_libwebp = pytest.mark.skipif(not system_available(),
                                   reason="libwebp absent")


def _sys_rgba(buf):
    from webp_sys import decode_webp_system
    return decode_webp_system(buf)


def _own_yuv(buf):
    return vp8.decode_vp8(_chunks(buf)[b"VP8 "])


class TestSyntheticModes:
    """All-skip streams: output is pure intra prediction."""

    @pytest.mark.parametrize("ymode,expect", [(0, 128), (1, 127),
                                              (2, 129), (3, 129)])
    def test_16x16_corner_bases(self, ymode, expect):
        # virtual borders: top=127, left=129 (RFC §12.2); DC with no
        # neighbors = 128; values propagate through the whole frame
        Y, U, V = _own_yuv(make_vp8(32, 32, ymode=ymode, uvmode=0))
        assert int(Y[0, 0]) == expect
        assert (U == 128).all() and (V == 128).all()

    @pytest.mark.parametrize("bmode", range(10))
    def test_uniform_bpred_grids_decode(self, bmode):
        g = [[bmode] * 4] * 4
        Y, U, V = _own_yuv(make_vp8(48, 32, ymode=4, bmodes=g))
        assert Y.shape == (32, 48)

    @needs_libwebp
    @pytest.mark.parametrize("bmode", range(10))
    def test_uniform_bpred_matches_libwebp(self, bmode):
        g = [[bmode] * 4] * 4
        buf = make_vp8(48, 32, ymode=4, bmodes=g)
        own = decode_webp_lossless(buf)
        assert (own == _sys_rgba(buf)).all()

    @needs_libwebp
    def test_mixed_bpred_context_rows(self, ):
        # exercises many kf_bmode_prob context rows incl. the
        # LD/RD/VR enum-permutation trap (libwebp orders RD=4 VR=5
        # LD=6; the RFC orders LD=4 RD=5 VR=6)
        rng = np.random.default_rng(11)
        for _ in range(8):
            g = rng.integers(0, 10, (4, 4)).tolist()
            buf = make_vp8(48, 48, ymode=4, bmodes=g)
            assert (decode_webp_lossless(buf) == _sys_rgba(buf)).all()

    @needs_libwebp
    @pytest.mark.parametrize("dims", [(16, 16), (50, 50), (33, 17),
                                      (1, 1), (8, 24)])
    def test_odd_crops(self, dims):
        w, h = dims
        buf = make_vp8(w, h, ymode=3, uvmode=3)
        own = decode_webp_lossless(buf)
        assert own.shape == (h, w, 4)
        assert (own == _sys_rgba(buf)).all()


@needs_libwebp
class TestEncoderConformance:
    """Byte-exact vs libwebp on real encoder output (tokens, dequant,
    IDCT/WHT, loop filter, fancy upsampling all in play)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_images_all_qualities(self, seed):
        from webp_sys import encode_webp_system
        rng = np.random.default_rng(seed)
        q = [10, 35, 55, 75, 90, 98][seed]
        img = rng.integers(0, 256, (48, 48, 3), np.uint8)
        if seed % 2:
            img = ((img.astype(int) + np.roll(img, 1, 0)
                    + np.roll(img, 1, 1)) // 3).astype(np.uint8)
        buf = encode_webp_system(img, lossless=False, quality=q)
        assert (decode_webp_lossless(buf) == _sys_rgba(buf)).all()

    def test_lossy_with_alpha_chunk(self):
        from webp_sys import encode_webp_system
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (37, 41, 4), np.uint8)
        img[:, :, 3] = np.clip(np.arange(41)[None, :] * 6, 0,
                               255).astype(np.uint8)
        buf = encode_webp_system(img, lossless=False, quality=80)
        own = decode_webp_lossless(buf)
        assert (own == _sys_rgba(buf)).all()

    def test_1mp_smooth_image(self):
        from webp_sys import encode_webp_system
        rng = np.random.default_rng(1)
        base = rng.integers(0, 256, (32, 32, 3), np.uint8)
        img = np.kron(base, np.ones((8, 8, 1), np.uint8))
        buf = encode_webp_system(img, lossless=False, quality=75)
        assert (decode_webp_lossless(buf) == _sys_rgba(buf)).all()


class TestNativeTwins:
    """codecs/_vp8t.c (tokens+IDCT) and _vp8f.c (loop filter)
    transcribe the Python per-MB loops — frames must be identical
    with the C toolchain on and off."""

    def test_native_matches_python(self, monkeypatch):
        from gdal_ray.codecs import native
        if native.get_vp8t() is None or native.get_vp8f() is None:
            pytest.skip("no C toolchain")
        rng = np.random.default_rng(7)
        streams = [make_vp8(48, 48, ymode=4,
                            bmodes=rng.integers(0, 10, (4, 4)).tolist())]
        if system_available():
            from webp_sys import encode_webp_system
            img = rng.integers(0, 256, (64, 80, 3), np.uint8)
            for q in (25, 80):
                streams.append(encode_webp_system(
                    img, lossless=False, quality=q))
        for buf in streams:
            a = decode_webp_lossless(buf)
            monkeypatch.setitem(native._CACHE, "_vp8t", False)
            monkeypatch.setitem(native._CACHE, "_vp8f", False)
            b = decode_webp_lossless(buf)
            monkeypatch.delitem(native._CACHE, "_vp8t", raising=False)
            monkeypatch.delitem(native._CACHE, "_vp8f", raising=False)
            assert (a == b).all()


@pytest.mark.skipif(not os.path.isdir(FIX), reason="reference absent")
class TestReferenceFixtures:
    def test_rgbsmall_checksums(self):
        """autotest/gdrivers/webp.py:30-34 accepts band-1 checksum in
        {21464, 21450, 21459} across libwebp versions; the own
        decoder must land in that set with no libwebp involved."""
        from gdal_ray.core.checksum import checksum
        buf = open(f"{FIX}/rgbsmall.webp", "rb").read()
        img = decode_webp_lossless(buf)
        assert int(checksum(img[:, :, 0])) in (21464, 21450, 21459)

    @needs_libwebp
    def test_rgbsmall_byte_exact_vs_libwebp(self):
        for f in ("rgbsmall.webp", "rgbsmall_with_xmp.webp"):
            buf = open(f"{FIX}/{f}", "rb").read()
            assert (decode_webp_lossless(buf) == _sys_rgba(buf)).all()


class TestUpsampler:
    def test_fancy_upsample_flat(self):
        c = np.full((4, 4), 100, np.uint8)
        up = vp8.fancy_upsample(c, 8, 8)
        assert (up == 100).all()

    def test_fancy_upsample_edges_replicate(self):
        c = np.zeros((2, 2), np.uint8)
        c[0, 0] = 160
        up = vp8.fancy_upsample(c, 4, 4)
        assert up[0, 0] == 160
        assert up.shape == (4, 4)
