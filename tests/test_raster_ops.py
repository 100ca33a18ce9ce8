"""Raster per-image ops + raster↔vector conversion vs closed-form /
brute-force oracles."""

import numpy as np
import pytest

from gdal_ray.core import geotransform as gtr
from gdal_ray.core import rastervec as rv
from gdal_ray.core import wkb
from gdal_ray.stages import raster_ops as ro


class TestTranslate:
    def _img(self):
        rng = np.random.default_rng(5)
        return rng.integers(0, 256, (40, 60, 3), dtype=np.uint8)

    def test_window_bands(self):
        px = self._img()
        out = ro.translate(px, window=(10, 5, 20, 15), bands=[2, 0])
        assert out.shape == (15, 20, 2)
        assert np.array_equal(out[:, :, 0], px[5:20, 10:30, 2])

    def test_scale_offset_cast(self):
        px = self._img()
        out = ro.translate(px, scale=0.5, offset=10, out_dtype=np.uint8)
        expect = np.clip(np.floor(px * 0.5 + 10 + 0.5), 0, 255).astype(np.uint8)
        assert np.array_equal(out, expect)

    def test_resize_half(self):
        px = self._img()
        out = ro.translate(px, out_size=(30, 20), resampling="average")
        assert out.shape == (20, 30, 3)
        # 2x2 box average
        expect = px.reshape(20, 2, 30, 2, 3).mean(axis=(1, 3))
        assert np.allclose(out, expect)


class TestPixelFunctions:
    def test_registry(self):
        px = np.dstack([np.full((4, 4), 10.0), np.full((4, 4), 2.0)]).astype(np.uint8)
        assert np.allclose(ro.pixel_function(px, "sum"), 12)
        assert np.allclose(ro.pixel_function(px, "diff"), 8)
        assert np.allclose(ro.pixel_function(px, "mul"), 20)
        assert np.allclose(ro.pixel_function(px, "div"), 5)
        assert np.allclose(ro.pixel_function(px, "mean"), 6)
        assert np.allclose(ro.pixel_function(px, "norm_diff"), 8 / 12)
        assert np.allclose(ro.pixel_function(px, "interpolate_linear", t=0.25), 8)

    def test_reclassify(self):
        b = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        out = ro.reclassify(b, {1: 100, 3: 50}, default=0)
        assert out.tolist() == [[0, 100], [0, 50]]

    def test_color_map(self):
        b = np.array([[0, 50, 100]], dtype=np.uint8)
        out = ro.color_map(b, [(0, (0, 0, 0)), (100, (200, 100, 0))])
        assert out.shape == (1, 3, 3)
        assert out[0, 2].tolist() == [200, 100, 0]
        assert out[0, 1].tolist() == [100, 50, 0]


class TestDEM:
    def test_slope_plane(self):
        # plane z = 2x → slope = atan(2), aspect = east-ish
        y, x = np.mgrid[0:20, 0:20]
        band = (2.0 * x).astype(np.float64)
        s = ro.slope(band)
        inner = s[2:-2, 2:-2]
        assert np.allclose(inner, np.degrees(np.arctan(2.0)), atol=1e-6)

    def test_aspect_plane(self):
        y, x = np.mgrid[0:20, 0:20]
        band = (-3.0 * x).astype(np.float64)  # rises to the west → aspect 270?
        a = ro.aspect(band)
        inner = a[2:-2, 2:-2]
        # gradient points +x downslope... aspect = downslope direction.
        assert np.allclose(inner, inner[0, 0])

    def test_hillshade_flat(self):
        band = np.full((10, 10), 100.0)
        hs = ro.hillshade(band, altitude=45.0)
        assert np.all(hs == ro.hillshade(band)[0, 0])

    def test_tpi_tri_roughness(self):
        band = np.zeros((8, 8))
        band[4, 4] = 8.0
        assert abs(ro.tpi(band)[4, 4] - 8.0) < 1e-9
        assert abs(ro.tri(band)[4, 4] - 8.0) < 1e-9
        assert abs(ro.roughness(band)[4, 4] - 8.0) < 1e-9
        assert abs(ro.roughness(band)[3, 3] - 8.0) < 1e-9

    def test_convolve_identity(self):
        rng = np.random.default_rng(3)
        band = rng.normal(size=(12, 12))
        k = np.zeros((3, 3)); k[1, 1] = 1.0
        assert np.allclose(ro.convolve(band, k), band)

    def test_convolve_box(self):
        band = np.ones((6, 6))
        out = ro.convolve(band, np.ones((3, 3)) / 9.0)
        assert np.allclose(out, 1.0)


class TestRasterize:
    def test_square(self):
        gt = (0, 1, 0, 10, 0, -1)  # 10x10 grid covering (0,0)-(10,10)
        g = wkb.box(2, 2, 6, 6)
        out = rv.rasterize([(g, 1)], (10, 10), gt)
        # pixel centers inside (2,2)-(6,6): cols 2..5, world rows y 2.5..5.5 → rows 4..7
        assert out.sum() == 16
        assert out[4:8, 2:6].sum() == 16

    def test_merge_add(self):
        gt = (0, 1, 0, 10, 0, -1)
        g = wkb.box(0, 0, 10, 10)
        out = rv.rasterize([(g, 1), (g, 2)], (10, 10), gt, merge_alg="add")
        assert (out == 3).all()

    def test_hole(self):
        gt = (0, 1, 0, 10, 0, -1)
        g = wkb.polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                        holes=[[(3, 3), (7, 3), (7, 7), (3, 7)]])
        out = rv.rasterize([(g, 1)], (10, 10), gt)
        assert out[5, 5] == 0
        assert out[1, 1] == 1


class TestPolygonize:
    def test_label_components(self):
        b = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
        lab = rv.label_components(b, 4)
        assert lab[0, 0] == lab[0, 1] == lab[1, 1]
        assert lab[2, 2] != lab[0, 0]
        assert lab[1, 0] == lab[2, 0] == lab[2, 1]
        lab8 = rv.label_components(b, 8)
        assert lab8[2, 2] == lab8[1, 1]

    def test_polygonize_square(self):
        b = np.zeros((8, 8), dtype=np.int64)
        b[2:5, 3:6] = 7
        polys = rv.polygonize(b)
        vals = {int(v) for v, _ in polys}
        assert vals == {0, 7}
        seven = next(g for v, g in polys if v == 7)
        from gdal_ray.core.geom import area
        assert abs(area(seven) - 9.0) < 1e-9
        env = seven.envelope()
        assert env == (3.0, 2.0, 6.0, 5.0)

    def test_polygonize_roundtrip_rasterize(self):
        """polygonize → rasterize reproduces the component mask."""
        b = np.zeros((10, 10), dtype=np.int64)
        b[2:5, 3:8] = 1
        b[6:9, 1:4] = 2
        polys = rv.polygonize(b)
        gt = (0, 1, 0, 10, 0, -1)
        for val, g in polys:
            if val == 0:
                continue
            # pixel-space polygon → flip to world for rasterize oracle:
            # our polygonize emitted pixel coords (transform=None); burn in
            # pixel space directly with identity-like transform y-down
            out = rv.rasterize([(g, 1)], (10, 10), (0, 1, 0, 0, 0, 1))
            assert np.array_equal(out.astype(bool), b == val)

    def test_polygonize_with_hole(self):
        b = np.zeros((8, 8), dtype=np.int64)
        b[1:7, 1:7] = 5
        b[3:5, 3:5] = 0  # hole
        polys = rv.polygonize(b)
        five = next(g for v, g in polys if v == 5)
        assert len(five.rings) == 2
        from gdal_ray.core.geom import area
        assert abs(area(five) - (36 - 4)) < 1e-9


class TestSieveProximityFill:
    def test_sieve(self):
        b = np.zeros((10, 10), dtype=np.int64)
        b[5, 5] = 1  # single-pixel component
        out = rv.sieve(b, threshold=2)
        assert (out == 0).all()

    def test_proximity(self):
        m = np.zeros((7, 7), dtype=bool)
        m[3, 3] = True
        d = rv.proximity(m)
        assert d[3, 3] == 0
        assert abs(d[3, 4] - 1.0) < 1e-9
        assert abs(d[4, 4] - 2 ** 0.5) < 1e-9  # exact Euclidean diagonal

    def test_fillnodata(self):
        b = np.full((6, 6), 10.0)
        valid = np.ones((6, 6), dtype=bool)
        b[2:4, 2:4] = 0
        valid[2:4, 2:4] = False
        out = rv.fillnodata(b, valid)
        assert np.allclose(out, 10.0)


class TestGridInterp:
    def test_idw_exact_hit(self):
        pts = np.array([[0.5, 0.5], [3.5, 3.5]])
        vals = np.array([1.0, 9.0])
        gt = (0, 1, 0, 4, 0, -1)
        out = rv.grid_idw(pts, vals, (4, 4), gt)
        assert abs(out[3, 0] - 1.0) < 1e-9  # pixel center (0.5, 0.5)
        assert abs(out[0, 3] - 9.0) < 1e-9

    def test_interpolate_at_point(self):
        band = np.arange(16, dtype=np.float64).reshape(4, 4)
        gt = (0, 1, 0, 0, 0, 1)  # world == pixel
        v, ok = rv.interpolate_at_point(band, gt, [1.0], [1.0], "bilinear")
        # at world (1,1) = pixel corner: average of 0,1,4,5 = 2.5
        assert ok[0] and abs(v[0] - 2.5) < 1e-9
        v, ok = rv.interpolate_at_point(band, gt, [2.5], [1.5], "near")
        assert ok[0] and v[0] == band[1, 2]
        v, ok = rv.interpolate_at_point(band, gt, [99.0], [1.0], "bilinear")
        assert not ok[0]


class TestVectorOps:
    def test_douglas_peucker(self):
        from gdal_ray.stages.vector_ops import douglas_peucker
        pts = np.array([[0, 0], [1, 0.01], [2, 0], [3, 2], [4, 0]], dtype=float)
        out = douglas_peucker(pts, 0.1)
        assert [0, 0] in out.tolist() and [3, 2] in out.tolist()
        assert [1, 0.01] not in out.tolist()

    def test_convex_hull(self):
        from gdal_ray.stages.vector_ops import convex_hull
        pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]], dtype=float)
        h = convex_hull(pts)
        from gdal_ray.core.geom import ring_area
        assert abs(abs(ring_area(h)) - 4.0) < 1e-9

    def test_buffer_point_area(self):
        from gdal_ray.stages.vector_ops import buffer_geometry
        g = buffer_geometry(wkb.point(0, 0), 10.0, segments=32)
        from gdal_ray.core.geom import area
        assert abs(area(g) - np.pi * 100) / (np.pi * 100) < 0.01

    def test_swap_xy(self):
        from gdal_ray.stages.vector_ops import swap_xy
        g = swap_xy(wkb.linestring([(1, 2), (3, 4)]))
        assert g.coords.tolist() == [[2, 1], [4, 3]]

    def test_segmentize(self):
        from gdal_ray.stages.vector_ops import segmentize
        out = segmentize(np.array([[0.0, 0.0], [10.0, 0.0]]), 3.0)
        d = np.hypot(*np.diff(out, axis=0).T)
        assert (d <= 3.0 + 1e-9).all()
        assert out[0].tolist() == [0, 0] and out[-1].tolist() == [10, 0]

    def test_explode(self):
        import pyarrow as pa
        from gdal_ray.stages.vector_ops import explode_collections
        from gdal_ray.sources.vector import with_geometry
        g = wkb.multipolygon([wkb.box(0, 0, 1, 1), wkb.box(2, 2, 3, 3)])
        t = pa.table({"fid": [1], "wkb": [wkb.dumps(g)]})
        out = explode_collections(t)
        assert out.num_rows == 2
        assert out["part_index"].to_pylist() == [0, 1]
        # each part carries its own envelope; the layout keeps its order
        out = explode_collections(
            with_geometry(pa.table({"fid": [1], "name": ["a"]}), [g]))
        assert out.column_names == ["fid", "name", "wkb", "minx", "miny",
                                    "maxx", "maxy", "part_index"]
        assert out["minx"].to_pylist() == [0.0, 2.0]
        assert out["maxy"].to_pylist() == [1.0, 3.0]

    def test_geometry_columns(self):
        import pyarrow as pa
        from gdal_ray.stages.vector_ops import add_geometry_columns
        t = pa.table({"wkb": [wkb.dumps(wkb.box(0, 0, 4, 2))]})
        out = add_geometry_columns(t)
        assert out["area"][0].as_py() == 8.0
        assert out["centroid_x"][0].as_py() == 2.0


class TestCutlineMosaic:
    def test_cutline_clip(self):
        from gdal_ray.core import wkb
        from gdal_ray.stages.raster_ops import cutline_clip
        px = np.full((10, 10, 3), 77, np.uint8)
        gt = (0, 1, 0, 10, 0, -1)
        g = wkb.box(2, 2, 6, 6)
        out, mask = cutline_clip(px, gt, g, nodata=0)
        assert mask.sum() == 16
        assert (out[mask] == 77).all()
        assert (out[~mask] == 0).all()
        assert out.dtype == px.dtype

    def test_mosaic_rank_wins_and_merge_associative(self):
        from gdal_ray.stages.raster_ops import mosaic_merge, mosaic_partial
        dst_gt = (0, 1, 0, 8, 0, -1)
        # two 4x8 images stacked; overlap rows 3..5 - higher rank wins
        a = np.full((5, 8, 1), 10, np.uint8)   # covers y 3..8
        b = np.full((5, 8, 1), 20, np.uint8)   # covers y 0..5
        gta = (0, 1, 0, 8, 0, -1)
        gtb = (0, 1, 0, 5, 0, -1)
        v1, r1 = mosaic_partial([a], [gta], [0], dst_gt, (8, 8), "near")
        v2, r2 = mosaic_partial([b], [gtb], [1], dst_gt, (8, 8), "near")
        m12v, m12r = mosaic_merge(v1, r1, v2, r2)
        m21v, m21r = mosaic_merge(v2, r2, v1, r1)
        assert np.array_equal(m12v, m21v) and np.array_equal(m12r, m21r)
        both, rboth = mosaic_partial([a, b], [gta, gtb], [0, 1],
                                     dst_gt, (8, 8), "near")
        assert np.array_equal(both, m12v)
        # a covers dst rows 0..5 (world y 3..8), b covers rows 3..8
        # (world y 0..5); overlap rows 3..5 -> rank-1 (b) wins
        assert (m12v[3:5, :, 0] == 20).all()
        assert (m12v[0:3, :, 0] == 10).all()
        assert (m12v[5:8, :, 0] == 20).all()
        assert (rboth >= 0).all()


class TestMakeValid:
    def test_fixes_orientation_and_dupes(self):
        from gdal_ray.core import wkb as W
        from gdal_ray.core.geom import area, ring_area
        from gdal_ray.stages.vector_ops import make_valid
        # CW outer ring, duplicate vertex, unclosed, CCW hole
        outer = np.array([(0, 0), (0, 4), (0, 4), (4, 4), (4, 0)], float)
        hole = np.array([(1, 1), (2, 1), (2, 2), (1, 2)], float)
        g = W.Geometry(W.POLYGON, rings=[outer, hole])
        v = make_valid(g)
        assert ring_area(v.rings[0]) > 0     # outer CCW
        assert ring_area(v.rings[1]) < 0     # hole CW
        assert abs(area(v) - (16 - 1)) < 1e-9
        # closed rings, no consecutive dupes
        for r in v.rings:
            assert np.array_equal(r[0], r[-1])
            assert (np.diff(r, axis=0) != 0).any(axis=1).all()

    def test_degenerate_ring_dropped(self):
        from gdal_ray.core import wkb as W
        from gdal_ray.stages.vector_ops import make_valid
        g = W.Geometry(W.POLYGON,
                       rings=[np.array([(0, 0), (1, 1), (0, 0)], float)])
        v = make_valid(g)
        assert v.geom_type == W.GEOMETRYCOLLECTION and not v.parts


class TestQuantileKernels:
    """Round-2 warp kernels: rms / med / q1 / q3 (alg/gdalwarper.h:35-69)."""

    def test_warp_rms_exact(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.array([[3.0, 4.0], [0.0, 0.0]])[:, :]
        # 2x2 -> 1x1, rms of {3,4,0,0} = sqrt(25/4)
        out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                          (1, 1), "rms")
        assert valid.all()
        assert abs(float(out[0, 0]) - 2.5) < 1e-12

    def test_warp_quartiles(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.arange(16, dtype=np.float64).reshape(4, 4)
        for op, expect in (("med", np.percentile(np.arange(16), 50)),
                           ("q1", np.percentile(np.arange(16), 25)),
                           ("q3", np.percentile(np.arange(16), 75))):
            out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 4, 0, 0, 0, 4),
                              (1, 1), op)
            assert valid.all()
            assert abs(float(out[0, 0]) - expect) < 1e-12, op

    def test_downsample2x_quartiles(self):
        import numpy as np
        from gdal_ray.core.resample import downsample2x
        src = np.array([[1, 7], [3, 5]], dtype=np.uint8)
        assert abs(float(downsample2x(src, "med")[0, 0]) - 4.0) < 1e-12
        assert abs(float(downsample2x(src, "q1")[0, 0]) - 2.5) < 1e-12
        assert abs(float(downsample2x(src, "q3")[0, 0]) - 5.5) < 1e-12
        assert abs(float(downsample2x(src, "rms")[0, 0])
                   - np.sqrt((1 + 49 + 9 + 25) / 4.0)) < 1e-12


class TestNodataWeighted:
    """GDAL nodata-weighted reduction parity (GDALWarpNoDataMasker /
    GWKAverageOrMode, gcore/overview.cpp:1214+)."""

    def test_average_excludes_nodata(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.array([[10.0, 255.0], [30.0, 255.0]])
        out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                          (1, 1), "average", nodata=255.0)
        assert valid.all()
        assert float(out[0, 0]) == 20.0      # mean of {10, 30} only

    def test_all_nodata_window_invalid(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.full((2, 2), 9.0)
        out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                          (1, 1), "average", nodata=9.0)
        assert not valid.any()

    def test_quantiles_exclude_nodata(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.array([[1.0, 7.0], [0.0, 5.0]])
        out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                          (1, 1), "med", nodata=0.0)
        assert valid.all()
        assert float(out[0, 0]) == 5.0       # median of {1, 7, 5}

    def test_point_kernel_nodata_invalidates(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.array([[7.0, 9.0], [7.0, 7.0]])
        out, valid = warp(src, (0, 1, 0, 0, 0, 1), (0, 1, 0, 0, 0, 1),
                          (2, 2), "near", nodata=9.0)
        assert valid.sum() == 3              # the nodata cell masked
        assert not valid[0, 1]

    def test_no_nodata_unchanged(self):
        import numpy as np
        from gdal_ray.core.resample import warp
        src = np.arange(16, dtype=np.float64).reshape(4, 4)
        a, va = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                     (2, 2), "average")
        b, vb = warp(src, (0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2),
                     (2, 2), "average", nodata=-1.0)
        assert np.array_equal(a, b) and np.array_equal(va, vb)


class TestPansharpen:
    """Weighted Brovey (alg/gdalpansharpen.cpp:471-520): ratio
    pan/pseudo-pan scales each spectral band; coarse spectral is
    bilinearly upsampled onto the pan grid first."""

    def test_identity_when_pan_equals_pseudo(self):
        import numpy as np
        from gdal_ray.stages.raster_ops import pansharpen
        rng = np.random.default_rng(7)
        sp = rng.integers(1, 255, (8, 8, 3)).astype(np.float64)
        pan = sp.mean(axis=2)                 # equal-weight pseudo-pan
        out = pansharpen(sp, pan)
        assert np.allclose(out, sp)

    def test_ratio_scaling_and_weights(self):
        import numpy as np
        from gdal_ray.stages.raster_ops import pansharpen
        sp = np.full((4, 4, 2), 10.0)
        sp[:, :, 1] = 30.0
        pan = np.full((4, 4), 40.0)           # pseudo = .5*10+.5*30 = 20
        out = pansharpen(sp, pan)             # ratio = 2 everywhere
        assert np.allclose(out[:, :, 0], 20.0)
        assert np.allclose(out[:, :, 1], 60.0)
        outw = pansharpen(sp, pan, weights=[0.75, 0.25])  # pseudo = 15
        assert np.allclose(outw[:, :, 0], 10.0 * 40 / 15)

    def test_zero_pseudo_guard(self):
        import numpy as np
        from gdal_ray.stages.raster_ops import pansharpen
        sp = np.zeros((3, 3, 3))
        pan = np.full((3, 3), 100.0)
        out = pansharpen(sp, pan)
        assert np.all(out == 0.0) and np.all(np.isfinite(out))

    def test_upsample_path_matches_bilinear_kernel(self):
        import numpy as np
        from gdal_ray.core.resample import sample_grid
        from gdal_ray.stages.raster_ops import pansharpen
        rng = np.random.default_rng(11)
        sp_lo = rng.integers(1, 255, (5, 7, 3)).astype(np.float64)
        pan = rng.integers(1, 255, (10, 14)).astype(np.float64)
        out = pansharpen(sp_lo, pan)
        # reproduce: center-aligned bilinear to the pan grid, then Brovey
        cols = (np.arange(14) + 0.5) * (7 / 14)
        rows = (np.arange(10) + 0.5) * (5 / 10)
        sx, sy = np.meshgrid(cols, rows)
        up, _ = sample_grid(sp_lo, sx, sy, "bilinear")
        pseudo = up.mean(axis=2)
        exp = up * (pan / pseudo)[:, :, None]
        assert np.allclose(out, exp)

    def test_2d_spectral_promoted(self):
        import numpy as np
        from gdal_ray.stages.raster_ops import pansharpen
        sp = np.full((4, 4), 5.0)
        pan = np.full((4, 4), 15.0)
        out = pansharpen(sp, pan)             # pseudo = sp, ratio = 3
        assert out.shape == (4, 4, 1) and np.allclose(out, 15.0)


class TestAlphaComposite:
    def _brute(self, vals, valids, ranks, cap=24):
        # reference: per pixel, walk layers in rank-desc order,
        # weight 0.5^pos, scaled by 2^cap
        h, w = valids[0].shape
        comp = np.zeros((h, w), np.int64)
        depth = np.zeros((h, w), np.int64)
        order = np.argsort(ranks)[::-1]
        for y in range(h):
            for x in range(w):
                pos = 0
                for j in order:
                    if valids[j][y, x] and pos < cap:
                        comp[y, x] += int(vals[j][y, x]) << (cap - 1 - pos)
                        pos += 1
                depth[y, x] = pos
        return comp, depth

    def test_matches_bruteforce(self):
        from gdal_ray.stages.raster_ops import alpha_composite_group
        rng = np.random.default_rng(21)
        vals = [rng.integers(0, 256, (9, 7)).astype(np.int64)
                for _ in range(6)]
        valids = [rng.random((9, 7)) < 0.6 for _ in range(6)]
        ranks = rng.permutation(6) * 7 + 3
        comp, depth = alpha_composite_group(vals, valids, ranks)
        bc, bd = self._brute(vals, valids, list(ranks))
        assert np.array_equal(comp, bc)
        assert np.array_equal(depth, bd)

    def test_order_sensitivity(self):
        # swapping two overlapping layers MUST change the composite —
        # the property rank-wins partials cannot express
        from gdal_ray.stages.raster_ops import alpha_composite_group
        a = np.full((2, 2), 10, np.int64)
        b = np.full((2, 2), 200, np.int64)
        m = np.ones((2, 2), bool)
        c1, _ = alpha_composite_group([a, b], [m, m], [1, 2])
        c2, _ = alpha_composite_group([a, b], [m, m], [2, 1])
        assert (c1 != c2).all()
        # top layer dominates: weight 1/2 vs 1/4
        assert c1[0, 0] == (200 << 23) + (10 << 22)
        assert c2[0, 0] == (10 << 23) + (200 << 22)

    def test_depth_cap(self):
        from gdal_ray.stages.raster_ops import alpha_composite_group
        m = np.ones((1, 1), bool)
        layers = [np.full((1, 1), 255, np.int64) for _ in range(30)]
        comp, depth = alpha_composite_group(
            layers, [m] * 30, list(range(30)), depth_cap=24)
        assert depth[0, 0] == 24
        assert comp[0, 0] == sum(255 << (24 - 1 - p) for p in range(24))


class TestPerBandNodata:
    """gdalwarp -srcnodata "v1 v2 v3": per-band masking for area
    reductions, unified all-bands-match invalidation for point kernels
    (alg/gdalwarper.cpp GDALWarpNoDataMasker semantics)."""

    def test_point_kernel_unified(self):
        from gdal_ray.core import resample as rs
        src = np.zeros((4, 4, 3), np.float64)
        src[:2] = [9, 8, 7]          # nodata triple in the top half
        src[2:] = [9, 8, 1]          # band 2 differs -> pixel stays valid
        gt = (0, 1, 0, 4, 0, -1)
        out, valid = rs.warp(src, gt, gt, (4, 4), "near",
                             nodata=[9, 8, 7])
        assert not valid[:2].any()   # all bands match their nodata
        assert valid[2:].all()       # one band differs -> valid

    def test_area_per_band_independent(self):
        from gdal_ray.core import resample as rs
        src = np.zeros((2, 2, 2), np.float64)
        src[:, :, 0] = [[5, 5], [10, 10]]
        src[:, :, 1] = [[7, 3], [3, 3]]
        gt = (0, 1, 0, 2, 0, -1)
        dst_gt = (0, 2, 0, 2, 0, -2)  # 2x2 -> 1x1 average
        out, valid = rs.warp(src, gt, dst_gt, (1, 1), "average",
                             nodata=[5.0, 3.0])
        assert valid[0, 0]
        # band 0 averages the non-5 values, band 1 the non-3 values
        assert out[0, 0, 0] == 10.0
        assert out[0, 0, 1] == 7.0

    def test_length_mismatch_raises(self):
        from gdal_ray.core import resample as rs
        src = np.zeros((2, 2, 3))
        gt = (0, 1, 0, 2, 0, -1)
        with pytest.raises(ValueError, match="per-band nodata"):
            rs.warp(src, gt, gt, (2, 2), "near", nodata=[1, 2])

    def test_scalar_still_works(self):
        from gdal_ray.core import resample as rs
        src = np.full((2, 2), 42.0)
        gt = (0, 1, 0, 2, 0, -1)
        out, valid = rs.warp(src, gt, gt, (2, 2), "near", nodata=42.0)
        assert not valid.any()
        # single-element list behaves like the scalar
        out2, valid2 = rs.warp(src, gt, gt, (2, 2), "near", nodata=[42.0])
        assert not valid2.any()

    def test_mosaic_partial_nodata_never_wins(self):
        from gdal_ray.stages.raster_ops import mosaic_partial
        gt = (0, 1, 0, 2, 0, -1)
        lo = np.full((2, 2), 7.0)              # rank 1, all real
        hi = np.full((2, 2), 99.0)             # rank 2, all nodata
        vals, rank = mosaic_partial([lo, hi], [gt, gt], [1, 2], gt,
                                    (2, 2), resampling="near",
                                    nodata=99.0)
        assert (rank == 1).all()
        assert (vals[:, :, 0] == 7.0).all()
