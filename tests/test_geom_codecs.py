"""Tests for WKB codec, geometry predicates, resampling, image codecs."""

import numpy as np
import pytest

from gdal_ray.codecs import decode, encode, psnr
from gdal_ray.core import geom, resample, wkb
from gdal_ray.core import geotransform as gtr


class TestWKB:
    def test_point_roundtrip(self):
        g = wkb.point(1.5, -2.5)
        g2 = wkb.loads(wkb.dumps(g))
        assert g2.geom_type == wkb.POINT
        assert np.allclose(g2.coords, [[1.5, -2.5]])

    def test_polygon_roundtrip(self):
        g = wkb.polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                        holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])
        g2 = wkb.loads(wkb.dumps(g))
        assert g2.geom_type == wkb.POLYGON
        assert len(g2.rings) == 2
        assert np.allclose(g2.rings[0], g.rings[0])

    def test_multipolygon_roundtrip(self):
        g = wkb.multipolygon([wkb.box(0, 0, 1, 1), wkb.box(2, 2, 3, 3)])
        g2 = wkb.loads(wkb.dumps(g))
        assert g2.geom_type == wkb.MULTIPOLYGON
        assert len(g2.parts) == 2

    def test_envelope(self):
        g = wkb.polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        assert g.envelope() == (0.0, 0.0, 4.0, 3.0)

    def test_big_endian_point(self):
        import struct
        buf = b"\x00" + struct.pack(">I", 1) + struct.pack(">2d", 3.0, 4.0)
        g = wkb.loads(buf)
        assert np.allclose(g.coords, [[3.0, 4.0]])

    def test_bulk_envelopes(self):
        ws = [wkb.dumps(wkb.box(i, i, i + 1, i + 2)) for i in range(5)]
        env = wkb.envelopes_of_wkb(ws)
        assert env.shape == (5, 4)
        assert np.allclose(env[3], [3, 3, 4, 5])


class TestPredicates:
    def test_pip_square(self):
        poly = wkb.box(0, 0, 10, 10)
        px = np.array([5.0, -1.0, 10.0, 0.0, 15.0])
        py = np.array([5.0, 5.0, 5.0, 0.0, 5.0])
        m = geom.points_in_polygon(px, py, poly)
        assert m.tolist() == [True, False, True, True, False]

    def test_pip_hole(self):
        poly = wkb.polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                           holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
        m = geom.points_in_polygon([5, 2], [5, 2], poly)
        assert m.tolist() == [False, True]

    def test_pip_concave(self):
        # L-shape
        poly = wkb.polygon([(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)])
        m = geom.points_in_polygon([1, 3, 3], [3, 3, 1], poly)
        assert m.tolist() == [True, False, True]

    def test_intersects_overlap(self):
        a = wkb.box(0, 0, 4, 4)
        b = wkb.box(2, 2, 6, 6)
        assert geom.intersects(a, b)
        assert geom.intersects(b, a)

    def test_intersects_disjoint(self):
        assert not geom.intersects(wkb.box(0, 0, 1, 1), wkb.box(5, 5, 6, 6))

    def test_intersects_contained(self):
        outer = wkb.box(0, 0, 10, 10)
        inner = wkb.box(3, 3, 4, 4)
        assert geom.intersects(outer, inner)
        assert geom.contains(outer, inner)
        assert not geom.contains(inner, outer)
        assert geom.within(inner, outer)

    def test_intersects_cross_no_vertex_inside(self):
        # plus-sign configuration: rectangles cross, no vertex inside
        a = wkb.box(-1, 2, 6, 3)
        b = wkb.box(2, -1, 3, 6)
        assert geom.intersects(a, b)

    def test_line_polygon(self):
        line = wkb.linestring([(-5, 5), (15, 5)])
        assert geom.intersects(line, wkb.box(0, 0, 10, 10))
        assert geom.intersects(wkb.box(0, 0, 10, 10), line)
        assert not geom.intersects(wkb.linestring([(-5, 20), (15, 20)]),
                                   wkb.box(0, 0, 10, 10))

    def test_point_predicates(self):
        p = wkb.point(5, 5)
        assert geom.intersects(p, wkb.box(0, 0, 10, 10))
        assert not geom.intersects(p, wkb.box(6, 6, 10, 10))

    def test_clip_to_rect(self):
        g = wkb.box(0, 0, 10, 10)
        c = geom.clip_to_rect(g, 5, 5, 20, 20)
        assert c is not None
        assert abs(geom.area(c) - 25.0) < 1e-9
        assert geom.clip_to_rect(g, 20, 20, 30, 30) is None

    def test_area_centroid(self):
        g = wkb.polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                        holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        assert abs(geom.area(g) - 96.0) < 1e-9
        cx, cy = geom.centroid(wkb.box(2, 2, 6, 8))
        assert abs(cx - 4) < 1e-9 and abs(cy - 5) < 1e-9


class TestCodecs:
    def _img(self, h=37, w=53, nb=3):
        rng = np.random.default_rng(7)
        return rng.integers(0, 256, size=(h, w, nb), dtype=np.uint8)

    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_png_roundtrip(self, nb):
        img = self._img(nb=nb)
        assert np.array_equal(decode(encode(img, "png"), "png"), img)

    def test_png_magic_sniff(self):
        img = self._img()
        assert np.array_equal(decode(encode(img, "png")), img)

    def test_dct_psnr_smooth(self):
        # smooth gradient image: DCT codec should exceed 40 dB easily
        y, x = np.mgrid[0:64, 0:64]
        img = np.stack([(x * 2) % 256, (y * 3) % 256, ((x + y)) % 256],
                       axis=2).astype(np.uint8)
        out = decode(encode(img, "jpeg"), "jpeg")
        assert out.shape == img.shape
        assert psnr(img, out) >= 40.0

    def test_dct_nonsquare(self):
        img = self._img(h=33, w=41, nb=1)
        out = decode(encode(img, "jpeg"), "jpeg")
        assert out.shape == img.shape


class TestResample:
    def test_near_identity(self):
        src = np.arange(64, dtype=np.uint8).reshape(8, 8)
        gt = (0, 1, 0, 0, 0, 1)
        out, valid = resample.warp(src, gt, gt, (8, 8), "near")
        assert np.array_equal(out, src)
        assert valid.all()

    def test_near_shift(self):
        src = np.arange(64, dtype=np.uint8).reshape(8, 8)
        src_gt = (0, 1, 0, 0, 0, 1)
        dst_gt = (2, 1, 0, 3, 0, 1)  # shifted window
        out, valid = resample.warp(src, src_gt, dst_gt, (4, 4), "near")
        assert np.array_equal(out, src[3:7, 2:6])

    def test_bilinear_2x_upsample(self):
        src = np.array([[0, 100], [100, 200]], dtype=np.float64)
        src_gt = (0, 2, 0, 0, 0, 2)
        dst_gt = (0, 1, 0, 0, 0, 1)
        out, valid = resample.warp(src, src_gt, dst_gt, (4, 4), "bilinear")
        # center 2x2 of output are exact interpolations
        assert abs(out[1, 1] - (0 * 9 + 100 * 3 + 100 * 3 + 200) / 16) < 1e-9

    def test_cubic_preserves_constant(self):
        src = np.full((16, 16), 77.0)
        src_gt = (0, 1, 0, 0, 0, 1)
        dst_gt = (1.3, 0.7, 0, 2.1, 0, 0.7)
        out, valid = resample.warp(src, src_gt, dst_gt, (8, 8), "cubic")
        assert np.allclose(out[valid], 77.0)

    def test_lanczos_preserves_constant(self):
        src = np.full((16, 16), 42.0)
        gt = (0, 1, 0, 0, 0, 1)
        out, valid = resample.warp(src, gt, (2, 0.9, 0, 2, 0, 0.9), (8, 8), "lanczos")
        assert np.allclose(out[valid], 42.0, atol=1e-6)

    def test_average_downsample(self):
        src = np.arange(16, dtype=np.float64).reshape(4, 4)
        src_gt = (0, 1, 0, 0, 0, 1)
        dst_gt = (0, 2, 0, 0, 0, 2)
        out, valid = resample.warp(src, src_gt, dst_gt, (2, 2), "average")
        assert np.allclose(out, [[2.5, 4.5], [10.5, 12.5]])
        assert valid.all()

    def test_downsample2x(self):
        src = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = resample.downsample2x_average(src)
        assert np.allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_minmax(self):
        src = np.arange(16, dtype=np.float64).reshape(4, 4)
        gt = (0, 1, 0, 0, 0, 1)
        mn, _ = resample.warp(src, gt, (0, 2, 0, 0, 0, 2), (2, 2), "min")
        mx, _ = resample.warp(src, gt, (0, 2, 0, 0, 0, 2), (2, 2), "max")
        assert np.allclose(mn, [[0, 2], [8, 10]])
        assert np.allclose(mx, [[5, 7], [13, 15]])

    def test_outside_invalid(self):
        src = np.full((4, 4), 9.0)
        gt = (0, 1, 0, 0, 0, 1)
        out, valid = resample.warp(src, gt, (10, 1, 0, 10, 0, 1), (4, 4), "near")
        assert not valid.any()


class TestWkbZDimensions:
    def _pack_z(self, iso_offset=1000, ewkb=False):
        """Hand-build a LineStringZ WKB: 3 points with z values."""
        import struct
        pts = [(1.0, 2.0, 9.0), (3.0, 4.0, 9.5), (5.0, 6.0, 10.0)]
        t = (2 + iso_offset) if not ewkb else (2 | 0x80000000)
        buf = struct.pack("<BII", 1, t, len(pts))
        for x, y, z in pts:
            buf += struct.pack("<3d", x, y, z)
        return buf

    def test_iso_z_linestring(self):
        from gdal_ray.core import wkb as W
        g = W.loads(self._pack_z(1000))
        assert g.geom_type == W.LINESTRING
        assert g.coords.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_ewkb_z_linestring(self):
        from gdal_ray.core import wkb as W
        g = W.loads(self._pack_z(ewkb=True))
        assert g.coords.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_iso_zm_point_and_multipointz(self):
        import struct
        from gdal_ray.core import wkb as W
        # PointZM
        buf = struct.pack("<BI4d", 1, 3001, 7.0, 8.0, 1.0, 2.0)
        g = W.loads(buf)
        assert g.coords[0].tolist() == [7.0, 8.0]
        # MultiPointZ: collection header + 2 PointZ members
        mp = struct.pack("<BII", 1, 1004, 2)
        for x, y, z in ((1.0, 1.0, 5.0), (2.0, 2.0, 6.0)):
            mp += struct.pack("<BI3d", 1, 1001, x, y, z)
        g2 = W.loads(mp)
        assert g2.geom_type == W.MULTIPOINT
        assert [p.coords[0].tolist() for p in g2.parts] == [[1, 1], [2, 2]]

    def test_polygon_z_area(self):
        import struct
        from gdal_ray.core.geom import area
        from gdal_ray.core import wkb as W
        ring = [(0, 0, 1), (4, 0, 1), (4, 4, 1), (0, 4, 1), (0, 0, 1)]
        buf = struct.pack("<BIII", 1, 1003, 1, len(ring))
        for x, y, z in ring:
            buf += struct.pack("<3d", float(x), float(y), float(z))
        g = W.loads(buf)
        assert area(g) == 16.0


class TestAdviceRegressions:
    """Round-2 ADVICE fixes: EWKB SRID offset + concave contains."""

    def test_ewkb_srid_point(self):
        import struct
        from gdal_ray.core import wkb as W
        # PostGIS EWKB: type 0x20000001 (point + SRID flag), srid=3857,
        # then the coordinates — the 4 SRID bytes must be skipped
        buf = struct.pack("<BIi2d", 1, 0x20000001, 3857, 1.5, 2.5)
        g = W.loads(buf)
        assert g.coords[0].tolist() == [1.5, 2.5]

    def test_ewkb_srid_polygon_z(self):
        import struct
        from gdal_ray.core import wkb as W
        from gdal_ray.core.geom import area
        ring = [(0, 0, 9), (2, 0, 9), (2, 2, 9), (0, 2, 9), (0, 0, 9)]
        buf = struct.pack("<BIiI", 1, 0xA0000003, 4326, 1)  # Z|SRID|polygon
        buf += struct.pack("<I", len(ring))
        for x, y, z in ring:
            buf += struct.pack("<3d", float(x), float(y), float(z))
        g = W.loads(buf)
        assert area(g) == 4.0

    def test_contains_concave_exit_reenter(self):
        from gdal_ray.core import geom as G
        import numpy as np
        # U-shaped container: a horizontal segment whose endpoints and
        # midpoint all sit inside the two prongs / below the notch can
        # still exit through the notch — must NOT be contained
        u = G.Geometry(G.POLYGON, rings=[np.array(
            [(0, 0), (10, 0), (10, 10), (8, 10), (8, 2.5), (2, 2.5),
             (2, 10), (0, 10), (0, 0)], float)])
        # segment y=2: sits fully below the notch floor (2.5) -> inside
        seg_in = G.Geometry(G.LINESTRING,
                            coords=np.array([(1, 2), (9, 2)], float))
        assert G.contains(u, seg_in)
        # segment y=5 from prong to prong: endpoints at x=1,x=9 (inside
        # prongs), midpoint x=5 is inside the notch (outside the poly)
        seg_out = G.Geometry(G.LINESTRING,
                             coords=np.array([(1, 5), (9, 5)], float))
        assert not G.contains(u, seg_out)
        # quarter-point-evading: endpoints and midpoint inside, crossing
        # between samples — triangle poking through the notch wall
        tri = G.Geometry(G.POLYGON, rings=[np.array(
            [(0.5, 1), (9.5, 1), (9.5, 1.5), (0.5, 1.5), (0.5, 1)], float)])
        assert G.contains(u, tri)
        poke = G.Geometry(G.POLYGON, rings=[np.array(
            [(1, 2.0), (3, 4.0), (1, 4.0), (1, 2.0)], float)])
        # edge (1,2)->(3,4) crosses the notch wall x=2 above y=2.5
        assert not G.contains(u, poke)


class TestPredicateCompleteness:
    """Round-2 predicates: Touches / Crosses / Overlaps / Distance
    (ogr_geometry.h:548-557)."""

    def _sq(self, x0, y0, s):
        from gdal_ray.core import geom as G
        import numpy as np
        return G.Geometry(G.POLYGON, rings=[np.array(
            [(x0, y0), (x0+s, y0), (x0+s, y0+s), (x0, y0+s), (x0, y0)],
            float)])

    def test_touches_edge_and_corner(self):
        from gdal_ray.core import geom as G
        a = self._sq(0, 0, 2)
        assert G.touches(a, self._sq(2, 0, 2))       # shared edge
        assert G.touches(a, self._sq(2, 2, 2))       # shared corner
        assert not G.touches(a, self._sq(1, 1, 2))   # overlapping
        assert not G.touches(a, self._sq(5, 5, 2))   # disjoint

    def test_crosses_lines(self):
        import numpy as np
        from gdal_ray.core import geom as G
        l1 = G.Geometry(G.LINESTRING, coords=np.array([(0, 0), (4, 4)], float))
        l2 = G.Geometry(G.LINESTRING, coords=np.array([(0, 4), (4, 0)], float))
        l3 = G.Geometry(G.LINESTRING, coords=np.array([(0, 1), (4, 5)], float))
        assert G.crosses(l1, l2)
        assert not G.crosses(l1, l3)                 # parallel

    def test_crosses_line_polygon(self):
        import numpy as np
        from gdal_ray.core import geom as G
        poly = self._sq(0, 0, 4)
        through = G.Geometry(G.LINESTRING,
                             coords=np.array([(-2, 2), (6, 2)], float))
        inside = G.Geometry(G.LINESTRING,
                            coords=np.array([(1, 1), (3, 3)], float))
        assert G.crosses(through, poly)
        assert not G.crosses(inside, poly)           # wholly interior

    def test_overlaps(self):
        from gdal_ray.core import geom as G
        a = self._sq(0, 0, 4)
        assert G.overlaps(a, self._sq(2, 2, 4))
        assert not G.overlaps(a, self._sq(1, 1, 2))  # contained
        assert not G.overlaps(a, self._sq(4, 0, 4))  # touches only

    def test_distance(self):
        import numpy as np
        from gdal_ray.core import geom as G
        a = self._sq(0, 0, 2)
        b = self._sq(5, 0, 2)
        assert abs(G.distance(a, b) - 3.0) < 1e-12
        assert G.distance(a, self._sq(1, 1, 4)) == 0.0
        c = self._sq(5, 5, 2)                        # diagonal gap
        assert abs(G.distance(a, c) - np.hypot(3, 3)) < 1e-12
        from gdal_ray.core import wkb as W
        pt = W.point(0, 10)
        assert abs(G.distance(a, pt) - 8.0) < 1e-12


class TestBufferConstructive:
    """Round-2 buffer for lines and polygons (the last constructive
    gap — round joins/caps, area law A + P·d + πd² for convex)."""

    def test_segment_capsule(self):
        import numpy as np
        from gdal_ray.core import geom as G
        g = G.buffer_line(np.array([(0.0, 0.0), (10.0, 0.0)]), 2.0, 32)
        a = abs(G.ring_area(g.rings[0]))
        assert abs(a - (2 * 10 * 2 + np.pi * 4)) < 0.02

    def test_convex_polygon_area_law(self):
        import numpy as np
        from gdal_ray.core import geom as G, wkb as W
        for d in (1.0, 3.0):
            gb = G.buffer_polygon(W.box(0, 0, 10, 10), d, 32)
            expect = 100 + 40 * d + np.pi * d * d
            assert abs(G.area(gb) - expect) / expect < 1e-3

    def test_buffered_contains_original(self):
        import numpy as np
        from gdal_ray.core import geom as G, wkb as W
        src = W.box(0, 0, 10, 10)
        gb = G.buffer_polygon(src, 2.0, 16)
        # every original vertex + edge midpoint strictly inside
        pts = src.rings[0]
        assert G.points_in_polygon(pts[:, 0], pts[:, 1], gb).all()

    def test_multipolygon_dispatch(self):
        from gdal_ray.core import geom as G, wkb as W
        mp = W.multipolygon([W.box(0, 0, 1, 1), W.box(5, 5, 6, 6)])
        out = G.buffer_geometry(mp, 0.5)
        assert out.geom_type == W.MULTIPOLYGON
        assert G.area(out) > 2.0

    def test_vector_ops_wrapper(self):
        import numpy as np
        from gdal_ray.core import geom as G, wkb as W
        from gdal_ray.stages.vector_ops import buffer_geometry
        line = W.Geometry(W.LINESTRING,
                          coords=np.array([(0, 0), (5, 0), (5, 5)], float))
        out = buffer_geometry(line, 1.0)
        assert out.geom_type == W.POLYGON
        assert G.area(out) > 2 * 10 * 1 * 0.8   # ballpark of capsule law


class TestCodecRegistry:
    @pytest.fixture(autouse=True)
    def codec_table(self):
        """register_codec edits the process-wide table: undo it, so
        later tests see only the built-ins, in their sniff order."""
        from gdal_ray import codecs
        saved = list(codecs._CODECS.items())
        yield
        if "raw8t" in codecs._CODECS:
            codecs.unregister_codec("raw8t")
        assert list(codecs._CODECS.items()) == saved

    def test_register_custom_codec(self):
        import numpy as np
        from gdal_ray import codecs
        codecs.register_codec(
            "raw8t",
            lambda img, **kw: b"RAW8T" + bytes(img.shape) + img.tobytes(),
            lambda b: np.frombuffer(b[8:], np.uint8).reshape(b[5], b[6], b[7]),
            sniffer=lambda b: b[:5] == b"RAW8T")
        a = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        buf = codecs.encode(a, "raw8t")
        assert np.array_equal(codecs.decode(buf, "raw8t"), a)
        assert np.array_equal(codecs.decode(buf), a)      # magic sniff
        import pytest
        with pytest.raises(TypeError):
            codecs.register_codec("bad", 1, 2)

    def test_unregister_brings_back_a_replaced_builtin(self):
        import numpy as np
        from gdal_ray import codecs
        png = codecs._CODECS["png"]
        codecs.register_codec("png", lambda img, **kw: b"",
                              lambda b: np.zeros((1, 1), np.uint8))
        codecs.register_codec("raw8t", lambda img, **kw: b"",
                              lambda b: np.zeros((1, 1), np.uint8))
        assert list(codecs._CODECS)[:2] == ["raw8t", "png"]
        codecs.unregister_codec("png")
        assert list(codecs._CODECS)[:2] == ["raw8t", "png"]
        assert codecs._CODECS["png"] is png
        with pytest.raises(KeyError):
            codecs.unregister_codec("png")


class TestCurvedWKB:
    """Curved / Z / surface WKB types (ogr/ogr_core.h:440-525) are
    accepted on read and linearized to the flat ISO set, mirroring
    OGRGeometryFactory::curveToLineString / forceTo semantics."""

    @staticmethod
    def _wkb(gtype, payload):
        import struct
        return b"\x01" + struct.pack("<I", gtype) + payload

    @staticmethod
    def _pts(*xy):
        import struct
        n = len(xy)
        return struct.pack("<I", n) + b"".join(
            struct.pack("<2d", x, y) for x, y in xy)

    @staticmethod
    def _pts3(*xyz):
        import struct
        n = len(xyz)
        return struct.pack("<I", n) + b"".join(
            struct.pack("<3d", x, y, z) for x, y, z in xyz)

    def test_circularstring_half_circle(self):
        # arc (0,0) -> (1,1) -> (2,0): half circle centered (1,0) r=1
        buf = self._wkb(8, self._pts((0, 0), (1, 1), (2, 0)))
        g = wkb.loads(buf)
        assert g.geom_type == wkb.LINESTRING
        assert len(g.coords) > 20                       # densified at 4°
        np.testing.assert_allclose(g.coords[0], [0, 0], atol=1e-12)
        np.testing.assert_allclose(g.coords[-1], [2, 0], atol=1e-12)
        r = np.hypot(g.coords[:, 0] - 1.0, g.coords[:, 1])
        np.testing.assert_allclose(r, 1.0, atol=1e-9)   # on the circle
        env = g.envelope()
        np.testing.assert_allclose(env, (0, 0, 2, 1), atol=1e-3)

    def test_circularstring_full_circle_envelope(self):
        # start == end: full circle centered (1,0), r=1
        buf = self._wkb(8, self._pts((0, 0), (2, 0), (0, 0)))
        env = wkb.loads(buf).envelope()
        np.testing.assert_allclose(env, (0, -1, 2, 1), atol=1e-3)

    def test_circularstring_25d(self):
        # ISO Z variant 1008: extra ordinate read and dropped
        buf = self._wkb(1008, self._pts3((0, 0, 5), (1, 1, 5), (2, 0, 5)))
        g = wkb.loads(buf)
        assert g.geom_type == wkb.LINESTRING
        np.testing.assert_allclose(g.envelope(), (0, 0, 2, 1), atol=1e-3)

    def test_compoundcurve_chains_segments(self):
        # linestring (0,0)-(2,0) then arc (2,0)->(3,1)->(4,0)
        seg1 = self._wkb(2, self._pts((0, 0), (2, 0)))
        seg2 = self._wkb(8, self._pts((2, 0), (3, 1), (4, 0)))
        import struct
        buf = self._wkb(9, struct.pack("<I", 2) + seg1 + seg2)
        g = wkb.loads(buf)
        assert g.geom_type == wkb.LINESTRING
        np.testing.assert_allclose(g.coords[0], [0, 0])
        np.testing.assert_allclose(g.coords[-1], [4, 0], atol=1e-12)
        # joint point not duplicated
        d = np.linalg.norm(np.diff(g.coords, axis=0), axis=1)
        assert (d > 1e-12).all()
        np.testing.assert_allclose(g.envelope(), (0, 0, 4, 1), atol=1e-3)

    def test_curvepolygon_circle(self):
        import struct
        ring = self._wkb(8, self._pts((0, 0), (2, 0), (0, 0)))
        buf = self._wkb(10, struct.pack("<I", 1) + ring)
        g = wkb.loads(buf)
        assert g.geom_type == wkb.POLYGON
        assert len(g.rings) == 1
        r = g.rings[0]
        np.testing.assert_allclose(r[0], r[-1])         # closed
        np.testing.assert_allclose(g.envelope(), (0, -1, 2, 1), atol=1e-3)
        # area of the linearized circle ≈ pi r^2
        x, y = r[:, 0], r[:, 1]
        area = 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
        np.testing.assert_allclose(area, np.pi, rtol=2e-3)

    def test_multicurve_multisurface(self):
        import struct
        ls = self._wkb(2, self._pts((0, 0), (1, 0)))
        arc = self._wkb(8, self._pts((1, 0), (2, 1), (3, 0)))
        mc = self._wkb(11, struct.pack("<I", 2) + ls + arc)
        g = wkb.loads(mc)
        assert g.geom_type == wkb.MULTILINESTRING
        assert len(g.parts) == 2
        poly = self._wkb(3, struct.pack("<I", 1)
                         + self._pts((0, 0), (1, 0), (1, 1), (0, 0)))
        ring = self._wkb(8, self._pts((4, 0), (6, 0), (4, 0)))
        cpoly = self._wkb(10, struct.pack("<I", 1) + ring)
        msurf = self._wkb(12, struct.pack("<I", 2) + poly + cpoly)
        g = wkb.loads(msurf)
        assert g.geom_type == wkb.MULTIPOLYGON
        np.testing.assert_allclose(g.envelope(), (0, -1, 6, 1), atol=1e-3)

    def test_tin_and_triangle(self):
        import struct
        tri = self._wkb(17, struct.pack("<I", 1)
                        + self._pts((0, 0), (1, 0), (0, 1), (0, 0)))
        g = wkb.loads(tri)
        assert g.geom_type == wkb.POLYGON
        tin = self._wkb(16, struct.pack("<I", 2) + tri
                        + self._wkb(17, struct.pack("<I", 1)
                                    + self._pts((1, 0), (1, 1), (0, 1), (1, 0))))
        g = wkb.loads(tin)
        assert g.geom_type == wkb.MULTIPOLYGON
        np.testing.assert_allclose(g.envelope(), (0, 0, 1, 1))

    def test_gpkg_3d_fixture_envelopes(self):
        """Reference 2.5D GPKG fixture parses with correct envelopes."""
        import os
        p = "/root/reference/autotest/ogr/data/gpkg/3d_envelope.gpkg"
        if not os.path.exists(p):
            pytest.skip("reference fixtures absent")
        from gdal_ray.sources.gpkg import read_gpkg
        t = read_gpkg(p)
        env = wkb.envelopes_of_wkb(t["wkb"].to_pylist())
        assert np.isfinite(env).all()
        assert (env[:, 2] >= env[:, 0]).all() and (env[:, 3] >= env[:, 1]).all()
