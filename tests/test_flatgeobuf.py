"""FlatGeobuf driver — reference-fixture parity, writer roundtrip,
packed-R-tree bbox search, GeoParquet metadata.

Reference: ogr/ogrsf_frmts/flatgeobuf/ (header_generated.h field ids,
packedrtree.cpp layout), autotest/ogr/ogr_flatgeobuf.py:855-885
fixture expectations."""

import os

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.sources.flatgeobuf import (fgb_crs, read_fgb, rtree_size,
                                         write_fgb)

FIX = "/root/reference/autotest/ogr/data/flatgeobuf"


@pytest.mark.skipif(not os.path.isdir(FIX), reason="reference absent")
class TestReferenceFixtures:
    def test_singlepart_mls(self):
        """autotest expects MULTILINESTRING ((0 0,1 1)) — a single-part
        multilinestring without the ends array (gdal #10774)."""
        t = read_fgb(f"{FIX}/test_ogr_flatgeobuf_singlepart_mls_new.fgb")
        assert t.num_rows == 1
        g = W.loads(t["wkb"][0].as_py())
        assert g.geom_type == W.MULTILINESTRING
        assert len(g.parts) == 1
        np.testing.assert_allclose(g.parts[0].coords, [[0, 0], [1, 1]])
        assert (t["minx"][0].as_py(), t["maxy"][0].as_py()) == (0.0, 1.0)

    def test_coordinate_epoch_crs_wkt(self):
        """autotest asserts the stored CRS WKT is geographic."""
        crs = fgb_crs(f"{FIX}/test_ogr_flatgeobuf_coordinate_epoch.fgb")
        assert crs["wkt"] is not None
        assert "GEOGCRS" in crs["wkt"]


def _layer(n=200, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    return xs, ys, pa.table({
        "wkb": pa.array([W.dumps(W.point(x, y)) for x, y in zip(xs, ys)],
                        pa.binary()),
        "pid": pa.array(np.arange(n), pa.int64()),
        "tag": pa.array([f"t{i % 7}" for i in range(n)], pa.string()),
        "score": pa.array([None if i % 11 == 0 else i * 0.5
                           for i in range(n)], pa.float64()),
    })


class TestRoundtrip:
    def test_attrs_and_nulls(self, tmp_path):
        _, _, t = _layer(50)
        p = str(tmp_path / "a.fgb")
        write_fgb(t, p, crs_code=4326)
        back = read_fgb(p)
        assert back.num_rows == 50
        # hilbert sort reorders; compare by pid
        order = np.argsort(back["pid"].to_numpy())
        assert [back["tag"][int(i)].as_py() for i in order] \
            == t["tag"].to_pylist()
        got_scores = [back["score"][int(i)].as_py() for i in order]
        assert got_scores == t["score"].to_pylist()       # nulls preserved
        assert [back["wkb"][int(i)].as_py() for i in order] \
            == t["wkb"].to_pylist()
        assert fgb_crs(p)["code"] == 4326

    def test_geometry_variety(self, tmp_path):
        geoms = [
            W.polygon([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)],
                      holes=[[(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]]),
            W.multipolygon([W.polygon([(5, 5), (6, 5), (6, 6), (5, 5)]),
                            W.polygon([(7, 7), (8, 7), (8, 8), (7, 7)])]),
            W.Geometry(W.MULTILINESTRING,
                       parts=[W.linestring([(0, 0), (1, 1)]),
                              W.linestring([(2, 2), (3, 3)])]),
            W.multipoint([(1, 2), (3, 4)]),
            W.collection([W.point(9, 9), W.linestring([(0, 9), (9, 0)])]),
        ]
        t = pa.table({"wkb": pa.array([W.dumps(g) for g in geoms],
                                      pa.binary()),
                      "k": pa.array(range(len(geoms)), pa.int64())})
        p = str(tmp_path / "g.fgb")
        write_fgb(t, p)
        back = read_fgb(p)
        order = np.argsort(back["k"].to_numpy())
        for i, g in enumerate(geoms):
            got = W.loads(back["wkb"][int(order[i])].as_py())
            assert got.geom_type == g.geom_type
            np.testing.assert_allclose(got.envelope(), g.envelope())
        # polygon hole survives
        g0 = W.loads(back["wkb"][int(order[0])].as_py())
        assert len(g0.rings) == 2

    def test_unindexed_variant(self, tmp_path):
        _, _, t = _layer(30)
        p = str(tmp_path / "u.fgb")
        write_fgb(t, p, index=False)
        back = read_fgb(p)
        assert sorted(back["pid"].to_pylist()) == list(range(30))
        # file is exactly header + features: no index section
        assert read_fgb(p, bbox=(0, 0, 100, 100)).num_rows == 30


class TestRtree:
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 300, 1000])
    def test_bbox_search_exact(self, tmp_path, n):
        xs, ys, t = _layer(n, seed=n)
        p = str(tmp_path / f"r{n}.fgb")
        write_fgb(t, p)
        bb = (20.0, 30.0, 55.0, 70.0)
        sub = read_fgb(p, bbox=bb)
        want = {i for i in range(n)
                if bb[0] <= xs[i] <= bb[2] and bb[1] <= ys[i] <= bb[3]}
        assert set(sub["pid"].to_pylist()) == want

    def test_rtree_size_formula(self):
        # packedrtree.cpp: numNodes over levels, 40 bytes per node
        assert rtree_size(1, 16) == 2 * 40
        assert rtree_size(16, 16) == 17 * 40
        assert rtree_size(17, 16) == (17 + 2 + 1) * 40


class TestDriverRegistry:
    def test_read_vector_routes_fgb(self, tmp_path):
        from gdal_ray.sources.drivers import read_vector
        _, _, t = _layer(10)
        p = str(tmp_path / "d.fgb")
        write_fgb(t, p)
        assert read_vector(p).num_rows == 10

