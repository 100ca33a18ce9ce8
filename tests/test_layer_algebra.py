"""Layer algebra: intersection against a plane-partitioning tile-rect
layer must reproduce each polygon's area exactly (strong conservation
oracle); clip/erase vs closed forms."""

import functools

import numpy as np
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.core.geom import area
from gdal_ray.core.overlay import intersection_area
from gdal_ray.sources.vector import (boxes_table, polygons_dataset,
                                     polygons_table, tile_rects_dataset,
                                     tile_rects_table)
from gdal_ray.stages.layer_algebra import (layer_clip_rect, layer_erase_layer,
                                           layer_erase_rect,
                                           layer_intersection,
                                           layer_set_op_pairs,
                                           layer_update_layer)


def bbox_of_layer(t):
    return (t["minx"].to_numpy().min(), t["miny"].to_numpy().min(),
            t["maxx"].to_numpy().max(), t["maxy"].to_numpy().max())


class TestLayerIntersection:
    def test_area_conservation(self, ray_session):
        """Σ_B area(a ∩ b) over the tile partition == area(a)."""
        pt = polygons_table(12)
        minx, miny, maxx, maxy = bbox_of_layer(pt)
        pad = 10000.0
        zones = tile_rects_dataset(6, minx - pad, miny - pad,
                                   maxx + pad, maxy + pad)
        out = layer_intersection(polygons_dataset(12), zones, zoom=6) \
            .to_pandas()
        got = out.groupby("fid_a")["inter_area"].sum()
        for _, row in pt.to_pandas().iterrows():
            g = W.loads(row["wkb"])
            expect = area(g)
            assert abs(got[row["fid"]] - expect) < 1e-6 * expect, row["fid"]

    def test_pair_uniqueness(self, ray_session):
        pt = polygons_table(12)
        minx, miny, maxx, maxy = bbox_of_layer(pt)
        zones = tile_rects_dataset(6, minx, miny, maxx, maxy)
        out = layer_intersection(polygons_dataset(12), zones, zoom=6) \
            .to_pandas()
        assert not out.duplicated(["fid_a", "fid_b"]).any()


class TestClipErase:
    def test_clip_areas(self, ray_session):
        pt = polygons_table(8).to_pandas()
        minx, miny, maxx, maxy = (pt["minx"].min(), pt["miny"].min(),
                                  pt["maxx"].mean(), pt["maxy"].mean())
        clipped = layer_clip_rect(polygons_dataset(8),
                                  minx, miny, maxx, maxy).to_pandas()
        from gdal_ray.core.overlay import intersection_area
        rect = W.box(minx, miny, maxx, maxy)
        for _, row in clipped.iterrows():
            orig = W.loads(pt.set_index("fid").loc[row["fid"], "wkb"])
            expect = intersection_area(orig, rect)
            got = area(W.loads(row["wkb"]))
            # clip_to_rect on polygons with holes may take the S-H
            # bridge form; areas still agree
            assert abs(got - expect) < 1e-6 * max(1.0, expect), row["fid"]

    def test_erase_complement(self, ray_session):
        pt = polygons_table(8).to_pandas()
        minx, miny, maxx, maxy = (pt["minx"].min(), pt["miny"].min(),
                                  pt["maxx"].max(), pt["maxy"].max())
        out = layer_erase_rect(polygons_dataset(8),
                               minx, miny, maxx, maxy).to_pandas()
        # rect covers everything → erased area 0
        assert np.allclose(out["erased_area"], 0.0, atol=1e-6)
        # and a rect covering nothing → erased == area
        out2 = layer_erase_rect(polygons_dataset(8), 0, 0, 1, 1).to_pandas()
        assert np.allclose(out2["erased_area"], out2["area"])


class TestSetOps:
    """Round-2 layer-algebra set ops (ogrlayer.cpp:5804-7847)."""

    def test_pair_areas_identities(self, ray_session):
        from gdal_ray.sources.vector import boxes_dataset, polygons_dataset
        from gdal_ray.stages.layer_algebra import layer_set_op_pairs
        out = layer_set_op_pairs(polygons_dataset(15), boxes_dataset(20),
                                 zoom=6).to_pandas()
        assert len(out) > 0
        # set identities hold row-wise
        assert (abs(out.union_area - (out.area_a + out.area_b
                                      - out.inter_area)) < 1e-6).all()
        assert (abs(out.symdiff_area - (out.union_area
                                        - out.inter_area)) < 1e-6).all()
        assert (out.inter_area <= out.area_a + 1e-6).all()
        assert (out.inter_area <= out.area_b + 1e-6).all()

    def test_erase_vs_plane_partition_is_zero(self, ray_session):
        """Erasing a plane-partitioning tile layer removes everything."""
        import numpy as np
        from gdal_ray.sources.vector import polygons_table, polygons_dataset, \
            tile_rects_dataset
        from gdal_ray.stages.layer_algebra import layer_erase_layer
        pt = polygons_table(10)
        zones = tile_rects_dataset(
            6, pt["minx"].to_numpy().min() - 1e4,
            pt["miny"].to_numpy().min() - 1e4,
            pt["maxx"].to_numpy().max() + 1e4,
            pt["maxy"].to_numpy().max() + 1e4)
        out = layer_erase_layer(polygons_dataset(10), zones, zoom=6) \
            .to_pandas()
        assert len(out) == 10
        assert np.allclose(out["erased_area"], 0.0, atol=out["area"].max() * 1e-9)

    def test_update_areas(self, ray_session):
        """Update(A, B): total output area = area(B) + area(A outside B)."""
        from gdal_ray.sources.vector import boxes_dataset, polygons_dataset
        from gdal_ray.stages.layer_algebra import layer_update_layer
        out = layer_update_layer(polygons_dataset(8), boxes_dataset(10),
                                 zoom=6).to_pandas()
        assert set(out["side"]) <= {"A", "B"}
        assert (out.loc[out.side == "B", "out_area"] > 0).all()
        assert (out.loc[out.side == "A", "out_area"] >= -1e-6).all()

    def test_clip_geom_arbitrary(self, ray_session):
        """Clip by an arbitrary concave polygon: area equals the exact
        pairwise intersection; clipped multipolygon WKB parses."""
        import numpy as np
        from gdal_ray.core import wkb as W
        from gdal_ray.core.overlay import intersection_area
        from gdal_ray.sources.vector import make_polygon, polygons_dataset
        from gdal_ray.stages.layer_algebra import layer_clip_geom
        clip = make_polygon(7)   # k=2: concave L-shape
        out = layer_clip_geom(polygons_dataset(20), clip).to_pandas()
        assert len(out) >= 1
        for _, row in out.iterrows():
            g = W.loads(row["wkb"])          # parses
            src = make_polygon(int(row["fid"]))
            assert abs(row["clip_area"]
                       - intersection_area(src, clip)) < 1e-3


def _layer_b(kind: str):
    """Second layer of the brute-force checks: axis boxes, or z5 tile
    rects over the polygons (fid = cell id, above 2**53; each rect spans
    several join cells at zoom 6 and 7)."""
    if kind == "boxes":
        return boxes_table(20)
    return tile_rects_table(5, *bbox_of_layer(polygons_table(12)))


@functools.lru_cache(maxsize=None)
def _brute_pairs(kind: str, m: int) -> dict:
    """All-pairs double loop: (fid_a, fid_b) → area(a ∩ b) > 1e-9."""
    a = polygons_table(m)
    b = _layer_b(kind)
    gb = [(f, W.loads(w)) for f, w in zip(b["fid"].to_pylist(),
                                          b["wkb"].to_pylist())]
    out = {}
    for fa, wa in zip(a["fid"].to_pylist(), a["wkb"].to_pylist()):
        ga = W.loads(wa)
        for fb, g in gb:
            ar = intersection_area(ga, g)
            if ar > 1e-9:
                out[(fa, fb)] = ar
    return out


class TestSetOpPairsBruteForce:
    """The cell-partitioned set-op pairs equal an all-pairs double loop:
    no pair lost at a cell boundary, none emitted twice, fids exact."""

    @pytest.mark.parametrize("zoom", [6, 7])
    @pytest.mark.parametrize("kind,m", [("boxes", 15), ("tiles", 12)])
    def test_matches_all_pairs(self, ray_session, kind, m, zoom):
        import ray.data as rd
        expect = _brute_pairs(kind, m)
        assert expect
        b = _layer_b(kind)
        if kind == "tiles":
            assert min(b["fid"].to_pylist()) > 2**53
        out = layer_set_op_pairs(polygons_dataset(m), rd.from_arrow(b),
                                 zoom=zoom).to_pandas()
        got = {(int(fa), int(fb)): ar for fa, fb, ar
               in zip(out.fid_a, out.fid_b, out.inter_area)}
        assert len(got) == len(out)
        assert set(got) == set(expect)
        for key, ar in expect.items():
            assert got[key] == pytest.approx(ar, rel=1e-12), key
        inter = layer_intersection(polygons_dataset(m), rd.from_arrow(b),
                                   zoom=zoom).to_pandas()
        cols = ["fid_a", "fid_b", "inter_area"]
        proj = out[cols].sort_values(cols).reset_index(drop=True)
        inter = inter.sort_values(cols).reset_index(drop=True)
        assert list(inter.columns) == cols
        assert inter.equals(proj)


class TestDisjointLayers:
    """Erase/Update when no A × B pair intersects: every A feature keeps
    its whole area."""

    @staticmethod
    def _far_boxes(m: int, dx: float = 1e7):
        import ray.data as rd
        t = boxes_table(m)
        env = [t[c].to_numpy() + (dx if c.endswith("x") else 0.0)
               for c in ("minx", "miny", "maxx", "maxy")]
        rows = [{"fid": f, "wkb": W.dumps(W.box(*e)), "minx": e[0],
                 "miny": e[1], "maxx": e[2], "maxy": e[3]}
                for f, *e in zip(t["fid"].to_pylist(), *env)]
        return rd.from_items(rows)

    def test_erase_disjoint(self, ray_session):
        out = layer_erase_layer(polygons_dataset(5), self._far_boxes(5),
                                zoom=6).to_pandas()
        assert sorted(out["fid"]) == list(range(5))
        assert (out["erased_area"] == out["area"]).all()
        assert (out["area"] > 0).all()

    def test_update_disjoint(self, ray_session):
        out = layer_update_layer(polygons_dataset(5), self._far_boxes(5),
                                 zoom=6).to_pandas()
        a = out[out.side == "A"].set_index("fid")["out_area"]
        assert sorted(a.index) == list(range(5))
        for f in range(5):
            assert a[f] == pytest.approx(area(W.loads(
                polygons_table(5)["wkb"][f].as_py())), rel=1e-12)
        assert (out.side == "B").sum() == 5
