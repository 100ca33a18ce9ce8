"""Spatial join / PiP / kNN vs brute-force in-memory oracles
(the oracle implements ogrlayer.cpp:4005-4072 semantics directly)."""

import numpy as np
import pandas as pd
import pytest

from gdal_ray.core import geom, wkb
from gdal_ray.sources.vector import make_polygon, points_table, polygons_table


@pytest.fixture(scope="module")
def images_geo(ray_session):
    from gdal_ray.sources.images import images_dataset
    from gdal_ray.stages.georef import with_georef
    return images_dataset(120).map_batches(with_georef, batch_format="pyarrow").materialize()


def brute_force_pairs(img_df, n_polys):
    pairs = set()
    for _, r in img_df.iterrows():
        box = wkb.box(r["minx"], r["miny"], r["maxx"], r["maxy"])
        for j in range(n_polys):
            g = make_polygon(j)
            if geom.intersects(box, g):
                pairs.add((r["image_id"], j))
    return pairs


class TestSpatialJoin:
    @pytest.mark.parametrize("zoom", [5, 7])
    def test_vs_bruteforce(self, ray_session, images_geo, zoom):
        from gdal_ray.stages.join import spatial_join
        from gdal_ray.sources.vector import polygons_dataset
        res = spatial_join(images_geo, polygons_dataset(40), zoom=zoom).to_pandas()
        got = set(zip(res["image_id"], res["fid"]))
        img_df = images_geo.select_columns(
            ["image_id", "minx", "miny", "maxx", "maxy"]).to_pandas()
        expect = brute_force_pairs(img_df, 40)
        assert got == expect
        # no duplicate pairs (PBSM reference-point dedup works)
        assert len(res) == len(got)


    def test_contains_vs_bruteforce(self, ray_session, images_geo):
        from gdal_ray.stages.join import spatial_join
        from gdal_ray.sources.vector import polygons_dataset
        res = spatial_join(images_geo, polygons_dataset(40), zoom=7,
                           predicate="contains").to_pandas()
        got = set(zip(res["image_id"], res["fid"]))
        img_df = images_geo.select_columns(
            ["image_id", "minx", "miny", "maxx", "maxy"]).to_pandas()
        expect = set()
        for _, r in img_df.iterrows():
            box = wkb.box(r["minx"], r["miny"], r["maxx"], r["maxy"])
            for j in range(40):
                if geom.contains(make_polygon(j), box):
                    expect.add((r["image_id"], j))
        assert expect and got == expect
        assert len(res) == len(got)

    def test_unknown_predicate_raises_at_call(self):
        from gdal_ray.stages.join import spatial_join
        with pytest.raises(ValueError, match="predicate"):
            spatial_join(None, None, predicate="touches")


def _bucket(zoom):
    """One hand-built bucket table (stages.join.PAIR_COLS) spanning many
    cells: image boxes near the synthetic polygons, a far-away image, and
    one image x polygon pair straddling a tile boundary."""
    import pyarrow as pa
    from gdal_ray.core import mercator as merc
    from gdal_ray.stages.join import PAIR_COLS, _cover_cells_batch

    polys = polygons_table(40)
    rng = np.random.default_rng(7)
    cx = (polys["minx"].to_numpy() + polys["maxx"].to_numpy()) / 2
    cy = (polys["miny"].to_numpy() + polys["maxy"].to_numpy()) / 2
    x = np.repeat(cx, 3) + rng.uniform(-30e3, 30e3, 120)
    y = np.repeat(cy, 3) + rng.uniform(-30e3, 30e3, 120)
    half = rng.uniform(1e3, 15e3, 120)
    minx, miny, maxx, maxy = x - half, y - half, x + half, y + half
    ids = [f"img{i}" for i in range(120)]
    # straddle: a box across the boundary between two tiles of one row,
    # inside a diamond (not a rectangle) that crosses it too
    tile = 2 * merc.ORIGIN_SHIFT / (1 << zoom)
    xb, yb = -merc.ORIGIN_SHIFT + 301 * tile, -merc.ORIGIN_SHIFT + 200.5 * tile
    diamond = wkb.polygon([(xb, yb - 5e3), (xb + 5e3, yb), (xb, yb + 5e3),
                           (xb - 5e3, yb)])
    minx = np.append(minx, [xb - 1e3, 0.0])
    miny = np.append(miny, [yb - 500.0, 0.0])
    maxx = np.append(maxx, [xb + 1e3, 10.0])
    maxy = np.append(maxy, [yb + 500.0, 10.0])
    ids += ["straddle", "lonely"]
    imgs = pa.table({"image_id": ids, "minx": minx, "miny": miny,
                     "maxx": maxx, "maxy": maxy})
    polys = pa.concat_tables([polys, pa.Table.from_pylist([{
        "fid": 999, "wkb": wkb.dumps(diamond),
        "minx": xb - 5e3, "miny": yb - 5e3, "maxx": xb + 5e3, "maxy": yb + 5e3,
        "name": "diamond", "category": "x"}], schema=polys.schema)])
    img_rows = _cover_cells_batch(imgs, zoom, imgs.column_names)
    n = img_rows.num_rows
    img_rows = (img_rows.append_column("side", pa.array(["I"] * n))
                .append_column("fid", pa.nulls(n, pa.int64()))
                .append_column("wkb", pa.nulls(n, pa.binary()))
                .append_column("name", pa.nulls(n, pa.string()))
                .append_column("category", pa.nulls(n, pa.string())))
    poly_rows = _cover_cells_batch(polys, zoom, polys.column_names)
    n = poly_rows.num_rows
    poly_rows = (poly_rows.append_column("side", pa.array(["P"] * n))
                 .append_column("image_id", pa.nulls(n, pa.string())))
    return pa.concat_tables([img_rows.select(PAIR_COLS),
                             poly_rows.select(PAIR_COLS)])


class TestBucketKernel:
    def test_same_cell_pairs_vs_double_loop(self):
        from gdal_ray.stages.join import same_cell_pairs
        rng = np.random.default_rng(3)
        for na, nb in [(0, 0), (0, 6), (6, 0), (1, 1), (40, 30), (100, 7)]:
            # keys 0-5 occur only in a, 12-17 only in b
            a = rng.integers(0, 12, na).astype(np.uint64)
            b = rng.integers(6, 18, nb).astype(np.uint64)
            i, j = same_cell_pairs(a, b)
            expect = [(p, q) for p in range(na) for q in range(nb)
                      if a[p] == b[q]]
            assert sorted(zip(i.tolist(), j.tolist())) == expect
            assert len(i) == len(expect)
            assert (np.diff(i) >= 0).all()

    @pytest.mark.parametrize("predicate", ["intersects", "contains"])
    def test_one_bucket_equals_per_cell_calls(self, predicate):
        import pyarrow.compute as pc
        from gdal_ray.stages.join import SpatialJoinCell
        zoom = 9
        t = _bucket(zoom)
        cells = t["cell"].to_numpy()
        side = np.array(t["side"].to_pylist())
        img_cells, poly_cells = set(cells[side == "I"]), set(cells[side == "P"])
        assert len(set(cells)) > 50
        assert img_cells - poly_cells and poly_cells - img_cells
        ids = np.array(t["image_id"].to_pylist(), dtype=object)
        fids = t["fid"].to_numpy(zero_copy_only=False)
        straddle = set(cells[ids == "straddle"])
        assert len(straddle) == 2 and straddle == set(cells[fids == 999])

        def pairs(res):
            return list(zip(res["image_id"].to_pylist(),
                            res["fid"].to_pylist()))

        whole = pairs(SpatialJoinCell(zoom, predicate)(t))
        per_cell = []
        for c in np.unique(cells):
            per_cell += pairs(SpatialJoinCell(zoom, predicate)(
                t.filter(pc.equal(t["cell"], c))))
        assert len(whole) == len(set(whole)) >= 10
        assert sorted(whole) == sorted(per_cell)
        assert whole.count(("straddle", 999)) == 1


class TestPiPJoin:
    def test_inner_vs_bruteforce(self, ray_session):
        from gdal_ray.stages.join import pip_join
        from gdal_ray.sources.vector import points_dataset, polygons_dataset
        res = pip_join(points_dataset(200), polygons_dataset(30), zoom=6).to_pandas()
        got = set(zip(res["pt_fid"].astype(int), res["fid"].astype(int)))

        pts = points_table(200).to_pandas()
        expect = set()
        for j in range(30):
            g = make_polygon(j)
            inside = geom.points_in_polygon(pts["x"].to_numpy(), pts["y"].to_numpy(), g)
            for i in np.nonzero(inside)[0]:
                expect.add((int(pts.iloc[i]["fid"]), j))
        assert got == expect

    def test_semi_anti_partition(self, ray_session):
        from gdal_ray.stages.join import pip_join
        from gdal_ray.sources.vector import points_dataset, polygons_dataset
        semi = pip_join(points_dataset(150), polygons_dataset(25), zoom=6,
                        emit="semi").to_pandas()
        anti = pip_join(points_dataset(150), polygons_dataset(25), zoom=6,
                        emit="anti").to_pandas()
        s = set(semi["pt_fid"].astype(int))
        a = set(anti["pt_fid"].astype(int))
        assert s.isdisjoint(a)
        assert s | a == set(range(150))

    def test_unknown_emit_raises_at_call(self):
        from gdal_ray.stages.join import pip_join
        with pytest.raises(ValueError, match="emit"):
            pip_join(None, None, emit="outer")


class TestKnn:
    def test_knn_vs_bruteforce(self, ray_session):
        from gdal_ray.stages.join import knn_join
        from gdal_ray.sources.vector import points_dataset

        # dense cluster only → halo assumption holds at coarse zoom
        pts = points_table(300).to_pandas()
        cluster = pts[pts.fid % 5 == 2].reset_index(drop=True)
        import ray.data as rd
        import pyarrow as pa
        data = rd.from_arrow(pa.Table.from_pandas(cluster[["fid", "x", "y"]]))
        qs = cluster[["fid", "x", "y"]].head(10)
        queries = rd.from_arrow(pa.Table.from_pandas(qs))
        res = knn_join(data, queries, k=3, zoom=6).to_pandas()
        for qid in qs["fid"]:
            qrow = qs[qs.fid == qid].iloc[0]
            d = np.sqrt((cluster.x - qrow.x) ** 2 + (cluster.y - qrow.y) ** 2)
            expect = set(cluster.loc[np.argsort(d.to_numpy())[:3], "fid"])
            got = set(res[res.qid == qid]["fid"].astype(int))
            assert got == expect, qid
