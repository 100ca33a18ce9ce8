"""Regression tests for the round-3 advisory findings (ADVICE.md) and
the round-3 verdict's scale fixes: VRT ComplexSource pre-scale NODATA,
integer-safe stitch component maps, subqueries in list-valued AST
fields, FGB bbox fid stability, Dataset-returning SQL DISTINCT/ORDER,
uniform ANN training samples, persisted PQ codes."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


class TestVrtComplexNodata:
    def test_nodata_compares_raw_source_before_scale(self, tmp_path):
        """frmts/vrt/vrtsources.cpp masks on the RAW sample, then
        scales. A source pixel == NODATA must be skipped even when
        ratio/offset move it away from the nodata value, and a pixel
        that SCALES INTO the nodata value must still be written."""
        from gdal_ray.codecs.gtiff import encode_gtiff
        from gdal_ray.sources.vrt import read_vrt

        src = np.array([[5, 10], [20, 25]], np.uint8)   # 5 = nodata
        (tmp_path / "s.tif").write_bytes(encode_gtiff(src))
        # ratio 2 offset 1: 5→11 (still masked), 10→21, 20→41, 25→51.
        # raw 2*2+1 would equal 5 post-scale — nothing here tests the
        # spurious-skip side directly, so add a second pixel: raw 2.
        src2 = np.array([[2, 2], [2, 2]], np.uint8)     # 2*2+1 = 5
        (tmp_path / "s2.tif").write_bytes(encode_gtiff(src2))
        vrt = """<VRTDataset rasterXSize="2" rasterYSize="2">
  <VRTRasterBand dataType="Byte" band="1">
    <NodataValue>0</NodataValue>
    <ComplexSource>
      <SourceFilename relativeToVRT="1">s.tif</SourceFilename>
      <SourceBand>1</SourceBand>
      <ScaleRatio>2</ScaleRatio><ScaleOffset>1</ScaleOffset>
      <NODATA>5</NODATA>
    </ComplexSource>
  </VRTRasterBand>
</VRTDataset>"""
        p = tmp_path / "t.vrt"
        p.write_text(vrt)
        out = read_vrt(str(p)).pixels
        # masked: raw 5 stays at the band init value (0)
        assert out[0, 0] == 0
        np.testing.assert_array_equal(out.ravel()[1:], [21, 41, 51])

        vrt2 = vrt.replace("s.tif", "s2.tif")
        p2 = tmp_path / "t2.vrt"
        p2.write_text(vrt2)
        out2 = read_vrt(str(p2)).pixels
        # raw 2 != NODATA 5: written even though 2*2+1 == 5 post-scale
        np.testing.assert_array_equal(out2, np.full((2, 2), 5, np.uint8))


class TestMapInt64:
    def test_ids_beyond_float53_survive(self):
        """Packed piece ids with tile coords >= 2^13 exceed 2^53; the
        old map().fillna() float64 round-trip corrupted them."""
        from gdal_ray.stages.seams import map_int64

        big = (1 << 62) + 1          # not representable in float64
        other = (1 << 62) + 3
        pid = np.array([big, other, 7], np.int64)
        out = map_int64(pid, {big: 42})
        assert out.tolist() == [42, other, 7]
        assert out.dtype == np.int64

    def test_empty_map_identity(self):
        from gdal_ray.stages.seams import map_int64
        pid = np.array([1, 2, 3], np.int64)
        assert map_int64(pid, {}).tolist() == [1, 2, 3]


class TestSubqueryInListFields:
    def _tables(self):
        import ray.data as rd
        orders = rd.from_pandas(pd.DataFrame(
            {"o_id": range(10), "cust": [i % 5 for i in range(10)],
             "amt": [float(i) for i in range(10)]}))
        cust = rd.from_pandas(pd.DataFrame(
            {"c_id": range(5),
             "tier": ["gold", "silver", "gold", "bronze", "gold"]}))
        return {"orders": orders, "cust": cust}

    def test_in_subquery_inside_case(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT o_id, CASE WHEN cust IN "
            "(SELECT c_id FROM cust WHERE tier = 'gold') THEN 1 "
            "ELSE 0 END AS is_gold FROM orders ORDER BY o_id",
            self._tables())
        gold = {0, 2, 4}
        want = [1 if i % 5 in gold else 0 for i in range(10)]
        assert list(out["is_gold"]) == want

    def test_in_subquery_in_select_list(self, ray_session):
        from gdal_ray.functions.sql import execute_sql
        out = execute_sql(
            "SELECT o_id, cust IN (SELECT c_id FROM cust WHERE "
            "tier = 'gold') AS g FROM orders ORDER BY o_id",
            self._tables())
        gold = {0, 2, 4}
        assert [bool(v) for v in out["g"]] == \
            [i % 5 in gold for i in range(10)]


class TestFgbBboxFid:
    def test_bbox_fids_match_full_read(self, tmp_path):
        """ADVICE: bbox reads renumbered fids in R-tree hit order; a
        bbox hit must carry the same fid the full sequential read
        assigns (its file ordinal)."""
        from gdal_ray.core import wkb as W
        from gdal_ray.sources.flatgeobuf import read_fgb, write_fgb

        rng = np.random.default_rng(11)
        xs = rng.uniform(0, 100, 200)
        ys = rng.uniform(0, 100, 200)
        t = pa.table({"wkb": pa.array([W.dumps(W.point(x, y))
                                       for x, y in zip(xs, ys)],
                                      pa.binary()),
                      "pid": pa.array(range(200), pa.int64())})
        p = str(tmp_path / "f.fgb")
        write_fgb(t, p)
        full = read_fgb(p)
        fid_of_pid = dict(zip(full["pid"].to_pylist(),
                              full["fid"].to_pylist()))
        sub = read_fgb(p, bbox=(20.0, 20.0, 70.0, 70.0))
        assert sub.num_rows > 5
        for fid, pid in zip(sub["fid"].to_pylist(),
                            sub["pid"].to_pylist()):
            assert fid == fid_of_pid[pid]


class TestSqlDatasetDistinctOrder:
    def test_distinct_as_dataset_is_distributed(self, ray_session):
        """SELECT DISTINCT with as_dataset=True returns a Dataset built
        by the salted-bucket dedup shuffle — the full identity-sized
        result never becomes one driver frame."""
        import ray.data as rd
        from ray.data import Dataset
        from gdal_ray.functions.sql import execute_sql

        n = 20_000
        k = np.arange(n, dtype=np.int64) % 1000
        # a NULL-valued row duplicated into the first and last blocks:
        # NULLs are equal for DISTINCT, and a block holding a NULL
        # must hash its other values as every other block does
        t = rd.from_arrow(pa.table(
            {"k": np.concatenate([[1000], k, [1000]]),
             "v": pa.array([None] + list(k * 2) + [None], pa.int64())})) \
            .repartition(8)
        out = execute_sql("SELECT DISTINCT k, v FROM t", {"t": t},
                          as_dataset=True)
        assert isinstance(out, Dataset)
        df = out.to_pandas().sort_values("k").reset_index(drop=True)
        assert len(df) == 1001
        assert list(df["k"]) == list(range(1001))
        assert list(df["v"][:1000]) == [2 * k for k in range(1000)]
        assert pd.isna(df["v"][1000])

    def test_unlimited_order_by_values(self, ray_session):
        import ray.data as rd
        from ray.data import Dataset
        from gdal_ray.functions.sql import execute_sql

        t = rd.from_arrow(pa.table(
            {"k": np.array([5, 1, 4, 2, 3], np.int64),
             "name": ["e", "a", "d", "b", "c"]})).repartition(3)
        out = execute_sql("SELECT name FROM t ORDER BY k DESC",
                          {"t": t}, as_dataset=True)
        assert isinstance(out, Dataset)
        df = out.to_pandas()
        assert list(df.columns) == ["name"]
        assert list(df["name"]) == ["e", "d", "c", "b", "a"]


class TestPqCodesColumn:
    def test_encode_then_score_from_codes(self, ray_session):
        import ray.data as rd
        from gdal_ray.functions.ann import (brute_topk, pq_encode,
                                            pq_topk, pq_train,
                                            _uniform_sample)

        ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                             columns=["vec_id", "embedding"])
        df = ds.to_pandas()
        queries = np.stack(df["embedding"].iloc[[1, 17]]).astype(float)

        # codes dataset has only (vec_id, pq_code) — no floats
        sample = _uniform_sample(ds, 512, "embedding", seed=7)
        books = pq_train(sample, 16, 32)
        codes = pq_encode(ds, books).materialize()
        assert set(codes.schema().names) == {"vec_id", "pq_code"}
        one = codes.take(1)[0]["pq_code"]
        assert isinstance(one, bytes) and len(one) == 16

        exact = brute_topk(ds, queries, k=5).to_pandas()
        got = pq_topk(ds, queries, k=5, m_sub=16, n_centroids=32,
                      oversample=16, refine=True).to_pandas()
        for q in range(2):
            a = set(exact[exact.qid == q]["vec_id"])
            b = set(got[got.qid == q]["vec_id"])
            assert a == b, q
