"""Driver-facing query battery: each entry is one operator/pipeline from
SURVEY.md §2 expressed Ray-Data-first, with (where SQL-expressible) an
exactly equivalent DuckDB oracle over the same parquet tables.

Conventions:
  * every callable takes sf_dir and returns Dataset / DataFrame / Table;
  * computed/aggregate column names match the oracle SQL exactly;
  * float aggregate outputs are rounded to 4 decimals on BOTH sides so
    parallel-summation fp noise can't flip the driver's value hash;
  * spatial queries derive coordinates from row keys with the shared
    closed-form formulas in sources/geo.py so the SQL oracle can derive
    the identical coordinates;
  * scratch files: a query that writes files gets a fresh directory
    from _scratch_dir() per call, under one root per process that is
    removed at exit; no query uses a fixed /tmp path.
"""

from __future__ import annotations

import atexit
import functools
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources import geo
from ..stages.exchange import bucket_groups, key_slices
from ..functions.text import _STOPWORDS as _STOPWORDS_FOR_ORACLE
from . import oracles as _OR

ROUND = 4


def _rp(sf_dir: str, table: str, columns=None):
    import ray.data as rd
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _half_away(x, nd: int = ROUND):
    """Round half away from zero (DuckDB ROUND semantics), vectorized."""
    scale = 10.0 ** nd
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale


def _round_cols(df: pd.DataFrame, cols, nd: int = ROUND) -> pd.DataFrame:
    for c in cols:
        df[c] = _half_away(df[c].astype(float).to_numpy(), nd)
    return df


_SCRATCH_ROOT: str | None = None


def _scratch_dir(name: str) -> str:
    """A fresh directory for one query call: a mkdtemp under one root
    per process, and the root is removed when the process exits, so
    repeated or concurrent runs never share or leak scratch files."""
    global _SCRATCH_ROOT
    if _SCRATCH_ROOT is None:
        _SCRATCH_ROOT = tempfile.mkdtemp(prefix="gdal_ray_")
        atexit.register(shutil.rmtree, _SCRATCH_ROOT, ignore_errors=True)
    return tempfile.mkdtemp(prefix=f"{name}_", dir=_SCRATCH_ROOT)


# ---------------------------------------------------------------------------
# relational core (OGR SQL analogs: ogr/ogrsf_frmts/generic/ogr_gensql.cpp)
# ---------------------------------------------------------------------------

def q_pricing_summary(sf_dir: str):
    """Grouped aggregates (SWQ summary ops AVG/MIN/MAX/COUNT/SUM,
    ogr/ogr_swq.h:67-75 — grouped variant via Ray groupby)."""
    ds = _rp(sf_dir, "lineitem",
             ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
              "l_discount", "l_shipdate"])

    # partial+final aggregation: combine inside map_batches so the
    # exchange carries ≤6 rows per block instead of shuffling every
    # lineitem row for a 4-group result
    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"],
                                   pa.scalar(pd.Timestamp("1998-09-02"))))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t = t.append_column("revenue", rev)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("revenue", "sum"), ("l_discount", "sum"),
             ("l_quantity", "count")])
        return g

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(["l_returnflag", "l_linestatus"], sort=False) \
        .sum().reset_index()
    out["avg_qty"] = out["l_quantity_sum"] / out["l_quantity_count"]
    out["avg_disc"] = out["l_discount_sum"] / out["l_quantity_count"]
    out = out.rename(columns={
        "l_quantity_sum": "sum_qty", "l_extendedprice_sum": "sum_base_price",
        "revenue_sum": "sum_revenue", "l_quantity_count": "count_order"}) \
        .drop(columns=["l_discount_sum"])
    return _round_cols(out, ["sum_qty", "sum_base_price", "sum_revenue",
                             "avg_qty", "avg_disc"])


SQL_PRICING = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 4) AS sum_qty,
       ROUND(SUM(l_extendedprice), 4) AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS sum_revenue,
       ROUND(AVG(l_quantity), 4) AS avg_qty,
       ROUND(AVG(l_discount), 4) AS avg_disc,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q_attribute_filter(sf_dir: str):
    """Attribute filter pushdown (SetAttributeFilter,
    ogr/ogrsf_frmts/generic/ogrlayer.cpp:752): WHERE on orders."""
    ds = _rp(sf_dir, "orders",
             ["o_orderkey", "o_custkey", "o_totalprice", "o_orderpriority"])
    return ds.map_batches(
        lambda t: t.filter(pc.and_(pc.greater(t["o_totalprice"], 150000.0),
                                   pc.equal(t["o_orderpriority"], "1-URGENT"))),
        batch_format="pyarrow")


SQL_ATTR_FILTER = """
SELECT o_orderkey, o_custkey, o_totalprice, o_orderpriority
FROM orders WHERE o_totalprice > 150000 AND o_orderpriority = '1-URGENT'
"""


def q_select_project(sf_dir: str):
    """Field projection + computed column (vector select,
    apps/gdalalg_vector_select.cpp)."""
    ds = _rp(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice", "p_size"])
    return ds.map_batches(
        lambda t: t.append_column(
            "price_per_size",
            pc.round(pc.divide(t["p_retailprice"],
                               pc.cast(pc.max_element_wise(t["p_size"], 1), pa.float64())),
                     ndigits=ROUND, round_mode="half_towards_infinity")).select(["p_partkey", "p_name", "price_per_size"]),
        batch_format="pyarrow")


SQL_SELECT_PROJECT = """
SELECT p_partkey, p_name,
       ROUND(p_retailprice / GREATEST(p_size, 1), 4) AS price_per_size
FROM part
"""


def q_orderby_limit(sf_dir: str):
    """ORDER BY + LIMIT (ogr_gensql.cpp:2202 CreateOrderByIndex;
    ogr/ogr_swq.h:479-483). Ties broken by orderkey for determinism."""
    ds = _rp(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("o_totalprice", "descending"),
                                            ("o_orderkey", "ascending")])
        return t.take(idx[:10])

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return out.sort_values(["o_totalprice", "o_orderkey"],
                           ascending=[False, True]).head(10) \
        .reset_index(drop=True)


SQL_ORDERBY_LIMIT = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def q_distinct(sf_dir: str):
    """DISTINCT (SWQM_DISTINCT_LIST, ogr/ogr_swq.h:320)."""
    ds = _rp(sf_dir, "orders", ["o_orderpriority"])
    vals = sorted(ds.unique("o_orderpriority"))
    return pd.DataFrame({"o_orderpriority": vals})


SQL_DISTINCT = "SELECT DISTINCT o_orderpriority FROM orders"


def q_hash_join(sf_dir: str):
    """Equality join (OGR SQL LEFT JOIN analog, inner here;
    ogr/ogrsf_frmts/generic/ogr_gensql.cpp:1521). Broadcast the small
    side (nation) as a dict inside map_batches — no shuffle."""
    nation = {r["n_nationkey"]: r["n_name"]
              for r in _rp(sf_dir, "nation").take_all()}

    def attach(t: pa.Table) -> pa.Table:
        keys = t["c_nationkey"].to_numpy()
        names = pa.array([nation.get(int(k)) for k in keys], pa.string())
        return t.append_column("n_name", names)

    ds = _rp(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    return ds.map_batches(attach, batch_format="pyarrow")


SQL_HASH_JOIN = """
SELECT c_custkey, c_name, c_nationkey, n_name
FROM customer JOIN nation ON c_nationkey = n_nationkey
"""


def q_union_all(sf_dir: str):
    """UNION ALL (swq_select::PushUnionAll, ogr/ogr_swq.h:485)."""
    a = _rp(sf_dir, "region", ["r_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow")
    b = _rp(sf_dir, "nation", ["n_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow")
    return a.union(b)


SQL_UNION_ALL = """
SELECT r_name AS name FROM region UNION ALL SELECT n_name AS name FROM nation
"""


def q_global_stats(sf_dir: str):
    """Global min/max/mean/stddev/count — raster band statistics analog
    (gcore/gdalrasterband.cpp:5217 ComputeStatistics), partial+final."""
    from ray.data.aggregate import Count, Max, Mean, Min, Std
    ds = _rp(sf_dir, "lineitem", ["l_extendedprice"])
    res = ds.aggregate(Min("l_extendedprice", alias_name="min_price"),
                       Max("l_extendedprice", alias_name="max_price"),
                       Mean("l_extendedprice", alias_name="avg_price"),
                       Std("l_extendedprice", alias_name="std_price"),
                       Count(alias_name="n"))
    df = pd.DataFrame([res])
    return _round_cols(df, ["min_price", "max_price", "avg_price", "std_price"])


SQL_GLOBAL_STATS = """
SELECT ROUND(MIN(l_extendedprice), 4) AS min_price,
       ROUND(MAX(l_extendedprice), 4) AS max_price,
       ROUND(AVG(l_extendedprice), 4) AS avg_price,
       ROUND(STDDEV_SAMP(l_extendedprice), 4) AS std_price,
       COUNT(*) AS n
FROM lineitem
"""


def q_topk_revenue(sf_dir: str):
    """Top-k by computed column (sort+limit, §2.6)."""
    ds = _rp(sf_dir, "lineitem",
             ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])
    K = 20

    # partial top-k per block (top-k is associative) → tiny driver-side
    # final sort; no global all-to-all for a 20-row result
    def partial(t: pa.Table) -> pa.Table:
        t = t.append_column(
            "revenue", pc.round(pc.multiply(t["l_extendedprice"],
                                            pc.subtract(pa.scalar(1.0),
                                                        t["l_discount"])),
                                ndigits=ROUND,
                                round_mode="half_towards_infinity")) \
            .select(["l_orderkey", "l_linenumber", "revenue"])
        idx = pc.sort_indices(t, sort_keys=[("revenue", "descending"),
                                            ("l_orderkey", "ascending"),
                                            ("l_linenumber", "ascending")])
        return t.take(idx[:K])

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return out.sort_values(["revenue", "l_orderkey", "l_linenumber"],
                           ascending=[False, True, True]).head(K) \
        .reset_index(drop=True)


SQL_TOPK_REVENUE = """
SELECT l_orderkey, l_linenumber,
       ROUND(l_extendedprice * (1 - l_discount), 4) AS revenue
FROM lineitem
ORDER BY revenue DESC, l_orderkey, l_linenumber LIMIT 20
"""


def q_daily_counts(sf_dir: str):
    """Time-bucketed grouped aggregate over the events stream."""
    from ray.data.aggregate import Count, Sum
    ds = _rp(sf_dir, "events", ["ts", "event_type", "value"])
    ds = ds.map_batches(
        lambda t: t.append_column("day", pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.timestamp("us")))
        .select(["day", "event_type", "value"]),
        batch_format="pyarrow")
    out = ds.groupby(["day", "event_type"]).aggregate(
        Count(alias_name="n"), Sum("value", alias_name="sum_value")).to_pandas()
    return _round_cols(out, ["sum_value"])


SQL_DAILY_COUNTS = """
SELECT date_trunc('day', ts) AS day, event_type,
       COUNT(*) AS n, ROUND(SUM(value), 4) AS sum_value
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# spatial — derived geo with exact SQL oracles
# ---------------------------------------------------------------------------

JOIN_ZOOM = 8


def q_tile_assignment(sf_dir: str):
    """Tile math conformance at scale: derive a mercator point per event
    and count points per z8 XYZ tile (gdal2tiles MetersToTile;
    the zonal/tile groupby shuffle)."""
    from ray.data.aggregate import Count
    from ..core import mercator as merc
    ds = _rp(sf_dir, "events", ["event_id"])

    def tiles(t: pa.Table) -> pa.Table:
        i = t["event_id"].to_numpy()
        tx, ty_xyz = merc.point_tiles(*geo.point_xy(i), JOIN_ZOOM)
        return pa.table({"tile_x": pa.array(tx, pa.int64()),
                         "tile_y": pa.array(ty_xyz, pa.int64())})

    return ds.map_batches(tiles, batch_format="pyarrow") \
        .groupby(["tile_x", "tile_y"]).aggregate(Count(alias_name="n"))


def _sql_tile_assignment() -> str:
    xs, ys = geo.sql_point_xy("event_id")
    tx, ty = geo.sql_tile_xy(xs, ys, JOIN_ZOOM)
    return f"""
SELECT {tx} AS tile_x, {ty} AS tile_y, COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def q_pip_rect_join(sf_dir: str):
    """Point-in-rectangle spatial join with derived points vs 8 fixed
    zones — OGR spatial-filter rectangle fast path
    (ogrlayer.cpp:4039-4042) as an inner join."""
    zones = _fixed_zones()

    def hits(t: pa.Table) -> pa.Table:
        i = t["event_id"].to_numpy()
        x, y = geo.point_xy(i)
        out_e, out_z = [], []
        for zid, (x0, y0, x1, y1) in enumerate(zones):
            m = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
            out_e.append(i[m])
            out_z.append(np.full(int(m.sum()), zid, dtype=np.int64))
        return pa.table({"event_id": pa.array(np.concatenate(out_e), pa.int64()),
                         "zone_id": pa.array(np.concatenate(out_z), pa.int64())})

    return _rp(sf_dir, "events", ["event_id"]).map_batches(hits, batch_format="pyarrow")


def _fixed_zones():
    """8 deterministic rectangles over the world band (one = metro box)."""
    zs = []
    for zid in range(8):
        if zid == 0:
            zs.append((geo.METRO_X0, geo.METRO_Y0,
                       geo.METRO_X0 + geo.METRO_W, geo.METRO_Y0 + geo.METRO_W))
        else:
            cx = geo.WORLD_X0 + (zid / 8.0) * (geo.WORLD_X1 - geo.WORLD_X0)
            cy = geo.WORLD_Y0 + ((zid * 3 % 8) / 8.0) * (geo.WORLD_Y1 - geo.WORLD_Y0)
            half = 1.2e6
            zs.append((cx - half, cy - half, cx + half, cy + half))
    return zs


def _sql_pip_rect_join() -> str:
    xs, ys = geo.sql_point_xy("event_id")
    zone_rows = ", ".join(f"({zid}, {x0!r}, {y0!r}, {x1!r}, {y1!r})"
                          for zid, (x0, y0, x1, y1) in enumerate(_fixed_zones()))
    return f"""
WITH pts AS (SELECT event_id, {xs} AS x, {ys} AS y FROM events),
zones(zone_id, x0, y0, x1, y1) AS (VALUES {zone_rows})
SELECT p.event_id, z.zone_id
FROM pts p JOIN zones z
  ON p.x >= z.x0 AND p.x <= z.x1 AND p.y >= z.y0 AND p.y <= z.y1
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics (alg/zonal.cpp analog): per-z5-tile stats of the
    events value column — rasterize-zone + groupby(zone) pattern."""
    from ray.data.aggregate import Count, Min, Max, Sum
    from ..core import mercator as merc
    Z = 5

    def zone(t: pa.Table) -> pa.Table:
        i = t["event_id"].to_numpy()
        tx, ty_xyz = merc.point_tiles(*geo.point_xy(i), Z)
        # value has exactly 3 decimals: sum it as an exact integer so the
        # parallel aggregation is associativity-proof, then divide once
        v1000 = np.round(t["value"].to_numpy() * 1000.0).astype(np.int64)
        return pa.table({"zone_x": pa.array(tx, pa.int64()),
                         "zone_y": pa.array(ty_xyz, pa.int64()),
                         "value": t["value"],
                         "v1000": pa.array(v1000, pa.int64())})

    out = _rp(sf_dir, "events", ["event_id", "value"]) \
        .map_batches(zone, batch_format="pyarrow") \
        .groupby(["zone_x", "zone_y"]).aggregate(
            Count(alias_name="n"), Sum("v1000", alias_name="s1000"),
            Min("value", alias_name="min_value"), Max("value", alias_name="max_value")) \
        .to_pandas()
    out["avg_value"] = _half_away(out["s1000"].to_numpy()
                                  / (1000.0 * out["n"].to_numpy()))
    out = out.drop(columns=["s1000"])
    return _round_cols(out, ["min_value", "max_value"])


def _sql_zonal_stats() -> str:
    xs, ys = geo.sql_point_xy("event_id")
    tx, ty = geo.sql_tile_xy(xs, ys, 5)
    return f"""
WITH pts AS (SELECT event_id, value, {xs} AS x, {ys} AS y FROM events)
SELECT {geo.sql_tile_xy('x', 'y', 5)[0]} AS zone_x,
       {geo.sql_tile_xy('x', 'y', 5)[1]} AS zone_y,
       COUNT(*) AS n,
       ROUND(SUM(CAST(ROUND(value * 1000) AS BIGINT)) / (1000.0 * COUNT(*)), 4) AS avg_value,
       ROUND(MIN(value), 4) AS min_value,
       ROUND(MAX(value), 4) AS max_value
FROM pts GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# text / dedup / similarity (documents + embeddings)
# ---------------------------------------------------------------------------

def q_token_stats(sf_dir: str):
    """Token counting + quality ratios per language (training-data text
    analysis; whitespace tokenization)."""
    from ray.data.aggregate import Count, Mean

    def feats(t: pa.Table) -> pa.Table:
        toks = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table({"lang": t["lang"],
                         "n_tokens": pc.cast(toks, pa.int64()),
                         "n_chars": t["n_chars"]})

    out = _rp(sf_dir, "documents", ["text", "lang", "n_chars"]) \
        .map_batches(feats, batch_format="pyarrow") \
        .groupby("lang").aggregate(
            Count(alias_name="n_docs"),
            Mean("n_tokens", alias_name="avg_tokens"),
            Mean("n_chars", alias_name="avg_chars")).to_pandas()
    return _round_cols(out, ["avg_tokens", "avg_chars"])


SQL_TOKEN_STATS = """
SELECT lang, COUNT(*) AS n_docs,
       ROUND(AVG(len(string_split(text, ' '))), 4) AS avg_tokens,
       ROUND(AVG(n_chars), 4) AS avg_chars
FROM documents GROUP BY lang
"""


def q_exact_dedup(sf_dir: str):
    """Exact dedup: keep the lowest doc_id per identical text
    (hash-partition + per-group first; §2.7)."""
    from ..functions.dedup import exact_dedup
    # hash-partition on a 64-bit content hash: the shuffle ships 16
    # bytes/row, not the document text (functions/dedup.py)
    return exact_dedup(_rp(sf_dir, "documents", ["doc_id", "text"]))


SQL_EXACT_DEDUP = """
SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
"""


def q_ann_cosine(sf_dir: str):
    """Brute-force cosine top-k similarity search over embeddings
    (training-data ANN baseline): query = vec_id 0's embedding,
    k=10 nearest by cosine (excluding itself)."""
    import ray
    import ray.data as rd

    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    # distributed pruned lookup of the query row (NOT a driver row scan):
    # filter pushes the predicate into the read tasks, take(1) streams
    # back exactly one row
    qrow = emb.filter(expr="vec_id == 0").take(1)[0]
    q = np.asarray(qrow["embedding"], dtype=np.float64)
    qn = q / np.linalg.norm(q)
    qref = ray.put(qn)

    def score(t: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        mat = np.stack(t["embedding"].to_pylist()).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ qv) / np.maximum(norms, 1e-300)
        return pa.table({"vec_id": t["vec_id"],
                         "cos_sim": pa.array(_half_away(cos), pa.float64())})

    scored = emb.map_batches(score, batch_format="pyarrow")
    return scored.map_batches(
        lambda t: t.filter(pc.not_equal(t["vec_id"], 0)), batch_format="pyarrow") \
        .sort(["cos_sim", "vec_id"], descending=[True, False]).limit(10)


SQL_ANN_COSINE = """
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0)
SELECT vec_id,
       ROUND(list_cosine_similarity(embedding, (SELECT qe FROM q)), 4) AS cos_sim
FROM embeddings WHERE vec_id <> 0
ORDER BY cos_sim DESC, vec_id LIMIT 10
"""


def q_lang_filter_sample(sf_dir: str):
    """Language filter + deterministic sample (id mod) — corpus slicing."""
    ds = _rp(sf_dir, "documents", ["doc_id", "lang", "source"])
    return ds.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["lang"], "en"),
                                   pc.equal(pc.bit_wise_and(t["doc_id"], 7), 0))),
        batch_format="pyarrow")


SQL_LANG_FILTER_SAMPLE = """
SELECT doc_id, lang, source FROM documents
WHERE lang = 'en' AND (doc_id & 7) = 0
"""


# ---------------------------------------------------------------------------
# image-pipeline queries (no SQL oracle — pixel/spatial semantics are
# checked by the pytest conformance suite; driver records rows-only)
# ---------------------------------------------------------------------------

N_IMAGES_QUERY = 200


def q_image_tiles(sf_dir: str):
    """Flagship base-tile render on the synthetic corpus: returns
    (z, x, y, n_src, checksums) rows.

    Rows-only by necessity: the rendered tile set is defined by
    SAMPLED-CENTER validity (a fragment exists only where ≥1 dst pixel
    center lands inside the source, warp_fragments_batch's
    valid.any() gate — the skip-blank semantics of
    gdalalg_raster_tile.cpp:686), which is strictly smaller than the
    envelope cover a SQL oracle can express; the cover math itself IS
    oracled (tile_assignment, raster_index, mbtiles, kml), and pixel
    checksums are pytest-verified."""
    from .tiles import build_base_tiles
    from ..sources.images import images_dataset
    tiles = build_base_tiles(images_dataset(N_IMAGES_QUERY), zoom=8)
    return tiles.select_columns(["z", "x", "y", "n_src", "cs_r", "cs_g", "cs_b"])


def q_image_spatial_join(sf_dir: str):
    """Image footprint × polygon spatial join on synthetic layers."""
    from ..sources.images import images_dataset
    from ..sources.vector import polygons_dataset
    from ..stages.georef import with_georef
    from ..stages.join import spatial_join
    imgs = images_dataset(N_IMAGES_QUERY).map_batches(with_georef, batch_format="pyarrow")
    return spatial_join(imgs, polygons_dataset(40), zoom=7)


def q_image_phash_dedup(sf_dir: str):
    """Exact near-dup grouping by phash on the synthetic corpus: keep
    first image_id per phash."""
    from ..sources.images import images_dataset

    def first_image_group(t: pa.Table) -> pa.Table:
        g = t.group_by("phash").aggregate([("image_id", "min")])
        return pa.table({"phash": g["phash"], "image_id": g["image_id_min"]})

    return bucket_groups(
        images_dataset(N_IMAGES_QUERY).select_columns(["image_id", "phash"]),
        first_image_group, key="phash")


def q_image_pip(sf_dir: str):
    """Point-in-polygon join on synthetic vector layers."""
    from ..sources.vector import points_dataset, polygons_dataset
    from ..stages.join import pip_join
    return pip_join(points_dataset(300), polygons_dataset(40), zoom=6)


def q_image_knn(sf_dir: str):
    """kNN join on the synthetic dense cluster."""
    import ray.data as rd
    from ..sources.vector import points_table
    t = points_table(300)
    mask = pa.array(t["fid"].to_numpy() % 5 == 2)
    cluster = t.filter(mask).select(["fid", "x", "y"])
    from ..stages.join import knn_join
    data = rd.from_arrow(cluster)
    queries = rd.from_arrow(cluster.slice(0, 10))
    out = knn_join(data, queries, k=3, zoom=6)

    def rnd(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("dist")
        return t.set_column(i, "dist",
                            pa.array(_half_away(t["dist"].to_numpy()),
                                     pa.float64()))

    return out.map_batches(rnd, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------



# ---------------------------------------------------------------------------
# window / ordered analytics: the group exchange on the partition key,
# then the per-key logic vectorized over each bucket's sorted runs
# ---------------------------------------------------------------------------

def _runs(t: pa.Table, order: list[str]):
    """`t` sorted by the `order` columns (partition key first) and, per
    row, the position of the first row of its key's run."""
    t = t.take(np.lexsort([t[c].to_numpy() for c in reversed(order)]))
    key = t[order[0]].to_numpy()
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return t, np.repeat(start, np.diff(np.r_[start, len(key)]))


def q_running_sum(sf_dir: str):
    """Per-order running quantity by line number — an ordered per-key
    scan (OGR has no window functions; this is the per-group
    ordered-scan pattern the overview cascade also relies on)."""
    def running_sum_group(t: pa.Table) -> pa.Table:
        # (l_orderkey, l_linenumber) is NOT unique in the synthetic data:
        # order by the full value tuple so ties sum identically under any
        # tie permutation (equal keys => equal quantities => equal sums)
        t, run0 = _runs(t, ["l_orderkey", "l_linenumber", "l_quantity",
                            "l_extendedprice"])
        # a run's sum is the bucket's cumsum less its value before the
        # run: exact for whole quantities, as TPC-H's are
        qty = np.cumsum(t["l_quantity"].to_numpy())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "rn": pa.array(np.arange(len(run0)) - run0 + 1, pa.int64()),
            "running_qty": _half_away(qty - np.r_[0.0, qty][run0])})

    return bucket_groups(
        _rp(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity",
                                 "l_extendedprice"]),
        running_sum_group, key="l_orderkey")


SQL_RUNNING_SUM = """
SELECT l_orderkey,
       ROW_NUMBER() OVER (PARTITION BY l_orderkey
           ORDER BY l_linenumber, l_quantity, l_extendedprice) AS rn,
       ROUND(SUM(l_quantity) OVER (PARTITION BY l_orderkey
           ORDER BY l_linenumber, l_quantity, l_extendedprice
           ROWS UNBOUNDED PRECEDING), 4) AS running_qty
FROM lineitem
"""


def q_sessionize(sf_dir: str):
    """Sessionization: per-user session count with a 30-minute idle gap —
    stateful ordered per-group scan over the events stream."""
    def sessionize_group(t: pa.Table) -> pa.Table:
        t, run0 = _runs(t, ["user_id", "ts"])
        first = run0 == np.arange(len(run0))
        gap = np.r_[False, np.diff(t["ts"].to_numpy())
                    > np.timedelta64(1800, "s")] & ~first
        run = np.cumsum(first) - 1
        return pa.table({
            "user_id": t["user_id"].take(np.flatnonzero(first)),
            "n_events": np.bincount(run),
            "n_sessions": np.bincount(run, gap).astype(np.int64) + 1})

    return bucket_groups(_rp(sf_dir, "events", ["user_id", "ts"]),
                         sessionize_group, key="user_id")


SQL_SESSIONIZE = """
WITH gaps AS (
  SELECT user_id, ts,
         CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_sess
  FROM events)
SELECT user_id, COUNT(*) AS n_events,
       CAST(SUM(new_sess) + 1 AS BIGINT) AS n_sessions
FROM gaps GROUP BY user_id
"""


def q_histogram(sf_dir: str):
    """16-bin histogram of l_extendedprice — GetHistogram analog
    (gcore/gdalrasterband.cpp:4224): fixed range [0, 160000)."""
    from ray.data.aggregate import Count

    def bucket(t: pa.Table) -> pa.Table:
        v = t["l_extendedprice"].to_numpy()
        b = np.clip((v / 10000.0).astype(np.int64), 0, 15)
        return pa.table({"bin": pa.array(b, pa.int64())})

    return _rp(sf_dir, "lineitem", ["l_extendedprice"]) \
        .map_batches(bucket, batch_format="pyarrow") \
        .groupby("bin").aggregate(Count(alias_name="n"))


SQL_HISTOGRAM = """
SELECT LEAST(GREATEST(CAST(FLOOR(l_extendedprice / 10000.0) AS BIGINT), 0), 15) AS bin,
       COUNT(*) AS n
FROM lineitem GROUP BY 1
"""


def q_count_distinct(sf_dir: str):
    """COUNT(DISTINCT) per group — distinct-shuffle pattern."""
    def count_distinct_group(t: pa.Table) -> pa.Table:
        g = t.group_by("l_partkey").aggregate(
            [("l_suppkey", "count_distinct")])
        return pa.table({"l_partkey": g["l_partkey"],
                         "n_suppliers": g["l_suppkey_count_distinct"]})

    return bucket_groups(_rp(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
                         count_distinct_group, key="l_partkey")


SQL_COUNT_DISTINCT = """
SELECT l_partkey, COUNT(DISTINCT l_suppkey) AS n_suppliers
FROM lineitem GROUP BY l_partkey
"""


def q_doc_quality(sf_dir: str):
    """Quality scoring aggregate: mean alpha ratio + mean token count per
    source (training-data quality filter features)."""
    from ray.data.aggregate import Count, Sum
    from ..functions.text import quality_batch

    def feats(t: pa.Table) -> pa.Table:
        q = quality_batch(t)
        return q.select(["source", "alpha_ratio", "n_tokens"])

    out = _rp(sf_dir, "documents", ["source", "text"]) \
        .map_batches(feats, batch_format="pyarrow") \
        .groupby("source").aggregate(
            Count(alias_name="n_docs"),
            Sum("alpha_ratio", alias_name="s_alpha"),
            Sum("n_tokens", alias_name="s_tokens")).to_pandas()
    out["avg_alpha"] = _half_away(out["s_alpha"].to_numpy() / out["n_docs"].to_numpy())
    out["avg_tokens"] = _half_away(out["s_tokens"].to_numpy() / out["n_docs"].to_numpy())
    return out.drop(columns=["s_alpha", "s_tokens"])


SQL_DOC_QUALITY = """
SELECT source, COUNT(*) AS n_docs,
       ROUND(SUM(CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                 / GREATEST(length(text), 1)) / COUNT(*), 4) AS avg_alpha,
       ROUND(SUM(CAST(len(string_split(text, ' ')) AS DOUBLE)) / COUNT(*), 4) AS avg_tokens
FROM documents GROUP BY source
"""


# ---------------------------------------------------------------------------
# dedup / similarity / text pipelines (rows-only driver checks; semantics
# covered by pytest oracles in tests/test_functions.py)
# ---------------------------------------------------------------------------

def q_minhash_near_dups(sf_dir: str):
    """MinHash-LSH candidate generation + EXACT char-5-gram Jaccard
    verification: emits true near-dup pairs (J ≥ 0.5). The oracle
    brute-forces all-pairs Jaccard in SQL — a full end-to-end recall +
    precision check of the LSH pipeline."""
    from ..functions.dedup import minhash_candidates, verify_pairs_coshuffle
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    # loose candidate net (est ≥ 0.35), exact filter at 0.5
    cands = minhash_candidates(ds, jaccard_threshold=0.35)
    # co-shuffle verification — the 100 TB path: texts never leave the
    # cluster, no broadcast dict (verify_pairs() falls back to broadcast
    # below a doc-count threshold; here we exercise the scale path so
    # the driver's oracle gate covers it)
    verified = verify_pairs_coshuffle(
        cands, _rp(sf_dir, "documents", ["doc_id", "text"]),
        k=5, threshold=0.5)

    def rnd(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("jaccard")
        return t.set_column(i, "jaccard",
                            pa.array(_half_away(t["jaccard"].to_numpy()),
                                     pa.float64()))

    return verified.map_batches(rnd, batch_format="pyarrow")


def q_simhash_near_dups(sf_dir: str):
    from ..functions.dedup import simhash_near_dups
    ds = _rp(sf_dir, "documents", ["doc_id", "text"])
    return simhash_near_dups(ds, max_hamming=6)


def q_embedding_near_dups(sf_dir: str):
    from ..functions.dedup import embedding_near_dups
    ds = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_near_dups(ds, threshold=0.9)
    df = out.to_pandas()
    if df.empty:
        # stable schema even for a no-pairs corpus (driver hash-compares
        # column names of empty frames too)
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    df["cos_sim"] = _half_away(df["cos_sim"].to_numpy())
    return df


def q_ivf_ann(sf_dir: str):
    """IVF ANN with every list probed (nprobe = nlist): the bucketed
    machinery (train → broadcast centroids → groupby(bucket) search →
    per-query merge) provably returns the EXACT top-k, which the SQL
    oracle recomputes brute-force. The approximate setting (nprobe <
    nlist) is recall-tested in pytest."""
    from ..functions.ann import ivf_topk
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 4").take_all(),
                   key=lambda r: r["vec_id"])
    queries = np.stack([np.asarray(r["embedding"]) for r in qrows]).astype(np.float64)
    out = ivf_topk(emb, queries, k=5, nlist=8, nprobe=8)
    # ivf_topk returns a bounded pandas frame (nq × k rows)
    out = out.copy()
    out["cos_sim"] = _half_away(out["cos_sim"].to_numpy())
    return out


def q_pq_ann(sf_dir: str):
    """Product-quantization ANN with exact re-rank (PQ ADC+R, Jégou et
    al. 2011): vectors compress to m_sub uint8 codes (the 10^12-vector
    memory path — 16× under float32 here), ADC lookup-table scoring
    collects an oversampled candidate pool per query, and one more
    streaming pass re-ranks candidates by exact cosine. With a generous
    oversample the refined result equals the exact top-k, which the SQL
    oracle recomputes brute-force; pure-ADC recall (no refine) is the
    approximate setting, recall-gated in pytest."""
    from ..functions.ann import pq_topk
    emb = _rp(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 4").take_all(),
                   key=lambda r: r["vec_id"])
    queries = np.stack([np.asarray(r["embedding"])
                        for r in qrows]).astype(np.float64)
    out = pq_topk(emb, queries, k=5, m_sub=16, n_centroids=32,
                  oversample=16, refine=True).to_pandas()
    out = out.sort_values(["qid", "cos_sim", "vec_id"],
                          ascending=[True, False, True]).reset_index(drop=True)
    out["cos_sim"] = _half_away(out["cos_sim"].to_numpy())
    return out


def q_lang_id(sf_dir: str):
    from ray.data.aggregate import Count
    from ..functions.text import lang_id_batch
    return _rp(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(lang_id_batch, batch_format="pyarrow") \
        .groupby("pred_lang").aggregate(Count(alias_name="n"))


def q_doc_fingerprints(sf_dir: str):
    """Winnowing-style min-over-windows polynomial fingerprint — the SQL
    oracle recomputes the identical codepoint hash per window."""
    from ..functions.text import fingerprint6_batch
    return _rp(sf_dir, "documents", ["doc_id", "text"]) \
        .map_batches(fingerprint6_batch, batch_format="pyarrow") \
        .select_columns(["doc_id", "fingerprint"])




# ---------------------------------------------------------------------------
# raster per-image + raster↔vector operator pipelines (rows-only driver
# checks; pixel semantics verified by tests/test_raster_ops.py oracles)
# ---------------------------------------------------------------------------

def _png_only(t: pa.Table) -> pa.Table:
    """Lossless subset: the DCT stand-in codec on 'jpeg' rows is lossy,
    so pixel-exact SQL oracles cover the PNG half of the corpus (the
    lossy half is PSNR-verified in pytest)."""
    return t.filter(pc.equal(t["fmt"], "png"))


def q_raster_stats(sf_dir: str):
    """Per-image band statistics (ComputeStatistics analog) over the
    synthetic corpus: decode → per-band mean/min/max → rows. Oracle:
    closed-form pixel reconstruction in SQL (oracles.sql_raster_stats)."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    def stats(px, row):
        f = px.astype(np.float64)
        return {"mean_b0": _half_away([f[:, :, 0].mean()])[0],
                "min_b0": float(f[:, :, 0].min()),
                "max_b0": float(f[:, :, 0].max())}

    return images_dataset(128).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(stats), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_b0", "min_b0", "max_b0"])


def q_hillshade(sf_dir: str):
    """DEM hillshade over band 0 of each image → per-image checksum of
    the shaded relief (gdaldem hillshade, Horn kernel)."""
    from ..core.checksum import checksum
    from ..sources.images import images_dataset
    from ..stages.raster_ops import hillshade_float, image_op

    def shade(px, row):
        # interior mean of the RAW Horn shade — closed-form in the SQL
        # oracle (the 1-255 byte mapping + checksum stay pytest-covered:
        # byte truncation boundaries are not float-stable across
        # independent recomputation)
        hs = hillshade_float(px[:, :, 0].astype(np.float64))
        interior = hs[1:-1, 1:-1]
        return {"mean_shade": _half_away([float(interior.mean())])[0]}

    return images_dataset(128).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(shade), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_shade"])


def q_norm_diff(sf_dir: str):
    """VRT pixel-function norm_diff (NDVI-style band algebra) → mean."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op, pixel_function

    def nd(px, row):
        v = pixel_function(px[:, :, :2], "norm_diff")
        return {"mean_nd": _half_away([float(np.nanmean(v))])[0]}

    return images_dataset(128).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(nd), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_nd"])


def q_pansharpen(sf_dir: str):
    """Weighted-Brovey pansharpening (alg/gdalpansharpen.cpp): a
    synthetic pan sensor (0.5·B0 + 0.25·B1 + 0.25·B2 — exact binary
    weights) sharpens the 3-band spectral image with pseudo-pan weights
    (0.25, 0.5, 0.25) → per-image mean of each sharpened band. Pan and
    spectral share the grid here so the oracle is pure per-pixel
    algebra; the coarse-spectral upsample path is pytest-oracled
    (tests/test_raster_ops.py) against the exact bilinear kernel."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op, pansharpen

    def ps(px, row):
        f = px.astype(np.float64)
        pan = 0.5 * f[:, :, 0] + 0.25 * f[:, :, 1] + 0.25 * f[:, :, 2]
        out = pansharpen(f, pan, weights=[0.25, 0.5, 0.25])
        m = _half_away([out[:, :, 0].mean(), out[:, :, 1].mean(),
                        out[:, :, 2].mean()])
        return {"mean_ps0": m[0], "mean_ps1": m[1], "mean_ps2": m[2]}

    return images_dataset(96).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(ps), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_ps0", "mean_ps1", "mean_ps2"])


def q_rasterize_zones(sf_dir: str):
    """Rasterize polygons onto z6 tile grids → burned-pixel count per
    polygon (alg/gdalrasterize.cpp; cell-join + scanline burn)."""
    from ..core import mercator as merc, wkb as W
    from ..core.rastervec import rasterize
    from ..sources.vector import polygons_dataset
    from ..stages.join import with_cells
    from ..stages.tiles import tile_geotransform

    Z = 6

    def burn(t: pa.Table) -> pa.Table:
        fids, counts = [], []
        for row in t.to_pylist():
            z, x, y = merc.cell_decode(np.uint64(row["cell"]))
            gt = tile_geotransform(int(z), int(x), int(y))
            g = W.loads(row["wkb"])
            arr = rasterize([(g, 1)], (256, 256), gt)
            fids.append(row["fid"])
            counts.append(int(arr.sum()))
        return pa.table({"fid": pa.array(fids, pa.int64()),
                         "burned_px": pa.array(counts, pa.int64())})

    from ray.data.aggregate import Sum
    cells = with_cells(polygons_dataset(30), Z, ["fid", "wkb", "minx", "miny", "maxx", "maxy"])
    return cells.map_batches(burn, batch_format="pyarrow") \
        .groupby("fid").aggregate(Sum("burned_px", alias_name="total_px"))


def q_polygonize_roundtrip(sf_dir: str):
    """Rasterize each polygon to a grid, polygonize it back, compare
    areas — the §2.10 conversion pair as one pipeline."""
    from ..core import wkb as W
    from ..core.geom import area
    from ..core.rastervec import polygonize, rasterize
    from ..sources.vector import polygons_dataset

    def roundtrip(t: pa.Table) -> pa.Table:
        fids, pix_area, poly_area = [], [], []
        for row in t.to_pylist():
            g = W.loads(row["wkb"])
            env = g.envelope()
            res = max((env[2] - env[0]), (env[3] - env[1])) / 64.0
            from ..core import geotransform as gtr
            gt = gtr.from_bounds(env[0] - res, env[1] - res,
                                 env[2] + res, env[3] + res, 66, 66)
            arr = rasterize([(g, 1)], (66, 66), gt).astype(np.int64)
            polys = polygonize(arr, transform=gt)
            a = sum(area(p) for v, p in polys if v == 1)
            fids.append(row["fid"])
            pix_area.append(float(arr.sum() * abs(gt[1] * gt[5])))
            poly_area.append(float(a))
        return pa.table({
            "fid": pa.array(fids, pa.int64()),
            "pixel_area_km2": pa.array(
                _half_away(np.asarray(pix_area) / 1e6, 3), pa.float64()),
            "polygon_area_km2": pa.array(
                _half_away(np.asarray(poly_area) / 1e6, 3), pa.float64())})

    return polygons_dataset(20).map_batches(roundtrip, batch_format="pyarrow")


def q_interpolate_at_points(sf_dir: str):
    """Raster↔point lookup (GDALInterpolateAtPoint): sample each image's
    band 0 at its center and quarter points."""
    from ..codecs import decode as _dec
    from ..core.rastervec import interpolate_at_point
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef

    def probe(t: pa.Table) -> pa.Table:
        ids, vals = [], []
        for row in t.to_pylist():
            px = _dec(row["bytes"], row["fmt"])
            gt = (row["gt0"], row["gt1"], row["gt2"],
                  row["gt3"], row["gt4"], row["gt5"])
            cx = row["gt0"] + row["w"] * row["gt1"] * 0.5
            cy = row["gt3"] + row["h"] * row["gt5"] * 0.5
            v, ok = interpolate_at_point(px[:, :, 0].astype(np.float64), gt,
                                         [cx], [cy], "bilinear")
            ids.append(row["image_id"])
            vals.append(_half_away([float(v[0])])[0] if ok[0] else None)
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "center_val": pa.array(vals, pa.float64())})

    return images_dataset(96).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(probe, batch_format="pyarrow")


def q_vector_ops(sf_dir: str):
    """Geometry unary ops chain: segmentize (densify edges) →
    area/centroid columns over the polygon layer. Segmentize leaves
    area and centroid INVARIANT, so the oracle computes both in closed
    form per shape class — a real check that densification neither
    moves nor distorts the geometry. (simplify is pytest-covered.)"""
    from ..sources.vector import polygons_dataset
    from ..stages.vector_ops import add_geometry_columns, segmentize_geometry, wkb_map

    seg = wkb_map(lambda g: segmentize_geometry(g, 5000.0))

    def out_cols(t: pa.Table) -> pa.Table:
        return pa.table({
            "fid": t["fid"],
            "area_km2": pa.array(
                _half_away(t["area"].to_numpy() / 1e6, 3), pa.float64()),
            "centroid_x": pa.array(
                _half_away(t["centroid_x"].to_numpy(), 3), pa.float64()),
            "centroid_y": pa.array(
                _half_away(t["centroid_y"].to_numpy(), 3), pa.float64()),
        })

    return polygons_dataset(40) \
        .map_batches(seg, batch_format="pyarrow") \
        .map_batches(add_geometry_columns, batch_format="pyarrow") \
        .map_batches(out_cols, batch_format="pyarrow")


def q_buffer_explode(sf_dir: str):
    """Buffer points + explode multipolygons (flat-map) → row per part
    with area (vector buffer + explode-collections)."""
    from ..sources.vector import polygons_dataset
    from ..stages.vector_ops import add_geometry_columns, explode_collections

    def out_cols(t: pa.Table) -> pa.Table:
        return pa.table({
            "fid": t["fid"], "part_index": t["part_index"],
            "area_km2": pa.array(
                _half_away(t["area"].to_numpy() / 1e6, 3), pa.float64()),
        })

    return polygons_dataset(40) \
        .map_batches(explode_collections, batch_format="pyarrow") \
        .map_batches(add_geometry_columns, batch_format="pyarrow") \
        .map_batches(out_cols, batch_format="pyarrow")


def q_idw_grid(sf_dir: str):
    """gdal_grid invdist, DISTRIBUTED: the grid is partitioned into
    tiles computed by a stateless map over broadcast points
    (stages/grid.py; the radius-bounded halo-partition path is
    parity-tested in tests/test_grid.py). Returns per-quadrant means —
    closed-form in the SQL oracle."""
    from ..core import geotransform as gtr
    from ..sources import geo as G
    from ..sources.vector import points_table
    from ..stages.grid import assemble_grid, grid_broadcast

    t = points_table(400)
    df = t.to_pandas()
    m = df[(df.x >= G.METRO_X0) & (df.x <= G.METRO_X0 + G.METRO_W)
           & (df.y >= G.METRO_Y0) & (df.y <= G.METRO_Y0 + G.METRO_W)]
    gt = gtr.from_bounds(G.METRO_X0, G.METRO_Y0,
                         G.METRO_X0 + G.METRO_W, G.METRO_Y0 + G.METRO_W, 64, 64)
    tiles = grid_broadcast(m[["x", "y", "value"]].to_numpy(), gt, (64, 64),
                           method="invdist", tile=32).to_pandas()
    grid = assemble_grid(tiles, (64, 64))
    rows = []
    for qy in range(2):
        for qx in range(2):
            quad = grid[qy * 32:(qy + 1) * 32, qx * 32:(qx + 1) * 32]
            rows.append({"quadrant": qy * 2 + qx,
                         "mean_val": _half_away([float(np.nanmean(quad))])[0]})
    return pd.DataFrame(rows)


def q_linear_grid(sf_dir: str):
    """gdal_grid LINEAR (Delaunay + barycentric, alg/gdalgrid.cpp
    GDALGridLinear): metro points carry values sampled from a plane,
    plus the four grid corners so the hull covers every node — linear
    interpolation then reproduces the plane EXACTLY at every node
    center, which the oracle recomputes closed-form. A wrong triangle,
    a bad barycentric weight, or a hull gap all break row sums."""
    from ..core import geotransform as gtr
    from ..sources import geo as G
    from ..sources.vector import points_table
    from ..stages.grid import assemble_grid, grid_broadcast

    X0, Y0, W = G.METRO_X0, G.METRO_Y0, G.METRO_W
    df = points_table(400).to_pandas()
    m = df[(df.x >= X0) & (df.x <= X0 + W)
           & (df.y >= Y0) & (df.y <= Y0 + W)]
    xs = np.concatenate([m.x.to_numpy(),
                         [X0, X0 + W, X0, X0 + W]])
    ys = np.concatenate([m.y.to_numpy(),
                         [Y0, Y0, Y0 + W, Y0 + W]])
    vs = 3.0 * (xs - X0) / 1e4 - 2.0 * (ys - Y0) / 1e4 + 7.0
    pts = np.column_stack([xs, ys, vs])

    gt = gtr.from_bounds(X0, Y0, X0 + W, Y0 + W, 64, 64)
    grid = assemble_grid(
        grid_broadcast(pts, gt, (64, 64), method="linear",
                       tile=32).to_pandas(), (64, 64))
    rows = [{"row": r,
             "sum_v": _half_away([float(grid[r].sum())], 2)[0],
             "n": int(np.isfinite(grid[r]).sum())}
            for r in range(64)]
    return pd.DataFrame(rows)


def q_reproject(sf_dir: str):
    """gdalwarp analog: reproject each georeferenced image from
    EPSG:3857 to EPSG:4326 through the mesh-approximated transformer
    (built once per worker process); per-image output dims +
    checksum."""
    from ..sources.images import images_dataset
    from ..stages import per_process
    from ..stages.georef import with_georef
    from ..stages.warp import ReprojectImages

    # dims are hash-checked against the analytic suggested-output
    # oracle; the warped pixels (cs_reproj) are pytest-verified against
    # the exact transform (mesh values are not SQL-expressible)
    return images_dataset(96) \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(per_process(ReprojectImages, src_crs="EPSG:3857",
                                 dst_crs="EPSG:4326", resampling="bilinear"),
                     batch_size=32, batch_format="pyarrow") \
        .select_columns(["image_id", "dst_w", "dst_h"])


def q_gcp_warp(sf_dir: str):
    """GCP-transformer warp (gdalwarp METHOD=GCP_POLYNOMIAL,
    alg/gdal_crs.cpp): each image gets a 3×3 GCP grid sampled from a
    separable monotone quadratic distortion of its native georef; the
    order-2 fit recovers it exactly, so the suggested-output grid
    geometry is closed-form in SQL. Warped pixels flow through the
    error-bounded mesh + sampling (pytest-verified; golden transformer
    parity in tests/test_gcp.py)."""
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef
    from ..stages.warp import gcp_warp

    def warp_batch(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec
        out = {"image_id": [], "dst_w": [], "dst_h": [],
               "minx": [], "maxy": []}
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            h, w = px.shape[:2]
            x0 = t["gt0"][i].as_py()
            res = t["gt1"][i].as_py()
            y1 = t["gt3"][i].as_py()
            qx, qy = res / (2.0 * w), res / (4.0 * h)
            pp, ll = np.meshgrid([0.0, w / 2.0, float(w)],
                                 [0.0, h / 2.0, float(h)])
            pp, ll = pp.ravel(), ll.ravel()
            gcps = np.column_stack([
                pp, ll,
                x0 + res * pp + qx * pp * pp,
                y1 - res * ll - qy * ll * ll])
            warped, valid, dst_gt = gcp_warp(
                px.astype(np.float64), gcps, method="polynomial",
                order=2, resampling="bilinear")
            out["image_id"].append(t["image_id"][i].as_py())
            out["dst_w"].append(warped.shape[1])
            out["dst_h"].append(warped.shape[0])
            out["minx"].append(_half_away([dst_gt[0]])[0])
            out["maxy"].append(_half_away([dst_gt[3]])[0])
        return pa.table({k: pa.array(v) for k, v in out.items()})

    return images_dataset(96) \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(warp_batch, batch_format="pyarrow", batch_size=16)


# ---------------------------------------------------------------------------
# driver round trips (SURVEY §2.1: write, then open and decode). Each
# query below is one spec for these factories: a write and a read
# callable, plus the per-driver checks inside read.
# ---------------------------------------------------------------------------

def _raster_roundtrip(n: int, ext: str, write, read):
    """Write the lossless half of the first n corpus images, with
    georeferencing, as <image_id>.<ext> in a scratch directory
    (write(px, gt, path, i), i = row index in its batch), read every
    file back in a Ray dataset (read(path) -> (pixels, extra_cols)) and
    emit image_id + band-0 mean_b0/min_b0/max_b0, then the extra
    columns."""
    import ray.data as rd
    from ..codecs import decode as _dec
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef

    out_dir = _scratch_dir(ext)

    def write_batch(t: pa.Table) -> pa.Table:
        gts = [t[f"gt{k}"].to_numpy() for k in range(6)]
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            gt = tuple(float(g[i]) for g in gts)
            write(px, gt, os.path.join(
                out_dir, f"{t['image_id'][i].as_py()}.{ext}"), i)
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    images_dataset(n).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(write_batch, batch_format="pyarrow").materialize()

    def stats(t: pa.Table) -> pa.Table:
        cols = {"image_id": [], "mean_b0": [], "min_b0": [], "max_b0": []}
        for path in t["path"].to_pylist():
            px, extra = read(path)
            b0 = (px if px.ndim == 2 else px[:, :, 0]).astype(np.float64)
            cols["image_id"].append(Path(path).stem)
            cols["mean_b0"].append(float(_half_away([b0.mean()])[0]))
            cols["min_b0"].append(float(b0.min()))
            cols["max_b0"].append(float(b0.max()))
            for k, v in extra.items():
                cols.setdefault(k, []).append(v)
        return pa.table(cols)

    paths = sorted(str(p) for p in Path(out_dir).glob(f"*.{ext}"))
    return rd.from_items([{"path": p} for p in paths]) \
        .map_batches(stats, batch_format="pyarrow")


def _with_gt_x0(px, gt):
    """read() result carrying the roundtripped origin as gt_x0."""
    return px, {"gt_x0": float(_half_away([gt[0]])[0])}


def _vector_roundtrip(m: int, ext: str, write, read, area_col: str,
                      category: str | None = None, scale: float = 1e6,
                      nd: int = 3):
    """Write the m-polygon layer as layer.<ext> in a scratch directory
    (write(table, path)), read it back (read(path) -> a Ray dataset with
    a fid column, or a pa.Table whose row position is the fid) and emit
    fid, area / scale rounded to nd decimals as area_col and, when
    named, the read-back category column as category."""
    import ray.data as rd
    from ..core import wkb as _W
    from ..core.geom import area as _area
    from ..sources.vector import polygons_table

    path = os.path.join(_scratch_dir(ext), f"layer.{ext}")
    write(polygons_table(m), path)
    back = read(path)
    if isinstance(back, pa.Table):
        back = back.select(["wkb"] + ([category] if category else []))
        back = rd.from_arrow(back.append_column(
            "fid", pa.array(range(back.num_rows), pa.int64())))

    def stats(t: pa.Table) -> pa.Table:
        areas = [_area(_W.loads(b)) / scale for b in t["wkb"].to_pylist()]
        cols = {"fid": t["fid"],
                area_col: pa.array(_half_away(areas, nd), pa.float64())}
        if category:
            cols["category"] = t[category]
        return pa.table(cols)

    return back.map_batches(stats, batch_format="pyarrow")


def q_netcdf_roundtrip(sf_dir: str):
    """netCDF classic driver end-to-end (frmts/netcdf/netcdfdataset.cpp
    raster model): transcode the lossless corpus half to CDF-1 files
    (bottom-up storage, ascending-y coordinate vars, grid-mapping var
    carrying GeoTransform + spatial_ref — the reference's own write
    layout), read the directory back as a Ray dataset,
    decode, assert the geotransform survives byte-exactly, and emit per
    image band stats. The oracle recomputes the stats closed-form, so
    the write→read→decode chain must be lossless to hash-match.
    (Golden-checksum conformance against the reference's autotest
    fixtures byte.nc/trmm-nan.nc/int16-nogeo.nc is tests/test_netcdf.py.)"""
    from ..codecs.netcdf import decode_netcdf, encode_netcdf
    from ..stages.georef import image_index

    def read(path):
        px, gt, _nd, _meta = decode_netcdf(Path(path).read_bytes())
        iid = Path(path).stem
        exp = geo.image_geotransform(image_index([iid]),
                                     np.array([px.shape[1]]),
                                     np.array([px.shape[0]]))[0]
        if tuple(float(g) for g in exp) != gt:
            raise AssertionError(f"geotransform drift for {iid}: "
                                 f"{gt} != {tuple(exp)}")
        return px, {}

    return _raster_roundtrip(
        64, "nc",
        lambda px, gt, path, i: Path(path).write_bytes(
            encode_netcdf(px, geotransform=gt, crs="EPSG:3857")),
        read)


def q_gtiff_roundtrip(sf_dir: str):
    """Real GeoTIFF driver end-to-end: transcode the lossless corpus
    half to tiled-deflate GeoTIFF files (with geotransform, CRS and
    nodata tags), read the directory back as a Ray dataset,
    decode, and emit per-image band stats. The oracle recomputes the
    stats closed-form — the full write→read→decode chain must be
    lossless for the row to hash-match. (Golden-checksum conformance
    against the reference's own autotest fixtures is in
    tests/test_gtiff.py.)"""
    from ..codecs.gtiff import decode_gtiff, encode_gtiff

    return _raster_roundtrip(
        64, "tif",
        lambda px, gt, path, i: Path(path).write_bytes(encode_gtiff(
            px, geotransform=gt, crs="EPSG:3857", nodata=None,
            tile_size=256, compress="deflate")),
        lambda path: (decode_gtiff(Path(path).read_bytes()).pixels, {}))


def q_jp2_roundtrip(sf_dir: str):
    """JPEG2000 driver end-to-end (codecs/jp2.py, both directions new
    in r4): transcode the lossless corpus half to lossless 5/3 .jp2
    (GeoJP2 uuid georeferencing), read the directory back through the
    full EBCOT/T2/DWT decoder, and emit per-image band stats — the
    write→read chain must be bit-lossless for the rows to hash-match.
    (Reference golden-checksum conformance is tests/test_jp2.py.)"""
    from ..codecs.jp2 import decode_jp2, encode_jp2

    return _raster_roundtrip(
        32, "jp2",
        lambda px, gt, path, i: Path(path).write_bytes(encode_jp2(
            px[:, :, 0], geotransform=gt, crs="EPSG:3857", levels=2)),
        lambda path: (decode_jp2(Path(path).read_bytes())[0], {}))


def q_jp2_lossy_roundtrip(sf_dir: str):
    """9/7 lossy JPEG2000 write→read gate (codecs/jp2.py encoder,
    new in r5): encode the png-corpus half irreversibly (scalar
    expounded quantization, per-component COC/QCC when multiband),
    decode through the full 9/7 path, and emit per-image PSNR ≥ 40 dB
    + rate-monotonicity (quality 20 encodes smaller than quality 50)
    booleans. The oracle lists the corpus ids with TRUE flags — any
    quality regression or georef drop flips a row and fails the
    hash."""
    from ..codecs import decode as _dec
    from ..codecs.jp2 import decode_jp2, encode_jp2
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef

    def gate(t: pa.Table) -> pa.Table:
        ids, ok, smaller = [], [], []
        gts = [t[f"gt{k}"].to_numpy() for k in range(6)]
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            band = px[:, :, 0]
            gt = tuple(float(g[i]) for g in gts)
            lossy = encode_jp2(band, geotransform=gt,
                               crs="EPSG:3857", lossy=True,
                               quality=50)
            coarse = encode_jp2(band, geotransform=gt,
                                crs="EPSG:3857", lossy=True,
                                quality=20)
            out, gt2, _, _ = decode_jp2(lossy)
            o = np.clip(np.asarray(out).squeeze(), 0, 255)
            mse = float(((o - band.astype(np.float64)) ** 2).mean())
            psnr = 10 * np.log10(255.0 ** 2 / max(mse, 1e-12))
            ids.append(t["image_id"][i].as_py())
            ok.append(bool(psnr >= 40.0
                           and np.allclose(gt2, gt, rtol=1e-9)))
            # rate monotonicity: coarser quantization → smaller file
            smaller.append(len(coarse) < len(lossy))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "psnr_ok": pa.array(ok, pa.bool_()),
                         "smaller_ok": pa.array(smaller, pa.bool_())})

    return images_dataset(32) \
        .map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(gate, batch_format="pyarrow")


def q_webp_roundtrip(sf_dir: str):
    """WebP driver end-to-end, both sides from scratch (codecs/webp.py
    encoder = VP8L literal subset, decoder = full VP8L; lossy VP8 is
    covered by the libwebp-parity pytest conformance suite since it
    cannot be bit-replayed in SQL): transcode the lossless corpus half
    to .webp, read the directory back, emit per-image band-0 stats —
    the chain must be bit-lossless for the rows to hash-match."""
    from ..codecs.webp import decode_webp, encode_webp_lossless

    return _raster_roundtrip(
        32, "webp",
        lambda px, gt, path, i: Path(path).write_bytes(
            encode_webp_lossless(px[:, :, 0])),
        lambda path: (decode_webp(Path(path).read_bytes()), {}))


# WKT of the EPSG Guidance Note 7-2 §3.2.6 worked example CRS
# (Timbalai 1948 / RSO Borneo (m), Hotine Oblique Mercator variant B)
# — golden-anchored in tests/test_srs.py (E=679245.73 N=596562.78).
_RSO_BORNEO_WKT = (
    'PROJCS["Timbalai 1948 / RSO Borneo (m)",GEOGCS["Timbalai 1948",'
    'DATUM["Timbalai_1948",SPHEROID["Everest 1830 (1967 Definition)"'
    ',6377298.556,300.8017]],PRIMEM["Greenwich",0],'
    'UNIT["degree",0.0174532925199433]],'
    'PROJECTION["Hotine_Oblique_Mercator_Azimuth_Center"],'
    'PARAMETER["latitude_of_center",4],'
    'PARAMETER["longitude_of_center",115],'
    'PARAMETER["azimuth",53.31582047222222],'
    'PARAMETER["rectified_grid_angle",53.13010236111111],'
    'PARAMETER["scale_factor",0.99984],'
    'PARAMETER["false_easting",590476.87],'
    'PARAMETER["false_northing",442857.65],UNIT["metre",1]]')


def q_omerc_warp(sf_dir: str):
    """Hotine Oblique Mercator point transform (EPSG method 9815,
    core/srs.py HotineObliqueMercator, new in r5): customer keys →
    deterministic Borneo lon/lat → forward omerc through the
    WKT-constructed Timbalai RSO CRS. Oracle: the EPSG GN7-2 closed
    form replayed in SQL with the kernel's own projection constants
    inlined (oracles.sql_omerc_warp)."""
    from ..core.srs import CRS, params_from_wkt

    crs = CRS(params_from_wkt(_RSO_BORNEO_WKT))

    def fwd(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy()
        lon = 110.0 + (key % 800) / 100.0
        lat = 0.5 + (key % 650) / 100.0
        x, y = crs.lonlat_to_xy(lon, lat)
        return pa.table({
            "c_custkey": pa.array(key, pa.int64()),
            "x": pa.array(_half_away(np.asarray(x), 4), pa.float64()),
            "y": pa.array(_half_away(np.asarray(y), 4), pa.float64()),
        })

    return _rp(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(fwd, batch_format="pyarrow")


@functools.lru_cache(maxsize=2)
def _ntv2_grid(gsb: bytes):
    """The decoded shift grid, built once per worker process."""
    from ..codecs.ntv2 import NTv2Grid
    return NTv2Grid(gsb)


def q_ntv2_shift(sf_dir: str):
    """NTv2 datum-grid shift end-to-end (codecs/ntv2.py, new in r5):
    encode a deterministic 11x21 shift grid to a .gsb, decode it back
    through the reader, and apply the bilinear grid shift to
    customer-derived points — the reference's NTv2 + hgridshift
    pipeline shape. Node values are multiples of 1/16 (exact in
    float32), so the oracle replays the bilinear interpolation
    bit-identically in SQL (oracles.sql_ntv2_shift)."""
    from ..codecs.ntv2 import encode_ntv2

    h, w = 11, 21
    yy, xx = np.mgrid[0:h, 0:w]
    px = np.zeros((h, w, 4), np.float32)
    px[:, :, 0] = ((yy * 31 + xx * 17) % 41 - 20) * 0.0625
    px[:, :, 1] = ((yy * 13 + xx * 7) % 29 - 14) * 0.0625
    gsb = encode_ntv2(px, lat_min=40.0, lat_max=50.0,
                      lon_min=-10.0, lon_max=10.0)

    def shift(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy()
        lon = -9.5 + (key % 190) / 10.0
        lat = 40.5 + (key % 90) / 10.0
        slon, slat = _ntv2_grid(gsb).shift(lon, lat)
        return pa.table({
            "c_custkey": pa.array(key, pa.int64()),
            "lon_shifted": pa.array(_half_away(slon, 9), pa.float64()),
            "lat_shifted": pa.array(_half_away(slat, 9), pa.float64()),
        })

    return _rp(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(shift, batch_format="pyarrow")


def q_mvt_roundtrip(sf_dir: str):
    """Mapbox Vector Tiles end-to-end (sources/mvt.py, new in r5;
    reference ogr/ogrsf_frmts/mvt): assign each synthetic polygon to
    every z9 XYZ tile its envelope touches, ENCODE a real MVT
    protobuf tile per group, DECODE it back, and report per-tile
    decoded feature counts + mvt_id sums. Counts survive the tile
    quantization (polygons are km-scale, z9 cells are ~19 m), so the
    oracle replays the envelope->tile-range math in SQL."""
    from ..sources.mvt import decode_mvt, encode_mvt
    from ..sources.vector import polygons_dataset

    Z = 9
    O = 20037508.342789244
    size = 2 * O / (1 << Z)

    def assign(t: pa.Table) -> pa.Table:
        fid = t["fid"].to_numpy()
        minx = t["minx"].to_numpy()
        miny = t["miny"].to_numpy()
        maxx = t["maxx"].to_numpy()
        maxy = t["maxy"].to_numpy()
        wkbs = t["wkb"].to_pylist()
        txmin = np.floor((minx + O) / size).astype(np.int64)
        txmax = np.floor((maxx + O) / size).astype(np.int64)
        tymin = np.floor((O - maxy) / size).astype(np.int64)
        tymax = np.floor((O - miny) / size).astype(np.int64)
        out_f, out_x, out_y, out_w = [], [], [], []
        for i in range(len(fid)):
            for tx in range(txmin[i], txmax[i] + 1):
                for ty in range(tymin[i], tymax[i] + 1):
                    out_f.append(int(fid[i]))
                    out_x.append(tx)
                    out_y.append(ty)
                    out_w.append(wkbs[i])
        tx, ty = np.array(out_x, np.int64), np.array(out_y, np.int64)
        return pa.table({"fid": pa.array(out_f, pa.int64()),
                         "tile_x": tx, "tile_y": ty,
                         "tile": (tx << 32) | ty,
                         "wkb": pa.array(out_w, pa.binary())})

    def mvt_tile_group(t: pa.Table) -> pa.Table:
        from ..core import wkb as W
        out = {"tile_x": [], "tile_y": [], "n_features": [], "fid_sum": []}
        for sub in key_slices(t, t["tile"].to_numpy()):
            tx, ty = sub["tile_x"][0].as_py(), sub["tile_y"][0].as_py()
            feats = [(W.loads(w), {"name": f"p{f}"}, f) for w, f in
                     zip(sub["wkb"].to_pylist(), sub["fid"].to_pylist())]
            buf = encode_mvt(feats, layer="polys", z=Z, x=tx, y=ty)
            dec = decode_mvt(buf, Z, tx, ty)["polys"]
            ids = dec["mvt_id"].to_numpy(zero_copy_only=False)
            for c, v in zip(out, (tx, ty, len(dec), int(ids.sum()))):
                out[c].append(v)
        return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})

    return bucket_groups(
        polygons_dataset(40).map_batches(assign, batch_format="pyarrow"),
        mvt_tile_group, key="tile")


def q_gmt_roundtrip(sf_dir: str):
    """GMT ASCII vector driver end-to-end (sources/gmtvec.py, new in
    r5; reference ogr/ogrsf_frmts/gmt): polygon layer -> .gmt text
    (repr-exact float coordinates, @D attribute rows, @H hole
    markers) -> read back -> per-fid areas, which must equal the
    closed-form shape-class areas (write/read is lossless)."""
    from ..sources.gmtvec import read_gmt_table, write_gmt

    return _vector_roundtrip(30, "gmt", write_gmt, read_gmt_table,
                             "area_km2_gmt")


def q_mrf_roundtrip(sf_dir: str):
    """MRF driver end-to-end (codecs/mrf.py, encoder new this round;
    reference frmts/mrf/): transcode the lossless corpus half to
    DEFLATE-paged MRF triplets (XML meta + big-endian int64 tile index
    + .pzp data), read the .mrf directory back through the page
    decoder, and emit per-image band stats — DEFLATE pages are
    bit-lossless so the rows hash-match the closed-form pixel
    oracle."""
    from ..codecs.mrf import decode_mrf, encode_mrf

    return _raster_roundtrip(
        32, "mrf",
        lambda px, gt, path, i: encode_mrf(
            px[:, :, 0], path, compression="DEFLATE", geotransform=gt,
            crs="EPSG:3857", page=256),
        lambda path: (decode_mrf(path)[0], {}))


def q_e57_roundtrip(sf_dir: str):
    """E57 driver end-to-end (codecs/e57.py, reader + writer new this
    round; reference frmts/e57/e57driver.cpp): write the lossless
    corpus half as single-image E57 files (page/CRC-32C framing, XML
    section, PNG blob section), read them back through the
    page-skipping logical stream, and emit per-image band stats —
    PNG payloads are bit-lossless so the rows hash-match the
    closed-form pixel oracle."""
    from ..codecs.e57 import read_e57, write_e57

    def read(path):
        px, _gt, _nd, meta = read_e57(path)
        if meta["NAME"] != Path(path).stem:
            raise AssertionError(f"E57 NAME {meta['NAME']!r} != "
                                 f"{Path(path).stem!r}")
        return px, {}

    return _raster_roundtrip(
        32, "e57",
        lambda px, gt, path, i: write_e57(path, px, name=Path(path).stem,
                                          fmt="png"),
        read)


def q_heif_roundtrip(sf_dir: str):
    """HEIF driver end-to-end (codecs/heif.py, reader + writer new
    this round; reference frmts/heif/): write the lossless corpus
    half as uncompressed-codec (ISO 23001-17 unci) HEIF files with
    GeoHEIF mtxf/mcrs properties, read them back through the ISOBMFF
    walker, and emit per-image band stats plus the roundtripped
    geotransform origin — uncompressed pixels are bit-lossless so the
    rows hash-match the closed-form oracle."""
    from ..codecs.heif import read_heif, write_heif

    return _raster_roundtrip(
        32, "heif",
        lambda px, gt, path, i: write_heif(path, px, geotransform=gt,
                                           crs="EPSG:3857"),
        lambda path: _with_gt_x0(*read_heif(path)[:2]))


def q_exr_roundtrip(sf_dir: str):
    """OpenEXR driver end-to-end (codecs/exr.py, reader + writer new
    this round; reference frmts/exr/exrdataset.cpp wraps the OpenEXR
    library, we implement the container): write the lossless corpus
    half as ZIP-compressed FLOAT scanline EXRs with the driver's
    gdal:geoTransform M33d attribute, read them back (reorder+delta
    inverse, chunk table), and emit per-image band stats + the
    roundtripped origin — float32 holds uint8 exactly so the rows
    hash-match the closed-form oracle."""
    from ..codecs.exr import read_exr, write_exr

    # alternate scanline / tiled ONE_LEVEL storage and ZIP / PIZ
    # compression (both lossless) so the driver gate exercises both
    # container layouts and the wavelet+Huffman codec
    return _raster_roundtrip(
        32, "exr",
        lambda px, gt, path, i: write_exr(
            path, px, pixel_type="FLOAT",
            compression="PIZ" if i % 3 == 0 else "ZIP",
            geotransform=gt, tile=(64, 64) if i % 2 else None),
        lambda path: _with_gt_x0(*read_exr(path)[:2]))


def q_zarr_roundtrip(sf_dir: str):
    """Zarr v2 driver end-to-end with the round-5 own codecs
    (sources/zarr.py + codecs/lz4.py + codecs/zstd.py; the reference
    frmts/zarr wraps libblosc/liblz4/libzstd): write the lossless
    corpus half as multi-chunk Zarr v2 stores — even images with
    blosc (lz4 + byte shuffle) chunks from the own writer, odd images
    with real libzstd chunks (pyarrow's bundled zstd, so the own
    RFC 8878 decoder's entropy paths are exercised, not just
    store-mode) — read them back through the standard reader, and
    emit per-image band stats + the roundtripped origin from .zattrs.
    Lossless, so rows hash-match the closed-form pixel oracle."""
    import json

    from ..codecs.lz4 import blosc_compress
    from ..sources.zarr import read_zarr_array

    def write(px, gt, root, i):
        if px.ndim == 3:
            px = px[:, :, 0]
        px = np.ascontiguousarray(px, dtype=np.uint8)
        os.makedirs(root, exist_ok=True)
        ch = (64, 64)
        use_blosc = i % 2 == 0
        zc = pa.Codec("zstd", compression_level=9)
        comp = ({"id": "blosc", "cname": "lz4", "clevel": 5,
                 "shuffle": 1, "blocksize": 0} if use_blosc
                else {"id": "zstd", "level": 9})
        meta = {"zarr_format": 2, "shape": list(px.shape),
                "chunks": list(ch), "dtype": "|u1", "order": "C",
                "fill_value": 0, "filters": None, "compressor": comp}
        with open(os.path.join(root, ".zarray"), "w") as fh:
            json.dump(meta, fh)
        with open(os.path.join(root, ".zattrs"), "w") as fh:
            json.dump({"GeoTransform": list(gt)}, fh)
        for ci in range(-(-px.shape[0] // ch[0])):
            for cj in range(-(-px.shape[1] // ch[1])):
                blk = np.zeros(ch, np.uint8)
                sub = px[ci * ch[0]:(ci + 1) * ch[0],
                         cj * ch[1]:(cj + 1) * ch[1]]
                blk[:sub.shape[0], :sub.shape[1]] = sub
                raw = blk.tobytes()
                Path(root, f"{ci}.{cj}").write_bytes(
                    blosc_compress(raw, typesize=1) if use_blosc
                    else bytes(zc.compress(raw)))

    def read(path):
        arr, attrs = read_zarr_array(path)
        return _with_gt_x0(arr, attrs["GeoTransform"])

    return _raster_roundtrip(32, "zarr", write, read)


def q_rl2_roundtrip(sf_dir: str):
    """RasterLite2 driver end-to-end (sources/rasterlite2.py, reader +
    writer new this round; reference ogr/ogrsf_frmts/sqlite/
    rasterlite2.cpp): transcode the lossless corpus half to DEFLATE
    .rl2 coverages (odd/even row split + lag-bps byte predictor +
    zlib), read them back through the tile decoder, and emit per-image
    band stats — DEFLATE coverages are bit-lossless so the rows
    hash-match the closed-form pixel oracle."""
    from ..sources.rasterlite2 import read_rl2, write_rl2

    return _raster_roundtrip(
        32, "rl2",
        lambda px, gt, path, i: write_rl2(px[:, :, 0], path,
                                          geotransform=gt, srid=3857,
                                          tile=256),
        lambda path: (read_rl2(path)[0], {}))


def q_pdf_roundtrip(sf_dir: str):
    """Geospatial PDF driver end-to-end (codecs/pdf.py, reader+writer
    new this round; reference frmts/pdf/pdfdataset.cpp +
    pdfcreatecopy.cpp): write the lossless corpus half as single-page
    ISO 32000 /VP-georeferenced PDFs (FlateDecode image XObjects),
    read them back by walking the content stream and decoding the
    XObjects directly (no renderer library), and emit per-image band
    stats — bit-lossless, so rows hash-match the closed-form pixel
    oracle."""
    from ..codecs.pdf import read_pdf, write_pdf

    return _raster_roundtrip(
        32, "pdf",
        lambda px, gt, path, i: write_pdf(px[:, :, 0], gt, path,
                                          crs="EPSG:3857", epsg=3857),
        lambda path: (read_pdf(path)[0], {}))


def q_sqlite_roundtrip(sf_dir: str):
    """SQLite vector driver end-to-end (sources/sqlitevec.py, new this
    round; reference ogr/ogrsf_frmts/sqlite): polygon layer -> OGR-style
    SQLite DB (plain WKB blobs + legacy geometry_columns) -> read back
    through the SpatiaLite-aware reader -> per-fid areas, which must
    equal the closed-form shape-class areas (blob roundtrip is
    lossless)."""
    from ..sources.sqlitevec import read_sqlite, write_sqlite

    return _vector_roundtrip(
        30, "sqlite",
        lambda t, path: write_sqlite(t, path, layer="polys",
                                     geom_type="POLYGON"),
        lambda path: read_sqlite(path, "polys"), "area_km2_sqlite")


def q_cog_roundtrip(sf_dir: str):
    """Cloud-Optimized GeoTIFF driver (cogeo.org layout;
    frmts/cog/cogdriver.cpp): transcode the lossless corpus half to
    COG files (tiled deflate, average-overview cascade, IFDs at head,
    overview data first), read the directory back, decode the full IFD
    chain, and emit band stats + overview count + a structural-validity
    flag. The oracle recomputes stats closed-form and the level count
    analytically (k = max(0, ceil(log2(maxdim/256))) + 1)."""
    from ..codecs.cog import cog_is_valid, decode_cog, encode_cog

    def read(path):
        buf = Path(path).read_bytes()
        gs = decode_cog(buf)
        v = cog_is_valid(buf)
        return gs[0].pixels, {
            "n_levels": len(gs),
            "cog_ok": bool(v["tiled"] and v["metadata_before_data"])}

    return _raster_roundtrip(
        48, "tif",
        lambda px, gt, path, i: Path(path).write_bytes(
            encode_cog(px, geotransform=gt, crs="EPSG:3857")),
        read)


def q_proximity(sf_dir: str):
    """Exact euclidean distance transform (alg/gdalproximity.cpp):
    per-image EDT to the nearest zero-valued band-0 pixel on 64×64
    crops; emits sum of integer-floored distances — the SQL oracle
    brute-forces min distance per pixel closed-form."""
    from ..core.rastervec import proximity
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    CROP = 64

    def prox(px, row):
        b0 = px[:CROP, :CROP, 0].astype(np.int64)
        mask = b0 == 0
        if not mask.any():
            return {"dist_sum": -1}
        d = proximity(mask)
        return {"dist_sum": int(np.floor(d + 1e-9).sum())}

    return images_dataset(48).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(prox), batch_format="pyarrow") \
        .select_columns(["image_id", "dist_sum"])


def q_gtiff_float_nodata(sf_dir: str):
    """Wider raster data model end-to-end: float32 single-band rasters
    with a NODATA value written as deflate GeoTIFF (dtype + GDAL_NODATA
    tag), read back distributed, nodata-aware stats. The oracle
    reconstructs values and hole positions closed-form — the whole
    float path (encode → tag → decode → masked reduction) must be
    lossless to hash-match."""
    import ray.data as rd
    from ..codecs.gtiff import decode_gtiff, encode_gtiff

    N, W = 32, 128
    ND = -9999.0
    out_dir = _scratch_dir("gtiff_f32")

    def write(t: pa.Table) -> pa.Table:
        n = 0
        for i in t["id"].to_pylist():
            a = 1 + (i * 7919) % 13
            b = 1 + (i * 104729) % 17
            x = np.arange(W)[None, :]
            y = np.arange(W)[:, None]
            vals = (((a * x + b * y) % 256) / 4.0).astype(np.float32)
            vals[(x + y) % 17 == 0] = np.float32(ND)
            buf = encode_gtiff(vals, nodata=ND, compress="deflate",
                               tile_size=64)
            with open(os.path.join(out_dir, f"f{i:05d}.tif"), "wb") as f:
                f.write(buf)
            n += 1
        return pa.table({"n": pa.array([n], pa.int64())})

    rd.range(N).map_batches(write, batch_format="pyarrow",
                            batch_size=8).materialize()
    files = rd.read_binary_files(out_dir, include_paths=True)

    def stats(t: pa.Table) -> pa.Table:
        rids, nvalid, means = [], [], []
        for path, buf in zip(t["path"].to_pylist(), t["bytes"].to_pylist()):
            g = decode_gtiff(buf)
            px = g.pixels.astype(np.float64)
            mask = px != g.nodata
            rids.append(int(os.path.basename(path)[1:6]))
            nvalid.append(int(mask.sum()))
            means.append(_half_away([float(px[mask].mean())])[0])
        return pa.table({"rid": pa.array(rids, pa.int64()),
                         "n_valid": pa.array(nvalid, pa.int64()),
                         "mean_valid": pa.array(means, pa.float64())})

    return files.map_batches(stats, batch_format="pyarrow")


def q_utm_warp(sf_dir: str):
    """The reference's own benchmark workload shape (autotest/benchmark/
    test_gdalwarp.py:24-56): UTM EPSG:32631 3-band uint8 source warped
    to EPSG:4326 with near AND cubic, through the 0.125-px approximate
    transformer mesh. Emits per-image dst dims + per-resampler checksums
    (pixel parity vs the exact transform is pytest-verified)."""
    from ..core.checksum import checksum
    from ..stages.warp import reproject_array

    N_IMG, W = 24, 512

    def gen(t: pa.Table) -> pa.Table:
        rows = {"image_id": [], "dst_w": [], "dst_h": [],
                "cs_near": [], "cs_cubic": []}
        for i in t["id"].to_pylist():
            a, b = 1 + (i * 7919) % 13, 1 + (i * 104729) % 17
            x = np.arange(W)[None, :]
            y = np.arange(W)[:, None]
            px = np.repeat((((a * x + b * y) % 256)
                            .astype(np.uint8))[:, :, None], 3, axis=2)
            # zone-31 interior anchors (lat ~41-49N), 10 m pixels
            x0 = 350000.0 + (i * 37) % 300 * 1000.0
            y0 = 4600000.0 + (i * 53) % 800 * 1000.0
            gt = (x0, 10.0, 0.0, y0 + W * 10.0, 0.0, -10.0)
            outs = {}
            for rs in ("near", "cubic"):
                out, valid, dgt = reproject_array(
                    px, gt, "EPSG:32631", "EPSG:4326", resampling=rs)
                outs[rs] = (out, dgt)
            o_near, _ = outs["near"]
            o_cubic, _ = outs["cubic"]
            rows["image_id"].append(f"utm{i:05d}")
            rows["dst_h"].append(o_near.shape[0])
            rows["dst_w"].append(o_near.shape[1])
            rows["cs_near"].append(int(checksum(np.round(o_near[:, :, 0]))))
            rows["cs_cubic"].append(int(checksum(np.round(o_cubic[:, :, 0]))))
        return pa.table({
            "image_id": pa.array(rows["image_id"], pa.string()),
            "dst_w": pa.array(rows["dst_w"], pa.int32()),
            "dst_h": pa.array(rows["dst_h"], pa.int32()),
            "cs_near": pa.array(rows["cs_near"], pa.int64()),
            "cs_cubic": pa.array(rows["cs_cubic"], pa.int64()),
        })

    import ray.data as rd
    return rd.range(N_IMG, override_num_blocks=8).map_batches(
        gen, batch_format="pyarrow", batch_size=3)


# WKT1 for EPSG:3395 (World Mercator, ellipsoidal 1SP) — exercises the
# general CRS constructor (core/srs.py importFromWkt analog); NOT in
# any registry: the projection is built from these parameters alone.
WKT_3395 = (
    'PROJCS["WGS 84 / World Mercator",GEOGCS["WGS 84",'
    'DATUM["WGS_1984",SPHEROID["WGS 84",6378137,298.257223563]],'
    'PRIMEM["Greenwich",0],UNIT["degree",0.0174532925199433]],'
    'PROJECTION["Mercator_1SP"],'
    'PARAMETER["central_meridian",0],PARAMETER["scale_factor",1],'
    'PARAMETER["false_easting",0],PARAMETER["false_northing",0],'
    'UNIT["metre",1]]')


def q_wkt_warp(sf_dir: str):
    """Warp through a WKT-CONSTRUCTED CRS (ogrspatialreference.cpp
    importFromWkt analog, core/srs.py): 4326 sources → the WKT text of
    EPSG:3395 ellipsoidal Mercator, full reproject_array pipeline (edge
    walk, 0.125-px mesh, resample). The suggested-output geometry
    replays closed-form in SQL (Mercator y = a·(atanh s − e·atanh e·s)
    is per-axis monotone, so the 21-point walk collapses to corners);
    warped pixels are parity-pytest-verified against the proj-string
    construction (tests/test_srs.py)."""
    from ..stages.warp import reproject_array

    N_IMG, W = 96, 96

    def gen(t: pa.Table) -> pa.Table:
        rows = {"image_id": [], "dst_w": [], "dst_h": [],
                "minx": [], "maxy": []}
        for i in t["id"].to_pylist():
            a, b = 1 + (i * 7919) % 13, 1 + (i * 104729) % 17
            x = np.arange(W)[None, :]
            y = np.arange(W)[:, None]
            px = (((a * x + b * y) % 256).astype(np.uint8))[:, :, None]
            lon0 = -150.0 + (i * 37) % 300
            lat0 = -55.0 + (i * 53) % 110
            gt = (lon0, 0.01, 0.0, lat0 + W * 0.01, 0.0, -0.01)
            out, valid, dgt = reproject_array(
                px, gt, "EPSG:4326", WKT_3395, resampling="near")
            rows["image_id"].append(f"wkt{i:05d}")
            rows["dst_h"].append(out.shape[0])
            rows["dst_w"].append(out.shape[1])
            rows["minx"].append(_half_away([dgt[0]])[0])
            rows["maxy"].append(_half_away([dgt[3]], 2)[0])
        return pa.table({
            "image_id": pa.array(rows["image_id"], pa.string()),
            "dst_w": pa.array(rows["dst_w"], pa.int64()),
            "dst_h": pa.array(rows["dst_h"], pa.int64()),
            "minx": pa.array(rows["minx"], pa.float64()),
            "maxy": pa.array(rows["maxy"], pa.float64()),
        })

    import ray.data as rd
    return rd.range(N_IMG, override_num_blocks=8).map_batches(
        gen, batch_format="pyarrow", batch_size=12)


def q_zonal_raster(sf_dir: str):
    """Per-polygon raster-pixel statistics (alg/zonal.cpp): the zone
    layer is the small side → broadcast it once (ray.put) and emit
    additive partials from a per-image map; the only shuffle is the
    tiny groupby(fid) combine."""
    from ..sources.images import images_dataset
    from ..sources.vector import polygons_table
    from ..stages.georef import with_georef
    from ..stages.zonal import zonal_raster_broadcast

    imgs = images_dataset(128).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(with_georef, batch_format="pyarrow")
    out = zonal_raster_broadcast(imgs, polygons_table(60))

    def rnd(t: pa.Table) -> pa.Table:
        for c in ("pixel_sum", "pixel_mean"):
            t = t.set_column(t.schema.get_field_index(c), c,
                             pa.array(_half_away(t.column(c).to_numpy()),
                                      pa.float64()))
        return t

    return out.map_batches(rnd, batch_format="pyarrow")


def q_contours(sf_dir: str):
    """Marching-squares contours (alg/contour.cpp): iso-lines of band 0
    at fixed levels per image → per-image line count + total length."""
    from ..core.contour import contour_lines
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    # half-integer levels: integer pixel values mean crossings never
    # land on lattice corners, so traced vertices == crossed edges
    LEVELS = (63.5, 127.5, 191.5)

    def ctr(px, row):
        # run the REAL tracer; emit per-level crossing counts derived
        # from the traced polylines (Σ vertices − closed-dup): marching
        # squares consumes each sign-change lattice edge exactly once,
        # so this must equal the closed-form edge count the SQL oracle
        # computes — an end-to-end conservation check of the tracer.
        # (polyline count + lengths stay pytest-covered.)
        out = {}
        lines = contour_lines(px[:, :, 0].astype(np.float64), LEVELS)
        per_level = {lv: 0 for lv in LEVELS}
        for lv, ln in lines:
            closed = bool(np.allclose(ln[0], ln[-1])) and len(ln) > 1
            per_level[lv] += len(ln) - (1 if closed else 0)
        for k, lv in enumerate(LEVELS):
            out[f"n_cross_l{int(lv)}"] = int(per_level[lv])
        return out

    return images_dataset(96, parallelism=32) \
        .map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(ctr), batch_format="pyarrow") \
        .select_columns(["image_id", "n_cross_l63", "n_cross_l127",
                         "n_cross_l191"])


def q_footprint(sf_dir: str):
    """Raster footprint (gdal_footprint): outline polygon of pixels
    above a threshold → per-image footprint area + part count."""
    from ..core.geom import area
    from ..core.rastervec import footprint
    from ..core.wkb import MULTIPOLYGON
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    def fp(px, row):
        mask = (px[:, :, 0].astype(np.int64) > 100).astype(np.int64)
        g = footprint(mask, nodata=0)
        if g is None:
            return {"fp_area": 0.0}
        # traced outline area (holes subtracted) == mask pixel count;
        # the SQL oracle counts pixels above threshold — a real check
        # of the ring tracer (n_parts is pytest-covered)
        return {"fp_area": float(area(g))}

    return images_dataset(96, parallelism=32) \
        .map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(fp), batch_format="pyarrow") \
        .select_columns(["image_id", "fp_area"])


def q_audio_features(sf_dir: str):
    """Multimodal audio: binary column → feature extraction (rms/zcr/
    spectral centroid, state built once per worker process); decode
    stubbed deterministically."""
    from ..stages import per_process
    from ..stages.multimodal import AudioFeatures, audio_dataset

    def rnd(t: pa.Table) -> pa.Table:
        for c in ("rms", "zcr", "spectral_centroid"):
            t = t.set_column(t.schema.get_field_index(c), c,
                             pa.array(_half_away(t[c].to_numpy()), pa.float64()))
        return t

    return audio_dataset(128).map_batches(
        per_process(AudioFeatures, backend="fake"),
        batch_size=32, batch_format="pyarrow") \
        .map_batches(rnd, batch_format="pyarrow")


def q_audio_features_wav(sf_dir: str):
    """REAL audio decode end-to-end: a corpus of genuine RIFF/WAVE
    payloads (closed-form integer PCM, stages/multimodal.py::
    make_wav_audio_batch) → WAV decode (codecs/wav.py) →
    integer-exact PCM stats. The oracle regenerates the PCM in SQL, so
    one mis-decoded sample anywhere breaks the hash. Float rms/zcr
    over the same real decode path: tests/test_multimodal.py."""
    from ..stages import per_process
    from ..stages.multimodal import WavStats, wav_audio_dataset
    return wav_audio_dataset(48).map_batches(
        per_process(WavStats), batch_size=16, batch_format="pyarrow")


def q_video_frames(sf_dir: str):
    """Multimodal video: flat-map frame sampling (1 fps, stubbed
    decode) → per-video frame count + first-frame checksum."""
    from ray.data.aggregate import Count, Min
    from ..stages import per_process
    from ..stages.multimodal import VideoFrameSample, video_dataset

    return video_dataset(64).map_batches(
        per_process(VideoFrameSample, backend="fake"),
        batch_size=16, batch_format="pyarrow") \
        .groupby("video_id").aggregate(
            Count(alias_name="n_frames_sampled"),
            Min("frame_index", alias_name="first_frame"))


def q_pipeline_dsl(sf_dir: str):
    """User-extension surface (gdal pipeline analog): run a pipeline
    from its config-string form through the step registry."""
    from .registry import run_pipeline
    return run_pipeline(
        "read_images n=64 ! georef ! filter expr=w>=256"
        " ! select cols=image_id,w,h,minx,maxy")


def q_layer_intersection(sf_dir: str):
    """OGR layer algebra Intersection (ogrlayer.cpp:5386): polygons ×
    z6 tile-rect layer → exact pairwise intersection areas via convex
    decomposition; tile rects partition the plane so per-polygon sums
    equal polygon areas (verified in tests)."""
    from ..sources.vector import polygons_table, polygons_dataset, tile_rects_dataset
    from ..stages.layer_algebra import layer_intersection

    pt = polygons_table(30)
    minx = pt["minx"].to_numpy().min() - 1e4
    miny = pt["miny"].to_numpy().min() - 1e4
    maxx = pt["maxx"].to_numpy().max() + 1e4
    maxy = pt["maxy"].to_numpy().max() + 1e4
    zones = tile_rects_dataset(6, minx, miny, maxx, maxy)
    out = layer_intersection(polygons_dataset(30), zones, zoom=6)

    # tile rects PARTITION the plane → per-feature piece areas must sum
    # to the closed-form feature area: a strong aggregate invariant the
    # SQL oracle checks exactly (per-piece areas are pytest-covered)
    from ray.data.aggregate import Sum
    tot = out.groupby("fid_a").aggregate(Sum("inter_area", alias_name="sum_area"))

    def rnd(t: pa.Table) -> pa.Table:
        return pa.table({
            "fid": t["fid_a"],
            "total_area_km2": pa.array(
                _half_away(t["sum_area"].to_numpy() / 1e6, 3), pa.float64()),
        })

    return tot.map_batches(rnd, batch_format="pyarrow")


def q_layer_setops(sf_dir: str):
    """Layer algebra Union/SymDifference pairwise areas
    (ogrlayer.cpp:5804/:6341): polygons (all non-rotated classes, incl.
    concave L, hole, multipolygon) × axis-box layer, co-partitioned by
    salted cell bucket and paired by the set_op_bucket Arrow kernel
    (stages/layer_algebra.py). Oracle: exact signed-box algebra in SQL."""
    from ..sources.vector import boxes_dataset, polygons_dataset
    from ..stages.layer_algebra import layer_set_op_pairs

    def drop_diamonds(t: pa.Table) -> pa.Table:
        fid = t["fid"].to_numpy()
        return t.filter(pa.array(fid % 5 != 1))

    A = polygons_dataset(30).map_batches(drop_diamonds,
                                         batch_format="pyarrow")
    out = layer_set_op_pairs(A, boxes_dataset(40), zoom=6)

    def fin(t: pa.Table) -> pa.Table:
        keep = pc.greater(t["inter_area"], 1.0)
        t = t.filter(keep)
        return pa.table({
            "fid_a": t["fid_a"], "fid_b": t["fid_b"],
            "inter_km2": pa.array(
                _half_away(t["inter_area"].to_numpy() / 1e6, 3), pa.float64()),
            "union_km2": pa.array(
                _half_away(t["union_area"].to_numpy() / 1e6, 3), pa.float64()),
            "symdiff_km2": pa.array(
                _half_away(t["symdiff_area"].to_numpy() / 1e6, 3),
                pa.float64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def q_layer_clip_erase(sf_dir: str):
    """Vector clip + erase vs a rectangle (gdalalg_vector_clip /
    ogrlayer.cpp:7538): per-feature clipped area + erased area."""
    from ..core.geom import area as _area
    from ..core import wkb as _W
    from ..sources.vector import polygons_table, polygons_dataset
    from ..stages.layer_algebra import layer_clip_rect, layer_erase_rect

    pt = polygons_table(30)
    minx = pt["minx"].to_numpy().min()
    miny = pt["miny"].to_numpy().min()
    maxx = float(np.median(pt["maxx"].to_numpy()))
    maxy = float(np.median(pt["maxy"].to_numpy()))

    clipped = layer_clip_rect(polygons_dataset(30), minx, miny, maxx, maxy)

    def areas(t: pa.Table) -> pa.Table:
        vals = [_area(_W.loads(b)) for b in t["wkb"].to_pylist()]
        return pa.table({"fid": t["fid"],
                         "clip_area": pa.array(_half_away(vals, 2), pa.float64())})

    ca = clipped.map_batches(areas, batch_format="pyarrow")
    er = layer_erase_rect(polygons_dataset(30), minx, miny, maxx, maxy)

    def rnd(t: pa.Table) -> pa.Table:
        for c in ("area", "erased_area"):
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, pa.array(_half_away(t[c].to_numpy(), 2),
                                            pa.float64()))
        return t

    er = er.map_batches(rnd, batch_format="pyarrow")
    # join the two small per-fid tables driver-side; emit the Clip/Erase
    # complementarity invariant: clip_area + erased_area == feature area
    # (closed form in the oracle) — an exact check of BOTH operators
    df = er.to_pandas().merge(ca.to_pandas(), on="fid", how="left")
    df["clip_area"] = df["clip_area"].fillna(0.0)
    out = pd.DataFrame({
        "fid": df["fid"],
        "area_km2_total": _half_away(
            (df["clip_area"].to_numpy() + df["erased_area"].to_numpy()) / 1e6, 3),
    })
    return out


def q_raster_histogram(sf_dir: str):
    """Corpus-wide band histogram (GetHistogram,
    gcore/gdalrasterband.cpp:4224): per-image partial 16-bin histograms
    inside map_batches, tiny final combine — counts, not pixels, cross
    the exchange."""
    from ..sources.images import images_dataset
    from ..codecs import decode as _dec

    BINS = 16

    def partial(t: pa.Table) -> pa.Table:
        acc = np.zeros(BINS, np.int64)
        for blob, fmt in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist()):
            px = _dec(blob, fmt)
            h, _ = np.histogram(px[:, :, 0], bins=BINS, range=(0, 256))
            acc += h
        return pa.table({"bin": pa.array(np.arange(BINS), pa.int64()),
                         "count": pa.array(acc, pa.int64())})

    parts = images_dataset(128) \
        .map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby("bin", sort=True)["count"].sum().reset_index()
    return out


def q_spatial_sort(sf_dir: str):
    """Hilbert-style spatial locality sort (FlatGeobuf packed R-tree
    idea, packedrtree.h:78): order events by interleaved-bit cell id;
    emits the per-block cell ranges a locality-preserving writer would
    produce."""
    from ..core import mercator as merc

    Z = 10

    def cellify(t: pa.Table) -> pa.Table:
        i = t["event_id"].to_numpy()
        cells = merc.point_cells(*geo.point_xy(i), Z)
        return pa.table({"event_id": t["event_id"],
                         "cell": pa.array(cells.view(np.int64), pa.int64())})

    # secondary key makes chunk membership deterministic on cell ties
    ds = _rp(sf_dir, "events", ["event_id"]) \
        .map_batches(cellify, batch_format="pyarrow").sort(["cell", "event_id"])

    # verify-friendly digest: 64 equal row-count chunks → (chunk, min/max
    # cell); monotone non-overlapping ranges == locality achieved
    df = ds.to_pandas()
    n = len(df)
    k = max(1, n // 64)
    rows = []
    for b in range(0, n, k):
        ch = df.iloc[b:b + k]
        rows.append({"chunk": b // k,
                     "cell_min": int(ch["cell"].min()),
                     "cell_max": int(ch["cell"].max()),
                     "n_rows": len(ch)})
    return pd.DataFrame(rows)


def q_mosaic(sf_dir: str):
    """Raster mosaic (gdalbuildvrt / raster mosaic): 96 images onto one
    512×512 grid; per-batch PARTIAL mosaics (rank-wins rule, associative)
    merged driver-side — compositing never serializes."""
    from ..codecs import decode as _dec
    from ..core import geotransform as gtr
    from ..core.checksum import checksum
    from ..sources import geo as G
    from ..sources.images import images_dataset
    from ..stages.georef import image_index, with_georef
    from ..stages.raster_ops import mosaic_merge, mosaic_partial

    W = 512
    dst_gt = gtr.from_bounds(G.METRO_X0, G.METRO_Y0,
                             G.METRO_X0 + G.METRO_W,
                             G.METRO_Y0 + G.METRO_W, W, W)

    def partial(t: pa.Table) -> pa.Table:
        pxs, gts, ranks = [], [], []
        idx = image_index(t["image_id"])
        for i in range(t.num_rows):
            pxs.append(_dec(t["bytes"][i].as_py(), t["fmt"][i].as_py()))
            gts.append(tuple(t[f"gt{k}"][i].as_py() for k in range(6)))
            ranks.append(int(idx[i]))
        vals, rank = mosaic_partial(pxs, gts, ranks, dst_gt, (W, W),
                                    resampling="near")
        return pa.table({"vals": pa.array([vals.tobytes()], pa.binary()),
                         "rank": pa.array([rank.tobytes()], pa.binary()),
                         "nb": pa.array([vals.shape[2]], pa.int32())})

    def merge_round(t: pa.Table) -> pa.Table:
        acc_v = acc_r = None
        for i in range(t.num_rows):
            nb = int(t["nb"][i].as_py())
            v = np.frombuffer(t["vals"][i].as_py(),
                              np.float64).reshape(W, W, nb)
            r = np.frombuffer(t["rank"][i].as_py(), np.int64).reshape(W, W)
            if acc_v is None:
                acc_v, acc_r = v.copy(), r.copy()
            else:
                acc_v, acc_r = mosaic_merge(acc_v, acc_r, v, r)
        return pa.table({"vals": pa.array([acc_v.tobytes()], pa.binary()),
                         "rank": pa.array([acc_r.tobytes()], pa.binary()),
                         "nb": pa.array([acc_v.shape[2]], pa.int32())})

    # tree reduce in the workers (merge is associative): each round
    # fans FANIN partials into one inside map_batches; the driver only
    # counts rounds — the ~6 MB partials never ship to the driver until
    # exactly ONE remains
    FANIN, BATCH = 8, 24
    n_imgs = 96
    parts = images_dataset(n_imgs) \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(partial, batch_format="pyarrow", batch_size=BATCH)
    n = -(-n_imgs // BATCH)
    while n > 1:
        parts = parts.repartition(n).map_batches(
            merge_round, batch_format="pyarrow", batch_size=FANIN)
        n = -(-n // FANIN)
    final = parts.take_all()[0]
    nb = int(final["nb"])
    acc_v = np.frombuffer(final["vals"], np.float64).reshape(W, W, nb)
    acc_r = np.frombuffer(final["rank"], np.int64).reshape(W, W)
    covered = acc_r >= 0
    # cs_band0 stays pytest-covered (the lossy half's values are PSNR-
    # gated, not bit-stable); membership + winner stats are oracled
    return pd.DataFrame([{
        "covered_px": int(covered.sum()),
        "n_sources": int(len(np.unique(acc_r[covered]))),
    }])


def q_mosaic_alpha(sf_dir: str):
    """Alpha-blend mosaic — the NON-associative compositing rule
    (Porter-Duff "over", per-layer alpha 1/2, draw order = image rank;
    gdalbuildvrt draws sources in order, gdal_merge.py semantics).
    "over" only composes along the ordered layer sequence, so unlike
    q_mosaic's rank-wins partials this uses the cell co-shuffle shape:
    each image decodes + warps map-side into the 4×4 destination cells
    it touches (mask fragments ≈ far below 1× corpus across the
    exchange), groupby(cell) composites in rank order inside the
    group. The oracle pins the ORDER-SENSITIVE composite over layer
    ordinals (v = rank % 256, weights dyadic 2^-pos scaled to exact
    integers): any membership, ordering, or depth-cap error changes
    the sum. The metro hot cluster is all lossy-half images, so
    pixel-VALUE compositing is brute-force-verified in pytest instead
    (tests/test_raster_ops.py), mirroring q_mosaic's split."""
    from ..codecs import decode as _dec
    from ..core import geotransform as gtr
    from ..core import resample as rs
    from ..sources import geo as G
    from ..sources.images import images_dataset
    from ..stages.georef import image_index, with_georef
    from ..stages.raster_ops import alpha_composite_group

    W, NC, CELL = 512, 4, 128
    dst_gt = gtr.from_bounds(G.METRO_X0, G.METRO_Y0,
                             G.METRO_X0 + G.METRO_W,
                             G.METRO_Y0 + G.METRO_W, W, W)

    def fragments(t: pa.Table) -> pa.Table:
        cells, ranks, masks = [], [], []
        idx = image_index(t["image_id"])
        for i in range(t.num_rows):
            gt = tuple(t[f"gt{k}"][i].as_py() for k in range(6))
            w_px = int(t["w"][i].as_py())
            h_px = int(t["h"][i].as_py())
            # envelope prefilter: the image envelope is a superset of
            # every valid warp sample, so skipping non-overlapping
            # cells cannot change membership — decode only when at
            # least one cell overlaps
            ix0, ix1 = gt[0], gt[0] + w_px * gt[1]
            iy1, iy0 = gt[3], gt[3] + h_px * gt[5]
            band0 = None
            for cy in range(NC):
                for cx in range(NC):
                    c0 = dst_gt[0] + cx * CELL * dst_gt[1]
                    c3 = dst_gt[3] + cy * CELL * dst_gt[5]
                    if ix0 > c0 + CELL * dst_gt[1] or ix1 < c0 or \
                            iy1 < c3 + CELL * dst_gt[5] or iy0 > c3:
                        continue
                    if band0 is None:
                        px = _dec(t["bytes"][i].as_py(),
                                  t["fmt"][i].as_py())
                        band0 = px if px.ndim == 2 else px[:, :, 0]
                    cgt = (c0, dst_gt[1], 0.0, c3, 0.0, dst_gt[5])
                    _warped, valid = rs.warp(band0, gt, cgt, (CELL, CELL),
                                             "near")
                    if not valid.any():
                        continue
                    cells.append(cy * NC + cx)
                    ranks.append(int(idx[i]))
                    masks.append(np.packbits(valid).tobytes())
        return pa.table({"cell": pa.array(cells, pa.int64()),
                         "rank": pa.array(ranks, pa.int64()),
                         "mask": pa.array(masks, pa.binary())})

    def composite_group(t: pa.Table) -> pa.Table:
        out = {"cell": [], "comp_sum": [], "covered_px": []}
        for sub in key_slices(t, t["cell"].to_numpy()):
            ranks = sub["rank"].to_numpy()
            valids = [np.unpackbits(np.frombuffer(b, np.uint8))
                      [:CELL * CELL].reshape(CELL, CELL).astype(bool)
                      for b in sub["mask"].to_pylist()]
            vals = [np.full((CELL, CELL), int(rk) % 256, np.int64)
                    for rk in ranks]
            comp, depth = alpha_composite_group(vals, valids, ranks)
            for c, v in zip(out, (sub["cell"][0].as_py(), int(comp.sum()),
                                  int((depth > 0).sum()))):
                out[c].append(v)
        return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})

    return bucket_groups(
        images_dataset(96).map_batches(with_georef, batch_format="pyarrow")
        .map_batches(fragments, batch_format="pyarrow", batch_size=16),
        composite_group)


def q_cutline_clip(sf_dir: str):
    """gdalwarp -cutline: clip each image to its intersecting polygon
    (first match), per-image kept-pixel count."""
    from ..codecs import decode as _dec
    from ..core import wkb as _W
    from ..sources.images import images_dataset
    from ..sources.vector import polygons_table
    from ..stages.georef import with_georef
    from ..stages.raster_ops import cutline_clip
    import ray

    polys = polygons_table(40)
    ref = ray.put([( _W.loads(b), e) for b, e in zip(
        polys["wkb"].to_pylist(),
        zip(polys["minx"].to_pylist(), polys["miny"].to_pylist(),
            polys["maxx"].to_pylist(), polys["maxy"].to_pylist()))])

    def clip(t: pa.Table) -> pa.Table:
        cands = ray.get(ref)
        ids, kept = [], []
        for i in range(t.num_rows):
            e = (t["minx"][i].as_py(), t["miny"][i].as_py(),
                 t["maxx"][i].as_py(), t["maxy"][i].as_py())
            g = next((gg for gg, pe in cands
                      if not (pe[0] > e[2] or e[0] > pe[2]
                              or pe[1] > e[3] or e[1] > pe[3])), None)
            ids.append(t["image_id"][i].as_py())
            if g is None:
                kept.append(0)
                continue
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            gt = tuple(t[f"gt{k}"][i].as_py() for k in range(6))
            _, mask = cutline_clip(px, gt, g)
            kept.append(int(mask.sum()))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "kept_px": pa.array(kept, pa.int64())})

    return images_dataset(96).map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(clip, batch_format="pyarrow")


def q_vector_drivers(sf_dir: str):
    """Common vector drivers end-to-end: the polygon layer writes to
    CSV (WKT column) AND GeoPackage (GPB+WKB blobs via sqlite3), both
    read back as Ray datasets; per-fid areas from each driver must
    match the closed-form shape-class areas (oracle). Shapefile read is
    golden-tested against the reference's own poly.shp in pytest."""
    from ..sources.csvio import write_csv
    from ..sources.drivers import read_vector_dataset
    from ..sources.gpkg import write_gpkg
    from ..sources.kmlvec import write_kml

    csv_df, gpkg_df, kml_df = (
        _vector_roundtrip(25, ext, write, read_vector_dataset,
                          f"area_km2_{ext}").to_pandas()
        for ext, write in [("csv", write_csv), ("gpkg", write_gpkg),
                           ("kml", write_kml)])
    return csv_df.merge(gpkg_df, on="fid").merge(kml_df, on="fid")


def q_fgb_roundtrip(sf_dir: str):
    """FlatGeobuf driver end-to-end: polygon layer → indexed .fgb
    (Hilbert sort + packed R-tree, ogr/ogrsf_frmts/flatgeobuf) → full
    read (per-pid areas must equal the closed-form shape-class areas)
    + bbox read via the R-tree (in_bbox must equal the closed-form
    envelope-intersection predicate)."""
    from ..core import wkb as _W
    from ..core.geom import area as _area
    from ..pipelines.oracles import fgb_query_bbox
    from ..sources.drivers import read_vector_dataset
    from ..sources.flatgeobuf import read_fgb, write_fgb
    from ..sources.vector import polygons_table

    m = 40
    src = polygons_table(m).rename_columns(
        ["pid" if c == "fid" else c for c in polygons_table(m).column_names])
    path = os.path.join(_scratch_dir("fgb"), "layer.fgb")
    write_fgb(src, path, crs_code=32633)

    bbox = fgb_query_bbox(m)
    hit_pids = set(read_fgb(path, bbox=bbox)["pid"].to_pylist())

    def stats(t: pa.Table) -> pa.Table:
        areas = [_half_away([_area(_W.loads(b)) / 1e6], 3)[0]
                 for b in t["wkb"].to_pylist()]
        pids = t["pid"].to_pylist()
        return pa.table({
            "pid": pa.array(pids, pa.int64()),
            "area_km2_fgb": pa.array(areas, pa.float64()),
            "in_bbox": pa.array([1 if p in hit_pids else 0 for p in pids],
                                pa.int64())})

    return read_vector_dataset(path).map_batches(stats,
                                                 batch_format="pyarrow")


def q_vrt_composite(sf_dir: str):
    """VRT virtual-raster composition (frmts/vrt): each lossless image
    transcodes to GeoTIFF, a generated <VRTDataset> windows it through
    a SimpleSource at 50% nearest downsample, and read_raster opens
    the VRT. Nearest at exactly ratio 2 samples the odd coordinates
    (src = floor((i+0.5)·2) = 2i+1), so the per-image integer sum is
    closed-form for the oracle — a wrong sampling rule or window
    placement breaks every row. Golden parity with the reference's own
    gcore/data VRT matrix (17 checksums) is tests/test_vrt.py."""
    from ..codecs import decode as _dec
    from ..codecs.gtiff import encode_gtiff
    from ..sources.raster import read_raster
    from ..sources.images import images_dataset

    out_dir = _scratch_dir("vrt")

    def run(t: pa.Table) -> pa.Table:
        ids, sums = [], []
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            b0 = px if px.ndim == 2 else px[:, :, 0]
            h, w = b0.shape
            iid = t["image_id"][i].as_py()
            tif = os.path.join(out_dir, f"{iid}.tif")
            with open(tif, "wb") as f:
                f.write(encode_gtiff(b0, compress="none"))
            dw, dh = w // 2, h // 2
            vrt = os.path.join(out_dir, f"{iid}.vrt")
            with open(vrt, "w") as f:
                f.write(f"""<VRTDataset rasterXSize="{dw}" rasterYSize="{dh}">
  <VRTRasterBand dataType="Byte" band="1">
    <SimpleSource>
      <SourceFilename relativeToVRT="1">{iid}.tif</SourceFilename>
      <SourceBand>1</SourceBand>
      <SrcRect xOff="0" yOff="0" xSize="{w}" ySize="{h}"/>
      <DstRect xOff="0" yOff="0" xSize="{dw}" ySize="{dh}"/>
    </SimpleSource>
  </VRTRasterBand>
</VRTDataset>""")
            small, _gt, _nd, _m = read_raster(vrt)
            ids.append(iid)
            sums.append(int(small.astype(np.int64).sum()))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "halfres_sum": pa.array(sums, pa.int64())})

    return images_dataset(32).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(run, batch_format="pyarrow")


def q_arrow_roundtrip(sf_dir: str):
    """Arrow IPC batch sink/source (the reference's Arrow driver +
    OGR Arrow batch API, ogr/ogrsf_frmts/arrow, ogrlayerarrow.cpp):
    polygon layer → .arrow IPC file → read back through the driver
    registry → per-fid areas + attribute pass-through (IPC is
    bit-lossless, so areas equal the closed-form shape-class areas)."""
    from ..sources.drivers import read_vector_dataset, write_arrow

    return _vector_roundtrip(25, "arrow", write_arrow, read_vector_dataset,
                             "area_km2_arrow", category="category")


def q_raster_neighbors(sf_dir: str):
    """Raster neighbors / focal statistics (gdal raster neighbors,
    apps/gdalalg_raster_neighbors.cpp): 3×3 sum kernel with edge-pad
    over the lossless half, reduced to a per-image integer total —
    exact (window sums ≤ 9·255 are exact in float64), so the oracle's
    clamped-offset 9-way self-join must match bit-for-bit."""
    from ..codecs import decode as _dec
    from ..sources.images import images_dataset
    from ..stages.raster_ops import convolve

    def stats(t: pa.Table) -> pa.Table:
        ids, sums = [], []
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            b0 = px if px.ndim == 2 else px[:, :, 0]
            conv = convolve(b0, np.ones((3, 3)))
            ids.append(t["image_id"][i].as_py())
            sums.append(int(round(conv.sum())))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "neighbor_sum": pa.array(sums, pa.int64())})

    return images_dataset(32).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(stats, batch_format="pyarrow")


def q_reclassify(sf_dir: str):
    """Textual reclassification grammar (frmts/vrt/vrtreclassifier.h
    SOURCE=DEST mappings: constants, (a,b] intervals, DEFAULT) over the
    lossless half; per-image integer sum of the reclassified band — the
    oracle replays the same mapping as a CASE expression."""
    from ..codecs import decode as _dec
    from ..sources.images import images_dataset
    from ..stages.raster_ops import reclassify_text

    RULES = "[0,63]=1;(63,127]=2;(127,191]=3;DEFAULT=9"

    def stats(t: pa.Table) -> pa.Table:
        ids, sums = [], []
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            b0 = px if px.ndim == 2 else px[:, :, 0]
            rec = reclassify_text(b0, RULES)
            ids.append(t["image_id"][i].as_py())
            sums.append(int(round(rec.sum())))
        return pa.table({"image_id": pa.array(ids, pa.string()),
                         "reclass_sum": pa.array(sums, pa.int64())})

    return images_dataset(48).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(stats, batch_format="pyarrow")


def q_mif_roundtrip(sf_dir: str):
    """MapInfo MIF/MID driver end-to-end: polygon layer (squares,
    rotated squares, L-shapes, holed squares, two-part multipolygons)
    → .mif Regions + .mid attributes → read back as a Ray dataset →
    per-fid areas + attribute pass-through. Coordinates write via
    repr() (shortest exact double), so the roundtrip is lossless and
    areas equal the closed-form shape-class areas; ring→polygon
    reassembly uses mitab's containment rule (holes vs disjoint
    parts). Golden WKT parity vs the reference's own all_geoms.mif is
    tests/test_mif.py."""
    from ..sources.drivers import read_vector_dataset
    from ..sources.mif import write_mif

    return _vector_roundtrip(25, "mif", write_mif, read_vector_dataset,
                             "area_km2_mif", category="category")


def q_gml_roundtrip(sf_dir: str):
    """GML driver end-to-end (write side new in r4, ogr2ogr -f GML
    symmetry): polygon layer → GML2 FeatureCollection
    (outerBoundaryIs/innerBoundaryIs, repr()-exact coordinates) → read
    back → per-fid areas + attribute pass-through; the same
    closed-form area oracle as mif_roundtrip."""
    from ..sources.drivers import read_vector_dataset
    from ..sources.gml import write_gml

    return _vector_roundtrip(25, "gml", write_gml, read_vector_dataset,
                             "area_km2_gml", category="category")


def q_pdfvec_roundtrip(sf_dir: str):
    """PDF vector driver end-to-end (sources/pdfvec.py, new this
    round; reference frmts/pdf/pdfreadvectors.cpp +
    pdfcreatecopy.cpp): polygon layer → vector PDF (OCG layer, MCID
    marked content, structure-tree UserProperties attributes) → read
    back through the content-stream walker → per-fid areas +
    category pass-through; the same closed-form area oracle as
    gml_roundtrip (page-coordinate formatting keeps ~1e-8 relative
    precision, far inside the 3-decimal km² rounding)."""
    from ..sources.pdfvec import read_pdf_layers, write_pdf_vector

    return _vector_roundtrip(
        25, "pdf",
        lambda t, path: write_pdf_vector({"polys": t}, path, epsg=3857,
                                         crs="EPSG:3857"),
        lambda path: read_pdf_layers(path)["polys"],
        "area_km2_pdf", category="category")


def q_dxf_roundtrip(sf_dir: str):
    """DXF driver end-to-end (write side new in r4): polygon layer →
    HATCH entities (one boundary path per ring, category on the Layer
    code) → read back through the HATCH boundary-path parser →
    containment ring reassembly → per-fid areas; closed-form area
    oracle."""
    from ..sources.drivers import read_vector_dataset
    from ..sources.dxf import write_dxf

    return _vector_roundtrip(
        25, "dxf", lambda t, path: write_dxf(t, path, layer_col="category"),
        read_vector_dataset, "area_km2_dxf", category="Layer")


def q_geojson_roundtrip(sf_dir: str):
    """GeoJSON driver: write the polygon layer to a FeatureCollection,
    read it back, verify geometry byte-equality + areas."""
    from ..sources.drivers import read_vector_dataset
    from ..sources.geojson import write_geojson

    return _vector_roundtrip(25, "geojson", write_geojson, read_vector_dataset,
                             "area", scale=1.0, nd=2)


def q_raster_index(sf_dir: str):
    """Tile-index layer (gdal raster index,
    apps/gdalalg_raster_index.cpp): per-z6-cell manifest of covering
    images — image count, total pixels, envelope union."""
    from ray.data.aggregate import Count, Max, Min, Sum
    from ..stages.georef import with_georef
    from ..stages.join import with_cells
    from ..sources.images import images_dataset

    imgs = images_dataset(128).map_batches(with_georef,
                                           batch_format="pyarrow")

    def px_count(t: pa.Table) -> pa.Table:
        n = (t["w"].to_numpy().astype(np.int64)
             * t["h"].to_numpy().astype(np.int64))
        return t.append_column("n_px", pa.array(n, pa.int64()))

    cells = with_cells(imgs.map_batches(px_count, batch_format="pyarrow"),
                       6, ["image_id", "n_px", "minx", "miny", "maxx", "maxy"])

    def to_signed(t: pa.Table) -> pa.Table:
        c = t["cell"].to_numpy().astype(np.uint64).view(np.int64)
        return t.set_column(t.schema.get_field_index("cell"), "cell",
                            pa.array(c, pa.int64()))

    return cells.map_batches(to_signed, batch_format="pyarrow") \
        .groupby("cell").aggregate(
            Count(alias_name="n_images"),
            Sum("n_px", alias_name="total_px"),
            Min("minx", alias_name="minx"), Min("miny", alias_name="miny"),
            Max("maxx", alias_name="maxx"), Max("maxy", alias_name="maxy"))


def _cover_levels(n_imgs: int = 128, zoom: int = 6) -> dict:
    """Two-level synthetic tile pyramid shared by the container sinks
    (mbtiles, kml superoverlay): distinct cover tiles of the image
    corpus at `zoom` + their zoom-1 parents, each carrying a real PNG
    blob whose pixels are a closed-form function of (z, x, y)."""
    import ray.data as rd
    from ray.data.aggregate import Count
    from ..core import mercator as merc
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef
    from ..stages.join import with_cells

    imgs = images_dataset(n_imgs).map_batches(with_georef,
                                              batch_format="pyarrow")
    cover = with_cells(imgs, zoom, ["image_id"])

    def decode(t: pa.Table) -> pa.Table:
        z, x, y = merc.cell_decode(t["cell"].to_numpy().astype(np.uint64))
        return pa.table({"z": pa.array(z.astype(np.int64), pa.int64()),
                         "x": pa.array(x.astype(np.int64), pa.int64()),
                         "y": pa.array(y.astype(np.int64), pa.int64())})

    def local_distinct(t: pa.Table) -> pa.Table:
        # map-side combiner: per-batch dedup before the exchange
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    base = cover.map_batches(decode, batch_format="pyarrow") \
        .map_batches(local_distinct, batch_format="pyarrow") \
        .groupby(["z", "x", "y"]).aggregate(Count(alias_name="n")) \
        .drop_columns(["n"]).materialize()

    # parent level derived from the REDUCED base (bounded: one row per
    # distinct tile) — no second all-to-all exchange
    bt = base.to_pandas()
    pr = bt.assign(z=zoom - 1, x=bt.x // 2, y=bt.y // 2).drop_duplicates()
    over = rd.from_arrow(pa.Table.from_pandas(pr, preserve_index=False))

    def blob(t: pa.Table) -> pa.Table:
        from ..codecs import encode as codec_encode
        pngs = []
        for z, x, y in zip(t["z"].to_pylist(), t["x"].to_pylist(),
                           t["y"].to_pylist()):
            gx, gy = np.meshgrid(np.arange(16), np.arange(16))
            px = ((gx * (x % 13 + 1) + gy * (y % 17 + 1) + z) % 256
                  ).astype(np.uint8)
            pngs.append(codec_encode(np.dstack([px, px, px]), "png"))
        return t.append_column("png", pa.array(pngs, pa.binary()))

    return {z: ds.map_batches(blob, batch_format="pyarrow")
            for z, ds in ((zoom - 1, over), (zoom, base))}


def q_mbtiles_roundtrip(sf_dir: str):
    """MBTiles container roundtrip (frmts/mbtiles/mbtilesdataset.cpp
    semantics, written from the mapbox/mbtiles-spec): distinct z6 cover
    tiles of the 128-image corpus + their z5 parents get real PNG blobs,
    stream into a .mbtiles (TMS row flip on disk), read back via
    parallel read_sql, return the XYZ tile coordinates. The DuckDB
    oracle recomputes the cover closed-form — a mismatch catches cover
    math, the y-flip, or a dropped/duplicated sqlite row."""
    from ..sources.mbtiles import read_mbtiles, write_mbtiles

    levels = _cover_levels(128, 6)
    path = os.path.join(_scratch_dir("mbtiles"), "cover.mbtiles")
    write_mbtiles(levels, path, name="cover-manifest")
    return read_mbtiles(path).select_columns(["z", "x", "y"])


def q_gpkg_raster_roundtrip(sf_dir: str):
    """GeoPackage raster-tile roundtrip (frmts/gpkg tile-matrix
    semantics, written from the OGC spec): the same z6+z5 cover
    pyramid as the MBTiles query streams into a .gpkg
    (gpkg_tile_matrix_set/gpkg_tile_matrix + tile table, top-down
    rows — no TMS flip), reads back via parallel read_sql, and
    returns the XYZ tile coordinates. Shares the MBTiles oracle: the
    cover is identical and GPKG rows are already XYZ, so a mismatch
    catches grid metadata, a row flip, or a dropped sqlite row."""
    from ..sources.gpkg import read_gpkg_tiles, write_gpkg_tiles

    levels = _cover_levels(128, 6)
    path = os.path.join(_scratch_dir("gpkg_raster"), "cover.gpkg")
    write_gpkg_tiles(levels, path, table="cover")
    return read_gpkg_tiles(path).select_columns(["z", "x", "y"])


def q_kml_superoverlay(sf_dir: str):
    """KML superoverlay sink roundtrip (frmts/kmlsuperoverlay +
    gdal2tiles -k semantics): write the two-level cover pyramid as a
    z/x/y.png + z/x/y.kml tree, then read the KML tree BACK with a
    parallel binary-file scan and report each tile's NetworkLink count.
    The DuckDB oracle recomputes the cover and the child fan-out
    closed-form — a mismatch catches cover math, a missing/extra KML
    file, or wrong child links."""
    import ray

    levels = _cover_levels(128, 6)
    out = _scratch_dir("kml")
    from .kml import write_superoverlay
    write_superoverlay(levels, out)

    files = ray.data.read_binary_files(out, include_paths=True,
                                       file_extensions=["kml"])

    def parse(t: pa.Table) -> pa.Table:
        zs, xs, ys, nl = [], [], [], []
        for path, body in zip(t["path"].to_pylist(),
                              t["bytes"].to_pylist()):
            m = re.search(r"(\d+)[/\\](\d+)[/\\](\d+)\.kml$", path)
            if m is None:        # doc.kml root
                continue
            zs.append(int(m.group(1))); xs.append(int(m.group(2)))
            ys.append(int(m.group(3)))
            nl.append(body.count(b"<NetworkLink>"))
        return pa.table({"z": pa.array(zs, pa.int64()),
                         "x": pa.array(xs, pa.int64()),
                         "y": pa.array(ys, pa.int64()),
                         "n_links": pa.array(nl, pa.int64())})

    return files.map_batches(parse, batch_format="pyarrow")


# OGR SQL dialect entries: the battery runs OUR SQL engine over the
# parquet tables and the driver runs the IDENTICAL string in DuckDB —
# the dialect is exact-oracle-checked end to end.
SQL_VECTOR_SQL = """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       ROUND(MIN(o_totalprice), 2) AS lo, ROUND(MAX(o_totalprice), 2) AS hi
FROM orders WHERE o_totalprice BETWEEN 1000 AND 300000
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""

SQL_VECTOR_SQL_SCAN = """
SELECT p_partkey, p_name, ROUND(p_retailprice * 2 - 10, 2) AS adj
FROM part WHERE p_size IN (1, 5, 9) AND p_name LIKE '%bolt%'
ORDER BY adj DESC, p_partkey LIMIT 40
"""


def _dialect_round(sql: str) -> str:
    """Our dialect lacks ROUND(); strip it for our side and round the
    named columns after — the oracle keeps the ROUND calls."""
    return re.sub(r"ROUND\(([^,]+), \d\)", r"\1", sql)


def q_vector_sql(sf_dir: str):
    """OGR SQL engine (functions/sql.py) — grouped aggregates."""
    from ..functions.sql import execute_sql
    out = execute_sql(_dialect_round(SQL_VECTOR_SQL),
                      {"orders": _rp(sf_dir, "orders")})
    return _round_cols(out, ["total", "lo", "hi"], nd=2)


SQL_VECTOR_SQL_SUBQUERY = """
SELECT o_orderpriority, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total
FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_mktsegment =
'BUILDING') AND o_orderstatus NOT IN ('F')
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q_vector_sql_subquery(sf_dir: str):
    """SQL IN (SELECT ...) subquery + postfix NOT IN — beyond the
    reference's OGR SQL dialect (its swq grammar has no subqueries;
    the SQLite dialect route does): the subquery materializes once and
    broadcasts as a membership set, bounded by JOIN_BROADCAST_LIMIT.
    The identical string runs in DuckDB as the oracle."""
    from ..functions.sql import execute_sql
    out = execute_sql(
        SQL_VECTOR_SQL_SUBQUERY,
        {"orders": _rp(sf_dir, "orders"),
         "customer": _rp(sf_dir, "customer")})
    return _round_cols(out, ["total"], nd=2)


SQL_VECTOR_SQL_CASE = """
SELECT CASE WHEN o_totalprice > 200000 THEN 'big'
            WHEN o_totalprice > 100000 THEN 'mid'
            ELSE 'small' END AS bucket,
       COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS n_f
FROM orders GROUP BY bucket ORDER BY bucket
"""


def q_vector_sql_case(sf_dir: str):
    """CASE WHEN expressions — searched form as a computed GROUP BY
    key AND inside an aggregate (conditional count). Beyond the
    reference's swq grammar (its dialect has no CASE; the SQLite
    dialect does); the identical string runs in DuckDB as the
    oracle."""
    from ..functions.sql import execute_sql
    out = execute_sql(_dialect_round(SQL_VECTOR_SQL_CASE),
                      {"orders": _rp(sf_dir, "orders")})
    # DuckDB returns SUM(int) as HUGEINT → pandas float64; match it
    out["n_f"] = out["n_f"].astype(np.float64)
    return _round_cols(out, ["total"], nd=2)


SQL_VECTOR_SQL_JOIN = """
SELECT c_mktsegment, COUNT(*) AS n, ROUND(SUM(o_totalprice), 2) AS total,
       ROUND(STDDEV_POP(o_totalprice), 2) AS sd
FROM orders LEFT JOIN customer ON orders.o_custkey = customer.c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def q_vector_sql_join(sf_dir: str):
    """OGR SQL dialect LEFT JOIN + STDDEV_POP
    (ogr_gensql.cpp:1521-1542 join semantics; ogr_swq.h:67-75 stddev):
    the identical string runs in DuckDB as the oracle."""
    from ..functions.sql import execute_sql
    out = execute_sql(_dialect_round(SQL_VECTOR_SQL_JOIN),
                      {"orders": _rp(sf_dir, "orders"),
                       "customer": _rp(sf_dir, "customer")})
    return _round_cols(out, ["total", "sd"], nd=2)


SQL_VECTOR_SQL_SQLITE = """
SELECT c_mktsegment, COUNT(*) AS n,
       CAST(SUM(CASE WHEN c_acctbal > 5000 THEN 1 ELSE 0 END) AS BIGINT)
         AS rich
FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders
                    WHERE o_totalprice > 200000)
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


def q_vector_sql_sqlite(sf_dir: str):
    """SQLITE dialect (ogrsqliteexecutesql.cpp): IN-subquery + CASE —
    shapes the native OGR dialect doesn't parse — executed by copying
    the referenced layers into sqlite, exactly the reference's
    mechanism. The identical string runs in DuckDB as the oracle."""
    from ..functions.sql import execute_sql_sqlite
    return execute_sql_sqlite(
        SQL_VECTOR_SQL_SQLITE,
        {"customer": _rp(sf_dir, "customer",
                         ["c_custkey", "c_mktsegment", "c_acctbal"]),
         "orders": _rp(sf_dir, "orders", ["o_custkey", "o_totalprice"])})


def q_vector_sql_scan(sf_dir: str):
    """OGR SQL engine — filtered computed scan with LIKE/IN + top-k."""
    from ..functions.sql import execute_sql
    out = execute_sql(_dialect_round(SQL_VECTOR_SQL_SCAN),
                      {"part": _rp(sf_dir, "part")})
    return _round_cols(out, ["adj"], nd=2)


def q_raster_calc(sf_dir: str):
    """gdal raster calc (muparser band algebra): evaluate
    "(A - B) / (A + B + 1) * 100 + C / 2" per image → mean of result."""
    from ..functions.calc import image_calc
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    EXPR = "(A - B) / (A + B + 1) * 100 + C / 2"

    def calc(px, row):
        v = image_calc(px, EXPR)
        return {"mean_calc": _half_away([float(np.nanmean(v))])[0]}

    return images_dataset(96).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(calc), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_calc"])


def q_viewshed(sf_dir: str):
    """Cumulative viewshed (alg/viewshed + cumulative.cpp): 64 grid
    observers over a deterministic 129² DEM, each an exact Wang-sweep
    viewshed (golden-parity vs the reference's own unit fixtures —
    tests/test_viewshed.py), counts tree-summed worker-side. Non-SQL
    (sequential LOS recurrence): rows-only driver check; values pinned
    by pytest."""
    from ..core.checksum import checksum
    from ..stages.viewshed import cumulative_viewshed, observer_grid

    n = 129
    y, x = np.mgrid[0:n, 0:n].astype(np.float64)
    dem = (20.0 * np.sin(x / 9.0) * np.cos(y / 11.0)
           + 0.05 * (x + y)
           + 40.0 * np.exp(-((x - n / 2) ** 2 + (y - n / 2) ** 2)
                           / (2.0 * (n / 6.0) ** 2)))

    ids, vis, acc = cumulative_viewshed(
        dem, observer_grid(n, n, 8, 8), observer_height=2.0)
    return pd.DataFrame([{
        "n_observers": int(len(ids)),
        "sum_visible_px": int(vis.sum()),
        "min_visible_px": int(vis.min()),
        "max_visible_px": int(vis.max()),
        "px_seen_by_any": int((acc > 0).sum()),
        "max_observers_per_px": int(acc.max()),
        "cum_checksum": int(checksum(acc.astype(np.float64))),
    }])


def q_distributed_polygonize(sf_dir: str):
    """Cross-tile polygonize (SURVEY §2.10's hard part): a 256×512
    blobby class field split into 64×64 tiles; per-tile components +
    edge-run stitching must reproduce global connectivity. Returns
    per-component (value, total_px, n_pieces, n_tiles)."""
    import ray.data as rd
    from ..stages.poly_merge import distributed_polygonize
    from ..stages.raster_ops import convolve

    rng = np.random.default_rng(42)
    base = rng.normal(size=(256, 512))
    grid = np.digitize(convolve(base, np.ones((7, 7)) / 49.0),
                       [-0.05, 0.05]).astype(np.int64)
    rows = []
    for ty in range(4):
        for tx in range(8):
            sub = grid[ty * 64:(ty + 1) * 64, tx * 64:(tx + 1) * 64]
            rows.append({"tile_x": tx, "tile_y": ty, "h": 64, "w": 64,
                         "grid": np.ascontiguousarray(sub).tobytes()})
    out = distributed_polygonize(rd.from_items(rows))
    out = out.sort_values(["value", "total_px", "n_pieces"]) \
        .reset_index(drop=True)
    return out.drop(columns=["component"])


def q_distributed_contour(sf_dir: str):
    """Cross-tile contour stitching (SURVEY §2.10): iso-lines of a
    257×513 field split into 33×33 overlapping tiles, stitched by
    shared-edge crossing points. Per-component (level, total_length,
    n_pieces, closed)."""
    import ray.data as rd
    from ..stages.contour_merge import (distributed_contour,
                                        split_with_overlap)

    y, x = np.mgrid[0:257, 0:513].astype(np.float64)
    grid = (np.sin(x / 23.0) * np.cos(y / 19.0)
            + 0.3 * np.sin((x + y) / 41.0))
    ds = rd.from_items(split_with_overlap(grid, 33, 33))
    out = distributed_contour(ds, [-0.4, 0.0, 0.4])
    out["total_length"] = _half_away(out["total_length"].to_numpy(), 3)
    return out.sort_values(["level", "total_length", "n_pieces"]) \
        .reset_index(drop=True).drop(columns=["component"])


KMV_K = 64
KMV_MULT = 0x9E3779B97F4A7C15  # Fibonacci multiplier — bijective mod 2^64


def q_approx_count_distinct(sf_dir: str):
    """KMV (k-minimum-values) distinct sketch over orders.o_custkey —
    the sketch family SURVEY §2.5 lists as absent in the reference
    (ogr has no HLL/quantile sketches; this is the 100 TB replacement
    for an exact COUNT(DISTINCT) shuffle). Deterministic multiplicative
    hash → per-batch k smallest → tiny associative combine; estimate =
    (k-1) * 2^64 / h_k. The oracle replays the identical hash in
    HUGEINT arithmetic, so the k sketch rows AND the estimate are
    exact-checked (split into hi/lo int32 halves: bit-exact, no
    uint64→double rounding in the compare)."""
    ds = _rp(sf_dir, "orders", ["o_custkey"])

    def partial(t: pa.Table) -> pa.Table:
        k = np.unique(t["o_custkey"].to_numpy().astype(np.uint64))
        hv = np.sort((k * np.uint64(KMV_MULT)))[:KMV_K]
        return pa.table({"hv_hi": pa.array((hv >> np.uint64(32)).astype(
                            np.int64), pa.int64()),
                         "hv_lo": pa.array((hv & np.uint64(0xFFFFFFFF)
                                            ).astype(np.int64), pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    hv = np.unique(parts.hv_hi.to_numpy().astype(np.uint64)
                   * np.uint64(1 << 32)
                   + parts.hv_lo.to_numpy().astype(np.uint64))[:KMV_K]
    est = float(KMV_K - 1) * 2.0 ** 64 / float(hv[-1])
    out = pd.DataFrame({
        "rank": np.arange(len(hv), dtype=np.int64),
        "hv_hi": (hv >> np.uint64(32)).astype(np.int64),
        "hv_lo": (hv & np.uint64(0xFFFFFFFF)).astype(np.int64)})
    out["est"] = _half_away(np.full(len(hv), est), 2)
    return out


SQL_APPROX_COUNT_DISTINCT = f"""
WITH h AS (
  SELECT DISTINCT (o_custkey::HUGEINT * {KMV_MULT}) % (1::HUGEINT << 64)
         AS hv FROM orders),
k AS (SELECT hv, ROW_NUMBER() OVER (ORDER BY hv) - 1 AS rank
      FROM h ORDER BY hv LIMIT {KMV_K}),
kk AS (SELECT MAX(hv) AS hk FROM k)
SELECT rank, (hv // (1::HUGEINT << 32))::BIGINT AS hv_hi,
       (hv % (1::HUGEINT << 32))::BIGINT AS hv_lo,
       ROUND(({KMV_K} - 1) * power(2.0, 64) / (SELECT hk::DOUBLE FROM kk),
             2) AS est
FROM k ORDER BY rank
"""


def q_quantiles(sf_dir: str):
    """Distributed exact percentiles (PERCENTILE_DISC semantics) of
    l_quantity: per-batch value-count partials (np.bincount — the
    domain is small-cardinality), Sum-combine per value, then the
    bounded value→count table resolves p via cumulative counts. The
    shuffle carries ≤|domain| rows per block, never data rows — the
    shape a 100 TB quantile wants when the domain is discrete."""
    from ray.data.aggregate import Sum
    ds = _rp(sf_dir, "lineitem", ["l_quantity"])

    def counts(t: pa.Table) -> pa.Table:
        v = t["l_quantity"].to_numpy().astype(np.int64)
        c = np.bincount(v)
        nz = np.nonzero(c)[0]
        return pa.table({"v": pa.array(nz, pa.int64()),
                         "n": pa.array(c[nz], pa.int64())})

    agg = ds.map_batches(counts, batch_format="pyarrow") \
        .groupby("v").aggregate(Sum("n", alias_name="n")).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    cum = agg.n.cumsum().to_numpy()
    tot = int(cum[-1])
    rows = []
    # integer percent + exact ceil((pct*tot)/100) — no float ceil on
    # either side, so Ray and the DECIMAL-typed oracle cannot diverge
    for pct in (25, 50, 75, 90, 99):
        target = (pct * tot + 99) // 100
        rows.append({"pct": pct, "v": int(agg.v[int(np.searchsorted(
            cum, target))]), "total": tot})
    return pd.DataFrame(rows).astype({"pct": np.int64})


SQL_QUANTILES = """
WITH c AS (SELECT l_quantity::BIGINT AS v, COUNT(*)::BIGINT AS n
           FROM lineitem GROUP BY 1),
w AS (SELECT v, SUM(n) OVER (ORDER BY v)::BIGINT AS cum,
             SUM(n) OVER ()::BIGINT AS tot FROM c),
ps AS (SELECT pct::BIGINT AS pct
       FROM (VALUES (25), (50), (75), (90), (99)) t(pct))
SELECT pct, MIN(v) AS v, MIN(tot)::BIGINT AS total
FROM w JOIN ps ON cum >= (pct * tot + 99) // 100
GROUP BY pct ORDER BY pct
"""


def q_rpc_locate(sf_dir: str):
    """RPC sensor-model transform (gdalwarp -rpc / gdaltransform,
    alg/gdal_rpc.cpp): a deterministic grid of (lon, lat) points is
    pushed through eight synthetic RPC models (direct geo→image ratio
    polynomial, RPCTransformPoint:420-466), then back through the
    iterative image→geo inverse (RPCInverseTransformPoint:1128+).
    The direct polynomial is pure arithmetic, so px/ln hash-match the
    SQL oracle; rt_ok proves the iterative inverse closed the loop
    (< 1e-7° residual) — any regression flips it to false and breaks
    the hash."""
    import ray.data as rd
    from ..core.rpc import synthetic_rpc

    n = 4096

    def locate(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy().astype(np.int64)
        lon = 4.6 + (ids % 64) * 0.0125
        lat = 43.6 + ((ids // 64) % 64) * 0.0125
        k = ids % 8
        px = np.empty(len(ids))
        ln = np.empty(len(ids))
        ok = np.zeros(len(ids), bool)
        for kk in range(8):
            m = k == kk
            if not m.any():
                continue
            model = synthetic_rpc(kk)
            px[m], ln[m] = model.geo_to_pixel(lon[m], lat[m], 0.0)
            rlon, rlat, conv = model.pixel_to_geo(
                px[m], ln[m], 0.0, max_iterations=16, threshold=1e-6)
            ok[m] = conv & (np.abs(rlon - lon[m]) < 1e-7) \
                & (np.abs(rlat - lat[m]) < 1e-7)
        return pa.table({
            "pid": pa.array(ids, pa.int64()),
            "k": pa.array(k, pa.int64()),
            "px": pa.array(_half_away(px)),
            "ln": pa.array(_half_away(ln)),
            "rt_ok": pa.array(ok),
        })

    return rd.range(n, override_num_blocks=8) \
        .map_batches(locate, batch_format="pyarrow", batch_size=512)


def q_geoloc_transform(sf_dir: str):
    """Geolocation-array transform (gdalwarp -geoloc,
    alg/gdalgeoloc.cpp): eight synthetic GEOLOCATION grids (33×33
    nodes, PIXEL_STEP=LINE_STEP=8, top-left-corner convention) whose
    node values are bilinear in the grid indices, so the pixel→geo
    bilinear interpolation (PixelLineToXY) is closed-form in SQL.
    Sample points sit at half-integer grid coords to force true
    interpolation between nodes; rt_ok proves the backmap + Newton
    inverse (GenerateBackMap analog) closed the loop to < 1e-6 px.
    All exact values carry ≤ 4 decimals, so ROUND(…,4) is
    boundary-safe on both sides."""
    import ray.data as rd
    from ..core.geoloc import GeolocTransformer

    n = 2048

    def build(kk: int) -> GeolocTransformer:
        gl_, gp_ = np.meshgrid(np.arange(33.0), np.arange(33.0),
                               indexing="ij")
        d = 0.01 * (kk % 4)
        gx = 100.0 + kk + 2.5 * gp_ + 0.25 * gl_ + d * gp_ * gl_
        gy = 200.0 - 2.0 * kk + 0.125 * gp_ + 3.0 * gl_ - d * gp_ * gl_
        return GeolocTransformer(gx, gy, pixel_step=8.0, line_step=8.0)

    def locate(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy().astype(np.int64)
        tt = ids // 8
        k = ids % 8
        px = (16 * (tt % 16) + 4).astype(np.float64)
        ln = (16 * ((tt // 16) % 16) + 4).astype(np.float64)
        gx = np.empty(len(ids))
        gy = np.empty(len(ids))
        ok = np.zeros(len(ids), bool)
        for kk in range(8):
            m = k == kk
            if not m.any():
                continue
            tr = build(kk)
            gx[m], gy[m], good = tr.pixel_to_geo(px[m], ln[m])
            rpx, rln, conv = tr.geo_to_pixel(gx[m], gy[m])
            ok[m] = good & conv & (np.abs(rpx - px[m]) < 1e-6) \
                & (np.abs(rln - ln[m]) < 1e-6)
        return pa.table({
            "pid": pa.array(ids, pa.int64()),
            "k": pa.array(k, pa.int64()),
            "gx": pa.array(_half_away(gx)),
            "gy": pa.array(_half_away(gy)),
            "rt_ok": pa.array(ok),
        })

    return rd.range(n, override_num_blocks=8) \
        .map_batches(locate, batch_format="pyarrow", batch_size=256)


def q_nearblack(sf_dir: str):
    """Collar removal (nearblack, apps/nearblack_lib.cpp): each corpus
    image gets a deterministic black frame (widths t/b/l/r derived
    from its index) painted over an interior clipped to ≥ near_dist+1,
    then nearblack masks the frame back out. The masked-pixel count is
    closed-form in SQL: w·min(t+b,h) + max(h−t−b,0)·min(l+r,w).
    Codec-agnostic — lossy rows participate because only the mask
    count (not pixel values) crosses to the oracle; pixel semantics
    are pytest-verified."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import nearblack

    def collar(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec
        out = {"image_id": [], "w": [], "h": [], "n_masked": []}
        for idx in range(t.num_rows):
            iid = t["image_id"][idx].as_py()
            i = int(iid[3:])
            px = _dec(t["bytes"][idx].as_py(), t["fmt"][idx].as_py())
            if px.ndim == 2:
                px = px[:, :, None]
            h, w = px.shape[:2]
            tt, bb = i % 3, (i // 3) % 3
            ll, rr = (i // 4) % 4, (i // 7) % 4
            v = np.maximum(px, 16)          # interior never near-black
            v[:tt] = 0
            if bb:
                v[h - bb:] = 0
            v[:, :ll] = 0
            if rr:
                v[:, w - rr:] = 0
            _, valid = nearblack(v, near_dist=15)
            out["image_id"].append(iid)
            out["w"].append(w)
            out["h"].append(h)
            out["n_masked"].append(int((~valid).sum()))
        return pa.table({"image_id": pa.array(out["image_id"]),
                         "w": pa.array(out["w"], pa.int32()),
                         "h": pa.array(out["h"], pa.int32()),
                         "n_masked": pa.array(out["n_masked"], pa.int64())})

    return images_dataset(96).map_batches(collar, batch_format="pyarrow",
                                          batch_size=16)


_RELIEF_RAMP = [(0, 0, 0, 128), (64, 0, 128, 64), (128, 255, 255, 0),
                (192, 205, 92, 92), (255, 255, 255, 255)]


def q_color_relief(sf_dir: str):
    """gdaldem color-relief (apps/gdaldem_lib.cpp
    GDALColorReliefGetColor): band 0 is the elevation, mapped through
    a 5-entry ramp with the reference's linear interpolation
    (clamp(int(0.5 + lo + ratio·(hi−lo)))). Per-image channel sums are
    recomputed closed-form in SQL from the synthetic pixel formula —
    every interpolation branch (exact entry, interior ratio, both
    segment widths) is exercised by the 0..255 value range."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import color_relief, image_op

    def relief(px, row):
        rgba = color_relief(px[:, :, 0].astype(np.float64), _RELIEF_RAMP)
        c = rgba.astype(np.int64)
        return {"sum_r": int(c[:, :, 0].sum()),
                "sum_g": int(c[:, :, 1].sum()),
                "sum_b": int(c[:, :, 2].sum())}

    return images_dataset(64).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(relief), batch_format="pyarrow") \
        .select_columns(["image_id", "sum_r", "sum_g", "sum_b"])


def q_rgb2pct(sf_dir: str):
    """rgb2pct (GDALComputeMedianCutPCT + GDALDitherRGB2PCT,
    alg/gdalmediancut.cpp + alg/gdaldither.cpp): per image, fit a
    64-color median-cut palette, remap via L1-nearest, and dither a
    64×64 crop with GDAL's 3-tap integer error diffusion. Palette
    construction is an iterative box-split — not SQL-expressible —
    so this entry is rows-only; the kernel semantics are
    pytest-verified (tests/test_quantize.py)."""
    from ..core.checksum import checksum
    from ..functions.quantize import (dither_rgb2pct, median_cut_pct,
                                      remap_to_pct)
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    def quantize(px, row):
        if px.ndim == 2:
            px = np.repeat(px[:, :, None], 3, axis=2)
        crop = px[:128, :128, :3]
        pal, counts = median_cut_pct(crop, 64)
        idx = remap_to_pct(crop, pal)
        rec = pal[idx].astype(np.int64)
        err = float(np.abs(rec - crop[:, :, :3].astype(np.int64)).mean())
        d = dither_rgb2pct(crop[:64, :64], pal)
        return {"n_pal": int(len(pal)),
                "mean_err": _half_away([err])[0],
                "cs_dither": int(checksum(d)),
                "total": int(counts.sum())}

    return images_dataset(32).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(quantize), batch_format="pyarrow") \
        .select_columns(["image_id", "n_pal", "mean_err", "cs_dither",
                         "total"])


def q_hillshade_multi(sf_dir: str):
    """Multidirectional hillshade (gdaldem hillshade -multidirectional,
    GDALHillshadeMultiDirectionalAlg): interior mean of the raw USGS
    OF 92-422 weighted shade — the full formula (four clamped azimuth
    shades, sin²-aspect weights) replays closed-form in SQL. The
    1-255 byte mapping and the combined/Igor variants are
    pytest-verified."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import hillshade_multidirectional_float, image_op

    def shade(px, row):
        ms = hillshade_multidirectional_float(px[:, :, 0].astype(np.float64))
        return {"mean_shade": _half_away([float(ms[1:-1, 1:-1].mean())])[0]}

    return images_dataset(64).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(shade), batch_format="pyarrow") \
        .select_columns(["image_id", "mean_shade"])


def q_contour_polygons(sf_dir: str):
    """Contour polygon bands (gdal_contour -p analog): classify band 0
    into level bands [<64, <128, <192, rest], polygonize each band's
    connected regions, and report the summed polygon area per band.
    This is the reclassify∘polygonize composition — discrete pixel
    boundaries rather than the reference's sub-pixel marching-squares
    interpolation (that path is the `contours` query) — so the summed
    area must equal the band's exact pixel count, which the SQL oracle
    recomputes closed-form. Any polygonize boundary bug breaks the
    equality."""
    from ..core.geom import area
    from ..core.rastervec import polygonize
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    LEVELS = np.array([64.0, 128.0, 192.0])

    def bands(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec
        out = {"image_id": [], "band": [], "area_px": []}
        for idx in range(t.num_rows):
            iid = t["image_id"][idx].as_py()
            px = _dec(t["bytes"][idx].as_py(), t["fmt"][idx].as_py())
            v = px[:160, :160, 0].astype(np.float64)
            cls = np.digitize(v, LEVELS).astype(np.int64)
            sums: dict[int, float] = {}
            for val, poly in polygonize(cls):
                sums[int(val)] = sums.get(int(val), 0.0) + area(poly)
            for b in sorted(sums):
                out["image_id"].append(iid)
                out["band"].append(b)
                out["area_px"].append(int(round(sums[b])))
        return pa.table({"image_id": pa.array(out["image_id"]),
                         "band": pa.array(out["band"], pa.int64()),
                         "area_px": pa.array(out["area_px"], pa.int64())})

    return images_dataset(32).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(bands, batch_format="pyarrow", batch_size=8)


def q_rasterize_all_touched(sf_dir: str):
    """ALL_TOUCHED rasterization (gdal_rasterize -at,
    alg/gdalrasterize.cpp GDALdllImageLineAllTouched): burn every z6
    lattice cell whose closed rectangle the box layer touches —
    supercover edge walk plus the normal center-in fill, cell-join
    partitioned exactly like rasterize_zones. For axis-aligned boxes
    the touched set is closed-form in SQL (ceil/floor interval
    algebra), so the per-box count is hash-checked."""
    from ..core import mercator as merc, wkb as W
    from ..core.rastervec import rasterize
    from ..sources.vector import boxes_dataset
    from ..stages.join import with_cells
    from ..stages.tiles import tile_geotransform

    Z = 6

    def burn(t: pa.Table) -> pa.Table:
        fids, counts = [], []
        for row in t.to_pylist():
            z, x, y = merc.cell_decode(np.uint64(row["cell"]))
            gt = tile_geotransform(int(z), int(x), int(y))
            g = W.loads(row["wkb"])
            arr = rasterize([(g, 1)], (256, 256), gt, all_touched=True)
            fids.append(row["fid"])
            counts.append(int(arr.sum()))
        return pa.table({"fid": pa.array(fids, pa.int64()),
                         "burned_px": pa.array(counts, pa.int64())})

    from ray.data.aggregate import Sum
    cells = with_cells(boxes_dataset(30), Z,
                       ["fid", "wkb", "minx", "miny", "maxx", "maxy"])
    return cells.map_batches(burn, batch_format="pyarrow") \
        .groupby("fid").aggregate(Sum("burned_px", alias_name="total_px"))


def q_cutline_blend(sf_dir: str):
    """Cutline blend distance (gdalwarp -wo CUTLINE_BLEND_DIST,
    alg/gdalcutline.cpp density masking): each image gets a
    pixel-aligned inset rectangle cutline; the density mask ramps
    linearly over 3 px via the exact EDT. For a rectangle the EDT
    collapses to axis-min distance, so the per-image density sum and
    fully-opaque count replay closed-form in SQL — any EDT or
    rasterize boundary bug breaks both."""
    from ..core import wkb as W
    from ..sources.images import images_dataset
    from ..stages.georef import with_georef
    from ..stages.raster_ops import cutline_blend_density

    B = 3.0

    def blend(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec
        out = {"image_id": [], "density_sum": [], "n_full": []}
        gts = [t[f"gt{k}"].to_numpy() for k in range(6)]
        for idx in range(t.num_rows):
            iid = t["image_id"][idx].as_py()
            i = int(iid[3:])
            px = _dec(t["bytes"][idx].as_py(), t["fmt"][idx].as_py())
            px = px[:256, :256]         # EDT is O(h·w²): bound the crop
            h, w = px.shape[:2]
            gt = tuple(float(g[idx]) for g in gts)
            tt, ll = 2 + (i % 2), 3 + (i % 3)
            bb, rr = 2, 2
            if w - rr <= ll or h - bb <= tt:    # degenerate cutline
                out["image_id"].append(iid)
                out["density_sum"].append(0.0)
                out["n_full"].append(0)
                continue
            x0 = gt[0] + ll * gt[1]
            x1 = gt[0] + (w - rr) * gt[1]
            ytop = gt[3] + tt * gt[5]
            ybot = gt[3] + (h - bb) * gt[5]
            g = W.box(x0, min(ytop, ybot), x1, max(ytop, ybot))
            d = cutline_blend_density(px, gt, g, B)
            out["image_id"].append(iid)
            out["density_sum"].append(_half_away([float(d.sum())])[0])
            out["n_full"].append(int((d >= 1.0).sum()))
        return pa.table({"image_id": pa.array(out["image_id"]),
                         "density_sum": pa.array(out["density_sum"]),
                         "n_full": pa.array(out["n_full"], pa.int64())})

    return images_dataset(48) \
        .map_batches(with_georef, batch_format="pyarrow") \
        .map_batches(blend, batch_format="pyarrow", batch_size=16)


def q_vector_reproject(sf_dir: str):
    """Vector reprojection (ogr2ogr -t_srs, OGRGeometry::transform):
    every vertex of the box layer through the 3857→4326 chain, then
    the reprojected envelope per feature. The mercator inverse is
    per-axis monotone, so the envelope of the transformed geometry
    equals the transformed envelope — closed-form in SQL (the same
    lat/lon formulas as the reproject grid oracle)."""
    import ray.data as rd
    from ..core import wkb as W
    from ..sources.vector import boxes_dataset
    from ..stages.vector_ops import reproject_wkb_batch

    def envelope(t: pa.Table) -> pa.Table:
        fids, l0, b0, l1, b1 = [], [], [], [], []
        for i in range(t.num_rows):
            g = W.loads(t["wkb"][i].as_py())
            e = g.envelope()
            fids.append(t["fid"][i].as_py())
            l0.append(_half_away([e[0]])[0])
            b0.append(_half_away([e[1]])[0])
            l1.append(_half_away([e[2]])[0])
            b1.append(_half_away([e[3]])[0])
        return pa.table({"fid": pa.array(fids, pa.int64()),
                         "lon0": pa.array(l0), "lat0": pa.array(b0),
                         "lon1": pa.array(l1), "lat1": pa.array(b1)})

    return boxes_dataset(40) \
        .map_batches(lambda t: reproject_wkb_batch(t, "EPSG:3857",
                                                   "EPSG:4326"),
                     batch_format="pyarrow") \
        .map_batches(envelope, batch_format="pyarrow")


def q_tile_assignment_geodetic(sf_dir: str):
    """Geodetic-profile tile math (gdal2tiles GlobalGeodetic, the
    EPSG:4326 Plate Carrée pyramid): per event, mercator point →
    lon/lat → z6 TMS geodetic tile via the ceil(p/256)−1 convention;
    counts per tile. Lon/lat unwrap + pixel/tile floor arithmetic all
    replay closed-form in SQL."""
    from ray.data.aggregate import Count
    from ..core import geodetic as gg, mercator as merc

    Z = 6
    ds = _rp(sf_dir, "events", ["event_id"])

    def tiles(t: pa.Table) -> pa.Table:
        i = t["event_id"].to_numpy()
        x, y = geo.point_xy(i)
        lat, lon = merc.meters_to_latlon(x, y)
        tx, ty = gg.lonlat_to_tile(lon, lat, Z)
        return pa.table({"tile_x": pa.array(tx, pa.int64()),
                         "tile_y": pa.array(ty, pa.int64())})

    return ds.map_batches(tiles, batch_format="pyarrow") \
        .groupby(["tile_x", "tile_y"]).aggregate(Count(alias_name="n"))


def q_raster_profile_tiles(sf_dir: str):
    """Raster-profile tile grid (gdal2tiles -p raster, the
    pixel-space pyramid for non-georeferenced imagery): per image and
    zoom 0..nativezoom, the tile-grid size and count — all integer
    math (ceil-log2 native zoom, remainder edge tiles), replayed
    closed-form in SQL."""
    import ray.data as rd
    from ..core.rasterprofile import tile_ranges
    from ..sources.images import images_dataset

    def grids(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "zoom": [], "tsize": [], "n_tiles": []}
        ws = t["w"].to_numpy()
        hs = t["h"].to_numpy()
        ids = t["image_id"].to_pylist()
        for i in range(t.num_rows):
            for tz, (tsize, _, _, tmaxx, tmaxy) in enumerate(
                    tile_ranges(int(ws[i]), int(hs[i]))):
                out["image_id"].append(ids[i])
                out["zoom"].append(tz)
                out["tsize"].append(tsize)
                out["n_tiles"].append((tmaxx + 1) * (tmaxy + 1))
        return pa.table({"image_id": pa.array(out["image_id"]),
                         "zoom": pa.array(out["zoom"], pa.int64()),
                         "tsize": pa.array(out["tsize"], pa.int64()),
                         "n_tiles": pa.array(out["n_tiles"], pa.int64())})

    return images_dataset(128).map_batches(grids, batch_format="pyarrow")


SQL_VECTOR_SQL_FUNCS = """
SELECT n_nationkey, CONCAT(SUBSTR(n_name, 1, 3), '-', n_nationkey) AS tag,
       UPPER(SUBSTR(n_name, 2, 4)) AS mid, LENGTH(n_name) AS len
FROM nation WHERE n_regionkey IN (0, 2, 4)
ORDER BY n_nationkey
"""


def q_vector_sql_funcs(sf_dir: str):
    """OGR SQL scalar string functions CONCAT/SUBSTR (SWQ_CONCAT /
    SWQ_SUBSTR, ogr/ogr_swq.h:63-64; 1-based SUBSTR) — the identical
    statement runs in DuckDB as the oracle."""
    from ..functions.sql import execute_sql
    return execute_sql(SQL_VECTOR_SQL_FUNCS,
                       {"nation": _rp(sf_dir, "nation")})


def q_viewshed_plane(sf_dir: str):
    """Viewshed no-false-occlusion invariant (gdal_viewshed,
    alg/viewshed/viewshed.cpp): on PLANE terrain every in-range cell
    is visible — the sight line from an above-plane observer to any
    plane point stays above the plane. 16 observer/slope/radius
    configs; the in-range census (the reference's max-distance window
    incl. its documented Y off-by-one, then the per-line r² ≤ max²
    scan) replays closed-form in SQL. Any false occlusion or window
    regression changes n_visible. The exact Wang sweep on rough
    terrain stays pytest-covered (tests/test_viewshed.py); `viewshed`
    in this battery exercises it distributed."""
    import ray.data as rd
    from ..core.viewshed import viewshed

    N = 64

    def run(t: pa.Table) -> pa.Table:
        ks, nvis, nwin = [], [], []
        for k in t["id"].to_pylist():
            a, b = 0.1 * k, 0.05 * (k % 5)
            gy, gx = np.mgrid[0:N, 0:N]
            dem = a * gx + b * gy
            ox, oy = 20 + 3 * (k % 8), 25 + 2 * (k % 8)
            R = 7.5 + 0.5 * k
            out, (xs, ys) = viewshed(dem, ox, oy, observer_height=5.0 + k,
                                     max_distance=R)
            ks.append(k)
            nvis.append(int((out == 255.0).sum()))
            nwin.append(int(out.size))
        return pa.table({"k": pa.array(ks, pa.int64()),
                         "n_visible": pa.array(nvis, pa.int64()),
                         "n_window": pa.array(nwin, pa.int64())})

    return rd.range(16, override_num_blocks=4) \
        .map_batches(run, batch_format="pyarrow", batch_size=4)


def q_polygonize_census(sf_dir: str):
    """Distributed polygonize conservation census: an ANALYTIC blobby
    class field (sin/cos bands — closed-form in SQL, unlike the
    seeded-rng field of `distributed_polygonize`) is tiled, polygonized
    per tile and stitched across tile edges; the per-class pixel total
    over all stitched components must equal the exact class census.
    Double-counted or dropped boundary runs break the equality; the
    component-level detail stays in the rows-only query."""
    import ray.data as rd
    from ..stages.poly_merge import distributed_polygonize

    gy, gx = np.mgrid[0:256, 0:512]
    v = np.sin(gx / 13.0) + np.cos(gy / 9.0)
    grid = np.digitize(v, [-0.5, 0.5]).astype(np.int64)
    rows = []
    for ty in range(4):
        for tx in range(8):
            sub = grid[ty * 64:(ty + 1) * 64, tx * 64:(tx + 1) * 64]
            rows.append({"tile_x": tx, "tile_y": ty, "h": 64, "w": 64,
                         "grid": np.ascontiguousarray(sub).tobytes()})
    out = distributed_polygonize(rd.from_items(rows))
    return out.groupby("value", as_index=False) \
        .agg(total_px=("total_px", "sum"),
             n_components=("component", "nunique")) \
        .astype({"value": np.int64, "total_px": np.int64}) \
        .drop(columns=["n_components"])


def q_fillnodata(sf_dir: str):
    """fillnodata (alg/rasterfill.cpp ring-expansion analog):
    deterministic holes ((7·gx + 11·gy) % 37 == 0) are punched into
    band 0 and filled back. The oracle recomputes the hole census and
    the untouched-pixel value sum closed-form — the fill must complete
    every hole (all_filled) without perturbing any valid pixel
    (sum_kept). Filled VALUES are neighbor means, pytest-covered."""
    from ..core.rastervec import fillnodata
    from ..sources.images import images_dataset
    from ..stages.raster_ops import image_op

    def fill(px, row):
        gy, gx = np.mgrid[0:px.shape[0], 0:px.shape[1]]
        hole = (7 * gx + 11 * gy) % 37 == 0
        band = px[:, :, 0].astype(np.float64)
        filled = fillnodata(band, ~hole)
        kept_ok = np.array_equal(filled[~hole], band[~hole])
        return {"n_holes": int(hole.sum()),
                "sum_kept": int(band[~hole].sum()) if kept_ok else -1,
                "all_filled": bool(np.isfinite(filled).all())}

    return images_dataset(48).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(image_op(fill), batch_format="pyarrow") \
        .select_columns(["image_id", "n_holes", "sum_kept", "all_filled"])


def q_vector_translate(sf_dir: str):
    """ogr2ogr end-to-end (apps/ogr2ogr_lib.cpp composition traced in
    SURVEY §3.2): attribute filter (-where category='b') → CRS
    transform (-t_srs EPSG:4326) → shapefile write → read BACK through
    the driver manager; per-feature reprojected envelopes of the
    roundtripped layer hash-check against the closed-form mercator
    algebra. Any filter, transform, writer or reader bug breaks it."""
    from ..core import wkb as W
    from ..sources.drivers import read_vector
    from ..sources.shapefile import write_shapefile
    from ..sources.vector import boxes_dataset
    from ..stages.vector_ops import reproject_wkb_batch

    ds = boxes_dataset(40) \
        .filter(lambda r: r["category"] == "b") \
        .map_batches(lambda t: reproject_wkb_batch(t, "EPSG:3857",
                                                   "EPSG:4326"),
                     batch_format="pyarrow")
    # layer write is a bounded final (13-feature filter result); the
    # shapefile's FID becomes positional, so read-back fid i maps to
    # source box j = 3i + 1 (category cycle), which the oracle replays
    table = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    path = os.path.join(_scratch_dir("ogr2ogr"), "layer.shp")
    write_shapefile(table, path)
    back = read_vector(path)
    out = {"fid": [], "lon0": [], "lat0": [], "lon1": [], "lat1": []}
    for i in range(back.num_rows):
        e = W.loads(back["wkb"][i].as_py()).envelope()
        out["fid"].append(back["fid"][i].as_py())
        out["lon0"].append(_half_away([e[0]])[0])
        out["lat0"].append(_half_away([e[1]])[0])
        out["lon1"].append(_half_away([e[2]])[0])
        out["lat1"].append(_half_away([e[3]])[0])
    return pd.DataFrame(out)


def q_caption_passthrough(sf_dir: str):
    """North-star caption invariant: captions must survive BYTE-FOR-BYTE
    through a decode → translate → re-encode stage (the reference has
    no text payload; our engine carries it as an opaque column). The
    query pushes every image through a real pixel transform and emits
    the caption and its UTF-8 byte length; the oracle reconstructs both
    closed-form from the corpus generator (printf + the non-ASCII é
    marker that catches any encoding mangling)."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import translate

    def roundtrip(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec, encode as _enc
        caps = t["caption"].to_pylist()
        out_caps, blens = [], []
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            small = translate(px, out_size=(16, 16), resampling="near")
            _enc(np.asarray(small, np.uint8), "png")   # full re-encode
            out_caps.append(caps[i])
            blens.append(len(caps[i].encode("utf-8")))
        return pa.table({"image_id": t["image_id"],
                         "caption": pa.array(out_caps, pa.string()),
                         "caption_bytes": pa.array(blens, pa.int64())})

    return images_dataset(96).map_batches(roundtrip,
                                          batch_format="pyarrow")


def q_raster_stack(sf_dir: str):
    """gdal raster stack / gdalbuildvrt -separate: pair each lossless
    image with its same-dimension successor (i, i+16 — the dims cycles
    repeat every 16 indices), stack band 0 of both into a 2-band
    image, emit per-pair band means. The means are
    closed-form in SQL over both sources' pixel formulas; same-dims
    pairing keeps the resample out of the oracle path (resampled
    stacking is pytest-covered)."""
    from ..sources.images import images_dataset
    from ..stages.raster_ops import band_stack

    def stack_pairs(t: pa.Table) -> pa.Table:
        from ..codecs import decode as _dec
        rows = t.to_pylist()
        by_id = {int(r["image_id"][3:]): r for r in rows}
        out = {"pair_id": [], "mean_b0": [], "mean_b1": []}
        for i, r in sorted(by_id.items()):
            j = i + 16
            other = by_id.get(j)
            if other is None or r["w"] != other["w"] \
                    or r["h"] != other["h"]:
                continue
            a = _dec(r["bytes"], r["fmt"])[:, :, 0]
            b = _dec(other["bytes"], other["fmt"])[:, :, 0]
            s = band_stack([a, b])
            out["pair_id"].append(i)
            out["mean_b0"].append(
                _half_away([float(s[:, :, 0].mean())])[0])
            out["mean_b1"].append(
                _half_away([float(s[:, :, 1].mean())])[0])
        return pa.table({"pair_id": pa.array(out["pair_id"], pa.int64()),
                         "mean_b0": pa.array(out["mean_b0"]),
                         "mean_b1": pa.array(out["mean_b1"])})

    # one batch holds the whole 64-image window so (i, i+2) pairs are
    # co-located — a bounded demo corpus; at scale pairing is a cell
    # join like every other co-partitioning here
    return images_dataset(64, batch_size=64, parallelism=1) \
        .map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(stack_pairs, batch_format="pyarrow", batch_size=64)


def q_top_ngrams(sf_dir: str):
    """Per-language top-3 word bigrams (training-data corpus
    analysis): map-side bigram counting (partial aggregation — the
    exchange carries (lang, bigram, n) partials, never text), global
    combine, deterministic top-3 per language (count desc, bigram
    asc). The oracle recomputes it in SQL with string_split + window
    rank."""
    from ray.data.aggregate import Sum

    def bigrams(t: pa.Table) -> pa.Table:
        # fully Arrow-vectorized: token list -> adjacent-pair join,
        # doc boundaries masked out, then an in-batch group-by as the
        # map-side partial (no per-row Python)
        import pyarrow.compute as pc
        empty = pa.table({"lang": pa.array([], pa.string()),
                          "bigram": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        toks = pc.split_pattern(t.column("text").cast(pa.string()), " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        total = len(flat)
        if total < 2:
            return empty
        gram = pc.binary_join_element_wise(
            flat.slice(0, total - 1), flat.slice(1), " ")
        lens = pc.list_value_length(toks).to_numpy().astype(np.int64)
        # a bigram at token i is invalid when i is its doc's last token
        valid = np.ones(total - 1, bool)
        last = np.cumsum(lens) - 1
        valid[last[last < total - 1]] = False
        if not valid.any():
            return empty
        lang_tok = np.repeat(
            t.column("lang").to_numpy(zero_copy_only=False), lens)
        sel = pa.array(valid)
        part = pa.table({
            "lang": pa.array(lang_tok[:-1][valid]),
            "bigram": gram.filter(sel),
            "n": pa.array(np.ones(int(valid.sum()), np.int64))})
        agg = pa.TableGroupBy(part, ["lang", "bigram"]).aggregate(
            [("n", "sum")])
        return pa.table({"lang": agg["lang"], "bigram": agg["bigram"],
                         "n": agg["n_sum"].cast(pa.int64())})

    agg = _rp(sf_dir, "documents", ["text", "lang"]) \
        .map_batches(bigrams, batch_format="pyarrow") \
        .groupby(["lang", "bigram"]) \
        .aggregate(Sum("n", alias_name="n")).to_pandas()
    agg = agg.sort_values(["lang", "n", "bigram"],
                          ascending=[True, False, True])
    top = agg.groupby("lang", sort=True).head(3).reset_index(drop=True)
    return top.astype({"n": np.int64})


SQL_TOP_NGRAMS = """
WITH toks AS (
  SELECT lang, string_split(text, ' ') AS ts FROM documents),
bg AS (
  SELECT lang, ts[g] || ' ' || ts[g + 1] AS bigram
  FROM toks JOIN generate_series(1, 8192) t(g)
    ON g <= len(ts) - 1),
cnt AS (
  SELECT lang, bigram, COUNT(*)::BIGINT AS n
  FROM bg GROUP BY lang, bigram),
rk AS (
  SELECT lang, bigram, n,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n DESC, bigram ASC) AS r
  FROM cnt)
SELECT lang, bigram, n FROM rk WHERE r <= 3
"""


def q_raster_info(sf_dir: str):
    """gdalinfo as a distributed stage (functions/info.py::raster_info
    inside map_batches): per-image driver, dims, band count and band-0
    mean — the info surface recomputed closed-form by the oracle."""
    from ..functions.info import raster_info
    from ..sources.images import images_dataset

    def info(t: pa.Table) -> pa.Table:
        out = {"image_id": [], "driver": [], "w": [], "h": [],
               "bands": [], "mean_b0": []}
        for i in range(t.num_rows):
            inf = raster_info(t["bytes"][i].as_py(),
                              t["fmt"][i].as_py())
            out["image_id"].append(t["image_id"][i].as_py())
            out["driver"].append(inf["driver"])
            out["w"].append(inf["size"][0])
            out["h"].append(inf["size"][1])
            out["bands"].append(inf["bands"])
            out["mean_b0"].append(
                _half_away([inf["band_info"][0]["mean"]])[0])
        return pa.table({"image_id": pa.array(out["image_id"]),
                         "driver": pa.array(out["driver"]),
                         "w": pa.array(out["w"], pa.int64()),
                         "h": pa.array(out["h"], pa.int64()),
                         "bands": pa.array(out["bands"], pa.int64()),
                         "mean_b0": pa.array(out["mean_b0"])})

    return images_dataset(64).map_batches(_png_only, batch_format="pyarrow") \
        .map_batches(info, batch_format="pyarrow")


def q_sieve(sf_dir: str):
    """gdal_sieve (alg/gdalsievefilter.cpp): small components merge
    into their largest neighbor. Run per image tile of the analytic
    sin/cos class field and report the invariants the operation must
    preserve: total pixel count (closed-form in SQL), every surviving
    component ≥ threshold, and component count non-increasing. A
    sieve that drops or double-counts pixels, or leaves an
    under-threshold island, breaks the row."""
    import ray.data as rd
    from ..core.rastervec import label_components, sieve

    T = 16

    def run(t: pa.Table) -> pa.Table:
        out = {"tile": [], "n_px": [], "min_comp_ok": [],
               "not_more_comps": []}
        for k in t["id"].to_pylist():
            ty, tx = divmod(k, 8)
            gy, gx = np.mgrid[ty * 64:(ty + 1) * 64,
                              tx * 64:(tx + 1) * 64]
            v = np.sin(gx / 13.0) + np.cos(gy / 9.0)
            grid = np.digitize(v, [-0.5, 0.5]).astype(np.int64)
            before = label_components(grid)
            sieved = sieve(grid, T)
            after = label_components(sieved)
            sizes = np.bincount(after.ravel())
            sizes = sizes[sizes > 0]
            out["tile"].append(k)
            out["n_px"].append(int(sieved.size))
            out["min_comp_ok"].append(bool((sizes >= T).all()
                                           or len(sizes) == 1))
            out["not_more_comps"].append(
                int(after.max()) <= int(before.max()))
        return pa.table({"tile": pa.array(out["tile"], pa.int64()),
                         "n_px": pa.array(out["n_px"], pa.int64()),
                         "min_comp_ok": pa.array(out["min_comp_ok"]),
                         "not_more_comps": pa.array(
                             out["not_more_comps"])})

    return rd.range(32, override_num_blocks=8) \
        .map_batches(run, batch_format="pyarrow", batch_size=4)


SQL_SIEVE = """
SELECT g AS tile, 4096::BIGINT AS n_px, TRUE AS min_comp_ok,
       TRUE AS not_more_comps
FROM generate_series(0, 31) t(g)
"""


def q_geoloc_warp(sf_dir: str):
    """Geolocation-array warp grid geometry (gdalwarp -geoloc): eight
    AFFINE geoloc grids (bilinear arrays degenerate to an affine map),
    so the 21-point edge walk collapses to the corners and the
    suggested-output dims/origin replay closed-form in SQL — the same
    derivation as the gcp_warp/reproject oracles. Warped pixels run
    through the backmap+Newton inverse (pytest-verified)."""
    import ray.data as rd
    from ..core.geoloc import GeolocTransformer
    from ..stages.warp import geoloc_warp

    def run(t: pa.Table) -> pa.Table:
        out = {"k": [], "dst_w": [], "dst_h": [], "minx": [], "maxy": []}
        for k in t["id"].to_pylist():
            gl_, gp_ = np.meshgrid(np.arange(33.0), np.arange(33.0),
                                   indexing="ij")
            gx = 100.0 + 4.0 * k + 2.5 * gp_ + 0.25 * gl_
            gy = 500.0 - 2.0 * k + 0.125 * gp_ + 3.0 * gl_
            tr = GeolocTransformer(gx, gy, pixel_step=8.0, line_step=8.0)
            src = np.full((256, 256), 10.0 + k)
            res, valid, gt = geoloc_warp(src, tr, resampling="near")
            out["k"].append(k)
            out["dst_h"].append(res.shape[0])
            out["dst_w"].append(res.shape[1])
            out["minx"].append(_half_away([gt[0]])[0])
            out["maxy"].append(_half_away([gt[3]])[0])
        return pa.table({"k": pa.array(out["k"], pa.int64()),
                         "dst_w": pa.array(out["dst_w"], pa.int64()),
                         "dst_h": pa.array(out["dst_h"], pa.int64()),
                         "minx": pa.array(out["minx"]),
                         "maxy": pa.array(out["maxy"])})

    return rd.range(8, override_num_blocks=4) \
        .map_batches(run, batch_format="pyarrow", batch_size=2)


def q_rpc_warp(sf_dir: str):
    """RPC orthorectification grid geometry (gdalwarp METHOD=RPC):
    eight LINEAR RPC models (numerators L/P, denominator 1) make the
    iterative inverse exactly affine, so the suggested-output corners
    replay closed-form in SQL; the full pipeline (edge walk through
    the iterative inverse, mesh, direct-polynomial sampling) still
    runs for real. Nonlinear-model pixels are pytest-verified
    (tests/test_rpc.py)."""
    import ray.data as rd
    from ..core.rpc import RPCModel
    from ..stages.warp import rpc_warp

    def model(k: int) -> RPCModel:
        num_s = np.zeros(20); num_s[1] = 1.0
        num_l = np.zeros(20); num_l[2] = 1.0
        den = np.zeros(20); den[0] = 1.0
        return RPCModel(
            line_off=2048.0 + 16.0 * k, samp_off=2048.0 - 8.0 * k,
            lat_off=44.0, long_off=5.0, height_off=0.0,
            line_scale=2048.0, samp_scale=2048.0,
            lat_scale=0.5, long_scale=0.5, height_scale=500.0,
            line_num=num_l, line_den=den, samp_num=num_s, samp_den=den)

    def run(t: pa.Table) -> pa.Table:
        out = {"k": [], "dst_w": [], "dst_h": [], "minx": [], "maxy": []}
        for k in t["id"].to_pylist():
            src = np.full((256, 256), 10.0 + k)
            res, valid, gt = rpc_warp(src, model(k), resampling="near")
            out["k"].append(k)
            out["dst_h"].append(res.shape[0])
            out["dst_w"].append(res.shape[1])
            out["minx"].append(_half_away([gt[0]])[0])
            out["maxy"].append(_half_away([gt[3]])[0])
        return pa.table({"k": pa.array(out["k"], pa.int64()),
                         "dst_w": pa.array(out["dst_w"], pa.int64()),
                         "dst_h": pa.array(out["dst_h"], pa.int64()),
                         "minx": pa.array(out["minx"]),
                         "maxy": pa.array(out["maxy"])})

    return rd.range(8, override_num_blocks=4) \
        .map_batches(run, batch_format="pyarrow", batch_size=2)


# Dict ORDER matters: the driver's correctness gate records only the
# first 50 entries. 127 entries have an oracle_sql() entry, so the rest
# are checked by scripts/check_oracle.py; every query README.md tags
# "(window)" must sit in the first 50 (tests/test_roundtrip_queries.py).
QUERIES = {
    # --- relational / windowed (DuckDB oracles) ---
    "pricing_summary": q_pricing_summary,
    "attribute_filter": q_attribute_filter,
    "select_project": q_select_project,
    "orderby_limit": q_orderby_limit,
    "distinct": q_distinct,
    "hash_join_broadcast": q_hash_join,
    "union_all": q_union_all,
    "global_stats": q_global_stats,
    "topk_revenue": q_topk_revenue,
    "daily_counts": q_daily_counts,
    "tile_assignment": q_tile_assignment,
    "pip_rect_join": q_pip_rect_join,
    "zonal_stats": q_zonal_stats,
    "token_stats": q_token_stats,
    "exact_dedup": q_exact_dedup,
    "ann_cosine": q_ann_cosine,
    "lang_filter_sample": q_lang_filter_sample,
    "pdf_roundtrip": q_pdf_roundtrip,
    "sessionize": q_sessionize,
    "pdfvec_roundtrip": q_pdfvec_roundtrip,
    "doc_quality": q_doc_quality,
    # --- OGR SQL dialect (identical string runs in DuckDB) ---
    "vector_sql_join": q_vector_sql_join,
    "vector_sql_sqlite": q_vector_sql_sqlite,
    # --- dedup / ANN / text (brute-force recompute oracles) ---
    "minhash_near_dups": q_minhash_near_dups,
    "simhash_near_dups": q_simhash_near_dups,
    "embedding_near_dups": q_embedding_near_dups,
    "ivf_ann": q_ivf_ann,
    "lang_id": q_lang_id,
    "doc_fingerprints": q_doc_fingerprints,
    # --- raster (closed-form pixel reconstruction oracles) ---
    "raster_stats": q_raster_stats,
    "raster_histogram": q_raster_histogram,
    "norm_diff": q_norm_diff,
    "raster_calc": q_raster_calc,
    "wkt_warp": q_wkt_warp,
    # rotated into the first-50 driver window (r4): newest oracled ops
    "vrt_composite": q_vrt_composite,
    "mosaic_alpha": q_mosaic_alpha,
    "pq_ann": q_pq_ann,
    "audio_features_wav": q_audio_features_wav,
    "gml_roundtrip": q_gml_roundtrip,
    "jp2_roundtrip": q_jp2_roundtrip,
    "jp2_lossy_roundtrip": q_jp2_lossy_roundtrip,
    # rotated into the first-50 driver window (r5): newest oracled ops
    "webp_roundtrip": q_webp_roundtrip,
    "omerc_warp": q_omerc_warp,
    "gpkg_raster_roundtrip": q_gpkg_raster_roundtrip,
    "e57_roundtrip": q_e57_roundtrip,
    "heif_roundtrip": q_heif_roundtrip,
    "exr_roundtrip": q_exr_roundtrip,
    "zarr_roundtrip": q_zarr_roundtrip,
    "rl2_roundtrip": q_rl2_roundtrip,
    "mrf_roundtrip": q_mrf_roundtrip,
    # --- rows 50+: outside the driver window ---
    # displaced from the window; tier-1 checks them against DuckDB
    # (tests/test_sql.py runs these SQL shapes in DuckDB, and
    # tests/test_roundtrip_queries.py runs dxf_roundtrip's oracle)
    "vector_sql": q_vector_sql,
    "vector_sql_scan": q_vector_sql_scan,
    "dxf_roundtrip": q_dxf_roundtrip,
    "ntv2_shift": q_ntv2_shift,
    "running_sum": q_running_sum,
    "histogram": q_histogram,
    "count_distinct": q_count_distinct,
    "mvt_roundtrip": q_mvt_roundtrip,
    "gmt_roundtrip": q_gmt_roundtrip,
    "sqlite_roundtrip": q_sqlite_roundtrip,
    "interpolate_at_points": q_interpolate_at_points,
    "footprint": q_footprint,
    "pipeline_dsl": q_pipeline_dsl,
    # --- vector / raster↔vector (closed-form geometry oracles) ---
    "vector_ops": q_vector_ops,
    "buffer_explode": q_buffer_explode,
    "layer_intersection": q_layer_intersection,
    "layer_clip_erase": q_layer_clip_erase,
    "layer_setops": q_layer_setops,
    "geojson_roundtrip": q_geojson_roundtrip,
    "vector_drivers": q_vector_drivers,
    "rasterize_zones": q_rasterize_zones,
    "polygonize_roundtrip": q_polygonize_roundtrip,
    "cutline_clip": q_cutline_clip,
    "spatial_sort": q_spatial_sort,
    "raster_index": q_raster_index,
    "mbtiles_roundtrip": q_mbtiles_roundtrip,
    "gtiff_roundtrip": q_gtiff_roundtrip,
    "netcdf_roundtrip": q_netcdf_roundtrip,
    "vector_sql_subquery": q_vector_sql_subquery,
    "vector_sql_case": q_vector_sql_case,
    "mif_roundtrip": q_mif_roundtrip,
    "raster_neighbors": q_raster_neighbors,
    "arrow_roundtrip": q_arrow_roundtrip,
    "reclassify": q_reclassify,
    "cog_roundtrip": q_cog_roundtrip,
    "gtiff_float_nodata": q_gtiff_float_nodata,
    "proximity": q_proximity,
    "pansharpen": q_pansharpen,
    "gcp_warp": q_gcp_warp,
    # --- further battery rows ---
    "hillshade": q_hillshade,
    "mosaic": q_mosaic,
    "idw_grid": q_idw_grid,
    "utm_warp": q_utm_warp,
    "reproject": q_reproject,
    "zonal_raster": q_zonal_raster,
    "contours": q_contours,
    "audio_features": q_audio_features,
    "video_frames": q_video_frames,
    "distributed_polygonize": q_distributed_polygonize,
    "distributed_contour": q_distributed_contour,
    "image_tiles": q_image_tiles,
    "image_spatial_join": q_image_spatial_join,
    "image_phash_dedup": q_image_phash_dedup,
    "image_pip": q_image_pip,
    "image_knn": q_image_knn,
    "kml_superoverlay": q_kml_superoverlay,
    "approx_count_distinct": q_approx_count_distinct,
    "quantiles": q_quantiles,
    "linear_grid": q_linear_grid,
    "viewshed": q_viewshed,
    "rpc_locate": q_rpc_locate,
    "geoloc_transform": q_geoloc_transform,
    "nearblack": q_nearblack,
    "color_relief": q_color_relief,
    "rgb2pct": q_rgb2pct,
    "hillshade_multi": q_hillshade_multi,
    "contour_polygons": q_contour_polygons,
    "rasterize_all_touched": q_rasterize_all_touched,
    "cutline_blend": q_cutline_blend,
    "vector_reproject": q_vector_reproject,
    "tile_assignment_geodetic": q_tile_assignment_geodetic,
    "raster_profile_tiles": q_raster_profile_tiles,
    "vector_sql_funcs": q_vector_sql_funcs,
    "viewshed_plane": q_viewshed_plane,
    "polygonize_census": q_polygonize_census,
    "fillnodata": q_fillnodata,
    "vector_translate": q_vector_translate,
    "caption_passthrough": q_caption_passthrough,
    "raster_stack": q_raster_stack,
    "top_ngrams": q_top_ngrams,
    "raster_info": q_raster_info,
    "sieve": q_sieve,
    "geoloc_warp": q_geoloc_warp,
    "rpc_warp": q_rpc_warp,
    "fgb_roundtrip": q_fgb_roundtrip,
}


def oracle_sql() -> dict[str, str]:
    return {
        "pricing_summary": SQL_PRICING,
        "attribute_filter": SQL_ATTR_FILTER,
        "select_project": SQL_SELECT_PROJECT,
        "orderby_limit": SQL_ORDERBY_LIMIT,
        "distinct": SQL_DISTINCT,
        "hash_join_broadcast": SQL_HASH_JOIN,
        "union_all": SQL_UNION_ALL,
        "global_stats": SQL_GLOBAL_STATS,
        "topk_revenue": SQL_TOPK_REVENUE,
        "daily_counts": SQL_DAILY_COUNTS,
        "tile_assignment": _sql_tile_assignment(),
        "pip_rect_join": _sql_pip_rect_join(),
        "zonal_stats": _sql_zonal_stats(),
        "token_stats": SQL_TOKEN_STATS,
        "exact_dedup": SQL_EXACT_DEDUP,
        "ann_cosine": SQL_ANN_COSINE,
        "lang_filter_sample": SQL_LANG_FILTER_SAMPLE,
        "running_sum": SQL_RUNNING_SUM,
        "sessionize": SQL_SESSIONIZE,
        "histogram": SQL_HISTOGRAM,
        "count_distinct": SQL_COUNT_DISTINCT,
        "doc_quality": SQL_DOC_QUALITY,
        "vector_sql": SQL_VECTOR_SQL,
        "vector_sql_scan": SQL_VECTOR_SQL_SCAN,
        "vector_sql_join": SQL_VECTOR_SQL_JOIN,
        "vector_sql_sqlite": SQL_VECTOR_SQL_SQLITE,
        # closed-form / brute-force recomputation oracles (oracles.py):
        "minhash_near_dups": _OR.sql_minhash_pairs(0.5, 5),
        "simhash_near_dups": _OR.sql_simhash_pairs(6, 4),
        "embedding_near_dups": _OR.sql_embedding_pairs(0.9),
        "ivf_ann": _OR.sql_ivf_topk(4, 5),
        "lang_id": _OR.sql_lang_id(_STOPWORDS_FOR_ORACLE),
        "doc_fingerprints": _OR.sql_fingerprints(),
        "raster_stats": _OR.sql_raster_stats(128),
        "raster_histogram": _OR.sql_raster_histogram(128, 16),
        "norm_diff": _OR.sql_norm_diff(128),
        "interpolate_at_points": _OR.sql_interpolate_at_points(96),
        "footprint": _OR.sql_footprint(96, 100),
        "pipeline_dsl": _OR.sql_pipeline_dsl(64, 256),
        "vector_ops": _OR.sql_vector_ops(40),
        "buffer_explode": _OR.sql_buffer_explode(40),
        "layer_intersection": _OR.sql_layer_intersection_total(30),
        "layer_clip_erase": _OR.sql_layer_clip_erase(30),
        "layer_setops": _OR.sql_layer_setops(30, 40),
        "idw_grid": _OR.sql_idw_grid(400, 64),
        "zonal_raster": _OR.sql_zonal_raster(128, 60),
        "hillshade": _OR.sql_hillshade(128),
        "mosaic": _OR.sql_mosaic(96, 512),
        "vector_drivers": _OR.sql_vector_drivers(25),
        "fgb_roundtrip": _OR.sql_fgb_roundtrip(40),
        "contours": _OR.sql_contours(96, (63.5, 127.5, 191.5)),
        "image_spatial_join": _OR.sql_image_spatial_join(200, 40),
        "image_pip": _OR.sql_image_pip(300, 40),
        "image_knn": _OR.sql_image_knn(300, 10, 3),
        "image_phash_dedup": _OR.sql_image_phash_dedup(200),
        "reproject": _OR.sql_reproject_dims(96),
        "wkt_warp": _OR.sql_wkt_warp(96, 96),
        "gcp_warp": _OR.sql_gcp_warp(96),
        "gtiff_float_nodata": _OR.sql_gtiff_float_nodata(32, 128),
        "proximity": _OR.sql_proximity(48, 64),
        "raster_calc": _OR.sql_raster_calc(96),
        "pansharpen": _OR.sql_pansharpen(96),
        "geojson_roundtrip": _OR.sql_geojson_roundtrip(25),
        "rasterize_zones": _OR.sql_rasterize_zones(30, 6),
        "polygonize_roundtrip": _OR.sql_polygonize_roundtrip(20),
        "cutline_clip": _OR.sql_cutline_clip(96, 40),
        "gtiff_roundtrip": _OR.sql_raster_stats(64),
        "jp2_roundtrip": _OR.sql_raster_stats(32),
        "jp2_lossy_roundtrip": _OR.sql_jp2_lossy(32),
        "webp_roundtrip": _OR.sql_raster_stats(32),
        "omerc_warp": _OR.sql_omerc_warp(),
        "ntv2_shift": _OR.sql_ntv2_shift(),
        "mvt_roundtrip": _OR.sql_mvt_roundtrip(40, 9),
        "gmt_roundtrip": _OR.sql_gmt_roundtrip(30),
        "mrf_roundtrip": _OR.sql_raster_stats(32),
        "rl2_roundtrip": _OR.sql_raster_stats(32),
        "e57_roundtrip": _OR.sql_raster_stats(32),
        "heif_roundtrip": _OR.sql_heif_roundtrip(32),
        "exr_roundtrip": _OR.sql_heif_roundtrip(32),
        "zarr_roundtrip": _OR.sql_heif_roundtrip(32),
        "pdf_roundtrip": _OR.sql_raster_stats(32),
        "pdfvec_roundtrip": _OR.sql_pdfvec_roundtrip(25),
        "sqlite_roundtrip": _OR.sql_sqlite_roundtrip(30),
        "netcdf_roundtrip": _OR.sql_raster_stats(64),
        "audio_features_wav": _OR.sql_audio_features_wav(48),
        "vector_sql_subquery": SQL_VECTOR_SQL_SUBQUERY,
        "vector_sql_case": SQL_VECTOR_SQL_CASE,
        "pq_ann": _OR.sql_ivf_topk(4, 5),
        "mosaic_alpha": _OR.sql_mosaic_alpha(96),
        "mif_roundtrip": _OR.sql_mif_roundtrip(25),
        "gml_roundtrip": _OR.sql_gml_roundtrip(25),
        "dxf_roundtrip": _OR.sql_dxf_roundtrip(25),
        "raster_neighbors": _OR.sql_raster_neighbors(32),
        "arrow_roundtrip": _OR.sql_arrow_roundtrip(25),
        "vrt_composite": _OR.sql_vrt_composite(32),
        "reclassify": _OR.sql_reclassify(48),
        "cog_roundtrip": _OR.sql_cog_roundtrip(48),
        "spatial_sort": _OR.sql_spatial_sort(10, 64),
        "raster_index": _OR.sql_raster_index(128, 6),
        "mbtiles_roundtrip": _OR.sql_mbtiles_roundtrip(128, 6),
        "gpkg_raster_roundtrip": _OR.sql_mbtiles_roundtrip(128, 6),
        "kml_superoverlay": _OR.sql_kml_superoverlay(128, 6),
        "approx_count_distinct": SQL_APPROX_COUNT_DISTINCT,
        "quantiles": SQL_QUANTILES,
        "linear_grid": _OR.sql_linear_grid(64),
        "rpc_locate": _OR.sql_rpc_locate(4096),
        "geoloc_transform": _OR.sql_geoloc_transform(2048),
        "nearblack": _OR.sql_nearblack(96),
        "color_relief": _OR.sql_color_relief(64),
        "hillshade_multi": _OR.sql_hillshade_multi(64),
        "contour_polygons": _OR.sql_contour_polygons(32),
        "rasterize_all_touched": _OR.sql_rasterize_all_touched(30, 6),
        "cutline_blend": _OR.sql_cutline_blend(48),
        "vector_reproject": _OR.sql_vector_reproject(40),
        "tile_assignment_geodetic": _OR.sql_tile_assignment_geodetic(6),
        "raster_profile_tiles": _OR.sql_raster_profile_tiles(128),
        "vector_sql_funcs": SQL_VECTOR_SQL_FUNCS,
        "viewshed_plane": _OR.sql_viewshed_plane(16, 64),
        "polygonize_census": _OR.sql_polygonize_census(),
        "fillnodata": _OR.sql_fillnodata(48),
        "vector_translate": _OR.sql_vector_translate(40),
        "caption_passthrough": _OR.sql_caption_passthrough(96),
        "raster_stack": _OR.sql_raster_stack(64),
        "top_ngrams": SQL_TOP_NGRAMS,
        "raster_info": _OR.sql_raster_info(64),
        "sieve": SQL_SIEVE,
        "geoloc_warp": _OR.sql_geoloc_warp(8),
        "rpc_warp": _OR.sql_rpc_warp(8),
        # image_* queries: pixel/spatial semantics are not SQL-expressible
        # over the provided tables; covered by the pytest oracles instead.
    }
