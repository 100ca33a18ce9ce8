"""Seeded inputs for the three workloads.

Every generator is a pure function of ``seed``: the seed picks a window
of the deterministic corpus (image indices, polygon ids) or seeds the
table generator, so the same seed always yields the same files.  The
engine sees only the files written here.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gdal_ray.core import wkb
from gdal_ray.sources.images import (caption_of, image_dims, image_fmt,
                                     make_image_batch, phash_of)
from gdal_ray.sources.vector import POLY_SCHEMA, make_polygon

# the corpus is addressed by row index; windows start anywhere below this
CORPUS_ROWS = 10_000_000


def _window_start(seed: int, salt: int, n: int) -> int:
    rng = np.random.default_rng([seed, salt])
    return int(rng.integers(0, CORPUS_ROWS - n))


# ---------------------------------------------------------------------------
# pyramid: a window of the Lance-shaped image corpus
# ---------------------------------------------------------------------------

def image_window(seed: int, n: int) -> pa.Table:
    """n consecutive corpus rows (image_id, bytes, w, h, fmt, caption,
    phash) starting at a seed-chosen index."""
    start = _window_start(seed, 1, n)
    return make_image_batch(np.arange(start, start + n, dtype=np.int64))


# ---------------------------------------------------------------------------
# join: image footprints (metadata projection) × polygons
# ---------------------------------------------------------------------------

FOOTPRINT_SCHEMA = pa.schema([
    ("image_id", pa.string()), ("w", pa.int32()), ("h", pa.int32()),
    ("fmt", pa.string()), ("caption", pa.string()), ("phash", pa.int64()),
])


def footprint_window(seed: int, n: int) -> pa.Table:
    """The corpus columns a Lance projection reads without pixels.
    Every tenth index lands in the metro hot box (sources/geo.py)."""
    start = _window_start(seed, 2, n)
    idx = np.arange(start, start + n, dtype=np.int64)
    w, h = image_dims(idx)
    return pa.table({
        "image_id": pa.array([f"img{i:08d}" for i in idx.tolist()]),
        "w": pa.array(w, pa.int32()), "h": pa.array(h, pa.int32()),
        "fmt": pa.array(image_fmt(idx).tolist()),
        "caption": pa.array([caption_of(i) for i in idx.tolist()]),
        "phash": pa.array(phash_of(idx), pa.int64()),
    }, schema=FOOTPRINT_SCHEMA)


def polygon_window(seed: int, m: int) -> pa.Table:
    """m consecutive polygon ids; the shape class cycles with id % 5, so
    any window of at least 5 holds squares, rotated squares, L-shapes,
    holed squares and multipolygons."""
    start = _window_start(seed, 3, m)
    rows = []
    for j in range(start, start + m):
        g = make_polygon(j)
        env = g.envelope()
        rows.append({"fid": j, "wkb": wkb.dumps(g),
                     "minx": env[0], "miny": env[1],
                     "maxx": env[2], "maxy": env[3],
                     "name": f"zone{j}", "category": "abc"[j % 3]})
    return pa.Table.from_pylist(rows, schema=POLY_SCHEMA)


# ---------------------------------------------------------------------------
# sql: tables shaped like TPC-H orders, customer and part
# ---------------------------------------------------------------------------

_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_ADJ = ["large", "small", "hot", "cold", "shiny", "rusty", "green", "tiny"]
_NOUN = ["bolt", "ring", "nut", "screw", "washer", "gear", "spring",
         "valve", "pin", "clip"]
_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]


def _pick(rng, choices, n, p=None):
    codes = rng.choice(len(choices), size=n, p=p)
    return pa.DictionaryArray.from_arrays(
        pa.array(codes, pa.int32()), pa.array(choices)).cast(pa.string())


def tpch_tables(seed: int, n_orders: int) -> dict[str, pa.Table]:
    """orders (n_orders rows), customer (n_orders / 10) and part
    (n_orders * 2 / 15) with the TPC-H column names the statements use."""
    rng = np.random.default_rng([seed, 4])
    n_cust = max(1, n_orders // 10)
    n_part = max(1, n_orders * 2 // 15)
    day0 = np.datetime64("1992-01-01", "us")
    days = rng.integers(0, 2400, n_orders).astype("timedelta64[D]")
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_orders)),
        "o_orderstatus": _pick(rng, ["F", "O", "P"], n_orders,
                               [0.49, 0.49, 0.02]),
        "o_totalprice": pa.array(
            np.round(rng.uniform(850.0, 520000.0, n_orders), 2)),
        "o_orderdate": pa.array(day0 + days.astype("timedelta64[us]")),
        "o_orderpriority": _pick(rng, _PRIORITIES, n_orders),
    })
    ck = np.arange(n_cust, dtype=np.int64)
    customer = pa.table({
        "c_custkey": pa.array(ck),
        "c_name": pa.array([f"Customer#{k:09d}" for k in ck.tolist()]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": pa.array(
            np.round(rng.uniform(-999.99, 9999.99, n_cust), 2)),
        "c_mktsegment": _pick(rng, _SEGMENTS, n_cust),
    })
    adj = rng.integers(0, len(_ADJ), n_part)
    noun = rng.integers(0, len(_NOUN), n_part)
    part = pa.table({
        "p_partkey": pa.array(np.arange(n_part, dtype=np.int64)),
        "p_name": pa.array([f"{_ADJ[a]} {_NOUN[b]}"
                            for a, b in zip(adj.tolist(), noun.tolist())]),
        "p_brand": pa.array([f"Brand#{b}" for b in
                             rng.integers(1, 56, n_part).tolist()]),
        "p_type": _pick(rng, _TYPES, n_part),
        "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
        "p_retailprice": pa.array(
            np.round(rng.uniform(900.0, 2100.0, n_part), 2)),
    })
    return {"orders": orders, "customer": customer, "part": part}


def write_table(t: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path)
