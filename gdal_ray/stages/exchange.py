"""The group exchange: how every grouped stage co-locates its rows.

Each row takes the salted shuffle bucket of its key column
(salted_bucket: a Fibonacci hash of the key, so all rows of one key
share a bucket while hot or adjacent keys spread), one groupby(bucket)
sort exchange moves the rows, and the stage's Arrow kernel runs once per
bucket (bucket_groups). A bucket holds any number of keys, so a kernel
works on flat arrays — or walks its keys with key_slices — instead of
paying Ray's per-group overhead once per key: tens of thousands of
one-row groups cost ~0.2 ms each, and a pandas group adds a conversion
on top. Joins, the tile render and overview cascade, SQL DISTINCT,
dedup, ANN and kNN top-k, the seam stitch, zonal statistics and the
battery's windowed queries all run on this one exchange.

A two-sided join unions both sides with a `side` column before the
exchange and splits each bucket back with split_sides; for spatial
joins the key is a covering cell at the join zoom, and a pair spanning
several cells is emitted only from the cell of its PBSM reference point
(stages/join.py::reference_cell), so no second dedup exchange is needed.
topk_rows is the per-key top-k kernel of the kNN and ANN merges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

N_JOIN_BUCKETS = 128


def salted_bucket(batch: pa.Table, key: str,
                  n_buckets: int = N_JOIN_BUCKETS) -> pa.Table:
    """Append the Fibonacci-hashed shuffle bucket of `key` as `bucket`."""
    k = batch[key].to_numpy().astype(np.uint64)
    b = ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)) \
        % np.uint64(n_buckets)
    return batch.append_column("bucket", pa.array(b.astype(np.int64),
                                                  pa.int64()))


def bucket_groups(both, group_fn, n_buckets: int = N_JOIN_BUCKETS,
                  key: str = "cell"):
    """Co-partition rows by the salted bucket of their `key` column (a
    join cell by default) and run the bucket kernel `group_fn` once per
    bucket, on Arrow tables that carry the `bucket` column. Name
    `group_fn` `*_group`: the benchmark's op.group.* metrics count Ray
    operators by that name."""
    def add_bucket(b: pa.Table) -> pa.Table:
        return salted_bucket(b, key, n_buckets)

    return both.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(group_fn, batch_format="pyarrow")


def split_sides(t: pa.Table, a: str, b: str) -> tuple[pa.Table, pa.Table]:
    """Split a bucket into its two sides by the `side` column."""
    return (t.filter(pc.equal(t["side"], a)).combine_chunks(),
            t.filter(pc.equal(t["side"], b)).combine_chunks())


def key_slices(t: pa.Table, key: np.ndarray):
    """Split a bucket into one slice per distinct key. The table is
    reordered at most once — a stable sort, so rows of one key keep
    their arrival order — and every slice is a zero-copy view between
    numpy run boundaries."""
    if not len(key):
        return
    if len(key) > 1 and (key[1:] < key[:-1]).any():
        order = np.argsort(key, kind="stable")
        t, key = t.take(order), key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    for s, e in zip(starts.tolist(), ends.tolist()):
        yield t.slice(s, e - s)


def topk_rows(t: pa.Table, key: str, by: str, k: int, *, descending: bool,
              id_col: str, dedup: bool = False) -> pa.Table:
    """The k best rows of each `key` by `by` (largest first when
    `descending`), ties broken by ascending `id_col`, in that order. With
    `dedup`, each (key, id) first keeps only its best row."""
    q, ids = t[key].to_numpy(), t[id_col].to_numpy()
    v = t[by].to_numpy()
    v = -v if descending else v
    o = np.arange(len(q))
    if dedup:
        o = np.lexsort((v, ids, q))
        first = np.ones(len(o), bool)
        first[1:] = (q[o][1:] != q[o][:-1]) | (ids[o][1:] != ids[o][:-1])
        o = o[first]
    o = o[np.lexsort((ids[o], v[o], q[o]))]
    keep = np.arange(len(o)) - np.searchsorted(q[o], q[o]) < k
    return t.take(o[keep])
