"""Distributed seam stitching: one kernel for every cross-tile merge.

SURVEY §2.10's distributed contour and distributed polygonize share one
shape. Each tile yields pieces (``kind == 'P'``) and boundary records
(``kind == 'B'``) keyed by the shared tile edge they sit on
(``edge_key``), and pieces that meet across an edge form one component.
`stitch` runs that shape once:

  1. the per-tile map, materialized and coalesced to
     ceil(size_bytes / target_max_block_size) blocks, so both exchanges
     are as wide as the data is large, not as the caller's block count
     (a sort shuffle has one partition per input block);
  2. boundary records exchanged by ``edge_key`` (exchange.bucket_groups); the
     caller's match kernel turns one bucket into (a, b) piece-id pairs;
  3. a driver-side numpy union-find over the pairs, which are few (one
     per boundary crossing, not per pixel); a component's id is its
     smallest piece id, so ids depend on neither pair nor block order;
  4. the root map is broadcast, each batch of pieces takes its component
     and an Arrow group_by partial, and a group_by after an exchange by
     component gives one row per component.

Pixels and polylines never cross an exchange; only boundary records,
pairs and per-component partials do.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from .exchange import bucket_groups


def piece_ids(t: pa.Table, piece: str) -> np.ndarray:
    """(tile_x, tile_y, tile-local piece) packed 20 bits each into one
    int64: fits z<=20 tile grids and up to 2^20 pieces per tile."""
    return (((t["tile_x"].to_numpy().astype(np.int64) << 20)
             | t["tile_y"].to_numpy()) << 20) | t[piece].to_numpy()


def pairs_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Match-kernel output: (a, b) int64 piece-id pairs, even when
    empty, so every block of the pair exchange carries the schema."""
    return pa.table({"a": pa.array(a, pa.int64()),
                     "b": pa.array(b, pa.int64())})


def map_int64(pid: np.ndarray, table: dict) -> np.ndarray:
    """Map int64 ids through ``table`` (missing → identity) WITHOUT a
    float64 round-trip: packed piece ids use bits 40-59 for tile
    coords, so ids exceed 2^53 at tile_x/y >= 2^13 and pandas'
    map().fillna() (which promotes to float64 on any miss) would
    silently round them. Vectorized via searchsorted on the (small,
    boundary-only) mapping table."""
    out = pid.astype(np.int64, copy=True)
    if not table:
        return out
    keys = np.fromiter(table.keys(), np.int64, len(table))
    vals = np.fromiter(table.values(), np.int64, len(table))
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    idx = np.searchsorted(keys, out)
    idx_c = np.minimum(idx, len(keys) - 1)
    hit = keys[idx_c] == out
    out[hit] = vals[idx_c[hit]]
    return out


def union_find(a: np.ndarray, b: np.ndarray):
    """Connected components of the graph with edges (a[i], b[i]) →
    (ids, roots): every id that occurs, ascending, and its component's
    smallest id. Min-hooking plus pointer jumping over np.unique
    indices: a root only ever points to a smaller index, so the final
    root of a component is its smallest member."""
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[:len(a)], inv[len(a):]
    parent = np.arange(len(ids))
    while True:
        ra, rb = parent[ia], parent[ib]
        if (ra == rb).all():
            return ids, ids[parent]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up


def aggregate(t: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Arrow group_by: the ``keys`` columns, then one ``out`` column per
    ``(out, column, function)`` in ``aggs``."""
    g = t.group_by(keys, use_threads=False).aggregate(
        [(c, f) for _, c, f in aggs])
    return pa.table([g[k] for k in keys] + [g[f"{c}_{f}"] for _, c, f in aggs],
                    names=keys + [out for out, _, _ in aggs])


def stitch(tiles_ds, tile_map, match, piece: str, partial, final):
    """Tile dataset → one row per stitched component (a ray Dataset).

    ``tile_map``: map_batches callable, tile rows → piece and boundary
    rows, each with tile_x, tile_y, the tile-local ``piece`` id column
    and kind; boundary rows also carry edge_key. ``match``: one exchange
    bucket of boundary rows → `pairs_table`. ``partial`` and ``final``
    are ``(keys, aggs)`` for `aggregate`: the partial runs per batch of
    pieces, which carry two added columns, ``component`` and ``tile``
    (the tile part of the piece id); the final runs per component bucket over
    the partials."""
    import ray
    from ray.data import DataContext

    parts = tiles_ds.map_batches(tile_map, batch_format="pyarrow") \
        .materialize()
    n = math.ceil(parts.size_bytes()
                  / DataContext.get_current().target_max_block_size)
    parts = parts.repartition(max(n, 1)).materialize()
    pieces = parts.filter(expr="kind == 'P'")
    bounds = parts.filter(expr="kind == 'B'")

    def seam_match_group(t: pa.Table) -> pa.Table:
        return match(t)

    pairs = pa.concat_tables([pairs_table([], [])] + list(
        bucket_groups(bounds, seam_match_group, key="edge_key")
        .iter_batches(batch_format="pyarrow", batch_size=None)))
    ids, roots = union_find(pairs["a"].to_numpy(), pairs["b"].to_numpy())
    ref = ray.put(dict(zip(ids.tolist(), roots.tolist())))

    def assign_partial(t: pa.Table) -> pa.Table:
        pid = piece_ids(t, piece)
        t = t.append_column("component", pa.array(
            map_int64(pid, ray.get(ref)), pa.int64())) \
            .append_column("tile", pa.array(pid >> 20, pa.int64()))
        return aggregate(t, *partial)

    def seam_final_group(t: pa.Table) -> pa.Table:
        return aggregate(t, *final)

    return bucket_groups(
        pieces.map_batches(assign_partial, batch_format="pyarrow"),
        seam_final_group, key="component")
