"""Distributed polygonize — connected components across tile boundaries.

Reference: alg/polygonize.cpp runs single-image; SURVEY §2.10 marks the
distributed version's hard part as "groupby(value) boundary-merge of
polygons touching tile edges". The merge is `seams.stitch`:

  1. per tile (TilePolygonize, vectorized): label the components of the
     tile's grid, count their pixels, and emit the runs each component
     exposes on the tile's four edges, keyed by SHARED edge (the edge
     between tiles (x,y) and (x+1,y) is one key, owned by the left
     tile), plus, for 8-connectivity, the four corner pixels keyed by
     corner point;
  2. `polygonize_pairs` matches the runs that meet on one edge (same
     value, overlapping pixel intervals) into (tile,label) pairs;
  3. the stitched component stats are summed per (component, value).

Geometry stays as per-tile pieces (exact as a region, like
intersection_pieces); the stitched statistics (area, extent, piece
count) are what the cross-tile merge adds. Pixels never cross a
shuffle; edge runs are (value, interval) integers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.rastervec import label_components
from .exchange import split_sides
from .join import same_cell_pairs
from .seams import pairs_table, piece_ids, stitch


def tile_pieces_and_edges(tile_id: int, grid: np.ndarray,
                          connectedness: int = 4):
    """One tile's grid → (pieces rows, edge-run rows).

    pieces: (tile_id, label, value, n_px)
    edges:  (side ∈ {N,S,W,E}, label, value, start, end) — run intervals
    in tile-local pixel indices along that edge."""
    labels = label_components(grid, connectedness)
    n = int(labels.max()) + 1
    counts = np.bincount(labels.ravel(), minlength=n)
    # representative value per label = value at its first pixel
    flat_lab = labels.ravel()
    first_idx = np.zeros(n, np.int64)
    uniq, first = np.unique(flat_lab, return_index=True)
    first_idx[uniq] = first
    values = grid.ravel()[first_idx]

    pieces = {"tile_id": np.full(n, tile_id, np.int64),
              "label": np.arange(n, dtype=np.int64),
              "value": values.astype(np.int64),
              "n_px": counts.astype(np.int64)}

    def runs(line_labels: np.ndarray, line_values: np.ndarray):
        """Consecutive equal-label runs along one edge line."""
        m = len(line_labels)
        if m == 0:
            return []
        brk = np.flatnonzero(np.diff(line_labels)) + 1
        starts = np.concatenate([[0], brk])
        ends = np.concatenate([brk, [m]])
        return [(int(line_labels[s]), int(line_values[s]), int(s), int(e))
                for s, e in zip(starts, ends)]

    edges = []
    for side, lab_line, val_line in (
            ("N", labels[0], grid[0]), ("S", labels[-1], grid[-1]),
            ("W", labels[:, 0], grid[:, 0]), ("E", labels[:, -1], grid[:, -1])):
        for lab, val, s, e in runs(lab_line, val_line):
            edges.append((side, lab, val, s, e))
    # corner pixels (NW, NE, SW, SE) for the 8-connect point-adjacency
    corners = ([int(labels[0, 0]), int(labels[0, -1]),
                int(labels[-1, 0]), int(labels[-1, -1])],
               [int(grid[0, 0]), int(grid[0, -1]),
                int(grid[-1, 0]), int(grid[-1, -1])])
    return pieces, edges, corners


class TilePolygonize:
    """map_batches callable: tile rows (tile_x, tile_y, grid bytes +
    shape) → union of piece rows and edge-run rows (side-tagged)."""

    def __init__(self, connectedness: int = 4):
        self.conn = connectedness

    def __call__(self, t: pa.Table) -> pa.Table:
        # outer loop is over TILES (few, fat rows — each is a whole
        # grid); all per-piece / per-edge emission is numpy-vectorized
        pp, ee, cc = [], [], []  # per-tile (tx, ty, pieces) / edges / corners
        for i in range(t.num_rows):
            tx = int(t["tile_x"][i].as_py())
            ty = int(t["tile_y"][i].as_py())
            h = int(t["h"][i].as_py())
            w = int(t["w"][i].as_py())
            grid = np.frombuffer(t["grid"][i].as_py(),
                                 np.int64).reshape(h, w)
            tile_id = (tx << 32) | ty
            pieces, edges, corners = tile_pieces_and_edges(
                tile_id, grid, self.conn)
            pp.append((tx, ty, pieces))
            cc.append((tx, ty) + corners)
            if edges:
                side, lab, val, s, e = zip(*edges)
                ee.append((tx, ty, np.array(side), np.asarray(lab, np.int64),
                           np.asarray(val, np.int64),
                           np.asarray(s, np.int64), np.asarray(e, np.int64)))

        def full(vals, n):
            return np.concatenate([np.full(k, v, np.int64)
                                   for v, k in zip(vals, n)]) \
                if n else np.empty(0, np.int64)

        np_per = [len(p["label"]) for _, _, p in pp]
        p_tx = full([tx for tx, _, _ in pp], np_per)
        p_ty = full([ty for _, ty, _ in pp], np_per)
        p_lab = np.concatenate([p["label"] for _, _, p in pp]) \
            if pp else np.empty(0, np.int64)
        p_val = np.concatenate([p["value"] for _, _, p in pp]) \
            if pp else np.empty(0, np.int64)
        p_npx = np.concatenate([p["n_px"] for _, _, p in pp]) \
            if pp else np.empty(0, np.int64)
        n_p = len(p_lab)

        ne_per = [len(x[3]) for x in ee]
        e_tx = full([x[0] for x in ee], ne_per)
        e_ty = full([x[1] for x in ee], ne_per)
        if ee:
            e_side = np.concatenate([x[2] for x in ee])
            e_lab = np.concatenate([x[3] for x in ee])
            e_val = np.concatenate([x[4] for x in ee])
            e_s = np.concatenate([x[5] for x in ee])
            e_e = np.concatenate([x[6] for x in ee])
        else:
            e_side = np.empty(0, "U1")
            e_lab = e_val = e_s = e_e = np.empty(0, np.int64)
        # shared-edge canonical key, owned by the W/N tile: vertical
        # edge between (tx-1,ty)|(tx,ty), horizontal (tx,ty-1)|(tx,ty)
        M = np.int64((1 << 30) - 1)    # 30-bit tile coords (z ≤ 30)
        kx = np.where(e_side == "W", e_tx - 1, e_tx) & M
        ky = np.where(e_side == "N", e_ty - 1, e_ty) & M
        vert = (e_side == "W") | (e_side == "E")
        e_key = (np.where(vert, np.int64(1) << 60, np.int64(2) << 60)
                 | (kx << 30) | ky)

        if self.conn == 8 and pp:
            # corner records: 8-connect components can also meet
            # diagonally at a point shared by FOUR tiles — an
            # adjacency on no shared edge. Emit each tile's 4 corner
            # pixels keyed by the corner POINT (tile (tx,ty) spans
            # points [tx,tx+1]x[ty,ty+1]); the match rule pairs the
            # two diagonals (SE<->NW, SW<->NE).
            c_tx, c_ty, c_side, c_lab, c_val, c_px, c_py = \
                [], [], [], [], [], [], []
            for (tx, ty, _), (_, _, la, va) in zip(pp, cc):
                for name, lb, vv, dx, dy in (
                        ("NW", la[0], va[0], 0, 0),
                        ("NE", la[1], va[1], 1, 0),
                        ("SW", la[2], va[2], 0, 1),
                        ("SE", la[3], va[3], 1, 1)):
                    c_tx.append(tx)
                    c_ty.append(ty)
                    c_side.append(name)
                    c_lab.append(lb)
                    c_val.append(vv)
                    c_px.append(tx + dx)
                    c_py.append(ty + dy)
            c_key = ((np.int64(3) << 60)
                     | ((np.asarray(c_px, np.int64) & M) << 30)
                     | (np.asarray(c_py, np.int64) & M))
            e_tx = np.concatenate([e_tx, np.asarray(c_tx, np.int64)])
            e_ty = np.concatenate([e_ty, np.asarray(c_ty, np.int64)])
            e_side = np.concatenate([e_side.astype("U2"),
                                     np.asarray(c_side)])
            e_lab = np.concatenate([e_lab,
                                    np.asarray(c_lab, np.int64)])
            e_val = np.concatenate([e_val,
                                    np.asarray(c_val, np.int64)])
            e_s = np.concatenate([e_s, np.zeros(len(c_tx), np.int64)])
            e_e = np.concatenate([e_e, np.zeros(len(c_tx), np.int64)])
            e_key = np.concatenate([e_key, c_key])
        n_e = len(e_lab)

        z = np.zeros
        return pa.table({
            "kind": pa.array(np.concatenate([np.full(n_p, "P"),
                                             np.full(n_e, "B")]), pa.string()),
            "tile_x": pa.array(np.concatenate([p_tx, e_tx]), pa.int64()),
            "tile_y": pa.array(np.concatenate([p_ty, e_ty]), pa.int64()),
            "label": pa.array(np.concatenate([p_lab, e_lab]), pa.int64()),
            "value": pa.array(np.concatenate([p_val, e_val]), pa.int64()),
            "n_px": pa.array(np.concatenate([p_npx, z(n_e, np.int64)]),
                             pa.int64()),
            "side": pa.array(np.concatenate([np.full(n_p, ""), e_side]),
                             pa.string()),
            "start": pa.array(np.concatenate([z(n_p, np.int64), e_s]),
                              pa.int64()),
            "end": pa.array(np.concatenate([z(n_p, np.int64), e_e]),
                            pa.int64()),
            "edge_key": pa.array(np.concatenate([z(n_p, np.int64), e_key]),
                                 pa.int64()),
        })


def polygonize_pairs(t: pa.Table, conn: int) -> pa.Table:
    """One exchange bucket of edge runs → (a, b) piece-id pairs (same
    edge, same value, interval overlap, opposite sides). With ``conn=8``
    the overlap test widens by one pixel (diagonal adjacency along the
    edge), and corner-point records pair the two tile diagonals
    (SE<->NW, SW<->NE)."""
    # the two sides of a vertical edge are E (left tile) and W (right
    # tile); of a horizontal edge S (upper) and N (lower); corner
    # points (conn=8) pair the diagonally-opposite tiles
    sides = [("E", "W"), ("S", "N")]
    if conn == 8:
        sides += [("SE", "NW"), ("SW", "NE")]
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for sa, sb in sides:
        A, B = split_sides(t, sa, sb)
        i, j = same_cell_pairs(A["edge_key"].to_numpy(),
                               B["edge_key"].to_numpy())
        ov = A["value"].to_numpy()[i] == B["value"].to_numpy()[j]
        # corner points are single pixels: a value match suffices; runs
        # must also overlap on [start, end), or touch at conn=8
        if sa not in ("SE", "SW"):
            as_, ae = A["start"].to_numpy()[i], A["end"].to_numpy()[i]
            bs, be = B["start"].to_numpy()[j], B["end"].to_numpy()[j]
            if conn == 8:
                ov &= (as_ <= be) & (bs <= ae)
            else:
                ov &= (as_ < be) & (bs < ae)
        out_a.append(piece_ids(A, "label")[i[ov]])
        out_b.append(piece_ids(B, "label")[j[ov]])
    return pairs_table(np.concatenate(out_a), np.concatenate(out_b))


def distributed_polygonize(tiles_ds, connectedness: int = 4,
                           as_dataset: bool = False):
    """Tile dataset (tile_x, tile_y, h, w, grid: int64 bytes) →
    per-component stats (component, value, total_px, n_pieces, n_tiles)
    as a pandas frame, or a ray Dataset when ``as_dataset=True``.

    Components are stitched across tile boundaries exactly; verified
    against single-grid polygonize in tests. 8-connectivity
    (GDAL's -8 polygonize option) widens the edge-run overlap test by
    one pixel and adds corner-point records for the diagonal
    adjacency at points shared by four tiles."""
    if connectedness not in (4, 8):
        raise ValueError("connectedness must be 4 or 8")
    agg_ds = stitch(
        tiles_ds, TilePolygonize(connectedness),
        lambda t: polygonize_pairs(t, connectedness), "label",
        partial=(["component", "value", "tile"],
                 [("total_px", "n_px", "sum"), ("n_pieces", "n_px", "count")]),
        final=(["component", "value"],
               [("total_px", "total_px", "sum"),
                ("n_pieces", "n_pieces", "sum"),
                ("n_tiles", "tile", "count_distinct")]))
    if as_dataset:
        return agg_ds
    # per-component stats ARE the result: bounded by component count
    return agg_ds.to_pandas()
