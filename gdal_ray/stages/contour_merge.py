"""Distributed contour — iso-lines stitched across tile boundaries.

Reference: alg/contour.cpp runs one raster; SURVEY §2.10 plans the
distributed form as "per-tile marching squares + edge stitching, same
shuffle as polygonize". The stitch key here is an iso-line's CROSSING
POINT on a shared tile edge: a contour leaving tile A through its east
edge at parametric position t enters tile B's west edge at the same t
(marching squares interpolates the crossing from the same two pixel
values on both sides), so quantized (level, edge, position) triples
match exactly.

Tiles must be cut with a ONE-PIXEL OVERLAP column/row (tile covers
[x0-1, x1) of the global grid) so both tiles see the boundary cell;
`split_with_overlap` below produces that layout from a global grid and
the stitcher accounts for it.

The merge is `seams.stitch`: TileContour emits polyline pieces (level,
length, closed) and one boundary row per open end on a shared edge;
`contour_pairs` matches the ends; the component stats are summed per
(component, level).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core.contour import contour_lines
from .seams import pairs_table, piece_ids, stitch

_QUANT = 1e-6


def split_with_overlap(grid: np.ndarray, th: int, tw: int):
    """Global grid → tile rows with one shared sample column/row between
    horizontal/vertical neighbors (marching squares needs both boundary
    samples on each side)."""
    H, W = grid.shape
    rows = []
    ny = -(-(H - 1) // (th - 1))       # ceil: remainders get SMALLER
    nx = -(-(W - 1) // (tw - 1))       # tiles (never re-traced strips)
    for ty in range(ny):
        for tx in range(nx):
            y0 = ty * (th - 1)
            x0 = tx * (tw - 1)
            hh = min(th, H - y0)
            ww = min(tw, W - x0)
            if hh < 2 or ww < 2:       # only the shared row/col left
                continue
            sub = grid[y0:y0 + hh, x0:x0 + ww]
            rows.append({"tile_x": tx, "tile_y": ty,
                         "off_x": x0, "off_y": y0,
                         "h": hh, "w": ww,
                         "grid": np.ascontiguousarray(
                             sub, np.float64).tobytes()})
    return rows


class TileContour:
    """map_batches callable: tile rows → piece rows + endpoint rows."""

    def __init__(self, levels):
        self.levels = [float(v) for v in levels]

    def __call__(self, t: pa.Table) -> pa.Table:
        out = {"kind": [], "tile_x": [], "tile_y": [], "piece": [],
               "level": [], "length": [], "closed": [],
               "edge_key": [], "pos": []}
        for i in range(t.num_rows):
            tx = int(t["tile_x"][i].as_py())
            ty = int(t["tile_y"][i].as_py())
            ox = int(t["off_x"][i].as_py())
            oy = int(t["off_y"][i].as_py())
            h = int(t["h"][i].as_py())
            w = int(t["w"][i].as_py())
            grid = np.frombuffer(t["grid"][i].as_py(),
                                 np.float64).reshape(h, w)
            # piece ids are PER TILE (contour_lines order is
            # deterministic for a given grid), so a task retry or a
            # different batch composition assigns identical (tile, pid)
            # identities — required for the pairs↔pieces groupby match
            tile_pid = 0
            for level, line in contour_lines(grid, self.levels):
                # gt=None → tile-local PIXEL coords in [0, w-1]/[0, h-1];
                # global = local + tile offset
                gx = line[:, 0] + ox
                gy = line[:, 1] + oy
                seg = np.hypot(np.diff(gx), np.diff(gy)).sum()
                closed = bool(np.allclose(line[0], line[-1]))
                pid = tile_pid
                tile_pid += 1
                out["kind"].append("P")
                out["tile_x"].append(tx)
                out["tile_y"].append(ty)
                out["piece"].append(pid)
                out["level"].append(float(level))
                out["length"].append(float(seg))
                out["closed"].append(closed)
                out["edge_key"].append(0)
                out["pos"].append(0.0)
                if closed:
                    continue
                # open endpoints: which tile edge does each end sit on?
                for ex, ey in ((gx[0], gy[0]), (gx[-1], gy[-1])):
                    ek, pos = self._edge_of(ex, ey, tx, ty, ox, oy, h, w)
                    if ek is None:
                        continue
                    out["kind"].append("B")
                    out["tile_x"].append(tx)
                    out["tile_y"].append(ty)
                    out["piece"].append(pid)
                    out["level"].append(float(level))
                    out["length"].append(0.0)
                    out["closed"].append(False)
                    out["edge_key"].append(ek)
                    out["pos"].append(pos)
        return pa.table({
            "kind": pa.array(out["kind"], pa.string()),
            "tile_x": pa.array(out["tile_x"], pa.int64()),
            "tile_y": pa.array(out["tile_y"], pa.int64()),
            "piece": pa.array(out["piece"], pa.int64()),
            "level": pa.array(out["level"], pa.float64()),
            "length": pa.array(out["length"], pa.float64()),
            "closed": pa.array(out["closed"], pa.bool_()),
            "edge_key": pa.array(out["edge_key"], pa.int64()),
            "pos": pa.array(out["pos"], pa.float64()),
        })

    @staticmethod
    def _edge_of(gx, gy, tx, ty, ox, oy, h, w, tol=1e-9):
        """Global pixel coords → canonical shared-edge key + position
        along it; None for ends on the global border / interior.

        The tile lattice spans global columns [ox, ox+w-1]; the last
        column ox+w-1 is the overlap shared with tile tx+1."""
        M = (1 << 30) - 1
        # east edge (last sample column, shared with tile tx+1)
        if abs(gx - (ox + w - 1)) < tol:
            return (1 << 60) | ((tx & M) << 30) | (ty & M), gy
        # west edge (first column, shared with tile tx-1)
        if abs(gx - ox) < tol and tx > 0:
            return (1 << 60) | (((tx - 1) & M) << 30) | (ty & M), gy
        # south edge (last row)
        if abs(gy - (oy + h - 1)) < tol:
            return (2 << 60) | ((tx & M) << 30) | (ty & M), gx
        # north edge (first row)
        if abs(gy - oy) < tol and ty > 0:
            return (2 << 60) | ((tx & M) << 30) | (((ty - 1) & M)), gx
        return None, 0.0


def contour_pairs(t: pa.Table) -> pa.Table:
    """One exchange bucket of open ends → (a, b) piece-id pairs. Ends
    at the same (edge_key, level, quantized position) are one crossing;
    a crossing seen from two or more tiles joins all its ends (the
    pieces from different tiles pair up into one connected graph), so
    each end is paired with the first end of its run."""
    key = t["edge_key"].to_numpy()
    level = t["level"].to_numpy()
    q = np.round(t["pos"].to_numpy() / _QUANT).astype(np.int64)
    o = np.lexsort((q, level, key))
    key, level, q = key[o], level[o], q[o]
    pid = piece_ids(t, "piece")[o]
    tile = pid >> 20
    new = np.ones(len(o), bool)
    new[1:] = ((key[1:] != key[:-1]) | (level[1:] != level[:-1])
               | (q[1:] != q[:-1]))
    run = np.cumsum(new) - 1
    first = np.flatnonzero(new)[run]
    multi = np.bincount(run, weights=tile != tile[first]) > 0
    keep = multi[run] & ~new
    return pairs_table(pid[first][keep], pid[keep])


def distributed_contour(tiles_ds, levels, as_dataset: bool = False):
    """Tile dataset (from split_with_overlap) → per-contour-component
    stats (component, level, total_length, n_pieces, closed) as a
    pandas frame, or a ray Dataset when ``as_dataset=True``."""
    keys = ["component", "level"]
    agg_ds = stitch(
        tiles_ds, TileContour(levels), contour_pairs, "piece",
        partial=(keys, [("total_length", "length", "sum"),
                        ("n_pieces", "length", "count"),
                        ("closed", "closed", "all")]),
        final=(keys, [("total_length", "total_length", "sum"),
                      ("n_pieces", "n_pieces", "sum"),
                      ("closed", "closed", "all")]))
    if as_dataset:
        return agg_ds
    return agg_ds.to_pandas()
