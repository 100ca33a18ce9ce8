"""Spatial joins: cell-partitioned image×polygon join, point-in-polygon
join, kNN join — the flagship shuffles.

Semantics mirror OGR's spatial-filter evaluation
(reference: ogr/ogrsf_frmts/generic/ogrlayer.cpp:4005-4072): envelope
reject → rectangle-contains fast accept → exact Intersects; and the
layer-algebra candidate-pair pattern (ogrlayer.cpp:5386+).

Partitioning: both sides flat-map to covering quadkey cells at a join
zoom (with_cells: one merc.cover_envelopes call per block; a point
takes the cell of its tile, merc.point_cells) and meet in the group
exchange (stages/exchange.py, keyed on the cell); one Arrow kernel
per bucket expands every same-cell row pair at once (same_cell_pairs),
runs the envelope test, the PBSM reference-point dedup rule
(reference_cell) and the exact predicate on flat arrays.

Scale note: join zoom picks the partition granularity; higher zoom →
more, smaller cells (better balance, more duplication of large
polygons).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import geom, mercator as merc, wkb as wkb_mod
from ..sources.vector import ENVELOPE
from .exchange import bucket_groups, split_sides, topk_rows
# importable from here too: the benchmark's join layer metrics use them
from .exchange import N_JOIN_BUCKETS, salted_bucket  # noqa: F401


def _cover_cells_batch(batch: pa.Table, zoom: int,
                       keep: list[str]) -> pa.Table:
    """Envelope columns → one output row per covering cell (flat-map)."""
    row, cells = merc.cover_envelopes(*(batch[c].to_numpy() for c in ENVELOPE),
                                      zoom, max_cells=65536)
    taken = batch.select(keep).take(pa.array(row))
    return taken.append_column("cell", pa.array(cells, pa.uint64()))


def with_cells(ds, zoom: int, keep: list[str]):
    """Dataset with envelope cols → flat-mapped (cell, keep...) rows."""
    def cover_cells(b: pa.Table) -> pa.Table:
        return _cover_cells_batch(b, zoom, keep)

    return ds.map_batches(cover_cells, batch_format="pyarrow")


def reference_cell(minx_a, miny_a, minx_b, miny_b, zoom: int):
    """Cell of the envelope-intersection bottom-left reference point
    (PBSM dedup rule). Vectorized.

    The same +eps nudge as merc.cover_envelopes: a reference point landing
    exactly on a tile boundary must resolve to the same cell that the
    envelope cover listed, or the pair is silently dropped.

    Known boundary-semantics limit: two envelopes that TOUCH exactly on
    a tile boundary (zero-width intersection aligned with the grid)
    have no common cell in the two covers and the pair is not emitted;
    OGC Intersects is true for touching geometries, but the
    intersection has measure zero and every area-based consumer
    (zonal, layer_intersection with min_area) is unaffected."""
    eps = merc.resolution(zoom) * 1e-6
    return merc.point_cells(np.maximum(minx_a, minx_b) + eps,
                            np.maximum(miny_a, miny_b) + eps, zoom)


def same_cell_pairs(a_cells: np.ndarray, b_cells: np.ndarray):
    """Every (i, j) with a_cells[i] == b_cells[j], as two index arrays:
    one stable argsort of b and two searchsorted passes. i ascends, and
    within one i the j follow b's stable sort order."""
    order = np.argsort(b_cells, kind="stable")
    sb = b_cells[order]
    lo = np.searchsorted(sb, a_cells, side="left")
    n = np.searchsorted(sb, a_cells, side="right") - lo
    i = np.repeat(np.arange(len(a_cells)), n)
    run0 = np.repeat(np.cumsum(n) - n, n)
    j = order[np.repeat(lo, n) + np.arange(len(i)) - run0]
    return i, j


def _envelopes(t: pa.Table) -> np.ndarray:
    return np.column_stack([t[c].to_numpy() for c in ENVELOPE])


def overlap_pairs(a: pa.Table, b: pa.Table):
    """Same-cell (i, j) row pairs of two sides whose envelopes overlap,
    with both sides' envelope arrays; i ascends."""
    i, j = same_cell_pairs(a["cell"].to_numpy(), b["cell"].to_numpy())
    ea, eb = _envelopes(a), _envelopes(b)
    ok = ((ea[i, 0] <= eb[j, 2]) & (eb[j, 0] <= ea[i, 2])
          & (ea[i, 1] <= eb[j, 3]) & (eb[j, 1] <= ea[i, 3]))
    return i[ok], j[ok], ea, eb


def _by_polygon(keys: np.ndarray):
    """Runs of a pair list that share one polygon key: yields the pair
    positions of each run, ascending, one run per distinct key."""
    if not len(keys):
        return
    order = np.argsort(keys, kind="stable")
    yield from np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


PREDICATES = ("intersects", "contains")


class SpatialJoinCell:
    """Bucket kernel: images (side I, axis-aligned footprint boxes) ×
    polygons (side P, WKB) of every cell in one salted bucket → matched
    (image_id, fid, name, category) pairs."""

    def __init__(self, zoom: int, predicate: str = "intersects"):
        if predicate not in PREDICATES:
            raise ValueError(f"predicate must be one of {PREDICATES}, "
                             f"got {predicate!r}")
        self.zoom = zoom
        self.predicate = predicate
        self._geom_cache: dict[int, object] = {}

    def _poly(self, fid: int, wkb_bytes: bytes):
        g = self._geom_cache.get(fid)
        if g is None:
            g = wkb_mod.loads(wkb_bytes)
            if len(self._geom_cache) > 4096:
                self._geom_cache.clear()
            self._geom_cache[fid] = g
        return g

    def __call__(self, t: pa.Table) -> pa.Table:
        imgs, polys = split_sides(t, "I", "P")
        i, j, ia, pe = overlap_pairs(imgs, polys)
        # PBSM reference-point dedup: keep a pair only in its own cell
        cells = imgs["cell"].to_numpy()
        own = reference_cell(ia[i, 0], ia[i, 1], pe[j, 0], pe[j, 1],
                             self.zoom) == cells[i]
        i, j = i[own], j[own]
        fids = polys["fid"].to_numpy()
        wkbs = polys["wkb"]
        hit = np.zeros(len(i), bool)
        # the exact predicate once per polygon over all of its candidate
        # image boxes (image footprints are axis-aligned)
        for run in _by_polygon(fids[j]):
            p = int(j[run[0]])
            poly = self._poly(int(fids[p]), wkbs[p].as_py())
            b = ia[i[run]]
            if self.predicate == "contains":  # polygon contains image
                hit[run] = [geom.contains(poly, wkb_mod.box(*e)) for e in b]
            elif _is_rect(poly):
                # a rectangle IS its envelope: the envelope overlap
                # prefilter already decided (ogrlayer.cpp:4039-4042)
                hit[run] = True
            else:
                hit[run] = geom.boxes_intersect_polygon(
                    b[:, 0], b[:, 1], b[:, 2], b[:, 3], poly)
        i, j = pa.array(i[hit]), pa.array(j[hit])
        return pa.table({"image_id": imgs["image_id"].take(i),
                         "fid": polys["fid"].take(j),
                         "name": polys["name"].take(j),
                         "category": polys["category"].take(j)})


def _is_rect(g) -> bool:
    if g.geom_type != wkb_mod.POLYGON or len(g.rings) != 1:
        return False
    r = g.rings[0]
    if len(r) != 5:
        return False
    xs, ys = set(r[:, 0].tolist()), set(r[:, 1].tolist())
    return len(xs) == 2 and len(ys) == 2


PAIR_COLS = ["cell", "side", "image_id", "fid", "wkb",
             "minx", "miny", "maxx", "maxy", "name", "category"]


def _polygon_side(polygons, zoom: int, id_type: pa.DataType):
    """T2 polygons → the P side of an image or point join, PAIR_COLS."""
    pols = with_cells(polygons, zoom, ["fid", "wkb", "minx", "miny", "maxx",
                                       "maxy", "name", "category"])
    def polygon_rows(b: pa.Table) -> pa.Table:
        return (b.append_column("side", pa.array(["P"] * b.num_rows))
                .append_column("image_id", pa.nulls(b.num_rows, id_type)))

    return pols.map_batches(polygon_rows, batch_format="pyarrow") \
        .select_columns(PAIR_COLS)


def spatial_join(images_geo, polygons, zoom: int = 7,
                 predicate: str = "intersects"):
    """images (georef'd) × polygons → (image_id, fid, name, category).

    Inner spatial join on footprint-intersects-polygon. Both inputs are
    Datasets; images_geo must already carry envelope columns (georef
    stage), polygons the T2 schema."""
    joiner = SpatialJoinCell(zoom, predicate)
    imgs = with_cells(images_geo, zoom, ["image_id", "minx", "miny", "maxx", "maxy"])

    def image_rows(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return (b.append_column("side", pa.array(["I"] * n))
                .append_column("fid", pa.nulls(n, pa.int64()))
                .append_column("wkb", pa.nulls(n, pa.binary()))
                .append_column("name", pa.nulls(n, pa.string()))
                .append_column("category", pa.nulls(n, pa.string())))

    imgs = imgs.map_batches(image_rows, batch_format="pyarrow")

    def join_cell_group(t: pa.Table) -> pa.Table:
        return joiner(t)

    both = imgs.select_columns(PAIR_COLS).union(
        _polygon_side(polygons, zoom, pa.string()))
    return bucket_groups(both, join_cell_group)


# ---------------------------------------------------------------------------
# point-in-polygon join
# ---------------------------------------------------------------------------

EMITS = ("inner", "semi", "anti")


class PiPJoinCell:
    """Bucket kernel for point-in-polygon: points are in exactly one
    cell, so no pair dedup is needed (polygons are the duplicated side)."""

    def __init__(self, emit: str = "inner"):
        if emit not in EMITS:
            raise ValueError(f"emit must be one of {EMITS}, got {emit!r}")
        self.emit = emit

    def __call__(self, t: pa.Table) -> pa.Table:
        pts, polys = split_sides(t, "I", "P")
        i, j, ep, _ = overlap_pairs(pts, polys)
        px, py = ep[:, 0], ep[:, 1]  # for points minx==maxx==x
        fids = polys["fid"].to_numpy()
        inside = np.zeros(len(i), bool)
        for run in _by_polygon(fids[j]):
            g = wkb_mod.loads(polys["wkb"][int(j[run[0]])].as_py())
            inside[run] = geom.points_in_polygon(px[i[run]], py[i[run]], g)
        pt_fid = pts["image_id"].cast(pa.int64())
        if self.emit == "inner":
            i, j = pa.array(i[inside]), pa.array(j[inside])
            return pa.table({"pt_fid": pt_fid.take(i),
                             "fid": polys["fid"].take(j),
                             "name": polys["name"].take(j),
                             "category": polys["category"].take(j)})
        matched = np.zeros(pts.num_rows, bool)
        matched[i[inside]] = True
        sel = np.flatnonzero(matched if self.emit == "semi" else ~matched)
        return pa.table({"pt_fid": pt_fid.take(pa.array(sel)),
                         "fid": pa.array(np.full(len(sel), -1), pa.int64()),
                         "name": pa.nulls(len(sel), pa.string()),
                         "category": pa.nulls(len(sel), pa.string())})


def pip_join(points, polygons, zoom: int = 7, emit: str = "inner"):
    """points (T3 schema) × polygons (T2) → point-in-polygon pairs.

    emit='inner' returns one row per (point, containing polygon);
    'semi'/'anti' return points with/without any container."""
    pip = PiPJoinCell(emit)

    def pts_prep(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy(); y = b["y"].to_numpy()
        cells = merc.point_cells(x, y, zoom)
        return pa.table({
            "cell": pa.array(cells, pa.uint64()),
            "side": pa.array(["I"] * b.num_rows),
            "image_id": b["fid"],  # point fid rides in the image_id slot
            "fid": pa.nulls(b.num_rows, pa.int64()),
            "wkb": pa.nulls(b.num_rows, pa.binary()),
            "minx": pa.array(x), "miny": pa.array(y),
            "maxx": pa.array(x), "maxy": pa.array(y),
            "name": pa.nulls(b.num_rows, pa.string()),
            "category": pa.nulls(b.num_rows, pa.string()),
        })

    def pip_cell_group(t: pa.Table) -> pa.Table:
        return pip(t)

    both = points.map_batches(pts_prep, batch_format="pyarrow") \
        .select_columns(PAIR_COLS) \
        .union(_polygon_side(polygons, zoom, pa.int64()))
    return bucket_groups(both, pip_cell_group)


# ---------------------------------------------------------------------------
# kNN join
# ---------------------------------------------------------------------------

class KnnCell:
    """Bucket kernel for brute-force kNN candidates: queries were
    flat-mapped to their cell + ring-1 halo, so every data point within
    one cell radius is a candidate. Emits (qid, fid, dist) candidates, the
    k nearest per query row; a global groupby(qid) top-k merge finishes
    the join.

    Partitioning assumption (documented per SURVEY §2.4): the true kth
    neighbor lies within the 3×3 cell halo — choose the join zoom so a
    cell is ≥ the expected kth-neighbor radius."""

    def __init__(self, k: int):
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        qs, ps = split_sides(t, "Q", "P")
        i, j = same_cell_pairs(qs["cell"].to_numpy(), ps["cell"].to_numpy())
        d2 = ((qs["x"].to_numpy()[i] - ps["x"].to_numpy()[j]) ** 2
              + (qs["y"].to_numpy()[i] - ps["y"].to_numpy()[j]) ** 2)
        # the k smallest d2 of each query row: sort by (row, d2), then
        # keep the first k of each run of equal rows
        order = np.lexsort((d2, i))
        i, j, d2 = i[order], j[order], d2[order]
        keep = np.arange(len(i)) - np.searchsorted(i, i) < self.k
        return pa.table({
            "qid": qs["qid"].take(pa.array(i[keep])).cast(pa.int64()),
            "fid": ps["fid"].take(pa.array(j[keep])).cast(pa.int64()),
            "dist": pa.array(np.sqrt(d2[keep]), pa.float64())})


def knn_join(points, queries, k: int = 3, zoom: int = 6):
    """For each query point: k nearest data points (euclidean in 3857).

    points/queries: Datasets with fid/x/y columns. Returns
    (qid, fid, dist) rows, k per query. Candidates are generated
    per-cell with a ring-1 halo and merged with a groupby(qid) top-k."""
    def pts_prep(b: pa.Table) -> pa.Table:
        cells = merc.point_cells(b["x"].to_numpy(), b["y"].to_numpy(), zoom)
        return pa.table({
            "cell": pa.array(cells, pa.uint64()),
            "side": pa.array(["P"] * b.num_rows),
            "qid": pa.nulls(b.num_rows, pa.int64()),
            "fid": b["fid"], "x": b["x"], "y": b["y"],
        })

    def q_prep(b: pa.Table) -> pa.Table:
        # flat-map each query into its 3×3 cell neighborhood —
        # fully vectorized: repeat each query 9×, tile the offsets,
        # mask the out-of-grid neighbors
        x = b["x"].to_numpy(); y = b["y"].to_numpy()
        fid = b["fid"].to_numpy()
        nq = len(x)
        n = 2**zoom
        tx, ty = merc.point_tiles(x, y, zoom)
        # the neighbours in TMS order (south first): y_xyz grows
        # southward, so its offsets are the TMS ones negated
        dx = np.tile(np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1]), nq)
        dy = np.tile(np.array([1, 0, -1, 1, 0, -1, 1, 0, -1]), nq)
        cx = np.repeat(tx, 9) + dx
        cy = np.repeat(ty, 9) + dy
        ok = (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
        cells = merc.cell_id(zoom, cx[ok], cy[ok])
        m = int(ok.sum())
        return pa.table({
            "cell": pa.array(cells, pa.uint64()),
            "side": pa.array(np.full(m, "Q"), pa.string()),
            "qid": pa.array(np.repeat(fid, 9)[ok].astype(np.int64), pa.int64()),
            "fid": pa.nulls(m, pa.int64()),
            "x": pa.array(np.repeat(x, 9)[ok], pa.float64()),
            "y": pa.array(np.repeat(y, 9)[ok], pa.float64()),
        })

    pts = points.map_batches(pts_prep, batch_format="pyarrow")
    qs = queries.map_batches(q_prep, batch_format="pyarrow")
    cols = ["cell", "side", "qid", "fid", "x", "y"]
    both = pts.select_columns(cols).union(qs.select_columns(cols))
    knn = KnnCell(k)

    def knn_cell_group(t: pa.Table) -> pa.Table:
        return knn(t)

    cands = bucket_groups(both, knn_cell_group)

    # final top-k per query, exchanged by qid: a point reached from
    # several halo cells keeps its smallest dist
    def topk_group(t: pa.Table) -> pa.Table:
        return topk_rows(t.select(["qid", "fid", "dist"]), "qid", "dist", k,
                         descending=False, id_col="fid", dedup=True)

    return bucket_groups(cands, topk_group, key="qid")
