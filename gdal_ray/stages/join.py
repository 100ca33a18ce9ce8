"""Spatial joins: cell-partitioned image×polygon join, point-in-polygon
join, kNN join — the flagship shuffles.

Semantics mirror OGR's spatial-filter evaluation
(reference: ogr/ogrsf_frmts/generic/ogrlayer.cpp:4005-4072): envelope
reject → rectangle-contains fast accept → exact Intersects; and the
layer-algebra candidate-pair pattern (ogrlayer.cpp:5386+).

Partitioning: both sides flat-map to covering quadkey cells at a join
zoom, and each row takes the salted shuffle bucket of its cell
(salted_bucket), so one groupby(bucket) co-partitions candidates. A
bucket holds any number of cells; one Arrow kernel per bucket splits it
into its two sides, expands every same-cell row pair at once
(same_cell_pairs), runs the envelope test, the dedup rule and the exact
predicate on flat arrays, and takes the output columns with Arrow.
Pairs whose geometries span several cells are deduplicated with the
PBSM *reference-point* rule — a pair is emitted only from the cell that
contains the bottom-left corner of the envelope intersection — so no
second dedup shuffle is needed.

Scale note: join zoom picks the partition granularity; higher zoom →
more, smaller cells (better balance, more duplication of large
polygons). Hot cells can additionally be handled by broadcasting the
small side (ray.put) when |polygons| is small — see
broadcast_spatial_filter below, the semi-join fast path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import geom, mercator as merc, wkb as wkb_mod


N_JOIN_BUCKETS = 128


def salted_bucket(batch: pa.Table, key: str,
                  n_buckets: int = N_JOIN_BUCKETS) -> pa.Table:
    """Append a Fibonacci-hashed shuffle bucket for `key` — the shared
    salt-bucket recipe (all rows of a key share its bucket; hot/adjacent
    keys spread): used by every join/render shuffle."""
    k = batch[key].to_numpy().astype(np.uint64)
    b = ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)) \
        % np.uint64(n_buckets)
    return batch.append_column("bucket", pa.array(b.astype(np.int64),
                                                  pa.int64()))


def _cover_cells_batch(batch: pa.Table, zoom: int, keep: list[str],
                       max_cells: int = 65536) -> pa.Table:
    """Envelope columns → one output row per covering cell (flat-map)."""
    minx = batch["minx"].to_numpy(); miny = batch["miny"].to_numpy()
    maxx = batch["maxx"].to_numpy(); maxy = batch["maxy"].to_numpy()
    cells_out, idx_out = [], []
    for i in range(batch.num_rows):
        cells = merc.cells_for_envelope(minx[i], miny[i], maxx[i], maxy[i],
                                        zoom, max_cells=max_cells)
        cells_out.append(cells)
        idx_out.append(np.full(len(cells), i, dtype=np.int64))
    if cells_out:
        cells_all = np.concatenate(cells_out)
        idx_all = np.concatenate(idx_out)
    else:
        cells_all = np.empty(0, dtype=np.uint64)
        idx_all = np.empty(0, dtype=np.int64)
    taken = batch.select(keep).take(pa.array(idx_all))
    return taken.append_column("cell", pa.array(cells_all, pa.uint64()))


def with_cells(ds, zoom: int, keep: list[str]):
    """Dataset with envelope cols → flat-mapped (cell, keep...) rows."""
    return ds.map_batches(lambda b: _cover_cells_batch(b, zoom, keep),
                          batch_format="pyarrow")


def reference_cell(minx_a, miny_a, minx_b, miny_b, zoom: int):
    """Cell of the envelope-intersection bottom-left reference point
    (PBSM dedup rule). Vectorized.

    The same +eps nudge as cells_for_envelope: a reference point landing
    exactly on a tile boundary must resolve to the same cell that the
    envelope cover listed, or the pair is silently dropped.

    Known boundary-semantics limit: two envelopes that TOUCH exactly on
    a tile boundary (zero-width intersection aligned with the grid)
    have no common cell in the two covers and the pair is not emitted;
    OGC Intersects is true for touching geometries, but the
    intersection has measure zero and every area-based consumer
    (zonal, layer_intersection with min_area) is unaffected."""
    eps = merc.resolution(zoom) * 1e-6
    rx = np.maximum(minx_a, minx_b) + eps
    ry = np.maximum(miny_a, miny_b) + eps
    tx, ty = merc.meters_to_tile(rx, ry, zoom)
    n = 2**zoom
    tx = np.clip(tx, 0, n - 1)
    ty = np.clip(ty, 0, n - 1)
    return merc.cell_id(zoom, tx, merc.tms_to_xyz(ty, zoom))


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


def split_sides(t: pa.Table, a: str, b: str) -> tuple[pa.Table, pa.Table]:
    """Split a bucket into its two sides by the `side` column."""
    return (t.filter(pc.equal(t["side"], a)).combine_chunks(),
            t.filter(pc.equal(t["side"], b)).combine_chunks())


def _envelopes(t: pa.Table) -> np.ndarray:
    return np.column_stack([t[c].to_numpy()
                            for c in ("minx", "miny", "maxx", "maxy")])


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


def bucket_groups(both, group_fn, n_buckets: int = N_JOIN_BUCKETS,
                  key: str = "cell"):
    """Co-partition rows by the salted bucket of their `key` column (a
    join cell by default) and run the bucket kernel `group_fn` once per
    bucket, on Arrow tables. Name `group_fn` `*_group`: the benchmark's
    op.group.* metrics count Ray operators by that name."""
    return both.map_batches(lambda b: salted_bucket(b, key, n_buckets),
                            batch_format="pyarrow") \
        .groupby("bucket").map_groups(group_fn, batch_format="pyarrow")


PAIR_COLS = ["cell", "side", "image_id", "fid", "wkb",
             "minx", "miny", "maxx", "maxy", "name", "category"]


def _polygon_side(polygons, zoom: int, id_type: pa.DataType):
    """T2 polygons → the P side of an image or point join, PAIR_COLS."""
    pols = with_cells(polygons, zoom, ["fid", "wkb", "minx", "miny", "maxx",
                                       "maxy", "name", "category"])
    return pols.map_batches(
        lambda b: (b.append_column("side", pa.array(["P"] * b.num_rows))
                   .append_column("image_id", pa.nulls(b.num_rows, id_type))),
        batch_format="pyarrow").select_columns(PAIR_COLS)


def spatial_join(images_geo, polygons, zoom: int = 7,
                 predicate: str = "intersects"):
    """images (georef'd) × polygons → (image_id, fid, name, category).

    Inner spatial join on footprint-intersects-polygon. Both inputs are
    Datasets; images_geo must already carry envelope columns (georef
    stage), polygons the T2 schema."""
    joiner = SpatialJoinCell(zoom, predicate)
    imgs = with_cells(images_geo, zoom, ["image_id", "minx", "miny", "maxx", "maxy"])
    imgs = imgs.map_batches(
        lambda b: (b.append_column("side", pa.array(["I"] * b.num_rows))
                   .append_column("fid", pa.nulls(b.num_rows, pa.int64()))
                   .append_column("wkb", pa.nulls(b.num_rows, pa.binary()))
                   .append_column("name", pa.nulls(b.num_rows, pa.string()))
                   .append_column("category", pa.nulls(b.num_rows, pa.string()))),
        batch_format="pyarrow")

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
        tx, ty = merc.meters_to_tile(x, y, zoom)
        n = 2**zoom
        tx = np.clip(tx, 0, n - 1); ty = np.clip(ty, 0, n - 1)
        cells = merc.cell_id(zoom, tx, merc.tms_to_xyz(ty, zoom))
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
# broadcast semi-join (small filter side)
# ---------------------------------------------------------------------------

def broadcast_spatial_filter(ds, filter_wkb: bytes, *, x_col="x", y_col="y"):
    """OGR SetSpatialFilter semantics as a broadcast semi-join: the
    filter geometry ships once (captured in the task closure / object
    store), each batch tests its points vectorized — no shuffle at all.
    (ogrlayer.cpp:4005-4072 path for one filter geometry.)"""
    g = wkb_mod.loads(filter_wkb)
    env = g.envelope()

    def f(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(); y = b[y_col].to_numpy()
        m = (x >= env[0]) & (x <= env[2]) & (y >= env[1]) & (y <= env[3])
        if m.any():
            m[m] = geom.points_in_polygon(x[m], y[m], g)
        return b.filter(pa.array(m))

    return ds.map_batches(f, batch_format="pyarrow")


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
    def cell_of(x, y):
        tx, ty = merc.meters_to_tile(x, y, zoom)
        n = 2**zoom
        tx = np.clip(tx, 0, n - 1); ty = np.clip(ty, 0, n - 1)
        return merc.cell_id(zoom, tx, merc.tms_to_xyz(ty, zoom))

    def pts_prep(b: pa.Table) -> pa.Table:
        cells = cell_of(b["x"].to_numpy(), b["y"].to_numpy())
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
        tx, ty = merc.meters_to_tile(x, y, zoom)
        tx = np.clip(tx, 0, n - 1).astype(np.int64)
        ty = np.clip(ty, 0, n - 1).astype(np.int64)
        dx = np.tile(np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1]), nq)
        dy = np.tile(np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1]), nq)
        cx = np.repeat(tx, 9) + dx
        cy = np.repeat(ty, 9) + dy
        ok = (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
        cx, cy = cx[ok], cy[ok]
        cells = merc.cell_id(zoom, cx.astype(np.uint64),
                             merc.tms_to_xyz(cy, zoom).astype(np.uint64))
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

    # final top-k per query: salt-bucket by qid, then one Arrow pass
    def topk_group(t: pa.Table) -> pa.Table:
        q, f, d = (t[c].to_numpy() for c in ("qid", "fid", "dist"))
        # (qid, fid) dedup: a point reached from several halo cells keeps
        # its smallest dist, the first row of its run in (qid, fid, dist)
        o = np.lexsort((d, f, q))
        qo, fo = q[o], f[o]
        first = np.ones(len(o), bool)
        first[1:] = (qo[1:] != qo[:-1]) | (fo[1:] != fo[:-1])
        o = o[first]
        # the k smallest dist of each query, as in KnnCell
        o = o[np.lexsort((d[o], q[o]))]
        keep = np.arange(len(o)) - np.searchsorted(q[o], q[o]) < k
        return t.select(["qid", "fid", "dist"]).take(pa.array(o[keep]))

    return cands.map_batches(lambda b: salted_bucket(b, "qid"),
                             batch_format="pyarrow") \
        .groupby("bucket").map_groups(topk_group, batch_format="pyarrow")
