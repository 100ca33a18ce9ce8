"""OGR layer algebra — cell-partitioned pairwise overlay.

Reference: ogrlayer.cpp Intersection :5386 (pairwise GEOS intersection
of envelope-overlapping features), Union :5804, SymDifference :6341,
Erase :7847. All share one skeleton — candidate pairs from a spatial
filter, per-pair geometry combine — which here runs on the
spatial join's group exchange (stages/exchange.py): both layers flat-map to
their covering cells, rows co-partition by salted cell bucket
(bucket_groups), and one Arrow kernel per bucket (set_op_bucket)
expands the same-cell envelope-overlapping pairs, keeps each pair in
its PBSM reference cell only, and computes the exact per-pair areas
from core/overlay (convex decomposition; no GEOS). Intersection is a
projection of the set-op pairs; Erase/Update sum them per A feature.

Clip/Erase against a rectangle are per-row map_batches (no shuffle):
clip_to_rect is exact, erase area = area(A) − area(A ∩ rect).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import geom
from ..core import wkb as wkb_mod
from ..core.overlay import intersection_area
from .exchange import bucket_groups, split_sides
from .join import overlap_pairs, reference_cell, with_cells

SIDE_COLS = ["cell", "side", "fid", "wkb", "minx", "miny", "maxx", "maxy"]


def _layer_side(layer, zoom: int, side: str):
    """A polygon layer → its side ("A" or "B") of a set-op exchange."""
    def side_rows(b: pa.Table) -> pa.Table:
        return b.append_column("side", pa.array([side] * b.num_rows))

    return with_cells(layer, zoom, SIDE_COLS[2:]) \
        .map_batches(side_rows, batch_format="pyarrow") \
        .select_columns(SIDE_COLS)


def _areas(wkbs) -> np.ndarray:
    """Exact area of every WKB geometry of a column."""
    return np.array([geom.area(wkb_mod.loads(b)) for b in wkbs.to_pylist()],
                    np.float64)


def _geometries(side: pa.Table):
    """Row → (geometry, area) of one bucket side, parsed once per fid."""
    fids, wkbs = side["fid"].to_numpy(), side["wkb"]
    cache: dict[int, tuple] = {}

    def get(row: int) -> tuple:
        fid = int(fids[row])
        if fid not in cache:
            g = wkb_mod.loads(wkbs[row].as_py())
            cache[fid] = (g, geom.area(g))
        return cache[fid]

    return get


def set_op_bucket(t: pa.Table, zoom: int, min_area: float) -> pa.Table:
    """Bucket kernel: layer A × layer B rows of every cell in one salted
    bucket → one row per pair whose intersection area exceeds min_area:
      fid_a, fid_b, area_a, area_b, inter_area,
      union_area = a + b − inter, symdiff_area = a + b − 2·inter
    (ogrlayer.cpp Union :5804 / SymDifference :6341 per-pair semantics,
    area-exact via convex decomposition)."""
    a, b = split_sides(t, "A", "B")
    i, j, ea, eb = overlap_pairs(a, b)
    # PBSM reference-point dedup: keep a pair only in its own cell
    own = reference_cell(ea[i, 0], ea[i, 1], eb[j, 0], eb[j, 1],
                         zoom) == a["cell"].to_numpy()[i]
    i, j = i[own], j[own]
    geom_a, geom_b = _geometries(a), _geometries(b)
    area_a, area_b, inter = (np.empty(len(i)) for _ in range(3))
    for k, (p, q) in enumerate(zip(i.tolist(), j.tolist())):
        ga, area_a[k] = geom_a(p)
        gb, area_b[k] = geom_b(q)
        inter[k] = intersection_area(ga, gb)
    keep = inter > min_area
    area_a, area_b, inter = area_a[keep], area_b[keep], inter[keep]
    # fids by Arrow take: tile-rect fids are cell ids above 2**53
    i, j = pa.array(i[keep]), pa.array(j[keep])
    return pa.table({"fid_a": a["fid"].take(i).cast(pa.int64()),
                     "fid_b": b["fid"].take(j).cast(pa.int64()),
                     "area_a": area_a, "area_b": area_b,
                     "inter_area": inter,
                     "union_area": area_a + area_b - inter,
                     "symdiff_area": area_a + area_b - 2.0 * inter})


def layer_set_op_pairs(layer_a, layer_b, zoom: int = 7,
                       min_area: float = 1e-9):
    """A × B → per-pair intersection/union/symmetric-difference areas
    (the pairwise layer-algebra core shared by Union/SymDifference/
    Identity, ogrlayer.cpp:5804/6341/6771)."""
    def setop_cell_group(t: pa.Table) -> pa.Table:
        return set_op_bucket(t, zoom, min_area)

    both = _layer_side(layer_a, zoom, "A").union(
        _layer_side(layer_b, zoom, "B"))
    return bucket_groups(both, setop_cell_group)


def layer_intersection(layer_a, layer_b, zoom: int = 7,
                       min_area: float = 1e-9):
    """A × B → (fid_a, fid_b, inter_area) for every intersecting pair
    (exact areas; ogrlayer.cpp:5386 semantics minus geometry output)."""
    return layer_set_op_pairs(layer_a, layer_b, zoom, min_area) \
        .select_columns(["fid_a", "fid_b", "inter_area"])


def layer_clip_rect(layer, minx, miny, maxx, maxy):
    """Clip every geometry to a rectangle (vector clip,
    apps/gdalalg_vector_clip.cpp) — per-row, no shuffle. Rows whose
    geometry vanishes are dropped; envelope columns refreshed."""
    def clip_batch(t: pa.Table) -> pa.Table:
        keep, wkbs = [], []
        for buf in t["wkb"].to_pylist():
            g = wkb_mod.loads(buf)
            c = geom.clip_to_rect(g, minx, miny, maxx, maxy)
            ok = c is not None
            keep.append(ok)
            wkbs.append(wkb_mod.dumps(c) if ok else None)
        t = t.set_column(t.schema.get_field_index("wkb"), "wkb",
                         pa.array(wkbs, pa.binary()))
        t = t.filter(pa.array(keep))
        env = wkb_mod.envelopes_of_wkb(t["wkb"].to_pylist())
        for k, name in enumerate(["minx", "miny", "maxx", "maxy"]):
            if name in t.column_names:
                t = t.set_column(t.schema.get_field_index(name), name,
                                 pa.array(env[:, k], pa.float64()))
        return t

    return layer.map_batches(clip_batch, batch_format="pyarrow")


def layer_erase_rect(layer, minx, miny, maxx, maxy):
    """Erase a rectangle from every geometry — area accounting
    (ogrlayer.cpp:7538 Erase semantics): emits
    (fid, area, erased_area = area − area(g ∩ rect))."""
    rect = wkb_mod.box(minx, miny, maxx, maxy)

    def erase_batch(t: pa.Table) -> pa.Table:
        area = _areas(t["wkb"])
        inter = np.array([intersection_area(wkb_mod.loads(b), rect)
                          for b in t["wkb"].to_pylist()], np.float64)
        return pa.table({"fid": t["fid"].cast(pa.int64()), "area": area,
                         "erased_area": area - inter})

    return layer.map_batches(erase_batch, batch_format="pyarrow")


def layer_erase_layer(layer_a, layer_b, zoom: int = 7):
    """Erase(A, B): per-A-feature area minus its total intersection with
    B (ogrlayer.cpp:7847). EXACT when B's features do not overlap each
    other (tile grids, admin boundaries, parcel layers); self-overlapping
    B over-subtracts — the same caveat GDAL documents for
    non-noded inputs."""
    from ray.data.aggregate import Sum

    sums = layer_set_op_pairs(layer_a, layer_b, zoom).groupby("fid_a") \
        .aggregate(Sum("inter_area", alias_name="inter_total"))
    # bounded: one row per A feature that meets B, none for disjoint
    # layers (whose empty blocks may carry no columns)
    inter = {f: s for t in sums.iter_batches(batch_format="pyarrow",
                                             batch_size=None)
             if t.num_rows
             for f, s in zip(t["fid_a"].to_pylist(),
                             t["inter_total"].to_pylist())}

    def erase_batch(t: pa.Table) -> pa.Table:
        area = _areas(t["wkb"])
        cut = np.array([inter.get(f, 0.0) for f in t["fid"].to_pylist()],
                       np.float64)
        return pa.table({"fid": t["fid"].cast(pa.int64()), "area": area,
                         "erased_area": area - cut})

    return layer_a.map_batches(erase_batch, batch_format="pyarrow")


def layer_update_layer(layer_a, layer_b, zoom: int = 7):
    """Update(A, B) area accounting (ogrlayer.cpp:7189): B features
    unchanged + A reduced to its part outside B. Emits
    (fid, side, out_area)."""
    era = layer_erase_layer(layer_a, layer_b, zoom)

    def a_rows(t: pa.Table) -> pa.Table:
        return pa.table({"fid": t["fid"],
                         "side": pa.array(["A"] * t.num_rows, pa.string()),
                         "out_area": t["erased_area"]})

    def b_rows(t: pa.Table) -> pa.Table:
        return pa.table({"fid": t["fid"].cast(pa.int64()),
                         "side": pa.array(["B"] * t.num_rows, pa.string()),
                         "out_area": _areas(t["wkb"])})

    return era.map_batches(a_rows, batch_format="pyarrow").union(
        layer_b.map_batches(b_rows, batch_format="pyarrow"))


def layer_clip_geom(layer, clip_geom):
    """Clip every feature of a layer to an ARBITRARY polygon geometry
    (apps/gdalalg_vector_clip.cpp with a polygon cutline, not just a
    rect): emits clipped piece-multipolygon WKB + exact clip area.
    Convex clippers clip exactly; concave clippers clip against their
    triangulation (pieces partition the result, areas exact)."""
    from ..core.overlay import intersection_pieces

    cwkb = wkb_mod.dumps(clip_geom)

    def clip_batch(t: pa.Table) -> pa.Table:
        cg = wkb_mod.loads(cwkb)
        fids, wkbs, areas = [], [], []
        for fid, buf in zip(t["fid"].to_pylist(), t["wkb"].to_pylist()):
            g = wkb_mod.loads(buf)
            pieces = intersection_pieces(g, cg)   # list of POLYGON geoms
            if not pieces:
                continue
            mp = wkb_mod.multipolygon(pieces) if len(pieces) > 1 else pieces[0]
            fids.append(fid)
            wkbs.append(wkb_mod.dumps(mp))
            # area via the hole-aware exact path (pieces alone ignore
            # holes of the SUBJECT geometry)
            areas.append(float(intersection_area(g, cg)))
        return pa.table({"fid": pa.array(fids, pa.int64()),
                         "wkb": pa.array(wkbs, pa.binary()),
                         "clip_area": pa.array(areas, pa.float64())})

    return layer.map_batches(clip_batch, batch_format="pyarrow")
