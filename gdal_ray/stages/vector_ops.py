"""Vector geometry unary operators over WKB columns — buffer, simplify,
segmentize, swap-xy, explode-collections, convex-hull, centroid, area.

Reference steps: apps/gdalalg_vector_buffer.cpp, _simplify.cpp,
_segmentize.cpp, _swap_xy.cpp, _explode_collections.cpp,
_convex_hull.cpp. Each is a stateless map_batches over the WKB binary
column (OGR's Arrow-WKB convention); explode is a flat-map.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import geom
from ..core import wkb as W
from ..sources.vector import ENVELOPE, with_geometry


# ---------------------------------------------------------------------------
# pure-geometry kernels
# ---------------------------------------------------------------------------

def douglas_peucker(pts: np.ndarray, tolerance: float) -> np.ndarray:
    """Douglas–Peucker line simplification (OGR Simplify semantics)."""
    if len(pts) < 3:
        return pts
    keep = np.zeros(len(pts), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(pts) - 1)]
    while stack:
        i0, i1 = stack.pop()
        if i1 <= i0 + 1:
            continue
        seg = pts[i1] - pts[i0]
        ln = np.hypot(*seg)
        mid = pts[i0 + 1:i1]
        if ln == 0:
            d = np.hypot(mid[:, 0] - pts[i0, 0], mid[:, 1] - pts[i0, 1])
        else:
            d = np.abs(seg[0] * (pts[i0, 1] - mid[:, 1])
                       - seg[1] * (pts[i0, 0] - mid[:, 0])) / ln
        imax = int(np.argmax(d))
        if d[imax] > tolerance:
            k = i0 + 1 + imax
            keep[k] = True
            stack.append((i0, k))
            stack.append((k, i1))
    return pts[keep]


def segmentize(pts: np.ndarray, max_length: float) -> np.ndarray:
    """Insert vertices so no segment exceeds max_length."""
    out = [pts[0]]
    for i in range(1, len(pts)):
        a, b = pts[i - 1], pts[i]
        d = float(np.hypot(*(b - a)))
        n = int(np.ceil(d / max_length))
        for k in range(1, n + 1):
            out.append(a + (b - a) * (k / n))
    return np.asarray(out)


def convex_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone-chain convex hull → closed CCW ring."""
    p = np.unique(pts, axis=0)
    p = p[np.lexsort((p[:, 1], p[:, 0]))]
    if len(p) <= 2:
        return np.vstack([p, p[:1]])

    def half(points):
        h = []
        for q in points:
            while len(h) >= 2 and np.cross(h[-1] - h[-2], q - h[-2]) <= 0:
                h.pop()
            h.append(q)
        return h

    lower = half(p)
    upper = half(p[::-1])
    ring = np.array(lower[:-1] + upper[:-1])
    return np.vstack([ring, ring[:1]])


def concave_hull(pts: np.ndarray, ratio: float = 0.3) -> np.ndarray:
    """Concave hull of a point set → closed CCW ring (the chi-shape
    algorithm: Delaunay triangulation, then erode border edges longest
    first while the boundary stays regular/simple).

    ``ratio`` follows the reference's OGR_G_ConcaveHull parameter
    (ogr_geometry.h ConcaveHull → GEOS GEOSConcaveHull): the edge-length
    threshold is  min + ratio·(max − min)  over the triangulation's
    edge lengths — ratio=1 keeps everything (== convex hull), ratio→0
    erodes down to the shortest defensible boundary. Regularity (an
    eroded triangle's opposite vertex must not already be on the
    boundary) guarantees a simple, hole-free polygon, so the
    allowHoles=false default of the reference is structural here."""
    p = np.unique(np.asarray(pts, np.float64), axis=0)
    if len(p) < 3:
        return convex_hull(p)
    from ..core.delaunay import delaunay
    tris = delaunay(p)
    if len(tris) == 0:                       # collinear degenerate
        return convex_hull(p)

    def elen(a, b):
        return float(np.hypot(*(p[a] - p[b])))

    # edge -> adjacent triangle ids
    from collections import defaultdict
    edge_tris = defaultdict(list)
    for t_i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (b, c), (c, a)):
            edge_tris[tuple(sorted(e))].append(t_i)

    lens = [elen(*e) for e in edge_tris]
    lo, hi = min(lens), max(lens)
    thresh = lo + float(ratio) * (hi - lo)

    alive = np.ones(len(tris), bool)
    border_deg = defaultdict(int)           # vertex -> border-edge count

    def tri_edges(t_i):
        a, b, c = tris[t_i]
        return [tuple(sorted(e)) for e in ((a, b), (b, c), (c, a))]

    import heapq
    heap = []
    border = set()
    for e, ts in edge_tris.items():
        if len(ts) == 1:
            border.add(e)
            border_deg[e[0]] += 1
            border_deg[e[1]] += 1
            heapq.heappush(heap, (-elen(*e), e))

    while heap:
        neg, e = heapq.heappop(heap)
        if e not in border or -neg <= thresh:
            continue
        ts = [t for t in edge_tris[e] if alive[t]]
        if len(ts) != 1:
            continue
        t_i = ts[0]
        opp = [v for v in tris[t_i] if v not in e][0]
        others = [x for x in tri_edges(t_i) if x != e]
        # regularity: opposite vertex must be interior, and the two
        # exposed edges must currently be interior edges
        if border_deg[opp] > 0 or any(x in border for x in others):
            continue
        if sum(alive) == 1:
            break                            # never erode the last one
        alive[t_i] = False
        border.discard(e)
        border_deg[e[0]] -= 1
        border_deg[e[1]] -= 1
        for x in others:
            border.add(x)
            border_deg[x[0]] += 1
            border_deg[x[1]] += 1
            heapq.heappush(heap, (-elen(*x), x))

    # chain the border into the boundary ring (regularity ⇒ every
    # border vertex has exactly two border edges)
    nbr = defaultdict(list)
    for a, b in border:
        nbr[a].append(b)
        nbr[b].append(a)
    start = next(iter(nbr))
    ring = [start]
    prev, cur = None, start
    while True:
        nxt = [v for v in nbr[cur] if v != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        ring.append(cur)
    coords = p[np.asarray(ring)]
    # CCW orientation (shoelace)
    area2 = float(np.sum(coords[:, 0] * np.roll(coords[:, 1], -1)
                         - np.roll(coords[:, 0], -1) * coords[:, 1]))
    if area2 < 0:
        coords = coords[::-1]
    return np.vstack([coords, coords[:1]])


def buffer_geometry(g: W.Geometry, dist: float, segments: int = 8) -> W.Geometry:
    """Positive buffer for every supported kind: points → circles,
    polylines → round-cap round-join offset rings, polygons → outward
    boundary offset with round joins at convex vertices (holes shrink).
    Exact up to arc discretization for convex inputs (area A + P·d +
    πd²); concave boundaries / small local feature size can self-touch
    — the caveat OGR inherits from non-noded inputs (the reference
    delegates the general case to GEOS, ogr_geometry.h:560)."""
    return geom.buffer_geometry(g, dist, seg_per_quad=segments)


def swap_xy(g: W.Geometry) -> W.Geometry:
    if g.geom_type in (W.POINT, W.LINESTRING):
        return W.Geometry(g.geom_type, coords=g.coords[:, ::-1].copy())
    if g.geom_type == W.POLYGON:
        return W.Geometry(W.POLYGON, rings=[r[:, ::-1].copy() for r in g.rings])
    return W.Geometry(g.geom_type, parts=[swap_xy(p) for p in g.parts])


def simplify_geometry(g: W.Geometry, tolerance: float) -> W.Geometry:
    if g.geom_type == W.LINESTRING:
        return W.Geometry(W.LINESTRING, coords=douglas_peucker(g.coords, tolerance))
    if g.geom_type == W.POLYGON:
        rings = []
        for r in g.rings:
            s = douglas_peucker(r, tolerance)
            if len(s) >= 4:
                rings.append(s)
        return W.Geometry(W.POLYGON, rings=rings or g.rings[:1])
    if g.geom_type in (W.MULTIPOLYGON, W.MULTILINESTRING, W.GEOMETRYCOLLECTION):
        return W.Geometry(g.geom_type, parts=[simplify_geometry(p, tolerance)
                                              for p in g.parts])
    return g


def segmentize_geometry(g: W.Geometry, max_length: float) -> W.Geometry:
    if g.geom_type == W.LINESTRING:
        return W.Geometry(W.LINESTRING, coords=segmentize(g.coords, max_length))
    if g.geom_type == W.POLYGON:
        return W.Geometry(W.POLYGON,
                          rings=[segmentize(r, max_length) for r in g.rings])
    if g.geom_type in (W.MULTIPOLYGON, W.MULTILINESTRING, W.GEOMETRYCOLLECTION):
        return W.Geometry(g.geom_type, parts=[segmentize_geometry(p, max_length)
                                              for p in g.parts])
    return g


# ---------------------------------------------------------------------------
# map_batches wrappers over WKB columns
# ---------------------------------------------------------------------------

def _set_geometry(t: pa.Table, geoms) -> pa.Table:
    """``t`` with its ``wkb`` column, and the envelope columns it has,
    rebuilt from ``geoms`` (one per row, None for a missing geometry)."""
    new = with_geometry(pa.table({}), geoms)
    for name in ("wkb", *ENVELOPE):
        if name in t.column_names:
            t = t.set_column(t.schema.get_field_index(name), name, new[name])
    return t


def wkb_map(fn):
    """Wrap geometry→geometry fn into a batch transform that rewrites the
    WKB column and the envelope columns present; a null geometry stays
    null, with a NaN envelope."""

    def batch_fn(t: pa.Table) -> pa.Table:
        return _set_geometry(t, [None if b is None else fn(W.loads(b))
                                 for b in t["wkb"].to_pylist()])

    return batch_fn


def explode_collections(t: pa.Table) -> pa.Table:
    """flat-map: multi-geometries → one row per part, with the part's
    envelope (vector explode-collections); a null geometry stays one
    null row."""
    idx, parts, part_no = [], [], []
    for i, b in enumerate(t["wkb"].to_pylist()):
        g = None if b is None else W.loads(b)
        for k, p in enumerate(g.parts if g is not None and g.parts else [g]):
            idx.append(i)
            parts.append(p)
            part_no.append(k)
    return _set_geometry(t.take(pa.array(idx, pa.int64())), parts) \
        .append_column("part_index", pa.array(part_no, pa.int64()))


def add_geometry_columns(t: pa.Table) -> pa.Table:
    """Append area / centroid_x / centroid_y columns, null for a null
    geometry."""
    areas, cxs, cys = [], [], []
    for b in t["wkb"].to_pylist():
        g = None if b is None else W.loads(b)
        areas.append(None if g is None else geom.area(g))
        cx, cy = (None, None) if g is None else geom.centroid(g)
        cxs.append(cx)
        cys.append(cy)
    return t.append_column("area", pa.array(areas, pa.float64())) \
        .append_column("centroid_x", pa.array(cxs, pa.float64())) \
        .append_column("centroid_y", pa.array(cys, pa.float64()))


def make_valid(g: W.Geometry) -> W.Geometry:
    """vector make-valid (apps/gdalalg_vector_make_valid.cpp analog) for
    the failure modes constructible in this model: unclosed rings are
    closed, consecutive duplicate vertices dropped, rings with <3
    distinct vertices removed, outer-ring orientation normalized CCW
    and holes CW (OGC winding)."""
    from ..core.geom import ring_area

    def fix_ring(r: np.ndarray, outer: bool):
        r = np.asarray(r, np.float64)
        if len(r) and not np.array_equal(r[0], r[-1]):
            r = np.vstack([r, r[:1]])
        if len(r) > 1:
            keep = np.ones(len(r), bool)
            keep[1:] = (np.diff(r, axis=0) != 0).any(axis=1)
            r = r[keep]
            if len(r) and not np.array_equal(r[0], r[-1]):
                r = np.vstack([r, r[:1]])
        if len(r) < 4:          # closed triangle = 4 points
            return None
        a = ring_area(r)
        if a == 0:
            return None
        if outer and a < 0 or (not outer and a > 0):
            r = r[::-1].copy()
        return r

    t = g.geom_type
    if t == W.POLYGON:
        rings = []
        for i, r in enumerate(g.rings):
            fr = fix_ring(r, outer=(i == 0))
            if fr is not None:
                rings.append(fr)
        if not rings:
            return W.Geometry(W.GEOMETRYCOLLECTION, parts=[])
        return W.Geometry(W.POLYGON, rings=rings)
    if t in (W.MULTIPOLYGON, W.GEOMETRYCOLLECTION):
        parts = [make_valid(p) for p in g.parts]
        parts = [p for p in parts
                 if not (p.geom_type == W.GEOMETRYCOLLECTION and not p.parts)]
        return W.Geometry(t, parts=parts)
    return g


# ---------------------------------------------------------------------------
# vector reprojection (ogr2ogr -s_srs/-t_srs)
# ---------------------------------------------------------------------------

def transform_geometry(g, fwd):
    """Apply a vectorized (x, y) -> (X, Y) transform to every
    coordinate of a geometry, in place semantics of OGR's
    OGRGeometry::transform (pointwise — ogr2ogr does not densify by
    default; use segmentize first when arc fidelity matters)."""
    from ..core.wkb import Geometry

    if g.coords is not None and len(g.coords):
        x, y = fwd(g.coords[:, 0], g.coords[:, 1])
        g = Geometry(g.geom_type, coords=np.column_stack([x, y]))
    elif g.rings:
        rings = []
        for r in g.rings:
            x, y = fwd(r[:, 0], r[:, 1])
            rings.append(np.column_stack([x, y]))
        g = Geometry(g.geom_type, rings=rings)
    elif g.parts:
        g = Geometry(g.geom_type,
                     parts=[transform_geometry(p, fwd) for p in g.parts])
    return g


def reproject_wkb_batch(t, src_crs: str, dst_crs: str):
    """map_batches stage: reproject the WKB geometry column and its
    envelope columns (ogr2ogr -t_srs semantics: every vertex through
    the CRS chain, attributes untouched, a null geometry stays null).
    The transform resolves through the same registry/4326-hub the
    raster warp uses (stages/warp.py::get_transform)."""
    from .warp import get_transform

    fwd = get_transform(src_crs, dst_crs)
    # the table's metadata may name the source CRS, which no longer holds
    return wkb_map(lambda g: transform_geometry(g, fwd))(t) \
        .replace_schema_metadata(None)
