"""Geometry predicates & constructive ops — pure numpy, no GEOS.

Implements the predicate semantics our spatial join needs, mirroring
OGR's spatial-filter evaluation order (reference:
ogr/ogrsf_frmts/generic/ogrlayer.cpp:4005-4072):
  1. envelope reject when bboxes are disjoint;
  2. accept when the filter is a rectangle fully containing the
     candidate envelope;
  3. exact Intersects otherwise.

Point-in-polygon uses even-odd ray casting (boundary counts as inside,
matching OGRPolygon::ContainsPoint's practical use in point-in-poly
joins; reference ogr/ogr_geometry.h:1309,2467). Intersects between
polygons = any vertex containment either way, or any edge crossing.
Clip-to-rectangle is Sutherland–Hodgman.
"""

from __future__ import annotations

import numpy as np

from .wkb import (GEOMETRYCOLLECTION, LINESTRING, MULTILINESTRING, MULTIPOINT,
                  MULTIPOLYGON, POINT, POLYGON, Geometry, polygon as make_polygon)


# ---------------------------------------------------------------------------
# envelope helpers
# ---------------------------------------------------------------------------

def envelopes_intersect(a, b) -> bool:
    return not (a[2] < b[0] or b[2] < a[0] or a[3] < b[1] or b[3] < a[1])


# ---------------------------------------------------------------------------
# point in polygon (vectorized over points)
# ---------------------------------------------------------------------------

def points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd ray-cast: bool mask of points strictly inside or on the
    boundary of one closed ring. Vectorized over all points at once."""
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    px = np.asarray(px, dtype=np.float64)[:, None]
    py = np.asarray(py, dtype=np.float64)[:, None]
    # crossing test (half-open on y so vertices are not double counted)
    cond = (y0 > py) != (y1 > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x0 + (py - y0) * (x1 - x0) / np.where(y1 != y0, y1 - y0, np.inf)
    crosses = cond & (px < xint)
    inside = crosses.sum(axis=1) % 2 == 1
    # boundary: point on a segment counts as inside
    on_edge = _points_on_segments(px, py, x0, y0, x1, y1)
    return inside | on_edge


def _points_on_segments(px, py, x0, y0, x1, y1, eps=1e-12):
    dx, dy = x1 - x0, y1 - y0
    lx, ly = px - x0, py - y0
    cross = dx * ly - dy * lx
    dot = lx * dx + ly * dy
    seg2 = dx * dx + dy * dy
    scale = np.maximum(seg2, 1.0)
    on = (np.abs(cross) <= eps * scale) & (dot >= -eps * scale) & (dot <= seg2 + eps * scale)
    return on.any(axis=1)


def points_in_polygon(px, py, poly: Geometry) -> np.ndarray:
    """Bool mask: inside shell, outside holes (even-odd across rings);
    handles Polygon and MultiPolygon."""
    px = np.atleast_1d(np.asarray(px, dtype=np.float64))
    py = np.atleast_1d(np.asarray(py, dtype=np.float64))
    if poly.geom_type == MULTIPOLYGON:
        m = np.zeros(len(px), dtype=bool)
        for p in poly.parts:
            m |= points_in_polygon(px, py, p)
        return m
    assert poly.geom_type == POLYGON
    if not poly.rings:
        return np.zeros(len(px), dtype=bool)
    inside = points_in_ring(px, py, poly.rings[0])
    for hole in poly.rings[1:]:
        in_hole = points_in_ring(px, py, hole)
        on_hole_edge = _ring_boundary_mask(px, py, hole)
        inside &= ~(in_hole & ~on_hole_edge)
    return inside


def _ring_boundary_mask(px, py, ring):
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    return _points_on_segments(px[:, None], py[:, None], x0, y0, x1, y1)


# ---------------------------------------------------------------------------
# segment intersection (vectorized all-pairs)
# ---------------------------------------------------------------------------

def _segments_cross(a0, a1, b0, b1, eps=1e-12) -> bool:
    """True if any segment in A (arrays (n,2)) intersects any in B ((m,2))."""
    ax0, ay0 = a0[:, 0][:, None], a0[:, 1][:, None]
    ax1, ay1 = a1[:, 0][:, None], a1[:, 1][:, None]
    bx0, by0 = b0[:, 0][None, :], b0[:, 1][None, :]
    bx1, by1 = b1[:, 0][None, :], b1[:, 1][None, :]

    d1x, d1y = ax1 - ax0, ay1 - ay0
    d2x, d2y = bx1 - bx0, by1 - by0
    denom = d1x * d2y - d1y * d2x
    ex, ey = bx0 - ax0, by0 - ay0
    t_num = ex * d2y - ey * d2x
    u_num = ex * d1y - ey * d1x
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        u = u_num / denom
    proper = (np.abs(denom) > eps) & (t >= -eps) & (t <= 1 + eps) & (u >= -eps) & (u <= 1 + eps)
    if proper.any():
        return True
    # collinear overlap: denom==0 and points on each other's lines
    coll = (np.abs(denom) <= eps) & (np.abs(t_num) <= eps * np.maximum(1.0, np.abs(d2x) + np.abs(d2y)))
    if not coll.any():
        return False
    # project and check interval overlap on the dominant axis
    ia, ja = np.nonzero(coll)
    for i, j in zip(ia[:64], ja[:64]):
        if _collinear_overlap(a0[i], a1[i], b0[j], b1[j], eps):
            return True
    return False


def _segments_properly_cross(a0, a1, b0, b1, eps=1e-12) -> bool:
    """True if any segment in A transversally crosses any in B strictly
    in both interiors (endpoint touches and collinear overlaps do NOT
    count). Used by contains() to reject exit-and-reenter edges against
    concave boundaries without over-rejecting boundary touches."""
    ax0, ay0 = a0[:, 0][:, None], a0[:, 1][:, None]
    ax1, ay1 = a1[:, 0][:, None], a1[:, 1][:, None]
    bx0, by0 = b0[:, 0][None, :], b0[:, 1][None, :]
    bx1, by1 = b1[:, 0][None, :], b1[:, 1][None, :]
    d1x, d1y = ax1 - ax0, ay1 - ay0
    d2x, d2y = bx1 - bx0, by1 - by0
    denom = d1x * d2y - d1y * d2x
    ex, ey = bx0 - ax0, by0 - ay0
    t_num = ex * d2y - ey * d2x
    u_num = ex * d1y - ey * d1x
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        u = u_num / denom
    scale = np.maximum(1.0, np.abs(d1x) + np.abs(d1y) + np.abs(d2x) + np.abs(d2y))
    strict = (np.abs(denom) > eps * scale) & \
        (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    return bool(strict.any())


def _collinear_overlap(p0, p1, q0, q1, eps):
    d = p1 - p0
    axis = 0 if abs(d[0]) >= abs(d[1]) else 1
    lo_a, hi_a = sorted((p0[axis], p1[axis]))
    lo_b, hi_b = sorted((q0[axis], q1[axis]))
    return hi_a >= lo_b - eps and hi_b >= lo_a - eps


def _geometry_segments(g: Geometry):
    """All edges of a geometry as (starts (n,2), ends (n,2))."""
    segs = []
    if g.geom_type == LINESTRING and len(g.coords) > 1:
        segs.append((g.coords[:-1], g.coords[1:]))
    elif g.geom_type == POLYGON:
        for r in g.rings:
            if len(r) > 1:
                segs.append((r[:-1], r[1:]))
    elif g.geom_type in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON, GEOMETRYCOLLECTION):
        for p in g.parts:
            s = _geometry_segments(p)
            if s is not None:
                segs.append(s)
    if not segs:
        return None
    return (np.vstack([s[0] for s in segs]), np.vstack([s[1] for s in segs]))


def _representative_points(g: Geometry) -> np.ndarray:
    if g.geom_type in (POINT, LINESTRING):
        return g.coords
    if g.geom_type == POLYGON:
        return g.rings[0][:-1] if g.rings else np.empty((0, 2))
    pts = [_representative_points(p) for p in g.parts]
    return np.vstack(pts) if pts else np.empty((0, 2))


def _contains_any_point(container: Geometry, pts: np.ndarray) -> bool:
    if container.geom_type not in (POLYGON, MULTIPOLYGON) or len(pts) == 0:
        return False
    return bool(points_in_polygon(pts[:, 0], pts[:, 1], container).any())


def intersects(a: Geometry, b: Geometry) -> bool:
    """Exact Intersects predicate (the step-3 test of
    ogrlayer.cpp:4066-4072). Envelope prefilter included."""
    ea, eb = a.envelope(), b.envelope()
    if not envelopes_intersect(ea, eb):
        return False
    # point cases
    if a.geom_type == POINT:
        return _point_intersects(a, b)
    if b.geom_type == POINT:
        return _point_intersects(b, a)
    # multipoint: any member point
    if a.geom_type == MULTIPOINT:
        return any(_point_intersects(p, b) for p in a.parts)
    if b.geom_type == MULTIPOINT:
        return any(_point_intersects(p, a) for p in b.parts)
    # vertex containment either direction
    if _contains_any_point(a, _representative_points(b)):
        return True
    if _contains_any_point(b, _representative_points(a)):
        return True
    # edge crossing
    sa, sb = _geometry_segments(a), _geometry_segments(b)
    if sa is None or sb is None:
        return False
    return _segments_cross(sa[0], sa[1], sb[0], sb[1])


def _point_intersects(pt: Geometry, other: Geometry) -> bool:
    x, y = pt.coords[0]
    if other.geom_type == POINT:
        return bool(x == other.coords[0, 0] and y == other.coords[0, 1])
    if other.geom_type in (POLYGON, MULTIPOLYGON):
        return bool(points_in_polygon([x], [y], other)[0])
    segs = _geometry_segments(other)
    if segs is None:
        if other.geom_type in (MULTIPOINT, GEOMETRYCOLLECTION):
            return any(_point_intersects(pt, p) for p in other.parts)
        return False
    return bool(_points_on_segments(np.array([[x]]), np.array([[y]]),
                                    segs[0][:, 0], segs[0][:, 1],
                                    segs[1][:, 0], segs[1][:, 1])[0])


def contains(a: Geometry, b: Geometry) -> bool:
    """a Contains b: all of b's points inside a and no edge of b crosses
    out of a. Conservative polygon/point implementation."""
    if a.geom_type not in (POLYGON, MULTIPOLYGON):
        return False
    pts = _representative_points(b)
    if len(pts) == 0:
        return False
    if not points_in_polygon(pts[:, 0], pts[:, 1], a).all():
        return False
    if b.geom_type == POINT or b.geom_type == MULTIPOINT:
        return True
    # edges of b must not cross a's boundary (touching allowed: we test
    # midpoints of b's edges are inside too)
    sb = _geometry_segments(b)
    mids = (sb[0] + sb[1]) / 2.0
    if not points_in_polygon(mids[:, 0], mids[:, 1], a).all():
        return False
    # concave a: an edge of b can exit and re-enter between sampled
    # points — reject any PROPER (transversal, interior-to-interior)
    # crossing of b's edges with a's rings; touch-only and collinear
    # contacts remain allowed per OGC Contains
    sa = _geometry_segments(a)
    if sa is not None and _segments_properly_cross(sb[0], sb[1], sa[0], sa[1]):
        return False
    return True


def within(a: Geometry, b: Geometry) -> bool:
    return contains(b, a)


# ---------------------------------------------------------------------------
# predicate completeness: Touches / Crosses / Overlaps / Distance
# (ogr/ogr_geometry.h:548-557 API surface)
# ---------------------------------------------------------------------------

def _interiors_meet(a: Geometry, b: Geometry) -> bool:
    """True if the interiors intersect (not just boundaries): a proper
    transversal edge crossing, a vertex/midpoint of one STRICTLY inside
    the other (inside but not on the boundary), or positive overlap
    area for polygon pairs."""
    sa, sb = _geometry_segments(a), _geometry_segments(b)
    if sa is not None and sb is not None and \
            _segments_properly_cross(sa[0], sa[1], sb[0], sb[1]):
        return True

    def strict_inside(pts, poly):
        if poly.geom_type not in (POLYGON, MULTIPOLYGON) or len(pts) == 0:
            return False
        inside = points_in_polygon(pts[:, 0], pts[:, 1], poly)
        if not inside.any():
            return False
        polys = poly.parts if poly.geom_type == MULTIPOLYGON else [poly]
        on_edge = np.zeros(len(pts), bool)
        for p in polys:
            for r in p.rings:
                on_edge |= _ring_boundary_mask(pts[:, 0], pts[:, 1], r)
        return bool((inside & ~on_edge).any())

    def probes(g):
        pts = [_representative_points(g)]
        segs = _geometry_segments(g)
        if segs is not None:
            pts.append((segs[0] + segs[1]) / 2.0)
        return np.vstack(pts)

    if strict_inside(probes(b), a) or strict_inside(probes(a), b):
        return True
    if a.geom_type in (POLYGON, MULTIPOLYGON) \
            and b.geom_type in (POLYGON, MULTIPOLYGON):
        from .overlay import intersection_area
        scale = max((abs(v) for v in (*a.envelope(), *b.envelope())),
                    default=1.0)
        return intersection_area(a, b) > (1e-9 * max(scale, 1.0)) ** 2
    return False


def touches(a: Geometry, b: Geometry) -> bool:
    """Boundaries meet but interiors do not (OGC Touches)."""
    if not intersects(a, b):
        return False
    return not _interiors_meet(a, b)


def crosses(a: Geometry, b: Geometry) -> bool:
    """OGC Crosses for the dimension pairs the model supports:
    line × line (single transversal crossing point) and line × polygon
    (the line passes through both interior and exterior)."""
    la = a.geom_type in (LINESTRING, MULTILINESTRING)
    lb = b.geom_type in (LINESTRING, MULTILINESTRING)
    if la and lb:
        sa, sb = _geometry_segments(a), _geometry_segments(b)
        return sa is not None and sb is not None and \
            _segments_properly_cross(sa[0], sa[1], sb[0], sb[1])
    line, poly = (a, b) if la else (b, a) if lb else (None, None)
    if line is None or poly.geom_type not in (POLYGON, MULTIPOLYGON):
        return False
    pts = _representative_points(line)
    segs = _geometry_segments(line)
    if segs is not None:
        pts = np.vstack([pts, (segs[0] + segs[1]) / 2.0])
    inside = points_in_polygon(pts[:, 0], pts[:, 1], poly)
    return bool(inside.any() and (~inside).any())


def overlaps(a: Geometry, b: Geometry) -> bool:
    """OGC Overlaps for polygon pairs: interiors intersect with
    positive area and neither contains the other."""
    if a.geom_type not in (POLYGON, MULTIPOLYGON) \
            or b.geom_type not in (POLYGON, MULTIPOLYGON):
        return False
    if not _interiors_meet(a, b):
        return False
    return not contains(a, b) and not contains(b, a)


def _seg_point_d2(px, py, x0, y0, x1, y1):
    """Squared distances from points (n,) to segments (m,) → (n, m)."""
    dx = (x1 - x0)[None, :]
    dy = (y1 - y0)[None, :]
    L2 = dx * dx + dy * dy
    t = ((px[:, None] - x0[None, :]) * dx + (py[:, None] - y0[None, :]) * dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.where(L2 > 0, t / L2, 0.0), 0.0, 1.0)
    cx = x0[None, :] + t * dx
    cy = y0[None, :] + t * dy
    return (px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2


def distance(a: Geometry, b: Geometry) -> float:
    """Minimum euclidean distance (OGR Distance): 0 when intersecting,
    else min over vertex↔segment distances both ways (exact for the
    segment model — the closest pair is always vertex-to-segment unless
    segments cross, which intersects() already caught)."""
    if intersects(a, b):
        return 0.0
    pa_ = _representative_points(a)
    pb_ = _representative_points(b)
    best = np.inf
    sa, sb = _geometry_segments(a), _geometry_segments(b)
    if sb is not None and len(pa_):
        best = min(best, float(_seg_point_d2(
            pa_[:, 0], pa_[:, 1], sb[0][:, 0], sb[0][:, 1],
            sb[1][:, 0], sb[1][:, 1]).min()))
    if sa is not None and len(pb_):
        best = min(best, float(_seg_point_d2(
            pb_[:, 0], pb_[:, 1], sa[0][:, 0], sa[0][:, 1],
            sa[1][:, 0], sa[1][:, 1]).min()))
    if not np.isfinite(best):
        dx = pa_[:, 0][:, None] - pb_[:, 0][None, :]
        dy = pa_[:, 1][:, None] - pb_[:, 1][None, :]
        best = float((dx * dx + dy * dy).min())
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# constructive: clip to rectangle (Sutherland–Hodgman), area, centroid
# ---------------------------------------------------------------------------

def clip_ring_to_rect(ring: np.ndarray, minx, miny, maxx, maxy) -> np.ndarray:
    # NOTE: overlay.sh_clip implements Sutherland-Hodgman for a GENERAL
    # convex clipper; this rect-specialized version predates it and is
    # kept for the axis-aligned fast path (no import cycle with
    # overlay). Epsilon semantics are checked by the shared overlay
    # tests (clip areas equal intersection_area on the battery layers).
    """Sutherland–Hodgman clip of one closed ring against an axis-aligned
    rectangle; returns a closed ring (possibly empty)."""
    poly = ring[:-1] if len(ring) and np.array_equal(ring[0], ring[-1]) else ring

    def clip_edge(pts, inside_fn, intersect_fn):
        if len(pts) == 0:
            return pts
        out = []
        prev = pts[-1]
        prev_in = inside_fn(prev)
        for cur in pts:
            cur_in = inside_fn(cur)
            if cur_in:
                if not prev_in:
                    out.append(intersect_fn(prev, cur))
                out.append(cur)
            elif prev_in:
                out.append(intersect_fn(prev, cur))
            prev, prev_in = cur, cur_in
        return np.asarray(out, dtype=np.float64) if out else np.empty((0, 2))

    def ix_v(xv):
        def f(p, q):
            t = (xv - p[0]) / (q[0] - p[0])
            return (xv, p[1] + t * (q[1] - p[1]))
        return f

    def ix_h(yv):
        def f(p, q):
            t = (yv - p[1]) / (q[1] - p[1])
            return (p[0] + t * (q[0] - p[0]), yv)
        return f

    pts = np.asarray(poly, dtype=np.float64)
    pts = clip_edge(pts, lambda p: p[0] >= minx, ix_v(minx))
    pts = clip_edge(pts, lambda p: p[0] <= maxx, ix_v(maxx))
    pts = clip_edge(pts, lambda p: p[1] >= miny, ix_h(miny))
    pts = clip_edge(pts, lambda p: p[1] <= maxy, ix_h(maxy))
    if len(pts) < 3:
        return np.empty((0, 2))
    return np.vstack([pts, pts[:1]])


def clip_to_rect(g: Geometry, minx, miny, maxx, maxy) -> Geometry | None:
    """Clip polygon/multipolygon to a rectangle. Returns None when the
    intersection is empty. (Vector `clip` step semantics; reference
    apps/gdalalg_vector_clip.cpp behavior for rectangle clips.)"""
    if g.geom_type == POLYGON:
        rings = [clip_ring_to_rect(r, minx, miny, maxx, maxy) for r in g.rings]
        rings = [r for r in rings if len(r)]
        if not rings or len(rings[0]) == 0:
            return None
        out = Geometry(POLYGON, rings=rings)
        return out
    if g.geom_type == MULTIPOLYGON:
        parts = [clip_to_rect(p, minx, miny, maxx, maxy) for p in g.parts]
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        return Geometry(MULTIPOLYGON, parts=parts)
    raise ValueError(f"clip_to_rect: unsupported type {g.geom_type}")


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area (positive = CCW). Coordinates are shifted
    to a local origin first: web-mercator magnitudes (~2e7) would
    otherwise lose ~8 decimal digits to catastrophic cancellation in
    the cross products."""
    x = ring[:, 0] - ring[0, 0]
    y = ring[:, 1] - ring[0, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def area(g: Geometry) -> float:
    if g.geom_type == POLYGON:
        if not g.rings:
            return 0.0
        a = abs(ring_area(g.rings[0]))
        for h in g.rings[1:]:
            a -= abs(ring_area(h))
        return a
    if g.geom_type == MULTIPOLYGON:
        return sum(area(p) for p in g.parts)
    return 0.0


def centroid(g: Geometry):
    """Area-weighted centroid of polygon/multipolygon; mean for others.
    Computed in a local frame (first vertex of the outer ring) to keep
    full precision at web-mercator coordinate magnitudes."""
    if g.geom_type == POLYGON and g.rings:
        ox, oy = float(g.rings[0][0, 0]), float(g.rings[0][0, 1])
        cx = cy = atot = 0.0
        for i, r in enumerate(g.rings):
            r = r - np.array([ox, oy])
            x, y = r[:-1, 0], r[:-1, 1]
            xn, yn = r[1:, 0], r[1:, 1]
            cross = x * yn - xn * y
            a = cross.sum() / 2.0
            if a == 0:
                continue
            sign = 1.0 if i == 0 else -1.0
            w = abs(a) * sign
            cx += w * float(((x + xn) * cross).sum() / (6.0 * a))
            cy += w * float(((y + yn) * cross).sum() / (6.0 * a))
            atot += w
        if atot != 0:
            return ox + cx / atot, oy + cy / atot
    pts = _representative_points(g)
    return float(pts[:, 0].mean()), float(pts[:, 1].mean())


def buffer_point(x: float, y: float, dist: float, segments: int = 16) -> Geometry:
    """Circular buffer of a point as a polygon approximation."""
    ang = np.linspace(0, 2 * np.pi, segments * 4, endpoint=False)
    ring = np.column_stack([x + dist * np.cos(ang), y + dist * np.sin(ang)])
    return make_polygon(ring)


def _arc(cx, cy, r, a0, a1, seg_per_quad: int = 8):
    """CCW arc points from angle a0 to a1 (a1 normalized above a0)."""
    while a1 < a0:
        a1 += 2 * np.pi
    n = max(2, int(np.ceil((a1 - a0) / (np.pi / 2) * seg_per_quad)))
    ang = np.linspace(a0, a1, n)
    return np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])


def _offset_side(pts: np.ndarray, dist: float, seg_per_quad: int = 8):
    """One side of a round-join offset of an open polyline: offset each
    edge by its left normal scaled -dist (i.e. the right side for
    positive dist), inserting arcs at convex turns."""
    d = np.diff(pts, axis=0)
    L = np.hypot(d[:, 0], d[:, 1])
    keep = L > 0
    d = d[keep] / L[keep][:, None]
    verts = np.vstack([pts[:1], pts[1:][keep]])
    if len(d) == 0:
        return np.empty((0, 2))
    nx, ny = d[:, 1], -d[:, 0]          # right normals
    out = [verts[0] + dist * np.array([nx[0], ny[0]])]
    for i in range(1, len(d)):
        v = verts[i]
        a0 = np.arctan2(ny[i - 1], nx[i - 1])
        a1 = np.arctan2(ny[i], nx[i])
        cross = d[i - 1, 0] * d[i, 1] - d[i - 1, 1] * d[i, 0]
        if cross > 0:     # left turn → the right side sweeps an arc
            out.append(_arc(v[0], v[1], dist, a0, a1, seg_per_quad))
        else:             # right turn → the right side pinches (join)
            out.append(v + dist * np.array([nx[i - 1], ny[i - 1]]))
            out.append(v + dist * np.array([nx[i], ny[i]]))
    out.append(verts[-1] + dist * np.array([nx[-1], ny[-1]]))
    return np.vstack([np.atleast_2d(p) for p in out])


def buffer_line(coords: np.ndarray, dist: float,
                seg_per_quad: int = 8) -> Geometry:
    """Round-cap, round-join buffer of an open polyline (GEOS-free):
    right side forward + end-cap arc + right side of the reversed line
    + start-cap arc. Exact-area capsule for a single segment; for
    polylines the ring can self-touch when dist exceeds the local
    feature size (same caveat GDAL inherits from non-noded inputs)."""
    pts = np.asarray(coords, np.float64)
    if len(pts) < 2:
        return buffer_point(float(pts[0, 0]), float(pts[0, 1]), dist,
                            seg_per_quad)
    side1 = _offset_side(pts, dist, seg_per_quad)
    side2 = _offset_side(pts[::-1], dist, seg_per_quad)
    d_end = pts[-1] - pts[-2]
    a_end = np.arctan2(-d_end[0], d_end[1])      # right normal angle
    cap_end = _arc(pts[-1, 0], pts[-1, 1], dist, a_end, a_end + np.pi,
                   seg_per_quad)
    d_start = pts[0] - pts[1]
    a_start = np.arctan2(-d_start[0], d_start[1])
    cap_start = _arc(pts[0, 0], pts[0, 1], dist, a_start, a_start + np.pi,
                     seg_per_quad)
    ring = np.vstack([side1, cap_end, side2, cap_start, side1[:1]])
    return make_polygon(ring)


def buffer_polygon(g: Geometry, dist: float,
                   seg_per_quad: int = 8) -> Geometry:
    """Positive buffer of a polygon: outer ring offset outward with
    round joins at convex vertices; holes shrink (dropped when they
    vanish). Exact area growth A + P·d + πd² for convex input (up to
    arc discretization); concave outers can self-touch for large d."""
    if dist <= 0:
        raise ValueError("only positive buffer distances supported")
    outer = g.rings[0]
    closed = outer[:-1] if np.array_equal(outer[0], outer[-1]) else outer
    # orient CCW: interior on the LEFT of travel, so the walk's RIGHT
    # side (the offset side) faces outward
    if ring_area(outer) < 0:
        closed = closed[::-1]
    loop = np.vstack([closed, closed[:2]])
    off = _offset_side(loop, dist, seg_per_quad)
    ring = np.vstack([off, off[:1]])
    new_rings = [ring]
    for h in g.rings[1:]:
        hc = h[:-1] if np.array_equal(h[0], h[-1]) else h
        if ring_area(h) > 0:      # holes walk CW: right side = inward
            hc = hc[::-1]
        hloop = np.vstack([hc, hc[:2]])
        hoff = _offset_side(hloop, dist, seg_per_quad)
        hr = np.vstack([hoff, hoff[:1]])
        if abs(ring_area(hr)) > 1e-9:
            new_rings.append(hr)
    return Geometry(POLYGON, rings=new_rings)


def buffer_geometry(g: Geometry, dist: float,
                    seg_per_quad: int = 8) -> Geometry:
    """Buffer for the supported geometry kinds (vector buffer step,
    apps/gdalalg_vector_buffer.cpp semantics; reference delegates to
    GEOS ogr_geometry.h:560)."""
    if g.geom_type == POINT:
        return buffer_point(float(g.coords[0, 0]), float(g.coords[0, 1]),
                            dist, seg_per_quad)
    if g.geom_type == LINESTRING:
        return buffer_line(g.coords, dist, seg_per_quad)
    if g.geom_type == POLYGON:
        return buffer_polygon(g, dist, seg_per_quad)
    if g.geom_type in (MULTIPOINT, MULTILINESTRING, MULTIPOLYGON,
                       GEOMETRYCOLLECTION):
        return Geometry(GEOMETRYCOLLECTION if g.geom_type == GEOMETRYCOLLECTION
                        else MULTIPOLYGON,
                        parts=[buffer_geometry(p, dist, seg_per_quad)
                               for p in g.parts])
    raise ValueError(f"cannot buffer geometry type {g.geom_type}")


def boxes_intersect_polygon(minx, miny, maxx, maxy, poly: Geometry) -> np.ndarray:
    """Vectorized exact Intersects(box_i, poly) for axis-aligned boxes.

    Same semantics as intersects(box(...), poly) (the OGR spatial-filter
    predicate) but evaluated for all boxes at once:
      (a) any polygon vertex inside a box  → polygon (partly) in box;
      (b) any box corner inside the polygon → box (partly) in polygon;
      (c) any polygon edge crosses a box boundary (Liang–Barsky slab
          test) → boundaries intersect.
    Together these cover every intersecting configuration of an
    axis-aligned rectangle and a polygon."""
    minx = np.asarray(minx, np.float64); miny = np.asarray(miny, np.float64)
    maxx = np.asarray(maxx, np.float64); maxy = np.asarray(maxy, np.float64)
    n = len(minx)
    res = np.zeros(n, bool)

    from .wkb import _all_coords
    pts = _all_coords(poly)
    if pts.size:
        inx = ((pts[None, :, 0] >= minx[:, None])
               & (pts[None, :, 0] <= maxx[:, None])
               & (pts[None, :, 1] >= miny[:, None])
               & (pts[None, :, 1] <= maxy[:, None]))
        res |= inx.any(axis=1)

    # (b) box corners inside polygon (covers box ⊂ polygon)
    todo = ~res
    if todo.any():
        cx = np.concatenate([minx[todo], maxx[todo], minx[todo], maxx[todo]])
        cy = np.concatenate([miny[todo], miny[todo], maxy[todo], maxy[todo]])
        hit = points_in_polygon(cx, cy, poly).reshape(4, -1).any(axis=0)
        res[np.flatnonzero(todo)[hit]] = True

    # (c) polygon edges crossing box boundaries: Liang–Barsky slab test,
    # fully vectorized over (remaining boxes × all edges)
    todo = ~res
    segs = _geometry_segments(poly)
    if todo.any() and segs is not None:
        bi = np.flatnonzero(todo)
        starts, ends = segs

        def slab(p, d, lo, hi):
            """Parametric entry/exit of segments vs one slab.
            p, d: (m,) segment origin/delta; lo, hi: (k,) box slab."""
            with np.errstate(divide="ignore", invalid="ignore"):
                ta = (lo[:, None] - p[None, :]) / d[None, :]
                tb = (hi[:, None] - p[None, :]) / d[None, :]
            tmin = np.minimum(ta, tb)
            tmax = np.maximum(ta, tb)
            zero = d == 0
            if zero.any():
                inside = ((p[None, zero] >= lo[:, None])
                          & (p[None, zero] <= hi[:, None]))
                tmin[:, zero] = np.where(inside, -np.inf, np.inf)
                tmax[:, zero] = np.where(inside, np.inf, -np.inf)
            return tmin, tmax

        tx0, tx1 = slab(starts[:, 0], ends[:, 0] - starts[:, 0],
                        minx[bi], maxx[bi])
        ty0, ty1 = slab(starts[:, 1], ends[:, 1] - starts[:, 1],
                        miny[bi], maxy[bi])
        t0 = np.maximum(np.maximum(tx0, ty0), 0.0)
        t1 = np.minimum(np.minimum(tx1, ty1), 1.0)
        res[bi[(t0 <= t1).any(axis=1)]] = True
    return res
