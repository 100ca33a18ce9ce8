"""ISO WKB geometry codec — pure numpy/struct, no GEOS.

Implements the subset of the ISO WKB type tree our vector model needs
(reference type codes: ogr/ogr_core.h:411-525): Point=1, LineString=2,
Polygon=3, MultiPoint=4, MultiLineString=5, MultiPolygon=6,
GeometryCollection=7. 2-D only. Geometry columns in our Datasets are
WKB ``binary`` — the same Arrow convention OGR itself exposes
(ogr/ogrsf_frmts/generic/ogrlayerarrow.cpp:498).

Geometries decode into light dataclasses holding numpy coordinate
arrays; rings are (n, 2) float64 arrays, closed (first == last point).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

POINT, LINESTRING, POLYGON = 1, 2, 3
MULTIPOINT, MULTILINESTRING, MULTIPOLYGON, GEOMETRYCOLLECTION = 4, 5, 6, 7
# curved / surface types (ogr/ogr_core.h:440-452) — accepted on READ and
# linearized to the flat types above, mirroring what
# OGRGeometryFactory::forceTo + curveToLineString do for non-curve-aware
# consumers (ogr/ogrgeometryfactory.cpp)
CIRCULARSTRING, COMPOUNDCURVE, CURVEPOLYGON = 8, 9, 10
MULTICURVE, MULTISURFACE = 11, 12
POLYHEDRALSURFACE, TIN, TRIANGLE = 15, 16, 17

_TYPE_NAMES = {1: "Point", 2: "LineString", 3: "Polygon", 4: "MultiPoint",
               5: "MultiLineString", 6: "MultiPolygon", 7: "GeometryCollection"}

# default max angle step for arc linearization, degrees — the
# reference's OGR_ARC_STEPSIZE default (ogr/ogrgeometryfactory.cpp)
_ARC_STEP_DEG = 4.0


def _arc_points(p0, p1, p2, step: float) -> np.ndarray:
    """Points along the circular arc through p0→p1→p2 (start,
    intermediate, end), ≤ ``step`` radians apart; endpoints exact.
    p0 == p2 is a full circle (GPKG/SQL-MM convention)."""
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    if ax == cx and ay == cy:
        # start == end: full circle with p0–p1 as diameter (SQL-MM /
        # GPKG convention — the intermediate point is antipodal)
        ux, uy = (ax + bx) / 2.0, (ay + by) / 2.0
        r = float(np.hypot(ax - ux, ay - uy))
        if r == 0.0:
            return np.array([p0, p1], dtype=np.float64)
        a0 = float(np.arctan2(ay - uy, ax - ux))
        n = max(2, int(np.ceil(2.0 * np.pi / step)))
        ang = a0 + 2.0 * np.pi * np.linspace(0.0, 1.0, n + 1)
        pts = np.column_stack([ux + r * np.cos(ang), uy + r * np.sin(ang)])
        pts[0] = p0
        pts[-1] = p2
        return pts
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(1.0, abs(ax) + abs(ay) + abs(bx) + abs(by) + abs(cx) + abs(cy))
    if abs(d) < 1e-12 * scale * scale:
        return np.array([p0, p1, p2], dtype=np.float64)  # collinear
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r = float(np.hypot(ax - ux, ay - uy))
    a0 = float(np.arctan2(ay - uy, ax - ux))
    a1 = float(np.arctan2(by - uy, bx - ux))
    a2 = float(np.arctan2(cy - uy, cx - ux))
    two_pi = 2.0 * np.pi
    dc = (a2 - a0) % two_pi
    d1 = (a1 - a0) % two_pi
    if dc < 1e-12:                      # start == end → full circle
        sweep, sgn = two_pi, (1.0 if d1 > 0 else -1.0)
    elif d1 <= dc:                      # intermediate on the CCW path
        sweep, sgn = dc, 1.0
    else:                               # CW
        sweep, sgn = two_pi - dc, -1.0
    n = max(2, int(np.ceil(sweep / step)))
    ang = a0 + sgn * sweep * np.linspace(0.0, 1.0, n + 1)
    pts = np.column_stack([ux + r * np.cos(ang), uy + r * np.sin(ang)])
    pts[0] = p0
    pts[-1] = p2
    return pts


def _linearize_arcs(coords: np.ndarray,
                    step_deg: float = _ARC_STEP_DEG) -> np.ndarray:
    """CircularString control points (2k+1 rows, consecutive 3-point
    arcs sharing endpoints) → densified polyline."""
    if len(coords) < 3:
        return np.asarray(coords, dtype=np.float64)
    step = float(np.deg2rad(step_deg))
    out = [coords[:1]]
    for i in range(0, len(coords) - 2, 2):
        seg = _arc_points(coords[i], coords[i + 1], coords[i + 2], step)
        out.append(seg[1:])
    return np.vstack(out)


@dataclass
class Geometry:
    geom_type: int
    # Point: coords shape (1,2); LineString: (n,2); Polygon: rings list;
    # Multi*/Collection: parts list of Geometry.
    coords: np.ndarray | None = None
    rings: list = field(default_factory=list)
    parts: list = field(default_factory=list)

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES[self.geom_type]

    def envelope(self):
        """(minx, miny, maxx, maxy); NaNs for empty geometries."""
        pts = _all_coords(self)
        if pts.size == 0:
            nan = float("nan")
            return (nan, nan, nan, nan)
        return (float(pts[:, 0].min()), float(pts[:, 1].min()),
                float(pts[:, 0].max()), float(pts[:, 1].max()))


def _all_coords(g: Geometry) -> np.ndarray:
    if g.geom_type in (POINT, LINESTRING):
        return g.coords if g.coords is not None else np.empty((0, 2))
    if g.geom_type == POLYGON:
        return np.vstack(g.rings) if g.rings else np.empty((0, 2))
    arrs = [_all_coords(p) for p in g.parts]
    return np.vstack(arrs) if arrs else np.empty((0, 2))


def point(x: float, y: float) -> Geometry:
    return Geometry(POINT, coords=np.array([[x, y]], dtype=np.float64))


def linestring(coords) -> Geometry:
    return Geometry(LINESTRING, coords=np.asarray(coords, dtype=np.float64))


def polygon(shell, holes=()) -> Geometry:
    rings = [_close_ring(np.asarray(shell, dtype=np.float64))]
    rings += [_close_ring(np.asarray(h, dtype=np.float64)) for h in holes]
    return Geometry(POLYGON, rings=rings)


def multipolygon(polys) -> Geometry:
    return Geometry(MULTIPOLYGON, parts=list(polys))


def multipoint(coords) -> Geometry:
    c = np.asarray(coords, dtype=np.float64)
    return Geometry(MULTIPOINT, parts=[point(x, y) for x, y in c])


def collection(parts) -> Geometry:
    return Geometry(GEOMETRYCOLLECTION, parts=list(parts))


def box(minx, miny, maxx, maxy) -> Geometry:
    """Axis-aligned rectangle polygon (CCW shell)."""
    return polygon([(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy), (minx, miny)])


def _close_ring(r: np.ndarray) -> np.ndarray:
    if len(r) and not np.array_equal(r[0], r[-1]):
        r = np.vstack([r, r[:1]])
    return r


# ---------------------------------------------------------------------------
# WKB encode / decode (little-endian; accepts both byte orders on read)
# ---------------------------------------------------------------------------

def dumps(g: Geometry) -> bytes:
    out = bytearray()
    _write(g, out)
    return bytes(out)


def _write(g: Geometry, out: bytearray):
    out += b"\x01"  # little endian
    out += struct.pack("<I", g.geom_type)
    t = g.geom_type
    if t == POINT:
        out += struct.pack("<2d", g.coords[0, 0], g.coords[0, 1])
    elif t in (LINESTRING, CIRCULARSTRING):
        out += struct.pack("<I", len(g.coords))
        out += np.ascontiguousarray(g.coords, dtype="<f8").tobytes()
    elif t == POLYGON:
        out += struct.pack("<I", len(g.rings))
        for r in g.rings:
            out += struct.pack("<I", len(r))
            out += np.ascontiguousarray(r, dtype="<f8").tobytes()
    else:
        out += struct.pack("<I", len(g.parts))
        for p in g.parts:
            _write(p, out)


def loads(buf: bytes) -> Geometry:
    g, _ = _read(memoryview(buf), 0)
    return g


def _read(mv: memoryview, off: int):
    bo = "<" if mv[off] == 1 else ">"
    (raw_type,) = struct.unpack_from(bo + "I", mv, off + 1)
    # coordinate dimension: ISO (1000=Z, 2000=M, 3000=ZM) and EWKB
    # (0x80000000=Z, 0x40000000=M) flags; extra ordinates are read and
    # DROPPED (our model is 2-D), never silently mis-offset
    dims = 2
    base = raw_type & 0x0FFFFFFF        # EWKB flags masked off first
    iso = (base % 10000) // 1000
    if iso in (1, 2):
        dims = 3
    elif iso == 3:
        dims = 4
    if raw_type & 0x80000000:
        dims += 1
    if raw_type & 0x40000000:
        dims += 1
    t = base % 1000
    off += 5
    # EWKB SRID flag (PostGIS 0x20000000): a 4-byte SRID follows the type
    # word before the coordinates — skip it (our model carries CRS at the
    # layer level, not per geometry).
    if raw_type & 0x20000000:
        off += 4
    stride = 8 * dims

    if t == POINT:
        x, y = struct.unpack_from(bo + "2d", mv, off)
        return point(x, y), off + stride
    if t == LINESTRING:
        (n,) = struct.unpack_from(bo + "I", mv, off)
        off += 4
        coords = np.frombuffer(mv, dtype=bo + "f8", count=dims * n,
                               offset=off).reshape(n, dims)[:, :2]
        off += stride * n
        return Geometry(LINESTRING, coords=coords.astype(np.float64)), off
    if t == POLYGON:
        (nr,) = struct.unpack_from(bo + "I", mv, off)
        off += 4
        rings = []
        for _ in range(nr):
            (n,) = struct.unpack_from(bo + "I", mv, off)
            off += 4
            r = np.frombuffer(mv, dtype=bo + "f8", count=dims * n,
                              offset=off).reshape(n, dims)[:, :2]
            rings.append(r.astype(np.float64))
            off += stride * n
        return Geometry(POLYGON, rings=rings), off
    if t == CIRCULARSTRING:
        (n,) = struct.unpack_from(bo + "I", mv, off)
        off += 4
        coords = np.frombuffer(mv, dtype=bo + "f8", count=dims * n,
                               offset=off).reshape(n, dims)[:, :2]
        off += stride * n
        return Geometry(LINESTRING,
                        coords=_linearize_arcs(coords.astype(np.float64))), off
    if t == TRIANGLE:
        # identical layout to Polygon (ogr_core.h:452); decode as one
        (nr,) = struct.unpack_from(bo + "I", mv, off)
        off += 4
        rings = []
        for _ in range(nr):
            (n,) = struct.unpack_from(bo + "I", mv, off)
            off += 4
            r = np.frombuffer(mv, dtype=bo + "f8", count=dims * n,
                              offset=off).reshape(n, dims)[:, :2]
            rings.append(r.astype(np.float64))
            off += stride * n
        return Geometry(POLYGON, rings=rings), off
    if t in (COMPOUNDCURVE, CURVEPOLYGON, MULTICURVE, MULTISURFACE,
             POLYHEDRALSURFACE, TIN,
             MULTIPOINT, MULTILINESTRING, MULTIPOLYGON, GEOMETRYCOLLECTION):
        # all are counted lists of child geometries, each with its own
        # byte-order + type header
        (n,) = struct.unpack_from(bo + "I", mv, off)
        off += 4
        parts = []
        for _ in range(n):
            p, off = _read(mv, off)
            parts.append(p)
        if t == COMPOUNDCURVE:
            # children (LineString / linearized CircularString) chain
            # end-to-start: concatenate into ONE LineString
            segs = [p.coords for p in parts if p.coords is not None
                    and len(p.coords)]
            if not segs:
                return Geometry(LINESTRING, coords=np.empty((0, 2))), off
            chain = [segs[0]]
            for s in segs[1:]:
                drop = 1 if (len(s) and np.allclose(s[0], chain[-1][-1])) else 0
                chain.append(s[drop:])
            return Geometry(LINESTRING, coords=np.vstack(chain)), off
        if t == CURVEPOLYGON:
            # rings are full child geometries (unlike Polygon's raw
            # rings); each decodes to a LineString → closed ring
            rings = [_close_ring(p.coords) for p in parts
                     if p.coords is not None and len(p.coords)]
            return Geometry(POLYGON, rings=rings), off
        if t == MULTICURVE:
            return Geometry(MULTILINESTRING, parts=parts), off
        if t in (MULTISURFACE, POLYHEDRALSURFACE, TIN):
            return Geometry(MULTIPOLYGON, parts=parts), off
        return Geometry(t, parts=parts), off
    raise ValueError(f"unsupported WKB geometry type {raw_type}")


def envelopes_of_wkb(wkbs) -> np.ndarray:
    """Bulk envelope computation: list of WKB buffers → (n,4) float64
    [minx,miny,maxx,maxy] array. ``sources/vector.py::with_geometry``,
    which makes every layer's envelope columns, uses it for geometries
    given as WKB; for ``Geometry`` objects it calls
    ``Geometry.envelope``."""
    out = np.empty((len(wkbs), 4), dtype=np.float64)
    for i, b in enumerate(wkbs):
        out[i] = loads(b).envelope()
    return out
