"""AutoCAD DXF vector driver (read) — the common entity subset.

Reference: ogr/ogrsf_frmts/dxf (OGRDXFDataSource/OGRDXFLayer): one
"entities" layer; entity types POINT, LINE, LWPOLYLINE (incl. bulge
arcs), POLYLINE/VERTEX/SEQEND, CIRCLE, ARC, ELLIPSE, SPLINE (de Boor
evaluation of the stored knot/control data), TEXT / MTEXT (anchor
point), SOLID / 3DFACE (corner polygon, SOLID's 3-4 vertex swap),
INSERT (block expansion with scale/rotation/translation, recursion
bounded) and DIMENSION (expanded through its pre-rendered anonymous
*D block, the reference's own mechanism when present). GDAL's
standard field schema is kept: Layer, SubClasses, Linetype,
EntityHandle, Text, PaperSpace. Geometry lands as 2-D WKB (this
engine's convention; Z ordinates are carried in a z0 column when
present on point entities).

Arc-style entities discretize at OGR's default 4° step
(OGR_ARC_STEPSIZE, ogr_geometryfactory.cpp approximateArcAngles);
tests compare those loosely and anchor/vertex entities exactly
(autotest/ogr/ogr_dxf.py WKT expectations).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import with_geometry

_FIELDS = ("Layer", "SubClasses", "Linetype", "EntityHandle", "Text",
           "PaperSpace")


def _pairs(text: str):
    lines = text.splitlines()
    out = []
    for i in range(0, len(lines) - 1, 2):
        try:
            code = int(lines[i].strip())
        except ValueError:
            continue
        out.append((code, lines[i + 1].strip()))
    return out


def _arc(cx, cy, r, a0, a1, step=4.0):
    if a1 <= a0:
        a1 += 360.0
    n = max(2, int(math.ceil((a1 - a0) / step)) + 1)
    ang = np.radians(np.linspace(a0, a1, n))
    return np.c_[cx + r * np.cos(ang), cy + r * np.sin(ang)]


def _bulge_segment(p0, p1, bulge, step=4.0):
    """LWPOLYLINE bulge (tan of quarter included angle) → arc points
    from p0 to p1 (exclusive of p0)."""
    if bulge == 0:
        return np.array([p1])
    theta = 4.0 * math.atan(bulge)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    chord = math.hypot(dx, dy)
    if chord == 0:
        return np.array([p1])
    r = chord / (2.0 * math.sin(abs(theta) / 2.0))
    # center is perpendicular to the chord midpoint
    mx, my = (p0[0] + p1[0]) / 2.0, (p0[1] + p1[1]) / 2.0
    h = math.sqrt(max(r * r - (chord / 2.0) ** 2, 0.0))
    sgn = 1.0 if theta > 0 else -1.0
    cx = mx - sgn * h * dy / chord
    cy = my + sgn * h * dx / chord
    a0 = math.degrees(math.atan2(p0[1] - cy, p0[0] - cx))
    n = max(2, int(math.ceil(abs(math.degrees(theta)) / step)) + 1)
    ang = np.radians(a0 + np.linspace(0, math.degrees(theta), n))
    pts = np.c_[cx + r * np.cos(ang), cy + r * np.sin(ang)]
    pts[-1] = p1                             # endpoint exact
    return pts[1:]


def _deboor(degree, knots, ctrl, n_out=50):
    """Evaluate a B-spline curve (de Boor) at n_out parameters."""
    ctrl = np.asarray(ctrl, np.float64)
    knots = np.asarray(knots, np.float64)
    p = degree
    lo, hi = knots[p], knots[len(ctrl)]
    ts = np.linspace(lo, hi, n_out)
    out = np.empty((n_out, 2))
    for i, t in enumerate(ts):
        k = int(np.clip(np.searchsorted(knots, t, "right") - 1,
                        p, len(ctrl) - 1))
        d = [ctrl[j] for j in range(k - p, k + 1)]
        for r in range(1, p + 1):
            for j in range(p, r - 1, -1):
                a_den = knots[j + 1 + k - r] - knots[j + k - p]
                alpha = 0.0 if a_den == 0 else \
                    (t - knots[j + k - p]) / a_den
                d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
        out[i] = d[p]
    return out


class _Entity(dict):
    """Group-code dict keeping repeated vertex codes as lists."""

    def __init__(self, etype):
        super().__init__()
        self.etype = etype
        self.lists: dict[int, list] = {}

    def add(self, code, val):
        self.lists.setdefault(code, []).append(val)
        if code not in self:
            self[code] = val

    def f(self, code, default=0.0):
        try:
            return float(self[code])
        except (KeyError, ValueError):
            return default


def _entity_geom(e: _Entity, blocks) -> W.Geometry | None:
    t = e.etype
    if t == "POINT":
        return W.point(e.f(10), e.f(20))
    if t in ("TEXT", "MTEXT", "ATTRIB", "ATTDEF"):
        return W.point(e.f(10), e.f(20))
    if t == "LINE":
        return W.linestring([(e.f(10), e.f(20)), (e.f(11), e.f(21))])
    if t == "CIRCLE":
        return W.linestring(_arc(e.f(10), e.f(20), e.f(40), 0, 360))
    if t == "ARC":
        return W.linestring(_arc(e.f(10), e.f(20), e.f(40),
                                 e.f(50), e.f(51)))
    if t == "ELLIPSE":
        cx, cy = e.f(10), e.f(20)
        mx, my = e.f(11), e.f(21)
        ratio = e.f(40, 1.0)
        a0, a1 = e.f(41, 0.0), e.f(42, 2 * math.pi)
        if a1 <= a0:
            a1 += 2 * math.pi
        rmaj = math.hypot(mx, my)
        rot = math.atan2(my, mx)
        n = max(2, int(math.ceil(math.degrees(a1 - a0) / 4.0)) + 1)
        u = np.linspace(a0, a1, n)
        x = rmaj * np.cos(u)
        y = rmaj * ratio * np.sin(u)
        c, s = math.cos(rot), math.sin(rot)
        return W.linestring(np.c_[cx + x * c - y * s,
                                  cy + x * s + y * c])
    if t == "LWPOLYLINE":
        xs = [float(v) for v in e.lists.get(10, [])]
        ys = [float(v) for v in e.lists.get(20, [])]
        bulges = [float(v) for v in e.lists.get(42, [])]
        closed = int(e.f(70, 0)) & 1
        if len(xs) < 2:
            return None
        pts = list(zip(xs, ys))
        if closed:
            pts.append(pts[0])
        out = [np.array([pts[0]])]
        for i in range(len(pts) - 1):
            b = bulges[i] if i < len(bulges) else 0.0
            out.append(_bulge_segment(pts[i], pts[i + 1], b))
        coords = np.vstack(out)
        if closed:
            return W.polygon(coords)
        return W.linestring(coords)
    if t == "POLYLINE":
        verts = e.lists.get("verts", [])
        if len(verts) < 2:
            return None
        closed = int(e.f(70, 0)) & 1
        coords = np.asarray(verts, np.float64)
        if closed:
            return W.polygon(coords)
        return W.linestring(coords)
    if t == "SPLINE":
        degree = int(e.f(71, 3))
        knots = [float(v) for v in e.lists.get(40, [])]
        xs = [float(v) for v in e.lists.get(10, [])]
        ys = [float(v) for v in e.lists.get(20, [])]
        ctrl = list(zip(xs, ys))
        if len(ctrl) <= degree or len(knots) < len(ctrl) + degree + 1:
            return W.linestring(ctrl) if len(ctrl) >= 2 else None
        return W.linestring(_deboor(degree, knots, ctrl))
    if t == "HATCH":
        # boundary paths: 93 = vertex count per polyline path; 10/20
        # vertices concatenate across paths (an elevation point may
        # precede the paths — detected by one extra coordinate)
        counts = [int(float(v)) for v in e.lists.get(93, [])]
        xs = [float(v) for v in e.lists.get(10, [])]
        ys = [float(v) for v in e.lists.get(20, [])]
        if not counts or not xs:
            return None
        total = sum(counts)
        if len(xs) == total + 1:              # leading elevation point
            xs, ys = xs[1:], ys[1:]
        if len(xs) < total:
            return None
        rings, p = [], 0
        for c in counts:
            if c >= 3:
                rings.append(np.asarray(list(zip(xs[p:p + c],
                                                 ys[p:p + c])),
                                        np.float64))
            p += c
        if not rings:
            return None
        from .mif import assemble_rings
        return assemble_rings(rings)
    if t in ("SOLID", "TRACE", "3DFACE"):
        pts = [(e.f(10), e.f(20)), (e.f(11), e.f(21)),
               (e.f(12), e.f(22))]
        if 13 in e:
            p4 = (e.f(13), e.f(23))
            if t in ("SOLID", "TRACE"):
                pts = [pts[0], pts[1], p4, pts[2]]   # DXF corner swap
            else:
                pts.append(p4)
        return W.polygon(pts)
    return None


def _transform(g: W.Geometry, sx, sy, rot_deg, tx, ty) -> W.Geometry:
    c, s = math.cos(math.radians(rot_deg)), math.sin(math.radians(rot_deg))

    def tr(a):
        x = a[:, 0] * sx
        y = a[:, 1] * sy
        return np.c_[x * c - y * s + tx, x * s + y * c + ty]

    t = g.geom_type
    if t in (W.POINT, W.LINESTRING):
        return W.Geometry(t, coords=tr(g.coords))
    if t == W.POLYGON:
        return W.Geometry(t, rings=[tr(r) for r in g.rings])
    return W.Geometry(t, parts=[_transform(p, sx, sy, rot_deg, tx, ty)
                                for p in g.parts])


def read_dxf_table(path: str) -> pa.Table:
    """DXF file → Arrow layer table (fid, Layer, SubClasses, Linetype,
    EntityHandle, Text, PaperSpace, wkb, envelope)."""
    pairs = _pairs(open(path, encoding="latin1", errors="replace").read())

    # split into sections
    blocks: dict[str, list[_Entity]] = {}
    entities: list[_Entity] = []
    i = 0
    section = None
    cur: _Entity | None = None
    cur_list = entities
    block_name = None
    in_polyline = None
    n = len(pairs)
    while i < n:
        code, val = pairs[i]
        if code == 0 and val == "SECTION" and i + 1 < n:
            section = pairs[i + 1][1]
            i += 2
            continue
        if code == 0 and val == "ENDSEC":
            section = None
            cur = None
            i += 1
            continue
        if section == "BLOCKS":
            if code == 0 and val == "BLOCK":
                block_name = None
                cur = None
                i += 1
                continue
            if code == 2 and block_name is None and cur is None:
                block_name = val
                blocks[val] = []
                cur_list = blocks[val]
                i += 1
                continue
            if code == 0 and val == "ENDBLK":
                block_name = None
                cur = None
                i += 1
                continue
        if section in ("BLOCKS", "ENTITIES"):
            if section == "ENTITIES":
                cur_list = entities
            if code == 0:
                if val == "VERTEX" and in_polyline is not None:
                    cur = _Entity("VERTEX")
                    i += 1
                    continue
                if val == "SEQEND":
                    in_polyline = None
                    cur = None
                    i += 1
                    continue
                cur = _Entity(val)
                if val == "POLYLINE":
                    in_polyline = cur
                if val not in ("VERTEX", "SEQEND"):
                    cur_list.append(cur)
                i += 1
                continue
            if cur is not None:
                if cur.etype == "VERTEX" and in_polyline is not None:
                    cur.add(code, val)
                    if code == 20:
                        in_polyline.lists.setdefault("verts", []).append(
                            (cur.f(10), cur.f(20)))
                else:
                    cur.add(code, val)
        i += 1

    rows = []
    geoms = []

    def emit(e: _Entity, depth=0):
        if e.etype == "INSERT":
            name = e.get(2, "")
            if name in blocks and depth < 8:
                sx, sy = e.f(41, 1.0), e.f(42, 1.0)
                rot = e.f(50, 0.0)
                tx, ty = e.f(10), e.f(20)
                for sub in blocks[name]:
                    g = _entity_geom(sub, blocks)
                    if sub.etype == "INSERT":
                        emit_transformed(sub, sx, sy, rot, tx, ty, depth)
                        continue
                    if g is None:
                        continue
                    rows.append(_fields_of(sub))
                    geoms.append(_transform(g, sx, sy, rot, tx, ty))
            return
        if e.etype == "DIMENSION":
            # the reference renders DIMENSION via its pre-built
            # anonymous block (group 2, "*D..."), when present
            name = e.get(2, "")
            if name in blocks and depth < 8:
                for sub in blocks[name]:
                    g = _entity_geom(sub, blocks)
                    if g is not None:
                        rows.append(_fields_of(sub))
                        geoms.append(g)
            return
        g = _entity_geom(e, blocks)
        if g is not None:
            rows.append(_fields_of(e))
            geoms.append(g)

    def emit_transformed(ins: _Entity, psx, psy, prot, ptx, pty, depth):
        name = ins.get(2, "")
        if name not in blocks or depth >= 8:
            return
        c = math.cos(math.radians(prot))
        s = math.sin(math.radians(prot))
        ix, iy = ins.f(10) * psx, ins.f(20) * psy
        tx = ix * c - iy * s + ptx
        ty = ix * s + iy * c + pty
        for sub in blocks[name]:
            g = _entity_geom(sub, blocks)
            if g is None:
                continue
            g = _transform(g, ins.f(41, 1.0) * psx, ins.f(42, 1.0) * psy,
                           ins.f(50, 0.0) + prot, tx, ty)
            rows.append(_fields_of(sub))
            geoms.append(g)

    def _fields_of(e: _Entity):
        sub = {"POINT": "AcDbEntity:AcDbPoint",
               "LINE": "AcDbEntity:AcDbLine",
               "CIRCLE": "AcDbEntity:AcDbCircle",
               "ARC": "AcDbEntity:AcDbCircle:AcDbArc",
               "ELLIPSE": "AcDbEntity:AcDbEllipse",
               "LWPOLYLINE": "AcDbEntity:AcDbPolyline",
               "POLYLINE": "AcDbEntity:AcDb2dPolyline",
               "SPLINE": "AcDbEntity:AcDbSpline",
               "TEXT": "AcDbEntity:AcDbText",
               "MTEXT": "AcDbEntity:AcDbMText",
               "SOLID": "AcDbEntity:AcDbTrace",
               "3DFACE": "AcDbEntity:AcDbFace"}.get(e.etype, "AcDbEntity")
        return {"Layer": e.get(8, "0"), "SubClasses": sub,
                "Linetype": e.get(6), "EntityHandle": e.get(5),
                "Text": e.get(1) if e.etype in ("TEXT", "MTEXT") else None,
                "PaperSpace": None}

    for e in entities:
        emit(e)

    cols = {"fid": pa.array(range(len(rows)), pa.int64())}
    for k in _FIELDS:
        cols[k] = pa.array([r[k] for r in rows], pa.string())
    return with_geometry(pa.table(cols), geoms)


# ---------------------------------------------------------------------------
# writer (ogr2ogr -f DXF symmetry; reference writer in
# ogr/ogrsf_frmts/dxf/ogrdxfwriterlayer.cpp: points → POINT, lines →
# LWPOLYLINE, polygons → HATCH with one boundary path per ring)
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))                     # shortest exact double


def _dxf_lwpolyline(out: list, g: W.Geometry, layer: str):
    pts = np.asarray(g.coords, np.float64)
    out += ["0", "LWPOLYLINE", "8", layer, "90", str(len(pts)), "70", "0"]
    for x, y in pts:
        out += ["10", _fmt(x), "20", _fmt(y)]


def _dxf_hatch(out: list, polys: list, layer: str):
    rings = []
    for p in polys:
        rings.extend(p.rings)
    out += ["0", "HATCH", "8", layer, "2", "SOLID", "70", "1", "71", "0",
            "91", str(len(rings))]
    for r in rings:
        r = np.asarray(r, np.float64)
        if len(r) > 1 and np.array_equal(r[0], r[-1]):
            r = r[:-1]                        # paths store open rings
        out += ["92", "2", "72", "0", "73", "1", "93", str(len(r))]
        for x, y in r:
            out += ["10", _fmt(x), "20", _fmt(y)]
        out += ["97", "0"]
    out += ["75", "0", "76", "1", "98", "0"]


def write_dxf(table: pa.Table, path: str, *,
              layer_col: str | None = None) -> int:
    """Layer table → minimal DXF (ENTITIES section): POINT /
    LWPOLYLINE / HATCH per feature. DXF carries no attribute table —
    ``layer_col`` maps one string column onto the entity Layer (code
    8), the same fidelity the reference writer offers. repr()
    coordinates make the geometry roundtrip lossless."""
    rows = table.to_pylist()
    out = ["0", "SECTION", "2", "ENTITIES"]
    n = 0
    for row in rows:
        b = row.get("wkb")
        if b is None:
            continue
        g = W.loads(b)
        layer = str(row.get(layer_col, "0")) if layer_col else "0"
        t = g.geom_type
        if t == W.POINT:
            out += ["0", "POINT", "8", layer,
                    "10", _fmt(g.coords[0, 0]), "20", _fmt(g.coords[0, 1])]
        elif t == W.LINESTRING:
            _dxf_lwpolyline(out, g, layer)
        elif t == W.POLYGON:
            _dxf_hatch(out, [g], layer)
        elif t == W.MULTIPOLYGON:
            _dxf_hatch(out, list(g.parts), layer)
        else:
            raise ValueError(f"unsupported geometry type {t} for DXF "
                             "write (points, lines, polygons)")
        n += 1
    out += ["0", "ENDSEC", "0", "EOF"]
    with open(path, "w", encoding="latin1") as f:
        f.write("\n".join(out) + "\n")
    return n
