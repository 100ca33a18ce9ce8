"""TopoJSON reader.

Independent implementation of the TopoJSON topology encoding
(https://github.com/topojson/topojson-specification) with the
reference driver's layer/feature semantics
(ogr/ogrsf_frmts/geojson/ogrtopojsonreader.cpp):

* ``arcs`` is the shared arc table; with a ``transform`` present, arc
  positions are delta-encoded quantized ints mapped through
  ``scale * q + translate`` (Point/MultiPoint coordinates are scaled
  but never delta-decoded).
* negative arc index ``i`` means arc ``~i`` reversed; when arcs are
  concatenated the incoming oriented arc's first point is dropped if
  the line already has points (ParseArc :141-160).
* ``objects`` may be a dict or an array.  Named GeometryCollections
  become their own layers (name = dict key, else the object's ``id``,
  else ``TopoJSON``); all other geometry objects land in one shared
  trailing ``TopoJSON`` layer.
* every layer has an ``id`` string field first, then property fields
  in first-encounter order; malformed coordinates/arcs degrade to
  typed EMPTY geometries exactly where the reference does (polygon
  rings are closed and dropped under 4 points, empty polygons are
  dropped from multipolygons).

The reference's CPL JSON parser tolerates trailing commas; plain
``json.loads`` falls back to a comma-stripping retry the same way the
STACIT reader does.
"""

from __future__ import annotations

import json
import re

import pyarrow as pa
from . import pick_layer

__all__ = ["read_topojson", "read_topojson_layer"]


def _loads_lenient(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(re.sub(r",\s*([}\]])", r"\1", text))


def _fmt(v: float) -> str:
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _pt(p):
    """ParsePoint: 2-element numeric array → (x, y) | None."""
    if (isinstance(p, list) and len(p) == 2
            and isinstance(p[0], (int, float))
            and not isinstance(p[0], bool)
            and isinstance(p[1], (int, float))
            and not isinstance(p[1], bool)):
        return float(p[0]), float(p[1])
    return None


class _Scale:
    def __init__(self, doc):
        self.sx = self.sy = 1.0
        self.tx = self.ty = 0.0
        self.delta = False
        tr = doc.get("transform")
        if isinstance(tr, dict):
            sc = tr.get("scale")
            if (isinstance(sc, list) and len(sc) == 2
                    and _pt(sc) is not None):
                self.sx, self.sy = float(sc[0]), float(sc[1])
                self.delta = True
            tl = tr.get("translate")
            if (isinstance(tl, list) and len(tl) == 2
                    and _pt(tl) is not None):
                self.tx, self.ty = float(tl[0]), float(tl[1])
                self.delta = True

    def point(self, x, y):
        return x * self.sx + self.tx, y * self.sy + self.ty


def _decode_arc(arcs_db, idx, sc: _Scale):
    """Arc idx → list of (x, y), delta-decoded when transformed."""
    if not (0 <= idx < len(arcs_db)):
        return None
    arc = arcs_db[idx]
    if not isinstance(arc, list):
        return None
    pts = []
    ax = ay = 0.0
    for p in arc:
        xy = _pt(p)
        if xy is None:
            continue
        x, y = xy
        if sc.delta:
            ax += x
            ay += y
            pts.append(sc.point(ax, ay))
        else:
            pts.append(sc.point(x, y))
    return pts


def _line_from_arcs(ring, arcs_db, sc: _Scale):
    """ParseLineString: arc-index list → point list."""
    out: list = []
    if not isinstance(ring, list):
        return out
    for a in ring:
        if not isinstance(a, int) or isinstance(a, bool):
            continue
        idx, rev = (a, False) if a >= 0 else (-(a + 1), True)
        if idx >= len(arcs_db):
            continue
        pts = _decode_arc(arcs_db, idx, sc)
        if not pts:
            continue
        oriented = pts[::-1] if rev else pts
        out.extend(oriented[1:] if out else oriented)
    return out


def _coords_wkt(pts) -> str:
    return ",".join(f"{_fmt(x)} {_fmt(y)}" for x, y in pts)


def _geom_wkt(obj, arcs_db, sc: _Scale) -> str | None:
    """Object → OGR-dialect WKT (typed EMPTY on degenerate input), or
    None when the object must be skipped entirely."""
    t = obj.get("type")
    if not isinstance(t, str):
        return None
    coords = obj.get("coordinates")
    arcs = obj.get("arcs")
    if t in ("Point", "MultiPoint"):
        if not isinstance(coords, list):
            return None
    elif t in ("LineString", "MultiLineString", "Polygon", "MultiPolygon"):
        if not isinstance(arcs, list):
            return None
    else:
        return None

    if t == "Point":
        xy = _pt(coords)
        if xy is None:
            return "POINT EMPTY"
        x, y = sc.point(*xy)
        return f"POINT ({_fmt(x)} {_fmt(y)})"
    if t == "MultiPoint":
        pts = []
        for p in coords:
            xy = _pt(p)
            if xy is not None:
                pts.append(sc.point(*xy))
        if not pts:
            return "MULTIPOINT EMPTY"
        return "MULTIPOINT (" + _coords_wkt(pts) + ")"
    if t == "LineString":
        pts = _line_from_arcs(arcs, arcs_db, sc)
        if not pts:
            return "LINESTRING EMPTY"
        return "LINESTRING (" + _coords_wkt(pts) + ")"
    if t == "MultiLineString":
        # the reference adds one (possibly empty) line per entry
        lines = [_line_from_arcs(r, arcs_db, sc) if isinstance(r, list)
                 else [] for r in arcs]
        if not lines or all(not ln for ln in lines):
            return "MULTILINESTRING EMPTY"
        return ("MULTILINESTRING ("
                + ",".join("(" + _coords_wkt(ln) + ")"
                           for ln in lines if ln) + ")")
    if t == "Polygon":
        rings = _poly_rings(arcs, arcs_db, sc)
        if not rings:
            return "POLYGON EMPTY"
        return ("POLYGON ("
                + ",".join("(" + _coords_wkt(r) + ")" for r in rings) + ")")
    if t == "MultiPolygon":
        polys = []
        for pa_ in arcs:
            rings = (_poly_rings(pa_, arcs_db, sc)
                     if isinstance(pa_, list) else [])
            if rings:
                polys.append(rings)
        if not polys:
            return "MULTIPOLYGON EMPTY"
        return ("MULTIPOLYGON ("
                + ",".join(
                    "(" + ",".join("(" + _coords_wkt(r) + ")"
                                   for r in rings) + ")"
                    for rings in polys) + ")")
    return None


def _poly_rings(arcs, arcs_db, sc: _Scale):
    rings = []
    for r in arcs:
        pts = _line_from_arcs(r, arcs_db, sc) if isinstance(r, list) else []
        if pts and pts[0] != pts[-1]:
            pts.append(pts[0])           # closeRings
        if len(pts) >= 4:
            rings.append(pts)
    return rings


def _feature(obj, outer_id, arcs_db, sc: _Scale):
    """→ (id, properties-dict, wkt) or None if skipped."""
    wkt = _geom_wkt(obj, arcs_db, sc)
    if wkt is None:
        return None
    fid = outer_id
    if fid is None:
        oid = obj.get("id")
        if isinstance(oid, (str, int)) and not isinstance(oid, bool):
            fid = str(oid)
    props = obj.get("properties")
    props = props if isinstance(props, dict) else {}
    return fid, props, wkt


def _crs_name(doc):
    crs = doc.get("crs")
    if isinstance(crs, dict):
        name = (crs.get("properties") or {}).get("name")
        if isinstance(name, str):
            if name in ("urn:ogc:def:crs:OGC:1.3:CRS84", "CRS84",
                        "EPSG:4326", "urn:ogc:def:crs:EPSG::4326"):
                return "EPSG:4326"
            return name
    return None


def _to_table(feats) -> pa.Table:
    """[(id, props, wkt)] → table: id, property fields in first-seen
    order (stringified, matching the reference's promote-to-string
    behavior on mixed types), wkt, wkb (null for EMPTY)."""
    field_order: list[str] = []
    for _fid, props, _w in feats:
        for k in props:
            if k != "id" and k not in field_order:
                field_order.append(k)
    cols: dict[str, list] = {"id": []}
    for k in field_order:
        cols[k] = []
    cols["wkt"] = []
    cols["wkb"] = []
    from ..core.wkt import loads_wkt
    from ..core.wkb import dumps as wkb_dumps
    for fid, props, wkt in feats:
        pid = props.get("id")
        if pid is not None and not isinstance(pid, (dict, list)):
            fid = str(pid)
        cols["id"].append(fid)
        for k in field_order:
            v = props.get(k)
            if v is None or isinstance(v, (dict, list)):
                cols[k].append(None)
            elif isinstance(v, bool):
                cols[k].append("true" if v else "false")
            else:
                cols[k].append(str(v))
        cols["wkt"].append(wkt)
        if wkt.endswith(" EMPTY"):
            cols["wkb"].append(None)
        else:
            try:
                cols["wkb"].append(wkb_dumps(loads_wkt(wkt)))
            except (ValueError, KeyError):
                cols["wkb"].append(None)
    schema = pa.schema([(n, pa.binary() if n == "wkb" else pa.string())
                        for n in cols])
    return pa.Table.from_pydict(cols, schema=schema)


def read_topojson(path_or_text: str) -> dict[str, pa.Table]:
    """→ {layer name: table}.  Layer order: named GeometryCollections
    in encounter order, then the shared ``TopoJSON`` layer last (the
    reference adds the main layer after the second pass)."""
    text = (path_or_text if path_or_text.lstrip().startswith("{")
            else open(path_or_text, encoding="utf-8").read())
    doc = _loads_lenient(text)
    if doc.get("type") != "Topology":
        raise ValueError("not a TopoJSON document (type != Topology)")
    arcs_db = doc.get("arcs")
    if not isinstance(arcs_db, list):
        return {}
    objects = doc.get("objects")
    sc = _Scale(doc)
    crs = _crs_name(doc)

    layers: dict[str, pa.Table] = {}
    main: list = []

    def handle(outer_id, obj):
        if not isinstance(obj, dict):
            return
        t = obj.get("type")
        if t == "GeometryCollection":
            geoms = obj.get("geometries")
            if not isinstance(geoms, list):
                return
            name = outer_id
            if name is None:
                oid = obj.get("id")
                if isinstance(oid, (str, int)) and not isinstance(oid, bool):
                    name = str(oid)
            name = name or "TopoJSON"
            feats = []
            for g in geoms:
                if isinstance(g, dict):
                    f = _feature(g, None, arcs_db, sc)
                    if f is not None:
                        feats.append(f)
            layers[name] = _to_table(feats)
        elif isinstance(t, str):
            f = _feature(obj, outer_id, arcs_db, sc)
            if f is not None:
                main.append(f)

    if isinstance(objects, dict):
        for key, obj in objects.items():
            handle(key, obj)
    elif isinstance(objects, list):
        for obj in objects:
            handle(None, obj)
    else:
        return {}

    if main:
        layers["TopoJSON"] = _to_table(main)
    if crs:
        for name, t in layers.items():
            layers[name] = t.replace_schema_metadata({b"crs": crs.encode()})
    return layers


def read_topojson_layer(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_topojson(path), path, layer)
