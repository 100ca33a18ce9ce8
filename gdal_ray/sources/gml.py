"""GML vector driver (read) — WFS FeatureCollections / GML2 / GML3.

Reference semantics: ogr/ogrsf_frmts/gml (GMLReader + OGRGMLLayer):
features live under gml:featureMember (one child each),
gml:featureMembers (all children) or wfs:member; the feature element's
local name is the layer name, its gml:id / fid attribute the feature
id; simple text-bearing children become attribute fields (int/real/
string sniffed per column, like the reference's .gfs-less type
detection); the geometry is the first child property wrapping (or
being) a GML geometry element. Geometry grammar: GML2
<coordinates cs ts decimal> and <coord><X><Y>, GML3 <pos>/<posList
srsDimension>, Polygon outerBoundaryIs/exterior +
innerBoundaryIs/interior, Multi* via *Member/*Members wrappers,
Surface/patches/PolygonPatch and Curve/segments/LineStringSegment
(linearized containers). Axis order is kept as written (no urn-based
lat/lon swap — the reference's GML_INVERT_AXIS_ORDER_IF_LAT_LONG
behavior is out of scope and documented here).

Written from the public OGC 07-036 / 03-105r1 specs; golden row/field/
geometry expectations from autotest/ogr/ogr_gml.py in
tests/test_gpx_gml.py.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

_GEOM_NAMES = {
    "Point", "LineString", "LinearRing", "Polygon", "Box", "Envelope",
    "MultiPoint", "MultiLineString", "MultiPolygon", "MultiGeometry",
    "MultiCurve", "MultiSurface", "Surface", "Curve", "CompositeCurve",
    "OrientableCurve",
}


def _local(tag) -> str:
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def _parse_coordinates(el) -> np.ndarray:
    """GML2 <coordinates>: tuples split by ts (default space), members
    by cs (default comma). Some producers invert the separators
    ("0 0,0 1,1 1" — spaces inside tuples, commas between); the
    reference tolerates that (ogr_gml_55 fixture), so when the first
    tuple lacks the member separator the roles swap."""
    cs = el.get("cs", ",")
    ts = el.get("ts", " ")
    dec = el.get("decimal", ".")
    txt = (el.text or "").strip()
    if dec != ".":
        txt = txt.replace(dec, ".")
    tuples = [t for t in (txt.split(ts) if ts != " " else txt.split())
              if t.strip()]
    if tuples and cs not in tuples[0] and cs in txt:
        tuples = [t for t in txt.split(cs) if t.strip()]
        pts = [tuple(map(float, t.split()[:2])) for t in tuples]
        return np.asarray(pts, np.float64).reshape(-1, 2)
    pts = []
    for tup in tuples:
        parts = tup.strip().split(cs)
        if len(parts) < 2:
            continue
        pts.append((float(parts[0]), float(parts[1])))
    return np.asarray(pts, np.float64).reshape(-1, 2)


def _parse_poslist(el) -> np.ndarray:
    vals = [float(v) for v in (el.text or "").split()]
    dim_attr = el.get("srsDimension")
    cnt_attr = el.get("count")
    if dim_attr is not None:
        dim = int(dim_attr)
    elif cnt_attr is not None and int(cnt_attr) > 0 \
            and len(vals) % int(cnt_attr) == 0:
        # srsDimension may live on an ancestor (e.g. the BAG extract's
        # <gml:Polygon srsDimension="3">); the count attribute fixes it
        dim = len(vals) // int(cnt_attr)
    elif len(vals) % 2 != 0 and len(vals) % 3 == 0:
        dim = 3
    else:
        dim = 2
    a = np.asarray(vals, np.float64).reshape(-1, dim)
    return a[:, :2]


def _points_of(el) -> np.ndarray:
    """Coordinate payload of a primitive geometry element."""
    pts = []
    for ch in el:
        nm = _local(ch.tag)
        if nm == "coordinates":
            return _parse_coordinates(ch)
        if nm == "posList":
            return _parse_poslist(ch)
        if nm == "pos":
            vals = [float(v) for v in (ch.text or "").split()]
            pts.append((vals[0], vals[1]))
        elif nm == "coord":
            x = y = None
            for c2 in ch:
                if _local(c2.tag) == "X":
                    x = float(c2.text)
                elif _local(c2.tag) == "Y":
                    y = float(c2.text)
            pts.append((x, y))
        elif nm == "pointProperty":           # MultiPoint via property
            for g in ch:
                sub = _points_of(g)
                if len(sub):
                    pts.append((sub[0, 0], sub[0, 1]))
    return np.asarray(pts, np.float64).reshape(-1, 2)


def _curve_points(curve_el) -> np.ndarray:
    """GML3 <Curve>: concatenated segments (shared joints dropped)."""
    pts = []
    for seg_w in curve_el:
        if _local(seg_w.tag) == "segments":
            for seg in seg_w:
                p = _points_of(seg)
                if len(p):
                    pts.append(p if not pts else p[1:]
                               if np.array_equal(p[0], pts[-1][-1])
                               else p)
    if not pts:
        return np.empty((0, 2))
    return np.vstack(pts)


def _ring_points(ring_el) -> np.ndarray:
    """<Ring> of curveMembers (JPFGD building outlines use
    Ring→curveMember→Curve→segments) → concatenated points."""
    pts = []
    for cm in ring_el:
        if _local(cm.tag) != "curveMember":
            continue
        for c in cm:
            nm = _local(c.tag)
            p = (_curve_points(c) if nm == "Curve" else _points_of(c))
            if len(p):
                pts.append(p if not pts else p[1:]
                           if np.array_equal(p[0], pts[-1][-1]) else p)
    if not pts:
        return np.empty((0, 2))
    return np.vstack(pts)


def _ring_of(poly_el, names: tuple[str, ...]) -> list[np.ndarray]:
    rings = []
    for ch in poly_el:
        if _local(ch.tag) in names:
            for r in ch:
                if _local(r.tag) == "LinearRing":
                    rings.append(_points_of(r))
                elif _local(r.tag) == "Ring":
                    pts = _points_of(r)
                    rings.append(pts if len(pts) else _ring_points(r))
    return rings


def parse_gml_geometry(el) -> W.Geometry | None:
    """A GML geometry element → Geometry (curved containers
    linearized; unknown members skipped)."""
    nm = _local(el.tag)
    if nm == "Point":
        c = _points_of(el)
        return W.point(float(c[0, 0]), float(c[0, 1])) if len(c) else None
    if nm in ("LineString", "LinearRing"):
        c = _points_of(el)
        return W.linestring(c) if len(c) >= 2 else None
    if nm == "Curve":                        # GML3: segments wrapper
        pts = []
        for seg_w in el:
            if _local(seg_w.tag) == "segments":
                for seg in seg_w:
                    p = _points_of(seg)
                    if len(p):
                        pts.append(p if not pts else p[1:]
                                   if np.array_equal(p[0], pts[-1][-1])
                                   else p)
        if not pts:
            return None
        return W.linestring(np.vstack(pts))
    if nm in ("Polygon", "PolygonPatch"):
        outer = _ring_of(el, ("outerBoundaryIs", "exterior"))
        inner = _ring_of(el, ("innerBoundaryIs", "interior"))
        if not outer or len(outer[0]) < 3:
            return None
        return W.polygon(outer[0], [h for h in inner if len(h) >= 3])
    if nm == "Surface":                      # patches/PolygonPatch
        polys = []
        for pw in el:
            if _local(pw.tag) in ("patches", "polygonPatches"):
                for patch in pw:
                    g = parse_gml_geometry(patch)
                    if g is not None:
                        polys.append(g)
        if not polys:
            return None
        return polys[0] if len(polys) == 1 else W.multipolygon(polys)
    if nm in ("Box", "Envelope"):
        c = _points_of(el)
        if len(c) < 2:                       # lowerCorner/upperCorner
            lo = hi = None
            for ch in el:
                if _local(ch.tag) == "lowerCorner":
                    lo = [float(v) for v in ch.text.split()]
                elif _local(ch.tag) == "upperCorner":
                    hi = [float(v) for v in ch.text.split()]
            if lo is None or hi is None:
                return None
            return W.box(lo[0], lo[1], hi[0], hi[1])
        return W.box(float(c[:, 0].min()), float(c[:, 1].min()),
                     float(c[:, 0].max()), float(c[:, 1].max()))
    if nm in ("MultiPoint", "MultiLineString", "MultiPolygon",
              "MultiGeometry", "MultiCurve", "MultiSurface"):
        parts = []
        for member in el:
            mn = _local(member.tag)
            if mn.endswith("Member") or mn.endswith("Members"):
                for g_el in member:
                    g = parse_gml_geometry(g_el)
                    if g is not None:
                        parts.append(g)
        if not parts:
            return None
        kinds = {p.geom_type for p in parts}
        if kinds == {W.POINT}:
            return W.Geometry(W.MULTIPOINT, parts=parts)
        if kinds == {W.LINESTRING}:
            return W.Geometry(W.MULTILINESTRING, parts=parts)
        if kinds == {W.POLYGON}:
            return W.multipolygon(parts)
        return W.collection(parts)
    return None


def _find_geometry(feature_el):
    """First geometry in the feature: a direct geometry child or a
    property wrapping one (gml:boundedBy excluded per the reference)."""
    for prop in feature_el:
        pn = _local(prop.tag)
        if pn == "boundedBy":
            continue
        if pn in _GEOM_NAMES:
            g = parse_gml_geometry(prop)
            if g is not None:
                return g
        for ch in prop:
            if _local(ch.tag) in _GEOM_NAMES:
                g = parse_gml_geometry(ch)
                if g is not None:
                    return g
    return None


def _features_of(root):
    # *Member wrappers: the plain WFS/GML pair plus application-schema
    # variants (cityObjectMember, osgb cartographicMember, ...) — the
    # reference treats any element ending in Member(s) under the
    # collection as a feature wrapper (gml/gmlreader.cpp)
    for el in root.iter():
        nm = _local(el.tag)
        if nm in ("featureMember", "member") or nm.endswith("Member") \
                or nm in ("featureMembers",) or nm.endswith("Members"):
            for f in el:
                # geometry members (pointMember wrapping a Point, ...)
                # are geometry internals, not features
                if _local(f.tag) not in _GEOM_NAMES:
                    yield f


def read_gml_table(path: str, layer: str | None = None) -> pa.Table:
    """GML file → Arrow table (fid, gml_id, layer, fields..., wkb,
    envelope). ``layer`` filters to one feature class; default reads
    every class (the layer column keeps them distinguishable)."""
    if is_fgd_gml(path):
        t = read_fgd_gml(path)
        if layer is not None:
            import pyarrow.compute as pc
            t = t.filter(pc.equal(t["layer"], layer))
        return t
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        # malformed / fuzzed XML fails fast with the driver error type
        # (expat's entity-amplification guard also lands here)
        raise ValueError(f"malformed GML: {e}") from None
    rows, geoms, layers, ids = [], [], [], []
    for f in _features_of(root):
        lname = _local(f.tag)
        if layer is not None and lname != layer:
            continue
        fields = {}
        for prop in f:
            pn = _local(prop.tag)
            if pn == "boundedBy" or pn in _GEOM_NAMES:
                continue
            if len(prop) == 0 and prop.text is not None and \
                    prop.text.strip() != "":
                fields[pn] = prop.text.strip()
        g = _find_geometry(f)
        rows.append(fields)
        geoms.append(g)
        layers.append(lname)
        gid = None
        for k, v in f.attrib.items():
            if _local(k) == "id" or k == "fid":
                gid = v
        ids.append(gid)

    keys: list[str] = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)

    def _col(vals):
        # int → real → string sniff per column (reference .gfs-less
        # behavior, gml/gmlpropertydefn.cpp)
        try:
            return pa.array([None if v is None else int(v) for v in vals],
                            pa.int64())
        except (ValueError, TypeError):
            pass
        try:
            return pa.array([None if v is None else float(v) for v in vals],
                            pa.float64())
        except (ValueError, TypeError):
            return pa.array(vals, pa.string())

    cols = {"fid": pa.array(range(len(rows)), pa.int64()),
            "gml_id": pa.array(ids, pa.string()),
            "layer": pa.array(layers, pa.string())}
    for k in keys:
        cols[k] = _col([r.get(k) for r in rows])
    return with_geometry(pa.table(cols), geoms)


# ---------------------------------------------------------------------------
# Japanese FGD (基盤地図情報) GML profile — gml/gmlreader JPFGD handling:
# the Dataset root's direct children are the features, coordinates are
# stored latitude-first (srsName fguuid:jgd20xx.bl → swap to x=lon),
# date properties nest a gml:timePosition.
# ---------------------------------------------------------------------------

_FGD_NS = "fgd.gsi.go.jp"


def _swap_axes(g: W.Geometry) -> W.Geometry:
    if g.coords is not None and len(g.coords):
        g = W.Geometry(g.geom_type, coords=np.ascontiguousarray(
            np.asarray(g.coords)[:, ::-1]), rings=g.rings, parts=g.parts)
    if g.rings:
        g = W.Geometry(g.geom_type, coords=g.coords,
                       rings=[np.ascontiguousarray(
                           np.asarray(r)[:, ::-1]) for r in g.rings],
                       parts=g.parts)
    if g.parts:
        g = W.Geometry(g.geom_type, coords=g.coords, rings=g.rings,
                       parts=[_swap_axes(p) for p in g.parts])
    return g


def is_fgd_gml(path: str) -> bool:
    head = open(path, "rb").read(2048).decode("utf-8", "replace")
    return _FGD_NS in head and "<Dataset" in head


def read_fgd_gml(path: str) -> pa.Table:
    """FGD GML → table (fid, gml_id, layer, flattened fields, wkb).
    The SRS is JGD2011 (EPSG:6668) or the fguuid's JGD20xx name."""
    root = ET.parse(path).getroot()
    rows, geoms, layers, ids = [], [], [], []
    srs = "EPSG:6668"
    for f in root:
        lname = _local(f.tag)
        if f.tag.startswith("{http://www.opengis.net/gml"):
            continue                      # gml:description / gml:name
        fields = {}
        geom = None
        for prop in f:
            pn = _local(prop.tag)
            kids = list(prop)
            if kids and _local(kids[0].tag) == "timePosition":
                fields[pn] = (kids[0].text or "").strip()
                continue
            ge = None
            for sub in prop.iter():
                if _local(sub.tag) in _GEOM_NAMES:
                    ge = sub
                    break
            if ge is not None:
                name = ge.get("srsName", "")
                g = parse_gml_geometry(ge)
                if g is not None:
                    if name.startswith("fguuid:jgd") and \
                            name.endswith(".bl"):
                        g = _swap_axes(g)
                        ver = name[len("fguuid:jgd"):-3]
                        srs = ("EPSG:6668" if ver == "2011"
                               else f"JGD{ver}")
                    geom = g
                continue
            if not kids and prop.text and prop.text.strip():
                fields[pn] = prop.text.strip()
        if not fields and geom is None:
            continue
        rows.append(fields)
        geoms.append(geom)
        layers.append(lname)
        gid = None
        for k, v in f.attrib.items():
            if _local(k) == "id":
                gid = v
        ids.append(gid)

    names: list[str] = []
    for r in rows:
        for k in r:
            if k not in names:
                names.append(k)
    cols = {"gml_id": ids, "layer": layers}
    for n in names:
        cols[n] = [r.get(n) for r in rows]
    cols["wkb"] = [W.dumps(g) if g is not None else None for g in geoms]
    schema = pa.schema(
        [("gml_id", pa.string()), ("layer", pa.string())]
        + [(n, pa.string()) for n in names] + [("wkb", pa.binary())],
        metadata={b"crs": srs.encode()})
    return pa.Table.from_pydict(cols, schema=schema)


# ---------------------------------------------------------------------------
# writer (ogr2ogr -f GML symmetry: ogr/ogrsf_frmts/gml/ogrgmldatasource
# CreateLayer/ogr2gmlgeometry.cpp — GML2 flavor: coordinates,
# outerBoundaryIs/innerBoundaryIs, *Member wrappers)
# ---------------------------------------------------------------------------

def _xml_escape(s: str) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _gml_coords(arr) -> str:
    # repr() = shortest exact double, same losslessness as the MIF
    # writer; GML2 coordinates: "x,y x,y"
    return " ".join(f"{repr(float(x))},{repr(float(y))}" for x, y in arr)


def _gml_geom(g: "W.Geometry") -> str:
    t = g.geom_type
    if t == W.POINT:
        return (f"<gml:Point><gml:coordinates>{_gml_coords(g.coords)}"
                "</gml:coordinates></gml:Point>")
    if t == W.LINESTRING:
        return (f"<gml:LineString><gml:coordinates>{_gml_coords(g.coords)}"
                "</gml:coordinates></gml:LineString>")
    if t == W.POLYGON:
        rings = g.rings
        out = ["<gml:Polygon><gml:outerBoundaryIs><gml:LinearRing>"
               f"<gml:coordinates>{_gml_coords(rings[0])}"
               "</gml:coordinates></gml:LinearRing></gml:outerBoundaryIs>"]
        for hole in rings[1:]:
            out.append("<gml:innerBoundaryIs><gml:LinearRing>"
                       f"<gml:coordinates>{_gml_coords(hole)}"
                       "</gml:coordinates></gml:LinearRing>"
                       "</gml:innerBoundaryIs>")
        out.append("</gml:Polygon>")
        return "".join(out)
    wrap = {W.MULTIPOINT: ("MultiPoint", "pointMember"),
            W.MULTILINESTRING: ("MultiLineString", "lineStringMember"),
            W.MULTIPOLYGON: ("MultiPolygon", "polygonMember"),
            W.GEOMETRYCOLLECTION: ("MultiGeometry", "geometryMember")}
    if t in wrap:
        cname, member = wrap[t]
        inner = "".join(f"<gml:{member}>{_gml_geom(p)}</gml:{member}>"
                        for p in g.parts)
        return f"<gml:{cname}>{inner}</gml:{cname}>"
    raise ValueError(f"unsupported geometry type {t} for GML write")


def write_gml(table: pa.Table, path: str, *,
              layer_name: str = "layer") -> int:
    """Layer table → GML2 FeatureCollection (the reference's classic
    ogr2ogr -f GML output shape). Coordinates are repr()-exact, so the
    roundtrip through read_gml_table is lossless."""
    skip = {"wkb", *ENVELOPE, "gml_id", "layer"}
    fields = [c for c in table.column_names if c not in skip]
    rows = table.to_pylist()
    out = ['<?xml version="1.0" encoding="utf-8" ?>',
           '<ogr:FeatureCollection',
           '     xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"',
           '     xmlns:ogr="http://ogr.maptools.org/"',
           '     xmlns:gml="http://www.opengis.net/gml">']
    n = 0
    for i, row in enumerate(rows):
        out.append("  <gml:featureMember>")
        out.append(f'    <ogr:{layer_name} fid="{layer_name}.{i}">')
        b = row.get("wkb")
        if b is not None:
            out.append("      <ogr:geometryProperty>"
                       + _gml_geom(W.loads(b))
                       + "</ogr:geometryProperty>")
        for c in fields:
            v = row.get(c)
            if v is not None:
                out.append(f"      <ogr:{c}>{_xml_escape(v)}</ogr:{c}>")
        out.append(f"    </ogr:{layer_name}>")
        out.append("  </gml:featureMember>")
        n += 1
    out.append("</ogr:FeatureCollection>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")
    return n
