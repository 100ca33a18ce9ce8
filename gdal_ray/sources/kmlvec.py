"""KML vector driver — Placemarks ⇄ Dataset.

Reference semantics: ogr/ogrsf_frmts/kml (the built-in OGR KML driver,
not libkml): each <Placemark> is one feature; <name>/<description> are
the Name/Description fields; <ExtendedData><Data name=..><value> and
<SchemaData><SimpleData name=..> become attribute fields; geometry is
Point / LineString / Polygon (outerBoundaryIs + innerBoundaryIs) /
MultiGeometry with "lon,lat[,alt]" coordinate strings. Written from
the public OGC KML 2.2 spec; no reference code consulted.

Read side lands the standard table shape (fid, fields..., wkb, minx,
miny, maxx, maxy) shared by every vector driver in this package; one
file = one read block (shard many files with from_items + map_batches
at scale, same contract as the GeoJSON driver).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

_NS = "{http://www.opengis.net/kml/2.2}"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _find(el, name):
    for ch in el:
        if _local(ch.tag) == name:
            return ch
    return None


def _findall(el, name):
    return [ch for ch in el if _local(ch.tag) == name]


def _coords(el) -> np.ndarray:
    txt = (el.text or "").strip() if el is not None else ""
    pts = []
    for tok in txt.split():
        parts = tok.split(",")
        pts.append((float(parts[0]), float(parts[1])))
    return np.asarray(pts, np.float64).reshape(-1, 2)


def _ring_coords(boundary_el) -> np.ndarray:
    """<outerBoundaryIs>/<innerBoundaryIs> → ring array (possibly
    empty — the reference fixtures include every degenerate nesting)."""
    if boundary_el is None:
        return np.empty((0, 2))
    return _coords(_find(_find(boundary_el, "LinearRing") or boundary_el,
                         "coordinates"))


def _parse_geom(el) -> W.Geometry | None:
    name = _local(el.tag)
    if name == "Point":
        c = _coords(_find(el, "coordinates"))
        if len(c) == 0:
            return None
        return W.point(float(c[0, 0]), float(c[0, 1]))
    if name in ("LineString", "LinearRing"):
        c = _coords(_find(el, "coordinates"))
        return W.linestring(c) if len(c) >= 2 else None
    if name == "Polygon":
        shell = _ring_coords(_find(el, "outerBoundaryIs"))
        if len(shell) < 3:
            return None
        holes = [h for h in (_ring_coords(ib)
                             for ib in _findall(el, "innerBoundaryIs"))
                 if len(h) >= 3]
        return W.polygon(shell, holes)
    if name == "MultiGeometry":
        parts = [g for g in (_parse_geom(ch) for ch in el) if g is not None]
        if not parts:
            return None
        # homogeneous MultiGeometry → the specific Multi* type (the
        # OGR driver does the same promotion)
        kinds = {p.geom_type for p in parts}
        if kinds == {W.POLYGON}:
            return W.multipolygon(parts)
        if kinds == {W.POINT}:
            return W.multipoint(np.vstack([p.coords for p in parts]))
        return W.collection(parts)
    return None


def read_kml_table(path: str) -> pa.Table:
    """KML file → Arrow table (fid, Name, Description, fields...,
    wkb, minx, miny, maxx, maxy). Placemarks anywhere in the Document/
    Folder tree are features (the OGR KML driver's flattening); a
    Placemark without a geometry is a row with a null ``wkb``."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        # malformed / fuzzed XML fails fast with the driver error type
        # (expat's entity-amplification guard also lands here)
        raise ValueError(f"malformed KML: {e}") from None
    placemarks = [el for el in root.iter() if _local(el.tag) == "Placemark"]

    keys: list[str] = []
    rows: list[dict] = []
    geoms = []
    for i, pm in enumerate(placemarks):
        fields: dict[str, object] = {}
        nm = _find(pm, "name")
        ds = _find(pm, "description")
        fields["Name"] = nm.text if nm is not None else None
        fields["Description"] = ds.text if ds is not None else None
        ext = _find(pm, "ExtendedData")
        if ext is not None:
            for d in _findall(ext, "Data"):
                v = _find(d, "value")
                fields[d.get("name", "")] = v.text if v is not None else None
            for sd in _findall(ext, "SchemaData"):
                for simple in _findall(sd, "SimpleData"):
                    fields[simple.get("name", "")] = simple.text
        g = None
        for ch in pm:
            g = _parse_geom(ch)
            if g is not None:
                break
        for k in fields:
            if k not in keys:
                keys.append(k)
        rows.append(fields)
        geoms.append(g)

    t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                  **{k: pa.array([r.get(k) for r in rows], pa.string())
                     for k in keys}})
    return with_geometry(t, geoms)


def _coord_str(coords: np.ndarray) -> str:
    # shortest exact repr — coordinates roundtrip bit-for-bit
    return " ".join(f"{float(x)!r},{float(y)!r}"
                    for x, y in np.asarray(coords))


def _geom_kml(g: W.Geometry) -> str:
    t = g.geom_type
    if t == W.POINT:
        return (f"<Point><coordinates>{_coord_str(g.coords)}"
                "</coordinates></Point>")
    if t == W.LINESTRING:
        return (f"<LineString><coordinates>{_coord_str(g.coords)}"
                "</coordinates></LineString>")
    if t == W.POLYGON:
        inner = "".join(
            "<innerBoundaryIs><LinearRing><coordinates>"
            f"{_coord_str(r)}</coordinates></LinearRing></innerBoundaryIs>"
            for r in g.rings[1:])
        return ("<Polygon><outerBoundaryIs><LinearRing><coordinates>"
                f"{_coord_str(g.rings[0])}</coordinates></LinearRing>"
                f"</outerBoundaryIs>{inner}</Polygon>")
    # Multi*/collection → MultiGeometry
    return ("<MultiGeometry>"
            + "".join(_geom_kml(p) for p in g.parts)
            + "</MultiGeometry>")


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_kml(table: pa.Table, path: str, *,
              name_col: str = "Name") -> None:
    """Arrow table with a WKB column → KML Document of Placemarks.
    Non-geometry, non-envelope columns become ExtendedData fields
    (Name goes to <name>); a null geometry leaves its Placemark without
    one."""
    skip = {"wkb", *ENVELOPE, "fid", name_col}
    prop_cols = [c for c in table.column_names if c not in skip]
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             '<kml xmlns="http://www.opengis.net/kml/2.2">\n<Document>\n']
    names = table[name_col].to_pylist() \
        if name_col in table.column_names else [None] * table.num_rows
    for i in range(table.num_rows):
        b = table["wkb"][i].as_py()
        parts.append("<Placemark>")
        if names[i] is not None:
            parts.append(f"<name>{_esc(str(names[i]))}</name>")
        ext = []
        for c in prop_cols:
            v = table[c][i].as_py()
            if v is not None:
                ext.append(f'<Data name="{c}"><value>{_esc(str(v))}'
                           "</value></Data>")
        if ext:
            parts.append("<ExtendedData>" + "".join(ext) + "</ExtendedData>")
        if b is not None:
            parts.append(_geom_kml(W.loads(b)))
        parts.append("</Placemark>\n")
    parts.append("</Document>\n</kml>\n")
    with open(path, "w") as f:
        f.write("".join(parts))
