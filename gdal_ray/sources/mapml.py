"""MapML (W3C Maps-for-HTML) vector reader.

Reference driver: ogr/ogrsf_frmts/mapml/. Features are
``map-feature`` elements grouped into layers by their ``class``
attribute; properties come from the ``itemprop`` table cells inside
``map-properties``; geometry from ``map-geometry`` children
(map-point / map-linestring / map-polygon with space-separated
lon-lat ``map-coordinates``, multiple map-coordinates in a polygon =
rings, map-multipolygon / map-multipoint / map-multilinestring as
nested containers). Golden in tests/test_s57.py::TestMapml from
autotest/ogr/ogr_mapml.py (poly.mapml: 10 polygons, AREA/EAS_ID/
PRFEDEA values)."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from . import pick_layer
from .vector import with_geometry

__all__ = ["read_mapml_layers", "read_mapml_table"]


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _coords(el) -> np.ndarray:
    vals = [float(t) for t in (el.text or "").split()]
    return np.asarray(vals, np.float64).reshape(-1, 2)


def _geometry(gel) -> W.Geometry | None:
    for child in gel:
        t = _local(child.tag)
        if t == "map-point":
            c = _coords(child.find(
                "{*}map-coordinates") or child[0])
            return W.point(c[0, 0], c[0, 1])
        if t == "map-linestring":
            return W.linestring(_coords(child[0]))
        if t == "map-polygon":
            rings = [_coords(cc) for cc in child
                     if _local(cc.tag) == "map-coordinates"]
            if not rings:
                return None
            return W.polygon(rings[0], holes=rings[1:])
        if t == "map-multipoint":
            c = _coords(child[0])
            return W.multipoint(c)
        if t == "map-multilinestring":
            parts = [W.linestring(_coords(cc)) for cc in child
                     if _local(cc.tag) == "map-coordinates"]
            return W.Geometry(W.MULTILINESTRING, parts=parts)
        if t == "map-multipolygon":
            polys = []
            for sub in child:
                if _local(sub.tag) == "map-polygon":
                    rings = [_coords(cc) for cc in sub
                             if _local(cc.tag) == "map-coordinates"]
                    if rings:
                        polys.append(W.polygon(rings[0],
                                               holes=rings[1:]))
            return W.multipolygon(polys)
        if t == "map-geometrycollection":
            parts = []
            for sub in child:
                wrapper = ET.Element("g")
                wrapper.append(sub)
                g = _geometry(wrapper)
                if g is not None:
                    parts.append(g)
            return W.collection(parts)
    return None


def read_mapml_layers(path: str) -> dict[str, pa.Table]:
    root = ET.parse(path).getroot()
    by_class: dict[str, list] = {}
    for el in root.iter():
        if _local(el.tag) != "map-feature":
            continue
        cls = el.get("class") or "mapml"
        props = {}
        for td in el.iter():
            if _local(td.tag) == "td" and td.get("itemprop"):
                props[td.get("itemprop")] = (td.text or "").strip()
        g = None
        for sub in el:
            if _local(sub.tag) == "map-geometry":
                g = _geometry(sub)
        by_class.setdefault(cls, []).append(
            (el.get("id"), props, g))

    out = {}
    for cls, feats in by_class.items():
        names: list[str] = []
        for _i, props, _g in feats:
            for k in props:
                if k not in names:
                    names.append(k)

        def conv(vals):
            try:
                ints = [int(v) if v else None for v in vals]
                return pa.array(ints, pa.int64())
            except ValueError:
                pass
            try:
                return pa.array([float(v) if v else None for v in vals],
                                pa.float64())
            except ValueError:
                return pa.array([v or None for v in vals], pa.string())
        cols = {k: conv([p.get(k, "") for _i, p, _g in feats])
                for k in names}
        t = pa.table({"fid": pa.array(range(len(feats)), pa.int64()),
                      "mapml_id": pa.array([i for i, _p, _g in feats],
                                           pa.string()),
                      **cols})
        t = with_geometry(t, [g for _i, _p, g in feats])
        out[cls] = t.replace_schema_metadata({b"crs": b"EPSG:4326"})
    return out


def read_mapml_table(path: str, layer: str | None = None) -> pa.Table:
    return pick_layer(read_mapml_layers(path), path, layer)
