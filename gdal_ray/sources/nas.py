"""NAS (German ALKIS/AAA cadastre exchange, 'Normbasierte
Austauschschnittstelle') reader.

NAS documents are GML 3.2 application files wrapping AAA objects
(``AX_*``/``AA_*``/``AP_*`` elements with ``gml:id``) in WFS
transaction envelopes.  The reference driver
(ogr/ogrsf_frmts/nas/nashandler.cpp, ogrnasdatasource.cpp) maps:

- every object element carrying a ``gml:id`` to a feature in a layer
  named after the element (``AX_Flurstueck`` …), leaf elements
  flattened to fields under their innermost tag name, ``xlink:href``
  association properties kept as string fields, geometry parsed from
  the GML geometry child;
- ``wfs:Delete`` transactions to a ``Delete`` layer with fields
  ``typeName``/``FeatureId``/``context`` (context ``Delete``), one
  row per ``ogc:FeatureId`` (autotest ogr_nas.py test_ogr_nas_4);
- ``wfsext:Replace`` to a ``Delete`` row with context ``Replace``
  plus ``replacedBy`` (the replacement's gml:id), ``safeToIgnore``
  and the replaced ``FeatureId`` from the embedded ``ogc:Filter``,
  alongside the replacement feature itself (test_ogr_nas_5);
- documents with DTD entity declarations are rejected ("File
  probably corrupted", the billion-laugh guard in nasreader.cpp).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pyarrow as pa

from ..core import wkb as W
from . import pick_layer
from .gml import parse_gml_geometry, _local

__all__ = ["read_nas_layers", "read_nas", "is_nas"]

_XLINK_HREF = "{http://www.w3.org/1999/xlink}href"
_GML_ID = "{http://www.opengis.net/gml/3.2}id"
_GML_ID_31 = "{http://www.opengis.net/gml}id"

# NAS documents advertise the AdV namespace
_NAS_MARKERS = (b"adv-online.de/namespaces", b"NAS-Operationen",
                b"AAA-Fachschema")


def is_nas(path: str) -> bool:
    with open(path, "rb") as fh:
        head = fh.read(8192)
    return any(m in head for m in _NAS_MARKERS)


def _feature_fields(el, fields: dict):
    """Flatten an object element: leaves become fields named by their
    innermost tag; xlink:href association properties keep the
    property name; repeated names promote to |-joined strings
    (the NAS reader's list-to-string behavior)."""
    for child in el:
        tag = _local(child.tag)
        if tag in ("position", "geometrie"):  # geometry containers
            continue
        href = child.get(_XLINK_HREF)
        if href is not None:
            _add_field(fields, tag, href)
            continue
        sub = list(child)
        if not sub:
            if child.text is not None and child.text.strip():
                _add_field(fields, tag, child.text.strip())
        else:
            _feature_fields(child, fields)


def _add_field(fields: dict, name: str, value: str):
    if name in fields:
        fields[name] = fields[name] + "|" + value
    else:
        fields[name] = value


def _find_geometry_el(el):
    for child in el.iter():
        if _local(child.tag) in (
                "Point", "LineString", "Curve", "Polygon", "Surface",
                "MultiPoint", "MultiCurve", "MultiSurface",
                "MultiGeometry", "CompositeCurve", "CompositeSurface"):
            return child
    return None


def _collect_objects(el, out, depth=0):
    """Topmost gml:id-carrying elements anywhere under the root."""
    oid = el.get(_GML_ID) or el.get(_GML_ID_31)
    if oid is not None and depth > 0:
        out.append(el)
        return
    for child in el:
        _collect_objects(child, out, depth + 1)


def read_nas_layers(path: str) -> dict[str, pa.Table]:
    """Parse a NAS file → {layer name: Arrow table}.  Object layers
    carry ``gml_id``, flattened attribute fields and WKB geometry;
    WFS delete/replace transactions produce the ``Delete`` layer."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"<!ENTITY" in data or b"<!DOCTYPE" in data:
        raise ValueError("NAS: File probably corrupted (DTD entities)")
    root = ET.fromstring(data)

    layers: dict[str, list[dict]] = {}
    delete_rows: list[dict] = []

    for el in root.iter():
        tag = _local(el.tag)
        if tag == "Delete":
            row = {"typeName": el.get("typeName") or "",
                   "context": "Delete"}
            for fid_el in el.iter():
                if _local(fid_el.tag) == "FeatureId":
                    row = dict(row)
                    row["FeatureId"] = fid_el.get("fid") or ""
                    delete_rows.append(row)
        elif tag == "Replace":
            replaced_by = None
            feature_el = None
            fid = None
            for child in el:
                ctag = _local(child.tag)
                if ctag == "Filter":
                    for fid_el in child.iter():
                        if _local(fid_el.tag) == "FeatureId":
                            fid = fid_el.get("fid")
                else:
                    oid = child.get(_GML_ID) or child.get(_GML_ID_31)
                    if oid is not None:
                        feature_el = child
                        replaced_by = oid
            row = {"context": "Replace",
                   "safeToIgnore": el.get("safeToIgnore") or "",
                   "replacedBy": replaced_by or "",
                   "FeatureId": fid or ""}
            if feature_el is not None:
                row["typeName"] = _local(feature_el.tag)
            delete_rows.append(row)

    objects: list = []
    _collect_objects(root, objects)
    for el in objects:
        tag = _local(el.tag)
        oid = el.get(_GML_ID) or el.get(_GML_ID_31)
        fields: dict = {"gml_id": oid}
        _feature_fields(el, fields)
        geom_el = _find_geometry_el(el)
        if geom_el is not None:
            try:
                g = parse_gml_geometry(geom_el)
                if g is not None:
                    fields["_wkb"] = W.dumps(g)
            except (ValueError, KeyError, IndexError):
                pass
        layers.setdefault(tag, []).append(fields)

    out: dict[str, pa.Table] = {}
    for name, rows in layers.items():
        cols: dict[str, list] = {}
        for r in rows:
            for k in r:
                cols.setdefault(k, [])
        for r in rows:
            for k in cols:
                cols[k].append(r.get(k))
        arrays = {}
        for k, vals in cols.items():
            if k == "_wkb":
                arrays["wkb_geometry"] = pa.array(vals, pa.binary())
                continue
            # integer promotion like the GML reader's type sniffing
            try:
                if all(v is not None and v.lstrip("-").isdigit()
                       for v in vals):
                    arrays[k] = pa.array([int(v) for v in vals],
                                         pa.int64())
                    continue
            except AttributeError:
                pass
            arrays[k] = pa.array(vals, pa.string())
        out[name] = pa.table(arrays)

    if delete_rows:
        keys = ["typeName", "FeatureId", "context", "safeToIgnore",
                "replacedBy"]
        used = [k for k in keys
                if any(k in r for r in delete_rows)]
        out["Delete"] = pa.table(
            {k: pa.array([r.get(k) for r in delete_rows], pa.string())
             for k in used})
    return out


def read_nas(path: str, layer: str | None = None) -> pa.Table:
    layers = read_nas_layers(path)
    if not layers and layer is None:
        return pa.table({})           # an empty NAS file has no layers
    return pick_layer(layers, path, layer)
