"""OGC JSON-FG (Features & Geometries JSON) reader.

Reference driver: ogr/ogrsf_frmts/jsonfg/. Core deltas vs GeoJSON
(replicated from autotest/ogr/ogr_jsonfg.py):
- per-feature ``place`` carries the native-CRS geometry and wins over
  ``geometry`` (which is constrained to WGS84);
- ``coordRefSys`` at collection or feature level — a ``[EPSG:n]``
  string, an OGC URL, or a ``{"type": "Reference", "href": …}``
  object — becomes the layer CRS;
- extended geometry types (CircularString, CompoundCurve,
  CurvePolygon, MultiCurve, MultiSurface) map onto the curved WKB
  types in core/wkb.py;
- ``time`` (instant or interval) surfaces as ``time`` /
  ``time_start`` / ``time_end`` string columns.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from ..core.wkt import from_geojson
from .vector import with_geometry

__all__ = ["read_jsonfg_table", "parse_coordrefsys"]


def parse_coordrefsys(v) -> str | None:
    """'[EPSG:32631]' | OGC URL | Reference object -> 'EPSG:32631'."""
    if v is None:
        return None
    if isinstance(v, dict):
        return parse_coordrefsys(v.get("href"))
    if isinstance(v, list):
        parts = [parse_coordrefsys(x) for x in v]
        return "+".join(p for p in parts if p)
    s = str(v)
    m = re.match(r"\[?([A-Za-z]+):(\w+)\]?$", s)
    if m:
        return f"{m.group(1).upper()}:{m.group(2)}"
    m = re.search(r"/def/crs/([A-Za-z]+)/[\d.]+/(\w+)", s)
    if m:
        return f"{m.group(1).upper()}:{m.group(2)}"
    return s


def _fg_geometry(obj: dict) -> W.Geometry:
    t = obj.get("type", "")
    c = obj.get("coordinates")
    if t == "CircularString":
        return W.Geometry(W.CIRCULARSTRING,
                          coords=np.asarray(c, np.float64)[:, :2])
    if t == "CompoundCurve":
        return W.Geometry(W.COMPOUNDCURVE,
                          parts=[_fg_geometry(g)
                                 for g in obj.get("components", [])])
    if t == "CurvePolygon":
        return W.Geometry(W.CURVEPOLYGON,
                          parts=[_fg_geometry(g)
                                 for g in obj.get("components", [])])
    if t == "MultiCurve":
        return W.Geometry(W.MULTICURVE,
                          parts=[_fg_geometry(g)
                                 for g in obj.get("components", [])])
    if t == "MultiSurface":
        return W.Geometry(W.MULTISURFACE,
                          parts=[_fg_geometry(g)
                                 for g in obj.get("components", [])])
    if t == "Polyhedron":
        # degrade to the outer shell's polygons (no solids model)
        shells = obj.get("coordinates", [])
        polys = []
        for shell in shells[:1]:
            for ring in shell:
                polys.append(W.polygon(np.asarray(ring[0],
                                                  np.float64)[:, :2]))
        return W.multipolygon(polys)
    return from_geojson(obj)


def read_jsonfg_table(path: str) -> pa.Table:
    doc = json.loads(open(path, encoding="utf-8-sig").read())
    coll_crs = parse_coordrefsys(doc.get("coordRefSys"))
    dtype = doc.get("type")
    if dtype == "Feature":
        feats = [doc]
    elif dtype == "FeatureCollection":
        feats = doc.get("features", [])
    else:  # bare geometry document (geometry-only fixtures)
        feats = [{"type": "Feature", "place": doc,
                  "coordRefSys": doc.get("coordRefSys")}]

    keys: list[str] = []
    has_time = any(isinstance(f.get("time"), (dict, str))
                   for f in feats)
    for f in feats:
        for k in (f.get("properties") or {}):
            if k not in keys:
                keys.append(k)
    cols: dict[str, list] = {k: [] for k in keys}
    fids, geoms = [], []
    times, tstarts, tends = [], [], []
    crs = coll_crs
    for i, f in enumerate(feats):
        fc = parse_coordrefsys(f.get("coordRefSys"))
        if fc:
            crs = crs or fc
        fid = f.get("id", i)
        fids.append(int(fid) if isinstance(fid, (int, float)) else i)
        props = f.get("properties") or {}
        for k in keys:
            cols[k].append(props.get(k))
        gobj = f.get("place") or f.get("geometry")
        geoms.append(_fg_geometry(gobj) if gobj else None)
        t = f.get("time")
        if isinstance(t, dict):
            times.append(t.get("date") or t.get("timestamp"))
            interval = t.get("interval") or [None, None]
            tstarts.append(interval[0])
            tends.append(interval[1])
        else:
            times.append(t if isinstance(t, str) else None)
            tstarts.append(None)
            tends.append(None)
    tbl = {"fid": pa.array(fids, pa.int64()),
           **{k: pa.array(cols[k]) for k in keys}}
    if has_time:
        tbl["time"] = pa.array(times, pa.string())
        if any(v is not None for v in tstarts + tends):
            tbl["time_start"] = pa.array(tstarts, pa.string())
            tbl["time_end"] = pa.array(tends, pa.string())
    t = with_geometry(pa.table(tbl), geoms)
    if crs:
        t = t.replace_schema_metadata({b"crs": crs.encode()})
    return t
