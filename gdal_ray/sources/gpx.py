"""GPX vector driver — waypoints / routes / tracks ⇄ Dataset.

Reference semantics: ogr/ogrsf_frmts/gpx/ogrgpxlayer.cpp — five
layers per file (waypoints = wpt → Point, routes = rte → LineString
over rtept, tracks = trk → MultiLineString over trkseg/trkpt,
route_points and track_points = the member points with parent ids);
GPX 1.1 schema fields (ele, time, name, cmt, desc, src, sym, type,
number) plus up to two flattened <link> elements per feature
(link1_href/link1_text/link1_type, link2_*) — the driver's
GPX_N_MAX_LINKS=2 default. Empty routes/tracks stay as features with
an empty geometry (autotest/ogr/ogr_gpx.py:39-200 reads "empty
route"/"empty track" rows). Written from the public topografix GPX
1.1 schema; no reference code consulted.

Read side lands the standard layer shape (fid, fields..., wkb, minx,
miny, maxx, maxy); one file = one read block, same contract as every
vector driver in this package.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from .vector import ENVELOPE, with_geometry

LAYERS = ("waypoints", "routes", "tracks", "route_points", "track_points")

_PT_FIELDS = ("ele", "time", "name", "cmt", "desc", "src", "sym", "type")
_SEQ_FIELDS = ("name", "cmt", "desc", "src", "number", "type")
_N_LINKS = 2


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(el, name):
    return [ch for ch in el if _local(ch.tag) == name]


def _child_text(el, name):
    for ch in el:
        if _local(ch.tag) == name:
            return ch.text
    return None


def _links(el, fields: dict) -> None:
    for i, ln in enumerate(_children(el, "link")[:_N_LINKS], start=1):
        fields[f"link{i}_href"] = ln.get("href")
        fields[f"link{i}_text"] = _child_text(ln, "text")
        fields[f"link{i}_type"] = _child_text(ln, "type")


def _point_fields(el) -> dict:
    fields = {k: _child_text(el, k) for k in _PT_FIELDS}
    _links(el, fields)
    return fields


def _seq_fields(el) -> dict:
    fields = {k: _child_text(el, k) for k in _SEQ_FIELDS}
    _links(el, fields)
    return fields


def _latlon(el) -> tuple[float, float]:
    return float(el.get("lon")), float(el.get("lat"))


def read_gpx_table(path: str, layer: str = "waypoints") -> pa.Table:
    """One GPX layer → Arrow table. ``layer`` ∈ LAYERS."""
    if layer not in LAYERS:
        raise ValueError(f"unknown GPX layer {layer!r} (have {LAYERS})")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        # malformed / fuzzed XML fails fast with the driver error type
        # (expat's entity-amplification guard also lands here)
        raise ValueError(f"malformed GPX: {e}") from None
    rows: list[dict] = []
    geoms: list[W.Geometry] = []

    if layer == "waypoints":
        for wpt in _children(root, "wpt"):
            rows.append(_point_fields(wpt))
            x, y = _latlon(wpt)
            geoms.append(W.point(x, y))
    elif layer == "routes":
        for rte in _children(root, "rte"):
            rows.append(_seq_fields(rte))
            pts = np.array([_latlon(p) for p in _children(rte, "rtept")],
                           np.float64).reshape(-1, 2)
            geoms.append(W.linestring(pts))
    elif layer == "tracks":
        for trk in _children(root, "trk"):
            rows.append(_seq_fields(trk))
            segs = []
            for seg in _children(trk, "trkseg"):
                pts = np.array([_latlon(p)
                                for p in _children(seg, "trkpt")],
                               np.float64).reshape(-1, 2)
                if len(pts):
                    segs.append(W.linestring(pts))
            geoms.append(W.Geometry(W.MULTILINESTRING, parts=segs))
    elif layer == "route_points":
        for ri, rte in enumerate(_children(root, "rte")):
            for pi, p in enumerate(_children(rte, "rtept")):
                f = _point_fields(p)
                f["route_fid"] = ri
                f["route_point_id"] = pi
                rows.append(f)
                x, y = _latlon(p)
                geoms.append(W.point(x, y))
    else:                                   # track_points
        for ti, trk in enumerate(_children(root, "trk")):
            for si, seg in enumerate(_children(trk, "trkseg")):
                for pi, p in enumerate(_children(seg, "trkpt")):
                    f = _point_fields(p)
                    f["track_fid"] = ti
                    f["track_seg_id"] = si
                    f["track_seg_point_id"] = pi
                    rows.append(f)
                    x, y = _latlon(p)
                    geoms.append(W.point(x, y))

    keys: list[str] = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    cols = {"fid": pa.array(range(len(rows)), pa.int64())}
    for k in keys:
        vals = [r.get(k) for r in rows]
        if k in ("ele",):
            cols[k] = pa.array([None if v is None else float(v)
                                for v in vals], pa.float64())
        elif k in ("number", "route_fid", "route_point_id", "track_fid",
                   "track_seg_id", "track_seg_point_id"):
            cols[k] = pa.array([None if v is None else int(v)
                                for v in vals], pa.int64())
        else:
            cols[k] = pa.array([None if v is None else str(v) for v in vals],
                               pa.string())
    return with_geometry(pa.table(cols), geoms)


def _esc(s) -> str:
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _field_xml(row: dict, keys) -> str:
    out = []
    for k in keys:
        v = row.get(k)
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        if k.startswith("link"):
            continue                        # links re-nest below
        out.append(f"<{k}>{_esc(v)}</{k}>")
    for i in (1, 2):
        href = row.get(f"link{i}_href")
        if href is None:
            continue
        inner = ""
        if row.get(f"link{i}_text") is not None:
            inner += f"<text>{_esc(row[f'link{i}_text'])}</text>"
        if row.get(f"link{i}_type") is not None:
            inner += f"<type>{_esc(row[f'link{i}_type'])}</type>"
        out.append(f'<link href="{_esc(href)}">{inner}</link>')
    return "".join(out)


def write_gpx(table: pa.Table, path: str) -> int:
    """Layer table → GPX file. POINT rows become wpt, LINESTRING rows
    rte (rtept members), MULTILINESTRING rows trk (trkseg/trkpt) — the
    OGR writer's layer mapping. Attribute columns matching the GPX
    schema are emitted; others are skipped (the reference behaves the
    same without GPX_USE_EXTENSIONS)."""
    skip = {"wkb", "fid", *ENVELOPE}
    keys = [c for c in table.column_names if c not in skip]
    pt_keys = [k for k in keys if k in _PT_FIELDS or k.startswith("link")]
    seq_keys = [k for k in keys if k in _SEQ_FIELDS or k.startswith("link")]
    rows = table.to_pylist()
    parts = ['<?xml version="1.0"?>',
             '<gpx version="1.1" creator="gdal_ray" '
             'xmlns="http://www.topografix.com/GPX/1/1">']
    n = 0
    for i, row in enumerate(rows):
        if row["wkb"] is None:
            raise ValueError(f"GPX cannot store a null geometry (row {i})")
        g = W.loads(row["wkb"])
        if g.geom_type == W.POINT:
            x, y = float(g.coords[0, 0]), float(g.coords[0, 1])
            parts.append(f'<wpt lat="{y!r}" lon="{x!r}">'
                         + _field_xml(row, pt_keys) + "</wpt>")
        elif g.geom_type == W.LINESTRING:
            pts = "".join(f'<rtept lat="{p[1]!r}" lon="{p[0]!r}"/>'
                          for p in g.coords)
            parts.append("<rte>" + _field_xml(row, seq_keys) + pts + "</rte>")
        elif g.geom_type == W.MULTILINESTRING:
            segs = "".join(
                "<trkseg>" + "".join(
                    f'<trkpt lat="{p[1]!r}" lon="{p[0]!r}"/>'
                    for p in ls.coords) + "</trkseg>"
                for ls in g.parts)
            parts.append("<trk>" + _field_xml(row, seq_keys) + segs
                         + "</trk>")
        else:
            raise ValueError(
                f"GPX cannot store {g.type_name} geometries "
                "(points, linestrings, multilinestrings only)")
        n += 1
    parts.append("</gpx>")
    with open(path, "w") as f:
        f.write("\n".join(parts))
    return n
