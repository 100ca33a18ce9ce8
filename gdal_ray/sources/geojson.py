"""GeoJSON vector driver — FeatureCollection ⇄ Dataset.

Reference: ogr/ogrsf_frmts/geojson (schema-on-read driver). Read side
infers the property schema from the features (union of keys, arrow type
from first non-null value — OGR's inference approach), geometry lands
as the standard WKB column + envelope columns, fid from the feature's
"id" or positional. Write side emits a FeatureCollection.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa

from ..core import wkb as W
from ..core.wkt import from_geojson, to_geojson


_GEOM_TYPES = {"Point", "MultiPoint", "LineString", "MultiLineString",
               "Polygon", "MultiPolygon", "GeometryCollection"}


# a string literal (escapes included) or a comma before a closing bracket
_STRING_OR_TRAILING_COMMA = re.compile(r'"(?:[^"\\]|\\.)*"|,(\s*[}\]])',
                                       re.S)


def _strip_trailing_commas(text: str) -> str:
    """Drop commas that directly precede ``}`` or ``]``. String literals
    match first as whole tokens, so text inside them is left as is."""
    return _STRING_OR_TRAILING_COMMA.sub(
        lambda m: m.group(0) if m.group(1) is None else m.group(1), text)


def read_geojson_table(path: str) -> pa.Table:
    """GeoJSON file → Arrow table (fid, properties..., wkb, minx,
    miny, maxx, maxy).  Like the reference driver, accepts a
    FeatureCollection, a single Feature, or a bare geometry object
    (incl. GeometryCollection), and tolerates a UTF-8 BOM."""
    text = open(path, encoding="utf-8-sig").read()
    try:
        fc = json.loads(text)
    except json.JSONDecodeError:
        # the reference's json-c parser tolerates trailing commas
        fc = json.loads(_strip_trailing_commas(text))
    t = fc.get("type") if isinstance(fc, dict) else None
    if t == "FeatureCollection":
        feats = fc.get("features") or []
    elif t == "Feature":
        feats = [fc]
    elif t in _GEOM_TYPES:
        feats = [{"type": "Feature", "properties": {}, "geometry": fc}]
    else:
        raise ValueError("not a GeoJSON document")
    return _features_to_table(feats)


def _features_to_table(feats) -> pa.Table:
    keys: list[str] = []
    for ft in feats:
        for k in (ft.get("properties") or {}):
            if k not in keys:
                keys.append(k)
    cols: dict[str, list] = {"fid": []}
    for k in keys:
        cols[k] = []
    wkbs, envs = [], []
    for i, ft in enumerate(feats):
        props = ft.get("properties") or {}
        fid = ft.get("id", i)
        cols["fid"].append(int(fid) if isinstance(fid, (int, float)) else i)
        for k in keys:
            cols[k].append(props.get(k))
        gj = ft.get("geometry")
        try:
            g = from_geojson(gj) if gj is not None else None
            enc = W.dumps(g) if g is not None else None
        except (TypeError, IndexError, KeyError, ValueError):
            g = enc = None               # null/ragged coordinates
        if enc is None:                  # null-geometry feature
            wkbs.append(None)
            envs.append((np.nan, np.nan, np.nan, np.nan))
        else:
            wkbs.append(enc)
            try:
                e = np.asarray(g.envelope(), dtype=np.float64).ravel()
            except (IndexError, ValueError):
                e = np.empty(0)          # empty geometry
            envs.append(tuple(e[:4]) if e.size >= 4
                        else (np.nan, np.nan, np.nan, np.nan))
    env = np.array(envs, np.float64) if envs else np.empty((0, 4))
    # OGR-style field type promotion: mixed int/real → real, any
    # other mix (or nested lists/objects) → JSON-ish strings
    for k in keys:
        vals = cols[k]
        kinds = {type(v) for v in vals if v is not None}
        if any(t in (list, dict) for t in kinds) or \
                (str in kinds and len(kinds) > 1) or \
                (bool in kinds and len(kinds) > 1) or \
                (kinds and kinds <= {int, float, str, bool, list, dict}
                 and len(kinds - {int, float}) > 0 and len(kinds) > 1):
            cols[k] = [None if v is None
                       else (v if isinstance(v, str) else json.dumps(v))
                       for v in vals]
        elif kinds == {int, float}:
            cols[k] = [None if v is None else float(v) for v in vals]
    t = pa.table({"fid": pa.array(cols["fid"], pa.int64()),
                  **{k: pa.array(cols[k]) for k in keys}})
    t = t.append_column("wkb", pa.array(wkbs, pa.binary()))
    for j, name in enumerate(["minx", "miny", "maxx", "maxy"]):
        t = t.append_column(name, pa.array(env[:, j], pa.float64()))
    return t


def read_geojson(path: str):
    """GeoJSON file → ray.data.Dataset (single file = single block;
    shard many files with ray.data.from_items + map_batches at scale)."""
    import ray.data as rd
    return rd.from_arrow(read_geojson_table(path))


def write_geojson(table: pa.Table, path: str, *,
                  wkb_col: str = "wkb") -> None:
    """Arrow table with a WKB column → FeatureCollection file."""
    skip = {wkb_col, "minx", "miny", "maxx", "maxy"}
    prop_cols = [c for c in table.column_names if c not in skip and c != "fid"]
    fids = table["fid"].to_pylist() if "fid" in table.column_names \
        else list(range(table.num_rows))
    feats = []
    for i in range(table.num_rows):
        g = W.loads(table[wkb_col][i].as_py())
        props = {c: table[c][i].as_py() for c in prop_cols}
        feats.append({"type": "Feature", "id": fids[i],
                      "properties": props, "geometry": to_geojson(g)})
    with open(path, "w") as f:
        json.dump({"type": "FeatureCollection", "features": feats}, f)


def read_geojsonseq_table(path: str) -> pa.Table:
    """GeoJSONSeq / newline-delimited features (the reference's
    GeoJSONSeq driver, ogr/ogrsf_frmts/geojson/ogrgeojsonseqdriver.cpp):
    one Feature per line, optional RS (0x1e) record separators —
    the streaming-friendly variant used for large exports."""
    feats = []
    with open(path) as f:
        for line in f:
            line = line.strip().lstrip("\x1e").strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "FeatureCollection":
                feats.extend(obj.get("features", []))
            else:
                feats.append(obj)
    return _features_to_table(feats)


def write_geojsonseq(table: pa.Table, path: str, *,
                     wkb_col: str = "wkb", rs: bool = False) -> int:
    """Write one Feature per line (RS-prefixed when rs=True)."""
    from ..core.wkb import loads as wkb_loads
    n = 0
    skip = {wkb_col, "minx", "miny", "maxx", "maxy"}
    with open(path, "w") as f:
        for row in table.to_pylist():
            geom = to_geojson(wkb_loads(row[wkb_col]))
            props = {k: v for k, v in row.items()
                     if k not in skip and k != "fid"}
            ft = {"type": "Feature", "id": row.get("fid"),
                  "properties": props, "geometry": geom}
            f.write(("\x1e" if rs else "") + json.dumps(ft) + "\n")
            n += 1
    return n
