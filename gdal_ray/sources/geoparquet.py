"""GeoParquet metadata (the ``geo`` file key) for parquet vector sinks.

The reference's Parquet driver (ogr/ogrsf_frmts/parquet/) writes and
reads the GeoParquet spec's ``geo`` key-value metadata so other engines
(GeoPandas, DuckDB spatial, BigQuery) recognize which column is the
geometry and in which encoding. Without it, parquet-with-WKB interop is
lossy — this module closes that gap for our standard layer tables
(fid, wkb, minx/miny/maxx/maxy, attrs).

CRS is recorded as an identifier-only PROJJSON stub ({"id": {authority,
code}}); per the spec an omitted crs means OGC:CRS84.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..core import wkb as W

GEOPARQUET_VERSION = "1.1.0"

_GEOM_NAMES = {W.POINT: "Point", W.LINESTRING: "LineString",
               W.POLYGON: "Polygon", W.MULTIPOINT: "MultiPoint",
               W.MULTILINESTRING: "MultiLineString",
               W.MULTIPOLYGON: "MultiPolygon",
               W.GEOMETRYCOLLECTION: "GeometryCollection"}


def geo_metadata(*, geometry_types=(), bbox=None,
                 crs_code: int | None = None) -> dict:
    """The ``geo`` metadata dict (GeoParquet 1.1.0)."""
    col: dict = {"encoding": "WKB",
                 "geometry_types": sorted(geometry_types)}
    if bbox is not None:
        col["bbox"] = [float(v) for v in bbox]
    if crs_code is not None:
        col["crs"] = {"id": {"authority": "EPSG", "code": int(crs_code)}}
    return {"version": GEOPARQUET_VERSION,
            "primary_column": "wkb",
            "columns": {"wkb": col}}


def write_geoparquet(table: pa.Table, path: str, *,
                     crs_code: int | None = None, **pq_kwargs) -> int:
    """Write a layer table as GeoParquet: the parquet file plus the
    ``geo`` key so other engines see the geometry column. Geometry
    types and bbox are derived from the data (envelope columns when
    present, else decoded from WKB)."""
    if "wkb" not in table.column_names:
        raise ValueError("geometry column 'wkb' not in table")
    gtypes: set[str] = set()
    for v in table["wkb"]:
        b = v.as_py()
        if b is None:
            continue
        gtypes.add(_GEOM_NAMES[W.loads(b).geom_type])
    if {"minx", "miny", "maxx", "maxy"} <= set(table.column_names):
        bbox = [float(np.nanmin(table["minx"].to_numpy(zero_copy_only=False))),
                float(np.nanmin(table["miny"].to_numpy(zero_copy_only=False))),
                float(np.nanmax(table["maxx"].to_numpy(zero_copy_only=False))),
                float(np.nanmax(table["maxy"].to_numpy(zero_copy_only=False)))]
    else:
        envs = np.array([W.loads(v.as_py()).envelope()
                         for v in table["wkb"]
                         if v.as_py() is not None]).reshape(-1, 4)
        bbox = [float(np.nanmin(envs[:, 0])), float(np.nanmin(envs[:, 1])),
                float(np.nanmax(envs[:, 2])), float(np.nanmax(envs[:, 3]))] \
            if len(envs) else None
    meta = geo_metadata(geometry_types=gtypes, bbox=bbox, crs_code=crs_code)
    existing = table.schema.metadata or {}
    schema_meta = {**existing, b"geo": json.dumps(meta).encode("utf-8")}
    pq.write_table(table.replace_schema_metadata(schema_meta), path,
                   **pq_kwargs)
    return table.num_rows


def read_geoparquet(path: str):
    """→ (table, geo-metadata dict or None). Plain parquet reads fine
    with meta None."""
    t = pq.read_table(path)
    raw = (t.schema.metadata or {}).get(b"geo")
    return t, (json.loads(raw.decode("utf-8")) if raw else None)
