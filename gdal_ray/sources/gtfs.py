"""GTFS transit feeds (zip or directory of .txt CSVs).

Reference driver: ogr/ogrsf_frmts/gtfs/ogrgtfsdriver.cpp. Semantics
replicated: one layer per known GTFS file (agency, calendar,
calendar_dates, routes, shapes, stops, stop_times, trips — unknown
files ignored) plus the synthesized ``shapes_geom`` layer (one
LINESTRING per shape_id ordered by shape_pt_sequence); stops/shapes
get POINT geometry from stop_lat/lon; the trips layer gets a
LINESTRING chaining its stop_times' stops by stop_sequence; field
typing per the driver (dates "YYYYMMDD" -> "YYYY/MM/DD", *_type /
stop_sequence / day flags -> int, lat/lon/shape_dist_traveled ->
real, arrival/departure times stay "HH:MM:SS").

Goldens in tests/test_s57.py::TestGtfs from autotest/ogr/ogr_gtfs.py
(9 layers, agency SOLEA, calendar start_date, 30 route_type=3
routes, stops point + arrival_time, trips/shapes_geom linestrings).
"""

from __future__ import annotations

import csv
import io
import os
import zipfile

import pyarrow as pa

from ..core import wkb as W
from .vector import with_geometry

__all__ = ["read_gtfs_layers", "read_gtfs_table"]

_KNOWN = ("agency", "calendar", "calendar_dates", "routes", "shapes",
          "stops", "stop_times", "trips", "frequencies", "transfers",
          "feed_info", "fare_attributes", "fare_rules", "levels",
          "pathways")
_DATE_FIELDS = {"date", "start_date", "end_date"}
_INT_HINTS = {"stop_sequence", "shape_pt_sequence", "monday", "tuesday",
              "wednesday", "thursday", "friday", "saturday", "sunday"}
_REAL_FIELDS = {"stop_lat", "stop_lon", "shape_pt_lat", "shape_pt_lon",
                "shape_dist_traveled"}


def _read_tables(path: str) -> dict[str, tuple[list[str], list[list]]]:
    out = {}

    def load(name: str, data: bytes):
        base = os.path.splitext(os.path.basename(name))[0]
        if base not in _KNOWN:
            return
        text = data.decode("utf-8-sig", "replace")
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            return
        out[base] = (rows[0], rows[1:])
    if os.path.isdir(path):
        for f in sorted(os.listdir(path)):
            if f.endswith(".txt"):
                with open(os.path.join(path, f), "rb") as fh:
                    load(f, fh.read())
    else:
        with zipfile.ZipFile(path) as zf:
            for n in zf.namelist():
                if n.endswith(".txt"):
                    load(n, zf.read(n))
    return out


def _typed(name: str, vals: list[str]):
    if name in _DATE_FIELDS:
        def d(v):
            v = v.strip()
            if len(v) == 8 and v.isdigit():
                return f"{v[:4]}/{v[4:6]}/{v[6:]}"
            return v or None
        return pa.array([d(v) for v in vals], pa.string())
    if name in _REAL_FIELDS:
        return pa.array([float(v) if v.strip() else None for v in vals],
                        pa.float64())
    if name in _INT_HINTS or name.endswith("_type"):
        def i(v):
            try:
                return int(v)
            except ValueError:
                return None
        return pa.array([i(v) for v in vals], pa.int32())
    return pa.array([v if v != "" else None for v in vals], pa.string())


def read_gtfs_layers(path: str) -> dict[str, pa.Table]:
    tables = _read_tables(path)
    out: dict[str, pa.Table] = {}

    # helper lookups for geometry synthesis
    stops_map: dict[str, tuple[float, float]] = {}
    if "stops" in tables:
        hdr, rows = tables["stops"]
        try:
            i_id = hdr.index("stop_id")
            i_lat = hdr.index("stop_lat")
            i_lon = hdr.index("stop_lon")
            for r in rows:
                try:
                    stops_map[r[i_id]] = (float(r[i_lon]),
                                          float(r[i_lat]))
                except (ValueError, IndexError):
                    pass
        except ValueError:
            pass
    trip_stops: dict[str, list] = {}
    if "stop_times" in tables:
        hdr, rows = tables["stop_times"]
        try:
            i_t = hdr.index("trip_id")
            i_s = hdr.index("stop_id")
            i_q = hdr.index("stop_sequence")
            for r in rows:
                try:
                    trip_stops.setdefault(r[i_t], []).append(
                        (int(r[i_q]), r[i_s]))
                except (ValueError, IndexError):
                    pass
            for v in trip_stops.values():
                v.sort()
        except ValueError:
            pass

    for name, (hdr, rows) in tables.items():
        cols = {h: _typed(h, [r[i] if i < len(r) else ""
                              for r in rows])
                for i, h in enumerate(hdr)}
        t = pa.table({"fid": pa.array(range(len(rows)), pa.int64()),
                      **cols})
        geoms: list[W.Geometry | None] | None = None
        if name in ("stops", "shapes") and \
                ("stop_lat" in hdr or "shape_pt_lat" in hdr):
            la = "stop_lat" if name == "stops" else "shape_pt_lat"
            lo = "stop_lon" if name == "stops" else "shape_pt_lon"
            i_la, i_lo = hdr.index(la), hdr.index(lo)
            geoms = []
            for r in rows:
                try:
                    geoms.append(W.point(float(r[i_lo]), float(r[i_la])))
                except (ValueError, IndexError):
                    geoms.append(None)
        elif name == "trips" and "trip_id" in hdr:
            i_t = hdr.index("trip_id")
            geoms = []
            for r in rows:
                pts = [stops_map[s] for _q, s in
                       trip_stops.get(r[i_t], []) if s in stops_map]
                geoms.append(W.linestring(pts) if len(pts) >= 2
                             else None)
        out[name] = t if geoms is None else with_geometry(t, geoms)

    # synthesized shapes_geom layer
    if "shapes" in tables:
        hdr, rows = tables["shapes"]
        try:
            i_id = hdr.index("shape_id")
            i_la = hdr.index("shape_pt_lat")
            i_lo = hdr.index("shape_pt_lon")
            i_sq = hdr.index("shape_pt_sequence")
            by_shape: dict[str, list] = {}
            for r in rows:
                try:
                    by_shape.setdefault(r[i_id], []).append(
                        (int(r[i_sq]), float(r[i_lo]), float(r[i_la])))
                except (ValueError, IndexError):
                    pass
            ids, geoms = [], []
            for sid, pts in by_shape.items():
                pts.sort()
                ids.append(sid)
                geoms.append(W.linestring([(x, y) for _q, x, y in pts]))
            t = pa.table({"fid": pa.array(range(len(ids)), pa.int64()),
                          "shape_id": pa.array(ids, pa.string())})
            out["shapes_geom"] = with_geometry(t, geoms)
        except ValueError:
            pass
    return out


def read_gtfs_table(path: str, layer: str = "stops") -> pa.Table:
    layers = read_gtfs_layers(path)
    if layer not in layers:
        raise ValueError(f"no GTFS layer {layer!r} "
                         f"(have {sorted(layers)})")
    return layers[layer]
