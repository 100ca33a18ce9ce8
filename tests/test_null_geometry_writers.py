"""Every layer writer and layer stage on a table with a missing geometry.

A missing geometry is a null ``wkb`` with a NaN float64 envelope
(``with_geometry`` writes it; every reader returns it). Writers whose
format can say "no geometry" write it that way, and the file reads
back with a null ``wkb`` and a NaN envelope in that row; GPX and GMT
cannot, and raise a ValueError that names the row. The stages that
decode a layer's WKB pass the row through."""

from __future__ import annotations

import importlib
import math

import pyarrow as pa
import pytest

from gdal_ray.core import wkb
from gdal_ray.functions.info import vector_info
from gdal_ray.sources.drivers import read_vector
from gdal_ray.sources.vector import ENVELOPE, with_geometry
from gdal_ray.stages.vector_ops import (add_geometry_columns,
                                        explode_collections,
                                        reproject_wkb_batch, wkb_map)

# writer "module:function" → file name; reading the file back gives both
# rows, the second without geometry
WRITERS = {
    "shapefile:write_shapefile": "layer.shp",
    "geojson:write_geojson": "layer.geojson",
    "geojson:write_geojsonseq": "layer.geojsonl",
    "kmlvec:write_kml": "layer.kml",
    "csvio:write_csv": "layer.csv",
    "mif:write_mif": "layer.mif",
    "georss:write_georss": "layer.xml",
    "gml:write_gml": "layer.gml",
    "flatgeobuf:write_fgb": "layer.fgb",
    "gpkg:write_gpkg": "layer.gpkg",
    "sqlitevec:write_sqlite": "layer.sqlite",
}
REFUSING = {"gpx:write_gpx": "layer.gpx", "gmtvec:write_gmt": "layer.gmt"}


def _layer() -> pa.Table:
    return with_geometry(pa.table({"fid": pa.array([0, 1], pa.int64()),
                                   "name": ["a", "b"]}),
                         [wkb.point(1.0, 2.0), None])


def _writer(ref: str):
    mod, fn = ref.split(":")
    return getattr(importlib.import_module("gdal_ray.sources." + mod), fn)


@pytest.mark.parametrize("ref", sorted(WRITERS))
def test_writer_keeps_a_null_geometry(tmp_path, ref):
    path = str(tmp_path / WRITERS[ref])
    _writer(ref)(_layer(), path)
    back = read_vector(path)
    got = [None if b is None else wkb.loads(b).envelope()
           for b in back["wkb"].to_pylist()]
    assert got == [(1.0, 2.0, 1.0, 2.0), None]
    for n in ENVELOPE:                   # NaN, not null, in the null row
        assert back.schema.field(n).type == pa.float64(), n
        assert back[n].null_count == 0 and math.isnan(back[n][1].as_py())


@pytest.mark.parametrize("ref", sorted(REFUSING))
def test_writer_refuses_a_null_geometry_by_row(tmp_path, ref):
    with pytest.raises(ValueError, match=r"null geometry \(row 1\)"):
        _writer(ref)(_layer(), str(tmp_path / REFUSING[ref]))


def test_kml_writes_a_placemark_without_geometry(tmp_path):
    path = tmp_path / "layer.kml"
    _writer("kmlvec:write_kml")(_layer(), str(path))
    text = path.read_text()
    assert text.count("<Placemark>") == 2
    assert text.count("<Point>") == 1
    # the geometry-less Placemark reads back as a row, attributes kept
    assert read_vector(str(path))["name"].to_pylist() == ["a", "b"]


def _row1(t: pa.Table) -> list:
    """The second row's wkb and envelope, a NaN spelled "nan"."""
    return [t["wkb"][1].as_py(),
            *("nan" if math.isnan(t[n][1].as_py()) else t[n][1].as_py()
              for n in ENVELOPE)]


# stage → (what it makes of _layer(), with the null geometry in row 1)
STAGES = {
    "wkb_map": (lambda t: _row1(wkb_map(lambda g: g)(t)),
                [None, "nan", "nan", "nan", "nan"]),
    "reproject_wkb_batch": (
        lambda t: _row1(reproject_wkb_batch(t, "EPSG:3857", "EPSG:4326")),
        [None, "nan", "nan", "nan", "nan"]),
    "explode_collections": (
        lambda t: explode_collections(t).select(
            ["fid", "wkb", "part_index"]).to_pylist()[1],
        {"fid": 1, "wkb": None, "part_index": 0}),
    "add_geometry_columns": (
        lambda t: add_geometry_columns(t).select(
            ["area", "centroid_x", "centroid_y"]).to_pylist(),
        [{"area": 0.0, "centroid_x": 1.0, "centroid_y": 2.0},
         {"area": None, "centroid_x": None, "centroid_y": None}]),
    "vector_info": (
        lambda t: {k: vector_info(t)[k] for k in
                   ("feature_count", "extent", "geometry_types")},
        {"feature_count": 2, "extent": (1.0, 2.0, 1.0, 2.0),
         "geometry_types": {"Point": 1}}),
}


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_passes_a_null_geometry_through(name):
    run, expected = STAGES[name]
    assert run(_layer()) == expected
