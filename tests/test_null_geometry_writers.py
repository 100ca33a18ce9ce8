"""Every layer writer on a table with a missing geometry.

A missing geometry is a null ``wkb`` (``with_geometry`` writes NaN
envelopes for it; several readers return it). Writers whose format
can say "no geometry" write it that way, and the file reads back with
a null ``wkb`` in that row; GPX and GMT cannot, and raise a ValueError
that names the row."""

from __future__ import annotations

import importlib

import pyarrow as pa
import pytest

from gdal_ray.core import wkb
from gdal_ray.sources.drivers import read_vector
from gdal_ray.sources.vector import with_geometry

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
    got = [None if b is None else wkb.loads(b).envelope()
           for b in read_vector(path)["wkb"].to_pylist()]
    assert got == [(1.0, 2.0, 1.0, 2.0), None]


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
