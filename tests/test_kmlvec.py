"""KML vector driver vs the reference's own ogr/data/kml fixtures
(autotest/ogr/ogr_kml.py expectations) + write/read roundtrip."""
import os

import numpy as np
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.sources.kmlvec import read_kml_table, write_kml

_KML = "/root/reference/autotest/ogr/data/kml"
have_ref = os.path.isdir(_KML)


@pytest.mark.skipif(not have_ref, reason="reference fixtures not present")
class TestReferenceFixtures:
    def test_samples_names(self):
        t = read_kml_table(f"{_KML}/samples.kml")
        names = t["Name"].to_pylist()
        # ogr_kml.py:62-79 expectations (flattened across folders)
        assert names[0] == "Simple placemark"
        assert "Floating placemark" in names
        assert "Extruded placemark" in names
        desc = t["Description"].to_pylist()[0]
        assert "Attached to the ground" in desc

    def test_simple_placemark_point(self):
        t = read_kml_table(f"{_KML}/placemark.kml")
        assert t.num_rows == 1
        g = W.loads(t["wkb"][0].as_py())
        assert g.geom_type == W.POINT
        assert g.coords[0, 0] == 2.0 and g.coords[0, 1] == 49.0

    def test_extended_data(self):
        t = read_kml_table(f"{_KML}/extended_data_without_schema_data.kml")
        assert "field1" in t.column_names
        assert t["field1"][0].as_py() == "1_1"
        assert t["field2"][0].as_py() == "1_2"

    def test_degenerate_geometries_survive(self):
        # geometries.kml enumerates every broken polygon nesting —
        # parser must skip them without crashing (ogr_kml.py:435)
        t = read_kml_table(f"{_KML}/geometries.kml")
        wkbs = [b for b in t["wkb"].to_pylist() if b is not None]
        assert len(wkbs) >= 5        # the well-formed ones remain
        for b in wkbs:
            g = W.loads(b)
            assert len(g.rings[0]) >= 3 if g.geom_type == W.POLYGON \
                else True

    def test_empty_placemark_in_subfolder(self):
        # a geometry-less <Placemark/> is a row with a null wkb (as a
        # layer written with a null geometry reads back) and must not
        # crash
        t = read_kml_table(f"{_KML}/folder_with_subfolder_placemark.kml")
        assert t["wkb"].to_pylist() == [None] * t.num_rows

    def test_placemarks_across_folders_flatten(self):
        t = read_kml_table(f"{_KML}/placemark_in_root_and_subfolder.kml")
        assert t.num_rows >= 2


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        import pyarrow as pa
        geoms = [W.point(2.5, 48.75),
                 W.linestring(np.array([[0.0, 0.0], [1.0, 2.0],
                                        [3.0, 2.5]])),
                 W.polygon(np.array([[0, 0], [4, 0], [4, 4], [0, 4],
                                     [0, 0]], float),
                           [np.array([[1, 1], [2, 1], [2, 2], [1, 2],
                                      [1, 1]], float)]),
                 W.collection([W.point(9.0, 9.5), W.point(8.0, 7.5)])]
        t = pa.table({"fid": pa.array(range(4), pa.int64()),
                      "Name": pa.array([f"f{i}" for i in range(4)]),
                      "cat": pa.array(["a", "b", None, "d"]),
                      "wkb": pa.array([W.dumps(g) for g in geoms],
                                      pa.binary())})
        p = str(tmp_path / "out.kml")
        write_kml(t, p)
        back = read_kml_table(p)
        assert back.num_rows == 4
        assert back["Name"].to_pylist() == ["f0", "f1", "f2", "f3"]
        assert back["cat"].to_pylist() == ["a", "b", None, "d"]
        # KML MultiGeometry promotes homogeneous parts to Multi*
        expect = [W.POINT, W.LINESTRING, W.POLYGON, W.MULTIPOINT]
        for i, g in enumerate(geoms):
            r = W.loads(back["wkb"][i].as_py())
            assert r.geom_type == expect[i]
            a, b = np.array(g.envelope()), np.array(r.envelope())
            assert np.allclose(a, b)
        # polygon hole survived
        poly = W.loads(back["wkb"][2].as_py())
        assert len(poly.rings) == 2

    def test_driver_dispatch(self, tmp_path):
        import pyarrow as pa
        from gdal_ray.sources.drivers import read_vector
        t = pa.table({"fid": pa.array([0], pa.int64()),
                      "Name": pa.array(["x"]),
                      "wkb": pa.array([W.dumps(W.point(1, 2))],
                                      pa.binary())})
        p = str(tmp_path / "d.kml")
        write_kml(t, p)
        got = read_vector(p)
        assert got.num_rows == 1
        assert "minx" in got.column_names
