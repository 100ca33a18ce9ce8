"""Vector drivers: ESRI Shapefile, GeoPackage, CSV — conformance
against the reference's own fixtures + roundtrips."""

import glob
import os
import tempfile

import numpy as np
import pytest

from gdal_ray.core import geom as G
from gdal_ray.core import wkb as W

_OGR_DATA = "/root/reference/autotest/ogr/data"
have_ref = os.path.isdir(_OGR_DATA)


@pytest.mark.skipif(not have_ref, reason="reference fixtures not present")
class TestShapefile:
    def test_poly_shp_features_and_attrs(self):
        """poly.shp: 10 polygon features; EAS_ID values match the
        reference's own expectations (autotest/ogr/ogr_shape.py:156
        sorted list [179,173,172,171,170,169,168,166,165,158])."""
        from gdal_ray.sources.shapefile import read_shapefile
        t = read_shapefile(f"{_OGR_DATA}/poly.shp")
        assert t.num_rows == 10
        assert sorted(t["EAS_ID"].to_pylist(), reverse=True) == \
            [179, 173, 172, 171, 170, 169, 168, 166, 165, 158]
        # DBF AREA attribute agrees with the geometry's computed area
        for b, a in zip(t["wkb"].to_pylist(), t["AREA"].to_pylist()):
            assert abs(G.area(W.loads(b)) - float(a)) / float(a) < 1e-3

    def test_testpoly_shp(self):
        from gdal_ray.sources.shapefile import read_shapefile
        t = read_shapefile(f"{_OGR_DATA}/shp/testpoly.shp")
        assert t.num_rows > 0
        assert all(b is None or W.loads(b).geom_type in
                   (W.POLYGON, W.MULTIPOLYGON)
                   for b in t["wkb"].to_pylist())

    def test_bulk_decode_no_crash(self):
        from gdal_ray.sources.shapefile import read_shapefile
        n = 0
        for f in sorted(glob.glob(f"{_OGR_DATA}/shp/*.shp"))[:20]:
            try:
                read_shapefile(f)
                n += 1
            except ValueError:
                pass            # unsupported variants raise cleanly
        assert n >= 5


@pytest.mark.skipif(not have_ref, reason="reference fixtures not present")
class TestGeoPackage:
    def test_envelope_fixture(self):
        from gdal_ray.sources.gpkg import read_gpkg
        t = read_gpkg(f"{_OGR_DATA}/gpkg/2d_envelope.gpkg")
        assert t.num_rows == 2
        for b in t["wkb"].to_pylist():
            if b is not None:
                g = W.loads(b)
                env = g.envelope()
                assert env[0] <= env[2] and env[1] <= env[3]

    def test_bulk_fixtures(self):
        from gdal_ray.sources.gpkg import read_gpkg
        n = 0
        for f in sorted(glob.glob(f"{_OGR_DATA}/gpkg/*.gpkg")):
            try:
                read_gpkg(f)
                n += 1
            except Exception:
                pass
        assert n >= 8

    def test_list_tables(self):
        from gdal_ray.sources.gpkg import list_feature_tables
        tables = list_feature_tables(f"{_OGR_DATA}/gpkg/2d_envelope.gpkg")
        assert len(tables) >= 1


class TestCSV:
    def test_wkt_column(self):
        from gdal_ray.sources.csvio import read_csv
        t = read_csv('id,name,WKT\n'
                     '1,alpha,"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"\n'
                     '2,beta,"POINT (7 8)"\n')
        assert t.num_rows == 2
        assert G.area(W.loads(t["wkb"][0].as_py())) == 16.0
        assert t["id"].to_pylist() == [1, 2]
        assert t["name"].to_pylist() == ["alpha", "beta"]

    def test_xy_columns(self):
        from gdal_ray.sources.csvio import read_csv
        t = read_csv("lon,lat,v\n1.5,2.5,9\n3,4,10\n")
        assert t["minx"].to_pylist() == [1.5, 3.0]
        assert t["v"].to_pylist() == [9, 10]

    def test_roundtrip_lossless(self):
        """WKT repr-shortest floats make write→read byte-lossless."""
        from gdal_ray.sources.csvio import read_csv, write_csv
        from gdal_ray.sources.vector import polygons_table
        src = polygons_table(12)
        p = os.path.join(tempfile.mkdtemp(dir="/tmp"), "layer.csv")
        write_csv(src, p)
        back = read_csv(p)
        assert back.num_rows == 12
        a0 = [G.area(W.loads(b)) for b in src["wkb"].to_pylist()]
        a1 = [G.area(W.loads(b)) for b in back["wkb"].to_pylist()]
        assert np.allclose(a0, a1, rtol=0, atol=0)   # bit-identical

    def test_empty_raises(self):
        from gdal_ray.sources.csvio import read_csv
        with pytest.raises(ValueError):
            read_csv("\n")   # header-less text (no file path lookup)


def test_gpkg_keeps_the_layer_fid(tmp_path):
    """The INTEGER PRIMARY KEY ``write_gpkg`` stores the fid in reads
    back as ``fid`` (OGR's GPKG driver does the same), not as an
    attribute next to a renumbered fid."""
    import pyarrow as pa
    from gdal_ray.sources.gpkg import read_gpkg, write_gpkg
    from gdal_ray.sources.vector import with_geometry
    src = with_geometry(pa.table({"fid": pa.array([10, 20], pa.int64()),
                                  "name": ["a", "b"]}),
                        [W.point(1.0, 2.0), W.point(3.0, 4.0)])
    write_gpkg(src, str(tmp_path / "l.gpkg"))
    back = read_gpkg(str(tmp_path / "l.gpkg"))
    assert back["fid"].to_pylist() == [10, 20]
    assert back.column_names == ["fid", "wkb", "minx", "miny", "maxx",
                                 "maxy", "name"]


@pytest.mark.parametrize("geometry, env", [
    ({"type": "LineString", "coordinates": [[0, 0, 5], [1, 1, 5]]},
     [0, 0, 1, 1]),
    ({"type": "MultiLineString",
      "coordinates": [[[0, 0, 5], [1, 1, 5]], [[2, 2, 5], [3, 4, 5]]]},
     [0, 0, 3, 4]),
    ({"type": "MultiPolygon",
      "coordinates": [[[[0, 0, 1], [2, 0, 1], [2, 2, 1], [0, 0, 1]]],
                      [[[5, 5, 1], [6, 5, 1], [6, 7, 1], [5, 5, 1]]]]},
     [0, 0, 6, 7]),
    ({"type": "Polygon",
      "coordinates": [[[0, 0], [9, 0], [9, 9], [0, 0]],
                      [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1, 1, 1]]]},
     [0, 0, 9, 9]),
    ({"type": "MultiPoint", "coordinates": [[0, 0, 1], [3, 4, 1]]},
     [0, 0, 3, 4]),
], ids=["linestring", "multilinestring", "multipolygon", "mixed_rings",
        "multipoint"])
def test_geojson_3d_positions_read_as_xy(tmp_path, geometry, env):
    """A GeoJSON position's Z is dropped where it is parsed: the WKB is
    2-D and decodes back to the x/y envelope the layer carries."""
    import json
    from gdal_ray.sources.geojson import read_geojson_table
    p = tmp_path / "z.geojson"
    p.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {}, "geometry": geometry}]}))
    t = read_geojson_table(str(p))
    assert [t[c][0].as_py() for c in ("minx", "miny", "maxx", "maxy")] \
        == env
    assert list(W.loads(t["wkb"][0].as_py()).envelope()) == env


def test_geojson_nested_point_is_a_null_geometry(tmp_path):
    """A Point whose coordinates are a list of positions is not a
    geometry; the feature reads with a null one, the file still reads."""
    import json
    from gdal_ray.sources.geojson import read_geojson_table
    p = tmp_path / "bad.geojson"
    p.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Point", "coordinates": [[0, 0], [1, 1]]}},
        {"type": "Feature", "properties": {},
         "geometry": {"type": "Point", "coordinates": [1, 2]}}]}))
    t = read_geojson_table(str(p))
    assert t["wkb"].to_pylist()[0] is None
    assert np.isnan(t["minx"][0].as_py())
    assert t["minx"][1].as_py() == 1.0


class TestDriverDispatch:
    """§2.12 driver manager analog: extension routing + user hook."""

    def test_builtin_routing(self):
        import tempfile
        from gdal_ray.sources.drivers import read_vector
        from gdal_ray.sources.csvio import write_csv
        from gdal_ray.sources.gpkg import write_gpkg
        from gdal_ray.sources.vector import polygons_table
        src = polygons_table(5)
        d = tempfile.mkdtemp(dir="/tmp")
        write_csv(src, f"{d}/l.csv")
        write_gpkg(src, f"{d}/l.gpkg")
        assert read_vector(f"{d}/l.csv").num_rows == 5
        assert read_vector(f"{d}/l.gpkg").num_rows == 5
        if have_ref:
            assert read_vector(f"{_OGR_DATA}/poly.shp").num_rows == 10

    def test_user_registration(self, tmp_path):
        import pyarrow as pa
        from gdal_ray.sources.drivers import (read_vector,
                                              register_vector_driver,
                                              unregister_vector_driver)
        register_vector_driver(".fake", lambda p: pa.table({"fid": [1]}))
        p = str(tmp_path / "x.fake")
        open(p, "w").close()
        try:
            assert read_vector(p).num_rows == 1
        finally:
            unregister_vector_driver(".fake")
        with pytest.raises(ValueError):
            read_vector(p)
        with pytest.raises(ValueError):
            read_vector("/tmp/nope.unknownext")
        with pytest.raises(TypeError):
            register_vector_driver(".bad", 3)


class TestVsiZip:
    """/vsizip/ analog: zip-archived layers read transparently
    (port/cpl_vsil_gzip.cpp zip handler semantics)."""

    def test_reference_poly_zip(self):
        from gdal_ray.sources.drivers import read_vector
        t = read_vector("/root/reference/autotest/ogr/data/shp/poly.zip")
        assert t.num_rows == 10              # ogr_shape.py poly golden

    @staticmethod
    def _poly(tmp_path):
        """A 10-feature polygon shapefile; returns its path stem."""
        from gdal_ray.sources.shapefile import write_shapefile
        from gdal_ray.sources.vector import polygons_table
        src = str(tmp_path / "poly")
        write_shapefile(polygons_table(10), src + ".shp")
        return src

    def test_member_path_and_prefix(self, tmp_path):
        import zipfile
        from gdal_ray.sources.drivers import read_vector
        src = self._poly(tmp_path)
        zp = str(tmp_path / "a.zip")
        with zipfile.ZipFile(zp, "w") as z:
            for ext in (".shp", ".shx", ".dbf"):
                z.write(src + ext, "inner/poly" + ext)
        assert read_vector(zp + "/inner/poly.shp").num_rows == 10
        assert read_vector("/vsizip/" + zp + "/inner/poly.shp").num_rows == 10

    def test_ambiguous_zip_rejected(self, tmp_path):
        import zipfile
        import pytest as _pytest
        from gdal_ray.sources.drivers import read_vector
        src = self._poly(tmp_path)
        zp = str(tmp_path / "two.zip")
        with zipfile.ZipFile(zp, "w") as z:
            for ext in (".shp", ".shx", ".dbf"):
                z.write(src + ext, "a/poly" + ext)
                z.write(src + ext, "b/poly" + ext)
        with _pytest.raises(ValueError, match="specify the member"):
            read_vector(zp)

    def test_list_drivers(self):
        from gdal_ray.sources.drivers import list_drivers
        d = list_drivers()
        assert {"shp", "gpkg", "gpx", "gml", "mif", "dxf", "fgb"} <= set(d)

    def test_gzip_layer(self, tmp_path):
        import gzip, json
        from gdal_ray.sources.drivers import read_vector
        gj = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"n": 1},
             "geometry": {"type": "Point", "coordinates": [1, 2]}}]}
        p = str(tmp_path / "x.geojson.gz")
        with gzip.open(p, "wt") as f:
            json.dump(gj, f)
        assert read_vector(p).num_rows == 1

    @staticmethod
    def _points(n):
        import json
        return json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"n": i},
             "geometry": {"type": "Point", "coordinates": [i, 2]}}
            for i in range(n)]})

    def test_gzip_rewrite_reads_new_content(self, tmp_path):
        """A .gz rewritten in place reads back its new content in the
        same process (the extracted twin is keyed on size and mtime)."""
        import gzip
        from gdal_ray.sources.drivers import read_vector
        p = str(tmp_path / "pts.geojson.gz")
        with gzip.open(p, "wt") as f:
            f.write(self._points(2))
        assert read_vector(p).num_rows == 2
        with gzip.open(p, "wt") as f:
            f.write(self._points(5))
        assert read_vector(p).num_rows == 5

    def test_zip_rewrite_reads_new_content(self, tmp_path):
        import zipfile
        from gdal_ray.sources.drivers import read_vector
        zp = str(tmp_path / "pts.zip")
        for n in (2, 5):
            with zipfile.ZipFile(zp, "w") as z:
                z.writestr("inner/pts.geojson", self._points(n))
            assert read_vector(zp + "/inner/pts.geojson").num_rows == n
            assert read_vector(zp).num_rows == n

    def test_twins_live_under_one_process_root(self, tmp_path):
        """Twins are written under this process's root (removed at
        exit), never into a shared fixed temp directory."""
        import gzip
        from gdal_ray.sources import drivers
        p = str(tmp_path / "one.geojson.gz")
        with gzip.open(p, "wt") as f:
            f.write(self._points(1))
        drivers.read_vector(p)
        twins = [os.path.join(d, f) for d, _, fs in
                 os.walk(drivers._TWIN_ROOT) for f in fs]
        assert any(t.endswith("one.geojson") for t in twins)
        assert not any(os.path.basename(t).startswith(".part-")
                       for t in twins)


def test_shapefile_multipatch():
    # MultiPatch (type 31) → collection of TIN triangles + ring
    # polygons; XY projection of the reference's expected
    # GEOMETRYCOLLECTION(TIN, TIN, MULTIPOLYGON) (ogr_shape.py:1586;
    # this engine's geometry model is 2-D)
    import numpy as np
    import gdal_ray.core.wkb as W
    from gdal_ray.sources.drivers import read_vector
    t = read_vector(
        "/root/reference/autotest/ogr/data/shp/multipatch.shp")
    assert t.num_rows == 1
    g = W.loads(t["wkb"][0].as_py())
    assert g.geom_type == W.GEOMETRYCOLLECTION
    fan = g.parts[0]
    assert fan.geom_type == W.MULTIPOLYGON and len(fan.parts) == 4
    # every fan triangle shares the apex (5, 4)
    for tri in fan.parts:
        assert np.allclose(tri.rings[0][0], (5.0, 4.0))
    strip = g.parts[1]
    assert strip.geom_type == W.MULTIPOLYGON and len(strip.parts) == 6
    rings = g.parts[2]
    assert rings.geom_type == W.POLYGON and len(rings.rings) == 3


def test_jsonfg_json_dispatch():
    # .json files declaring a json-fg conformsTo route to the JSON-FG
    # reader; the whole reference jsonfg fixture directory opens
    import glob
    from gdal_ray.sources.drivers import read_vector
    files = sorted(glob.glob(
        "/root/reference/autotest/ogr/data/jsonfg/*.json"))
    assert len(files) >= 40
    for p in files:
        t = read_vector(p)
        assert t.num_rows >= 0


def test_csv_type_autodetect_and_duplicate_names():
    from gdal_ray.sources.drivers import read_vector
    t = read_vector("/root/reference/autotest/ogr/data/csv/"
                    "testtypeautodetect.csv")
    assert t.num_rows == 9
    # mixed int/real promotes to double, mixed with text to string
    assert str(t.schema.field("real2").type) in ("double", "string")
    t = read_vector("/root/reference/autotest/ogr/data/csv/"
                    "more_than_100_geom_fields.csv")
    assert t.num_rows == 1


def test_pds_table_vector():
    # ogr_pds.py parity: RAMAPPING fixed-width ASCII table with
    # ITEMS-expanded columns and lon/lat point geometry; binary
    # MESSENGER VIRS table with MSB types
    import gdal_ray.core.wkb as W
    from gdal_ray.sources.drivers import read_vector
    A = "/root/reference/autotest/ogr/data/pds/"
    t = read_vector(A + "ap01578l.lbl")
    assert t["NOISE_COUNTS_1"][0].as_py() == 96
    assert t["MARS_RADIUS"][1].as_py() == 3385310.2
    g = W.loads(t["wkb"][0].as_py())
    assert abs(g.coords[0][0] - 146.1325) < 1e-9
    assert abs(g.coords[0][1] + 55.648) < 1e-9
    t2 = read_vector(A + "virsvd_orb_11187_050618.lbl")
    assert abs(t2["INCIDENCE_ANGLE"][0].as_py() - 3.56775538) < 1e-7
    assert abs(t2["TEMP_2"][0].as_py() - 28.1240005493164) < 1e-7
