"""WKT / GeoJSON codecs + GeoJSON driver round trips."""

import numpy as np
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.core import wkt as T
from gdal_ray.core.geom import area


def shapes():
    return [
        W.point(3.5, -4.25),
        W.linestring([(0, 0), (1.5, 2), (3, 0)]),
        W.polygon([(0, 0), (4, 0), (4, 4), (0, 4)],
                  holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]]),
        W.multipolygon([W.box(0, 0, 1, 1), W.box(5, 5, 7, 8)]),
        W.multipoint([(1, 2), (3, 4)]),
        W.collection([W.point(9, 9), W.box(0, 0, 2, 2)]),
    ]


def geoms_equal(a, b) -> bool:
    return W.dumps(a) == W.dumps(b)


class TestWkt:
    @pytest.mark.parametrize("g", shapes(),
                             ids=lambda g: g.type_name)
    def test_round_trip(self, g):
        assert geoms_equal(T.loads_wkt(T.dumps_wkt(g)), g)

    def test_known_strings(self):
        assert T.dumps_wkt(W.point(1, 2)) == "POINT (1 2)"
        g = T.loads_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))")
        assert area(g) == 100.0
        # hole
        g2 = T.loads_wkt(
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0),"
            " (2 2, 4 2, 4 4, 2 4, 2 2))")
        assert area(g2) == 100.0 - 4.0

    def test_multipoint_both_dialects(self):
        a = T.loads_wkt("MULTIPOINT ((1 2), (3 4))")
        b = T.loads_wkt("MULTIPOINT (1 2, 3 4)")
        assert geoms_equal(a, b)

    def test_unclosed_ring_closed_on_parse(self):
        g = T.loads_wkt("POLYGON ((0 0, 4 0, 4 4, 0 4))")
        assert area(g) == 16.0

    def test_errors(self):
        for bad in ("POINT 1 2", "POLYGON ((0 0, 1 1)", "BLOB (1 2)",
                    "POINT (1 2) extra"):
            with pytest.raises(ValueError):
                T.loads_wkt(bad)

    def test_scientific_numbers(self):
        g = T.loads_wkt("POINT (1.5e3 -2E-2)")
        assert g.coords[0].tolist() == [1500.0, -0.02]


class TestGeoJson:
    @pytest.mark.parametrize("g", shapes(),
                             ids=lambda g: g.type_name)
    def test_round_trip(self, g):
        assert geoms_equal(T.from_geojson(T.to_geojson(g)), g)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            T.from_geojson({"type": "Blob", "coordinates": []})


class TestGeoJsonDriver:
    def test_file_round_trip(self, tmp_path, ray_session):
        from gdal_ray.sources.geojson import (read_geojson,
                                              read_geojson_table,
                                              write_geojson)
        from gdal_ray.sources.vector import polygons_table
        src = polygons_table(10)
        p = str(tmp_path / "layer.geojson")
        write_geojson(src, p)
        back = read_geojson_table(p)
        assert back.num_rows == 10
        assert back["fid"].to_pylist() == src["fid"].to_pylist()
        # geometry + envelope survive byte-exactly
        assert back["wkb"].to_pylist() == src["wkb"].to_pylist()
        for c in ("minx", "miny", "maxx", "maxy"):
            assert np.allclose(back[c].to_numpy(), src[c].to_numpy())
        # property schema inferred
        assert set(back.column_names) >= {"name", "category"}
        # and as a Dataset
        ds = read_geojson(p)
        assert ds.count() == 10

    def test_bad_file(self, tmp_path):
        from gdal_ray.sources.geojson import read_geojson_table
        p = str(tmp_path / "x.geojson")
        with open(p, "w") as f:
            f.write('{"type": "Unrelated"}')
        with pytest.raises(ValueError):
            read_geojson_table(p)


def test_geojson_lenient_documents():
    # reference-driver behaviors: bare geometry / single Feature
    # docs, null and null-coordinate geometries, UTF-8 BOM, trailing
    # commas, mixed-type property promotion
    import glob
    from gdal_ray.sources.geojson import read_geojson_table
    A = "/root/reference/autotest/ogr/data/geojson/"
    t = read_geojson_table(A + "point_with_utf8bom.json")
    assert t.num_rows == 1
    t = read_geojson_table(A + "stac_item.json")      # trailing commas
    assert t.num_rows == 1
    t = read_geojson_table(A + "ogr_geojson_14.geojson")
    assert t.num_rows == 27                           # incl. empties
    t = read_geojson_table(A + "ids_0_1_null_1_null.json")
    assert t.num_rows == 5
    t = read_geojson_table(A + "test_type_promotion.json")
    assert t.num_rows > 0


def test_geojson_trailing_comma_strip_skips_strings(tmp_path):
    # the lenient re-parse drops trailing commas outside string
    # literals only: a property value that looks like one survives
    from gdal_ray.sources.geojson import read_geojson_table
    p = tmp_path / "t.geojson"
    p.write_text('{"type": "FeatureCollection", "features": [\n'
                 '  {"type": "Feature", "properties": {"s": "a, ]",\n'
                 '   "q": "say \\"b, }\\"", "n": 1,},\n'
                 '   "geometry": {"type": "Point",'
                 ' "coordinates": [1.0, 2.0,]},},\n'
                 ']}')
    t = read_geojson_table(str(p))
    assert t.num_rows == 1
    assert t["s"][0].as_py() == "a, ]"
    assert t["q"][0].as_py() == 'say "b, }"'
    assert t["n"][0].as_py() == 1
    assert t["minx"][0].as_py() == 1.0 and t["miny"][0].as_py() == 2.0
