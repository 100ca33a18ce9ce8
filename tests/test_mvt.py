"""MVT + PMTiles — behavior goldens from autotest/ogr/ogr_mvt.py and
autotest/ogr/ogr_pmtiles.py: datatype table, promotion rules,
limit-case feature validation, tile->EPSG:3857 georeferencing,
polygon winding, PMTiles directory walk (incl. leaf dirs) and
attribute parity on poly.pmtiles."""

import numpy as np
import pytest

from gdal_ray.core import wkb as W
from gdal_ray.sources import pmtiles as PM
from gdal_ray.sources.mvt import decode_mvt, encode_mvt, read_mvt_table

D = "/root/reference/autotest/ogr/data/mvt"
P = "/root/reference/autotest/ogr/data/pmtiles"


class TestMvtRead:
    def test_datatypes(self):
        t = decode_mvt(open(f"{D}/datatypes/0/0/0.pbf", "rb").read())
        tbl = t["datatypes"]
        row = tbl.to_pylist()[0]
        assert row["bool_true"] == 1 and row["bool_false"] == 0
        assert row["pos_int_value"] == 1
        assert row["pos_int64_value"] == 123456789012345
        assert row["neg_int64_value"] == -123456789012345
        assert row["neg_sint64_value"] == -123456789012345
        assert row["uint_value"] == 2000000000
        assert row["uint64_value"] == 4000000000
        assert row["float_value"] == 1.25
        assert row["real_value"] == 1.23456789
        assert row["string_value"] == "str"
        types = {f.name: str(f.type) for f in tbl.schema}
        assert types["pos_int_value"] == "int32"
        assert types["pos_int64_value"] == "int64"
        assert types["float_value"] == "float"
        assert types["real_value"] == "double"
        assert "mvt_id" in types

    def test_datatype_promotion(self):
        t = decode_mvt(open(f"{D}/datatype_promotion.pbf", "rb").read())
        want = {"int_to_int64": "int64", "int_to_real": "double",
                "int64_to_real": "double", "bool_to_int": "int32",
                "bool_to_str": "string", "float_to_double": "double"}
        for layer, typ in want.items():
            tbl = t[layer]
            # field index 1 in the reference = first attribute after
            # mvt_id; ours: first column after fid/mvt_id
            f = tbl.schema.field(2)
            assert str(f.type) == typ, layer

    def test_limit_cases(self):
        t = decode_mvt(open(f"{D}/limit_cases.pbf", "rb").read())
        assert len(t["empty"]) == 0
        assert len(t["layer1"]) == 7
        assert t["layer1"]["mvt_id"][1].as_py() == 1
        assert len(t["layer2"]) == 0
        assert len(t["layer3"]) == 0
        assert len(t["layer4"]) == 0
        assert len(t["layer5"]) == 1
        g = W.loads(t["layer5"]["wkb"][0].as_py())
        assert g.type_name == "Point"
        assert tuple(g.coords[0]) == (2070.0, 2690.0)

    def test_with_extension_fields(self):
        t = decode_mvt(open(f"{D}/with_extension_fields.pbf",
                            "rb").read())
        g = W.loads(list(t.values())[0]["wkb"][0].as_py())
        assert g.type_name == "LineString"
        assert [tuple(c) for c in g.coords] == \
            [(2070.0, 2690.0), (2082.0, 2707.0)]

    def test_linestring_georef(self):
        t = read_mvt_table(f"{D}/linestring/0/0/0.pbf")
        g = W.loads(t["wkb"][0].as_py())
        want = [(215246.671651058, 6281289.23636264),
                (332653.947097085, 6447616.20991119)]
        for (x, y), (wx, wy) in zip(g.coords, want):
            assert x == pytest.approx(wx, abs=1e-6)
            assert y == pytest.approx(wy, abs=1e-6)

    def test_mixed(self):
        t = read_mvt_table(f"{D}/mixed/0/0/0.pbf")
        g0 = W.loads(t["wkb"][0].as_py())
        g1 = W.loads(t["wkb"][1].as_py())
        assert g0.type_name == "MultiPoint"
        assert g1.type_name == "LineString"
        assert g0.parts[0].coords[0][0] == pytest.approx(
            215246.671651058, abs=1e-6)

    def test_polygon_winding(self):
        t = read_mvt_table(f"{D}/polygon/0/0/0.pbf")
        g = W.loads(t["wkb"][0].as_py())
        assert g.type_name == "Polygon"
        assert len(g.rings) == 1
        # autotest golden vertex order
        assert g.rings[0][0][0] == pytest.approx(332653.947097085,
                                                 abs=1e-6)
        assert g.rings[0][0][1] == pytest.approx(6447616.20991119,
                                                 abs=1e-6)

    def test_driver_dispatch(self):
        from gdal_ray.sources.drivers import read_vector
        t = read_vector(f"{D}/linestring/0/0/0.pbf")
        assert "layer" in t.column_names
        assert t["layer"][0].as_py() == "linestring"


class TestMvtEncode:
    def test_roundtrip_tile_coords(self):
        feats = [
            (W.point(100, 200), {"name": "a", "v": 3}, 7),
            (W.linestring([(0, 0), (10, 5), (20, 5)]), {"v": -4}, None),
            (W.polygon([(0, 0), (100, 0), (100, 100), (0, 100)]),
             {"f": 1.5}, None),
        ]
        buf = encode_mvt(feats, layer="test")
        t = decode_mvt(buf)["test"]
        assert len(t) == 3
        assert t["mvt_id"][0].as_py() == 7
        assert t["name"][0].as_py() == "a"
        assert t["v"].to_pylist() == [3, -4, None]
        assert t["f"][2].as_py() == 1.5
        g0 = W.loads(t["wkb"][0].as_py())
        # encode wrote y-down ints; decode flips to y-up: 4096-200
        assert tuple(g0.coords[0]) == (100.0, 3896.0)
        g2 = W.loads(t["wkb"][2].as_py())
        assert g2.type_name == "Polygon"

    def test_roundtrip_mercator(self):
        # world coords quantized into tile z=2 x=1 y=1 and back
        pts = [(-2000000.0, 3000000.0), (-1000000.0, 2000000.0)]
        feats = [(W.linestring(pts), {"id": 1}, None)]
        buf = encode_mvt(feats, layer="l", z=2, x=1, y=1)
        t = decode_mvt(buf, 2, 1, 1)["l"]
        g = W.loads(t["wkb"][0].as_py())
        size = 2 * 20037508.342789244 / 4
        tol = size / 4096  # one tile-grid cell
        for (x, y), (wx, wy) in zip(g.coords, pts):
            assert abs(x - wx) <= tol
            assert abs(y - wy) <= tol

    def test_multipolygon_rings(self):
        shell = [(0, 0), (50, 0), (50, 50), (0, 50)]
        hole = [(10, 10), (20, 10), (20, 20), (10, 20)]
        feats = [(W.polygon(shell, holes=[hole]), {}, None)]
        t = decode_mvt(encode_mvt(feats, layer="p"))["p"]
        g = W.loads(t["wkb"][0].as_py())
        assert g.type_name == "Polygon"
        assert len(g.rings) == 2


class TestPmtiles:
    def test_header_and_metadata(self):
        h = PM.read_pmtiles_header(open(f"{P}/poly.pmtiles",
                                        "rb").read())
        assert h["min_zoom"] == 0
        assert h["max_zoom"] == 5
        md = PM.read_pmtiles_metadata(f"{P}/poly.pmtiles")
        assert md["minzoom"] == "0" and md["maxzoom"] == "5"
        assert md["format"] == "pbf"

    def test_poly_maxzoom(self):
        t = PM.read_pmtiles_table(f"{P}/poly.pmtiles")
        assert len(t) == 8  # autotest GetFeatureCount
        row = t.to_pylist()[0]
        assert row["AREA"] == 215229.266
        assert row["EAS_ID"] == 168
        assert row["PRFEDEA"] == "35043411"
        g = W.loads(row["wkb"])
        assert "Polygon" in g.type_name

    def test_poly_zoom0(self):
        t = PM.read_pmtiles_table(f"{P}/poly.pmtiles", zoom=0)
        assert len(t) == 1

    def test_invalid_zoom(self):
        with pytest.raises(ValueError, match="Invalid zoom"):
            PM.read_pmtiles_table(f"{P}/poly.pmtiles", zoom=6)

    def test_leaf_directories(self):
        t = PM.read_pmtiles_table(f"{P}/poly_with_leaf_dir.pmtiles")
        assert len(t) == 8
        tf = PM.read_pmtiles_table(
            f"{P}/ne_10m_admin_0_france_with_leaf_dir.pmtiles")
        t0 = PM.read_pmtiles_table(f"{P}/ne_10m_admin_0_france.pmtiles")
        assert len(tf) == len(t0) > 0

    def test_tileid_roundtrip(self):
        for z in range(7):
            for _ in range(10):
                rng = np.random.default_rng(z)
                x = int(rng.integers(0, 1 << z)) if z else 0
                y = int(rng.integers(0, 1 << z)) if z else 0
                assert PM.tileid_to_zxy(PM.zxy_to_tileid(z, x, y)) == \
                    (z, x, y)

    def test_ray_dataset(self, ray_session):
        ds = PM.read_pmtiles(f"{P}/poly.pmtiles")
        df = ds.to_pandas()
        assert len(df) == 8
        assert set(df["PRFEDEA"]).issuperset({"35043411", "35043423"})


def _varint(v: int) -> bytes:
    out = bytearray()
    while True:
        b, v = v & 0x7F, v >> 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return bytes(out)


def _one_run_archive(path, payload: bytes, run: int, max_zoom: int):
    """PMTiles v3 file whose root directory holds one entry: tile ids
    0 .. run-1 all point at ``payload`` (no compression anywhere)."""
    import struct
    root = b"".join(map(_varint, (1, 0, run, len(payload), 1)))
    hdr = bytearray(127)
    hdr[:8] = b"PMTiles\x03"
    struct.pack_into("<8q", hdr, 8, 127, len(root), 0, 0, 0, 0,
                     127 + len(root), len(payload))
    struct.pack_into("<3q", hdr, 72, run, 1, 1)
    hdr[96:102] = bytes([0, 1, 1, 1, 0, max_zoom])
    struct.pack_into("<4i", hdr, 102, -1800000000, -850000000,
                     1800000000, 850000000)
    with open(path, "wb") as f:
        f.write(bytes(hdr) + root + payload)


class TestPmtilesRuns:
    """A run-length entry expands lazily: a 2^24-tile run yields its
    first tiles at once, every tile shares the run's payload, and only
    a reader that keeps every tile refuses it (by count, unexpanded)."""

    @pytest.fixture()
    def archive(self, tmp_path):
        payload = encode_mvt([(W.point(100.0, 200.0), {"k": 1}, None)],
                             layer="pts")
        path = str(tmp_path / "run.pmtiles")
        _one_run_archive(path, payload, 1 << 24, 12)
        return path, payload

    def test_first_tiles_without_a_cap(self, archive):
        import itertools
        path, payload = archive
        first = list(itertools.islice(PM.pmtiles_tiles(path), 6))
        assert [t[:3] for t in first] == [
            PM.tileid_to_zxy(k) for k in range(6)]
        assert first[0][:3] == (0, 0, 0)
        assert all(t[3] == payload for t in first)
        assert len({id(t[3]) for t in first}) == 1   # one shared payload

    def test_zoom_filter_stays_lazy(self, archive):
        import itertools
        path, _ = archive
        z12 = itertools.islice(PM.pmtiles_tiles(path, 12), 3)
        assert [t[0] for t in z12] == [12, 12, 12]
        assert [t[:3] for t in PM.pmtiles_tiles(path, 1)] == [
            PM.tileid_to_zxy(k) for k in range(1, 5)]

    def test_materializing_readers_keep_the_cap(self, archive):
        path, _ = archive
        with pytest.raises(ValueError, match="expansion cap"):
            PM.read_pmtiles_table(path, zoom=12)
        t = PM.read_pmtiles_table(path, zoom=2)
        assert len(t) == 16
        assert sorted(zip(t["tile_x"].to_pylist(),
                          t["tile_y"].to_pylist())) == [
            (x, y) for x in range(4) for y in range(4)]

    def test_bad_header_raises_on_call(self, tmp_path):
        path = tmp_path / "bad.pmtiles"
        path.write_bytes(b"\0" * 127)
        with pytest.raises(ValueError, match="not a PMTiles v3"):
            PM.pmtiles_tiles(str(path))


def test_pmtiles_raster_png():
    # raster PMTiles (tile_type 2): maxzoom mosaic cropped to the
    # header bounds in WebMercator; reference pmtiles.py
    # test_pmtiles_read_png expectations (gt approx, band checksums
    # 4575 / 4457)
    from gdal_ray.core.checksum import checksum
    from gdal_ray.sources.raster import read_raster
    px, gt, nd, meta = read_raster(
        "/root/reference/autotest/gdrivers/data/pmtiles/"
        "byte_png.pmtiles")
    assert px.shape == (20, 20, 2)
    assert abs(gt[0] - -13095879.619070962) < 1e-3
    assert abs(gt[1] - 76.43702828517625) < 1e-6
    assert abs(gt[3] - 4015772.155018305) < 1e-3
    assert checksum(px[:, :, 0]) == 4575
    assert checksum(px[:, :, 1]) == 4457
    assert meta["crs"] == "EPSG:3857"


def test_pmtiles_raster_jpeg_webp():
    from gdal_ray.core.checksum import checksum
    from gdal_ray.sources.raster import read_raster
    A = "/root/reference/autotest/gdrivers/data/pmtiles/"
    px, *_ = read_raster(A + "byte_jpg.pmtiles")
    assert px.shape[2] == 3
    assert all(checksum(px[:, :, i]) != 0 for i in range(3))
    px, *_ = read_raster(A + "byte_webp.pmtiles")
    assert px.shape[2] == 4
    assert checksum(px[:, :, 3]) == 4457
