"""Esri Compact Cache V2 reader (codecs/esric.py) — reference
autotest esric.py goldens on the Layers cache: LOD 1 is 512x512 with
band-2 checksum 46857 (PNG tiles incl. a grayscale one), the top LOD
has no bundles and reads as zeros, geotransform anchored at
-20037508.342787 with the LOD resolution."""

import os
import shutil
import tarfile

import numpy as np
import pytest

from gdal_ray.codecs.esric import decode_esric
from gdal_ray.core.checksum import checksum
from gdal_ray.sources.raster import read_raster

TAR = "/root/reference/autotest/gdrivers/data/esric/Layers.tar"


@pytest.fixture(scope="module")
def conf(tmp_path_factory):
    d = tmp_path_factory.mktemp("esric")
    with tarfile.open(TAR) as tf:
        tf.extractall(d)
    return str(d / "Layers" / "conf.xml")


class TestEsric:
    def test_lod1_png_tiles(self, conf):
        px, gt, nd, meta = decode_esric(conf, lod=1)
        assert px.shape == (512, 512, 4)
        assert int(checksum(px[:, :, 1])) == 46857
        assert gt[0] == pytest.approx(-20037508.342787, abs=1)
        assert gt[1] == pytest.approx(78271.517, abs=0.01)
        assert meta["crs"] == "EPSG:3857"

    def test_empty_top_lod(self, conf):
        px, gt, *_ = decode_esric(conf, lod=3)
        assert px.shape == (2048, 2048, 4)
        assert int(checksum(px[:, :, 0])) == 0
        assert gt[1] == pytest.approx(20037508.342787 / 1024, abs=1)

    def test_routing(self, conf):
        px, _, _, meta = read_raster(conf)
        assert meta["driver"] == "ESRIC"
        assert meta["lods"] == [0, 1, 2, 3]


def test_tpkx_full_extent_default():
    # Esri tile package: default full-extent window at maxLOD
    # (reference test_tpkx_default_full_extent: 2533x1922, gt approx,
    # band1 checksum 59047)
    from gdal_ray.codecs.esric import decode_tpkx
    from gdal_ray.core.checksum import checksum
    px, gt, nd, meta = decode_tpkx(
        "/root/reference/autotest/gdrivers/data/esric/Usa.tpkx")
    assert px.shape == (1922, 2533, 4)
    assert abs(gt[0] - -19841829.550377003848553) < 1e-3
    assert abs(gt[3] - 11545048.752193037420511) < 1e-3
    assert checksum(px[:, :, 0]) == 59047
    assert meta["crs"] == "EPSG:3857"


def test_tpkx_tiling_scheme_checksums():
    # whole tiling scheme at LOD5 with missing tiles filled by
    # parent-level upsampling (resampling: true) and depth-8 palette
    # tiles expanded: the reference's four band checksums exact
    # (test_tpkx_3: 61275 / 57672 / 61542 / 19476)
    from gdal_ray.codecs.esric import decode_tpkx
    from gdal_ray.core.checksum import checksum
    px, *_ = decode_tpkx(
        "/root/reference/autotest/gdrivers/data/esric/Usa.tpkx",
        lod=5, extent="TILING_SCHEME")
    assert [checksum(px[:, :, i]) for i in range(4)] == \
        [61275, 57672, 61542, 19476]


def test_tpkx_lod3_band2():
    # test_tpkx_4: overview level with four+ PNG tiles, band 2
    from gdal_ray.codecs.esric import decode_tpkx
    from gdal_ray.core.checksum import checksum
    px, *_ = decode_tpkx(
        "/root/reference/autotest/gdrivers/data/esric/Usa.tpkx",
        lod=3, extent="TILING_SCHEME")
    assert px.shape[:2] == (2048, 2048)
    assert checksum(px[:, :, 1]) == 53503


def test_tpkx_min_lod_not_zero():
    # Usa_lod5.tpkx (minLOD 5): pixel at lon -100 lat 40 has data
    from gdal_ray.codecs.esric import decode_tpkx
    px, gt, *_ = decode_tpkx(
        "/root/reference/autotest/gdrivers/data/esric/Usa_lod5.tpkx")
    x = int((-11131949 - gt[0]) / gt[1])
    y = int((4865942 - gt[3]) / gt[5])
    assert px[y, x, :3].any()


def test_tpkx_extent_on_pixel_boundaries(tmp_path):
    # (edge - origin) / res lands a hair off an integer in floating
    # point (4.9999999999997 / 12.0000000000003): the window must stay
    # exactly the 7×7 pixels between the boundaries, no spurious
    # row or column
    import json
    import zipfile
    from gdal_ray.codecs.esric import decode_tpkx

    o = 20037508.342787
    res = 2 * o / 256 / 2 ** 5
    assert (o + (-o + 5 * res)) / res != 5
    assert (o + (-o + 12 * res)) / res != 12
    root = {"tileInfo": {"cols": 256, "origin": {"x": -o, "y": o},
                         "lods": [{"level": 5, "resolution": res}]},
            "fullExtent": {"xmin": -o + 5 * res, "xmax": -o + 12 * res,
                           "ymin": o - 12 * res, "ymax": o - 5 * res},
            "spatialReference": {"wkid": 3857}}
    path = tmp_path / "edge.tpkx"
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("root.json", json.dumps(root))
    px, gt, _, meta = decode_tpkx(str(path))
    assert px.shape == (7, 7, 4)
    assert gt[0] == pytest.approx(-o + 5 * res)
    assert gt[3] == pytest.approx(o - 5 * res)
    assert meta["crs"] == "EPSG:3857"
