"""gdalinfo / ogrinfo analogs."""

import numpy as np
import pytest

from gdal_ray.functions.info import raster_info, vector_info


def test_raster_info_gtiff_golden():
    buf = open("/root/reference/autotest/gcore/data/byte.tif", "rb").read()
    info = raster_info(buf)
    assert info["driver"] == "GTiff"
    assert info["size"] == (20, 20)
    assert info["band_info"][0]["checksum"] == 4672
    assert info["geotransform"] is not None
    # byte.tif's well-known stats (mean ~126.765)
    assert abs(info["band_info"][0]["mean"] - 126.765) < 0.01


def test_raster_info_png():
    from gdal_ray.codecs import encode
    px = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    info = raster_info(encode(px, "png"), "png")
    assert info["bands"] == 3 and info["size"] == (4, 4)
    assert info["band_info"][2]["maximum"] == 47.0


def test_vector_info():
    import pyarrow as pa
    from gdal_ray.core import wkb as W
    t = pa.table({
        "fid": [1, 2],
        "name": ["a", "b"],
        "wkb": [W.dumps(W.box(0, 0, 2, 2)),
                W.dumps(W.point(5.0, 6.0))],
    })
    info = vector_info(t)
    assert info["feature_count"] == 2
    assert info["extent"] == (0.0, 0.0, 5.0, 6.0)
    assert info["geometry_types"] == {"Polygon": 1, "Point": 1}
    assert ("fid", "int64") in info["fields"]


_DRIVER_NAMES = [("png", "PNG"), ("jpeg", "JPEG"), ("jpg", "JPEG"),
                 ("gtiff", "GTiff"), ("tif", "GTiff"), ("tiff", "GTiff"),
                 ("pnm", "PNM"), ("pgm", "PNM"), ("ppm", "PNM"),
                 ("bmp", "BMP"), ("webp", "WEBP"), ("netcdf", "netCDF"),
                 ("nc", "netCDF"), ("gif", "GIF")]


@pytest.mark.parametrize("tagged", [False, True], ids=["sniffed", "tagged"])
@pytest.mark.parametrize("fmt,name", _DRIVER_NAMES,
                         ids=[f for f, _ in _DRIVER_NAMES])
def test_raster_info_driver_name(fmt, name, tagged):
    """Every encodable format (and GIF) reports its driver name, the
    same whether the format is tagged or sniffed from the magic."""
    from gdal_ray.codecs import encode
    from gdal_ray.codecs.gif import encode_gif
    px = (np.arange(48, dtype=np.uint8) * 5).reshape(4, 4, 3)
    if fmt == "gif":
        buf = encode_gif(px[:, :, 0] % 4,
                         np.arange(12, dtype=np.uint8).reshape(4, 3))
    else:
        buf = encode(px, fmt)
    info = raster_info(buf, fmt if tagged else None)
    assert info["driver"] == name
    assert info["size"] == (4, 4)
