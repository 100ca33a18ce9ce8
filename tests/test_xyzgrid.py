"""XYZ ASCII grid driver (frmts/xyz parity;
autotest/gdrivers/xyz.py:28-40 roundtrip shape)."""

import numpy as np
import pytest

from gdal_ray.codecs.gtiff import decode_gtiff
from gdal_ray.core.checksum import checksum
from gdal_ray.sources.raster import raster_driver, read_raster
from gdal_ray.sources.xyzgrid import decode_xyz, encode_xyz


def test_byte_tif_roundtrip_golden():
    g = decode_gtiff(open("/root/reference/autotest/gcore/data/byte.tif",
                          "rb").read())
    band = g.pixels[:, :, 0] if g.pixels.ndim == 3 else g.pixels
    gt = g.geotransform
    text = encode_xyz(band, gt)
    out, got_gt = decode_xyz(text)
    assert checksum(out) == 4672          # autotest/gdrivers/xyz.py:28
    # the roundtrip preserves byte.tif's own (UTM) geotransform
    assert np.allclose(got_gt, gt, rtol=1e-12)
    assert np.array_equal(out, band)


_BAND = np.array([[1.0, 2.0], [3.0, 4.0]])
_GT = (100.0, 10.0, 0.0, 200.0, 0.0, -10.0)
_HEADER_CSV = encode_xyz(_BAND, _GT, column_separator=",",
                         add_header_line=True)
_YXZ = "Y X Z\n5.0 1.0 10\n5.0 2.0 20\n4.0 1.0 30\n4.0 2.0 40\n"
_SHUFFLED = "\n".join(["2.0 4.0 40", "1.0 5.0 10", "2.0 5.0 20",
                       "1.0 4.0 30"])
_BAD = {"hole": "1 2 3\n1 3 4\n2 2 5\n",
        "two_columns": "1 2\n",
        "empty": "",
        "irregular": "1 2 3\n2 2 4\n4 2 5\n"}


def test_header_and_separators():
    assert _HEADER_CSV.splitlines()[0] == "X,Y,Z"
    out, got_gt = decode_xyz(_HEADER_CSV)
    assert np.allclose(out, _BAND)
    assert np.allclose(got_gt, _GT)


def test_column_order_from_header():
    out, gt = decode_xyz(_YXZ)
    assert out.tolist() == [[10.0, 20.0], [30.0, 40.0]]
    assert gt[0] == pytest.approx(0.5) and gt[3] == pytest.approx(5.5)


def test_any_line_order():
    out, _ = decode_xyz(_SHUFFLED)
    assert out.tolist() == [[10.0, 20.0], [30.0, 40.0]]


def test_errors():
    for text in _BAD.values():
        with pytest.raises(ValueError):
            decode_xyz(text)


_CASES = {"header_csv": _HEADER_CSV, "yxz": _YXZ, "shuffled": _SHUFFLED,
          **_BAD}


@pytest.mark.parametrize("text", _CASES.values(), ids=_CASES)
def test_read_raster_opens_xyz(tmp_path, text):
    path = tmp_path / "grid.xyz"
    path.write_text(text)
    assert raster_driver(str(path)) == "XYZ"
    try:
        want = decode_xyz(text)
    except ValueError:
        with pytest.raises(ValueError):
            read_raster(str(path))
        return
    px, gt, nodata, _meta = read_raster(str(path))
    assert np.array_equal(px, want[0]) and gt == want[1]
    assert nodata is None
