"""COG writer/reader: structural layout, overview parity, goldens."""
import numpy as np
import pytest

from gdal_ray.codecs.cog import cog_is_valid, decode_cog, encode_cog
from gdal_ray.codecs.gtiff import decode_gtiff, decode_gtiff_all
from gdal_ray.core.checksum import checksum
from gdal_ray.core.resample import downsample2x

REF = "/root/reference/autotest/gcore/data"


def _px(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.floating):
        return rng.normal(100, 30, shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, min(info.max, 10**6), shape).astype(dtype)


@pytest.mark.parametrize("dtype", ["u1", "u2", "i2", "i4", "f4", "f8"])
def test_roundtrip_dtypes(dtype):
    px = _px((300, 520), dtype, seed=3)
    buf = encode_cog(px, geotransform=(5.0, 2.0, 0.0, 90.0, 0.0, -2.0),
                     crs="EPSG:32631", nodata=-1 if dtype[0] != "u" else 0)
    gs = decode_cog(buf)
    assert np.array_equal(gs[0].pixels, px)
    assert gs[0].geotransform == (5.0, 2.0, 0.0, 90.0, 0.0, -2.0)
    assert gs[0].crs == "EPSG:32631"
    v = cog_is_valid(buf)
    assert v["tiled"] and v["metadata_before_data"]


@pytest.mark.parametrize("dtype", ["u1", "u2", "i2", "i4", "f4", "f8"])
def test_overviews_keep_band_type(dtype):
    """GDAL overviews keep the band type: every IFD decodes to the base
    dtype, integer levels holding the float mean rounded half up."""
    px = _px((300, 520), dtype, seed=3)
    gs = decode_cog(encode_cog(px))
    assert len(gs) > 1
    assert [g.pixels.dtype for g in gs] == [px.dtype] * len(gs)
    mean = px.astype(np.float64).reshape(150, 2, 260, 2).mean(axis=(1, 3))
    if px.dtype.kind in "iu":
        mean = np.floor(mean + 0.5)
    assert np.array_equal(gs[1].pixels, mean.astype(px.dtype))


def test_overview_cascade_matches_kernel():
    px = _px((700, 900, 3), "u1", seed=1)
    buf = encode_cog(px, resampling="average")
    gs = decode_cog(buf)
    assert [g.pixels.shape for g in gs] == [(700, 900, 3), (350, 450, 3),
                                           (175, 225, 3)]
    lv = px
    for g in gs[1:]:
        lv = downsample2x(lv, "average")
        assert np.array_equal(g.pixels, lv)


def test_overview_data_precedes_fullres():
    """COG layout: smallest overview's tiles first, full-res last."""
    px = _px((600, 600), "u1", seed=2)
    buf = encode_cog(px)
    v = cog_is_valid(buf)
    assert v["n_ifds"] == 3 and v["metadata_before_data"]
    # decode per-IFD tile offsets: full-res min offset must be the
    # largest of all levels
    import struct
    mv = bytes(buf)
    (off,) = struct.unpack_from("<I", mv, 4)
    mins = []
    while off:
        (n,) = struct.unpack_from("<H", mv, off)
        for i in range(n):
            base = off + 2 + i * 12
            tag, typ, cnt = struct.unpack_from("<HHI", mv, base)
            if tag == 324:          # TileOffsets
                p = struct.unpack_from("<I", mv, base + 8)[0] \
                    if cnt * 4 > 4 else base + 8
                mins.append(min(struct.unpack_from(f"<{cnt}I", mv, p)))
        (off,) = struct.unpack_from("<I", mv, off + 2 + n * 12)
    assert mins[0] == max(mins)          # full res last
    assert mins[1:] == sorted(mins[1:], reverse=True)


def test_single_tile_no_overviews():
    px = _px((64, 64), "u1")
    gs = decode_cog(encode_cog(px))
    assert len(gs) == 1 and np.array_equal(gs[0].pixels, px)


def test_reference_cog_goldens():
    """Decode the reference's own COG goldens (gcore/data/cog/)."""
    buf = open(f"{REF}/cog/byte_little_endian_golden.tif", "rb").read()
    gs = decode_cog(buf)
    assert checksum(gs[0].pixels) == 4672
    assert cog_is_valid(buf)["metadata_before_data"]

    buf = open(f"{REF}/cog/byte_little_endian_blocksize_16_predictor"
               f"_standard_golden.tif", "rb").read()
    gs = decode_cog(buf)
    assert [g.pixels.shape for g in gs] == [(20, 20), (10, 10)]
    assert checksum(gs[0].pixels) == 4672


def test_reference_gdaladdo_overview_chain():
    """byte_with_ovr.tif: classic external-style overview chain decodes
    every IFD (full 4672 + 10x10 + 5x5 reductions)."""
    gs = decode_gtiff_all(open(f"{REF}/byte_with_ovr.tif", "rb").read())
    assert [g.pixels.shape for g in gs] == [(20, 20), (10, 10), (5, 5)]
    assert checksum(gs[0].pixels) == 4672
    # measured-golden reductions (stable: decoded from reference fixture)
    assert [checksum(g.pixels) for g in gs[1:]] == [1087, 328]


def test_first_ifd_back_compat():
    """decode_gtiff still returns only the full-res level."""
    px = _px((600, 600), "u1", seed=7)
    g = decode_gtiff(encode_cog(px))
    assert np.array_equal(g.pixels, px)


def test_bad_dtype_raises():
    with pytest.raises(ValueError):
        encode_cog(np.zeros((4, 4), dtype="datetime64[s]"))
