"""GeoTIFF codec conformance — golden checksums against the reference's
own autotest fixtures (read-only data files; expected values hard-coded
in autotest/gcore/tiff_read.py init_list and
autotest/utilities/test_gdalalg_raster_convert.py:33)."""

import os

import numpy as np
import pytest

from gdal_ray.codecs.gtiff import GeoTiff, decode_gtiff, encode_gtiff
from gdal_ray.core.checksum import checksum

_GCORE = "/root/reference/autotest/gcore/data"
_UTIL = "/root/reference/autotest/utilities/data"

GOLDEN = [
    # (path, band, expected GDAL checksum) — tiff_read.py init_list
    (f"{_GCORE}/byte.tif", 1, 4672),
    (f"{_GCORE}/int16.tif", 1, 4672),
    (f"{_GCORE}/uint16.tif", 1, 4672),
    (f"{_GCORE}/int32.tif", 1, 4672),
    (f"{_GCORE}/uint32.tif", 1, 4672),
    (f"{_GCORE}/float16.tif", 1, 4672),
    (f"{_GCORE}/float32.tif", 1, 4672),
    (f"{_GCORE}/float64.tif", 1, 4672),
    (f"{_GCORE}/contig_strip.tif", 2, 15234),    # PackBits, 3-band
    (f"{_GCORE}/contig_tiled.tif", 2, 15234),    # tiled, partial tiles
    (f"{_GCORE}/separate_tiled.tif", 2, 15234),  # PlanarConfig=2
    (f"{_GCORE}/seperate_strip.tif", 2, 15234),
    (f"{_UTIL}/utmsmall.tif", 1, 50054),  # test_gdalalg_raster_convert.py:33
    # full dtype model (gcore/gdal.h:47-67): complex + 64-bit ints
    (f"{_GCORE}/cint16.tif", 1, 5028),
    (f"{_GCORE}/cint32.tif", 1, 5028),
    (f"{_GCORE}/cfloat32.tif", 1, 5028),
    (f"{_GCORE}/cfloat64.tif", 1, 5028),
    (f"{_GCORE}/gtiff/int64_full_range.tif", 1, 65535),  # int32-clamped
    (f"{_GCORE}/gtiff/uint64_full_range.tif", 1, 1),
]

have_ref = os.path.isdir(_GCORE)


@pytest.mark.skipif(not have_ref, reason="reference fixtures not present")
class TestGoldenDecodes:
    @pytest.mark.parametrize("path,band,expected", GOLDEN,
                             ids=[os.path.basename(p) for p, _, _ in GOLDEN])
    def test_golden_checksum(self, path, band, expected):
        g = decode_gtiff(open(path, "rb").read())
        px = g.pixels if g.pixels.ndim == 2 else g.pixels[:, :, band - 1]
        assert int(checksum(px)) == expected

    def test_georeferencing_byte_tif(self):
        g = decode_gtiff(open(f"{_GCORE}/byte.tif", "rb").read())
        assert g.geotransform == (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
        assert g.crs == "EPSG:26711"

    def test_utm_tif(self):
        g = decode_gtiff(open(
            "/root/reference/autotest/gdrivers/data/utm.tif", "rb").read())
        assert g.pixels.shape == (512, 512)
        assert g.crs == "EPSG:26711"

    def test_lzw_predictor(self):
        # deflate + LZW compressed fixtures decode without error
        g = decode_gtiff(open(f"{_GCORE}/f2r23.tif", "rb").read())
        assert g.pixels.shape == (251, 273)


class TestRoundtrip:
    @pytest.mark.parametrize("dt", ["u1", "u2", "i2", "u4", "i4", "f4", "f8",
                                    "i8", "u8", "f2"])
    def test_dtype_roundtrip(self, dt):
        a = (np.arange(90 * 70) % 997).astype(dt).reshape(90, 70)
        out = decode_gtiff(encode_gtiff(a)).pixels
        assert np.array_equal(out, a)

    @pytest.mark.parametrize("dt", ["c8", "c16"])
    def test_complex_roundtrip(self, dt):
        rng = np.arange(60 * 40, dtype=np.float64).reshape(60, 40)
        a = (rng - 7 + 1j * (rng % 13)).astype(dt)
        out = decode_gtiff(encode_gtiff(a)).pixels
        assert np.array_equal(out, a)
        assert out.dtype == np.dtype(dt)

    @pytest.mark.parametrize("compress", ["none", "deflate"])
    def test_multiband_tiled(self, compress):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(300, 520, 3), dtype=np.uint8)
        buf = encode_gtiff(a, tile_size=256, compress=compress)
        out = decode_gtiff(buf).pixels
        assert np.array_equal(out, a)

    def test_geo_tags_roundtrip(self):
        a = np.zeros((64, 64), np.uint8)
        gt = (250000.5, 2.5, 0.0, 6250000.25, 0.0, -2.5)
        buf = encode_gtiff(a, geotransform=gt, crs="EPSG:32631", nodata=255)
        g = decode_gtiff(buf)
        assert g.geotransform == gt
        assert g.crs == "EPSG:32631"
        assert g.nodata == 255.0

    def test_geographic_crs_roundtrip(self):
        buf = encode_gtiff(np.zeros((8, 8), np.uint8), crs="EPSG:4326")
        assert decode_gtiff(buf).crs == "EPSG:4326"

    def test_codec_registry_sniff(self):
        from gdal_ray.codecs import decode, encode
        a = np.full((32, 32, 3), 9, np.uint8)
        buf = encode(a, "gtiff")
        assert np.array_equal(decode(buf)[:, :, :3], a)   # magic sniff

    def test_bad_input_raises(self):
        with pytest.raises(ValueError):
            decode_gtiff(b"NOPE" * 10)
        with pytest.raises(ValueError):
            encode_gtiff(np.zeros((4, 4), dtype="datetime64[s]"))


class TestBigTiff:
    """BigTIFF (magic 43, 8-byte offsets) + strip-offset tag-type
    parity with the reference's own matrix
    (autotest/gcore/tiff_read.py:3834-3860: SHORT/LONG/LONG8 offset
    tags × classic/BigTIFF × little/big endian)."""

    EXPECTED = {
        "classictiff_one_block_long.tif": [158],
        "classictiff_one_block_be_long.tif": [158],
        "classictiff_one_strip_long.tif": [146],
        "classictiff_one_strip_be_long.tif": [146],
        "classictiff_two_strip_short.tif": [162, 163],
        "classictiff_two_strip_be_short.tif": [162, 163],
        "classictiff_four_strip_short.tif": [178, 179, 180, 181],
        "classictiff_four_strip_be_short.tif": [178, 179, 180, 181],
        "bigtiff_four_strip_short.tif": [316, 317, 318, 319],
        "bigtiff_four_strip_be_short.tif": [316, 317, 318, 319],
        "bigtiff_one_block_long8.tif": [272],
        "bigtiff_one_block_be_long8.tif": [272],
        "bigtiff_one_strip_long.tif": [252],
        "bigtiff_one_strip_be_long.tif": [252],
        "bigtiff_one_strip_long8.tif": [252],
        "bigtiff_one_strip_be_long8.tif": [252],
        "bigtiff_two_strip_long.tif": [284, 285],
        "bigtiff_two_strip_be_long.tif": [284, 285],
        "bigtiff_two_strip_long8.tif": [284, 285],
        "bigtiff_two_strip_be_long8.tif": [284, 285],
    }

    def test_offsets_and_pixels(self):
        from gdal_ray.codecs.gtiff import decode_gtiff, tiff_block_offsets
        for f, exp in self.EXPECTED.items():
            b = open(f"{_GCORE}/{f}", "rb").read()
            assert tiff_block_offsets(b) == exp, f
            px = decode_gtiff(b).pixels.reshape(-1)
            # 1-byte strips: each pixel must be the byte AT its offset
            assert all(px[i] == b[o] for i, o in enumerate(exp)), f

    def test_bad_bigtiff_header(self):
        import pytest as _pytest
        from gdal_ray.codecs.gtiff import decode_gtiff
        with _pytest.raises(ValueError, match="BigTIFF"):
            decode_gtiff(b"II\x2b\x00\x04\x00\x00\x00" + b"\x00" * 16)

    def test_bigtiff_write_roundtrip(self):
        import numpy as np
        from gdal_ray.codecs.gtiff import (decode_gtiff, encode_gtiff,
                                           tiff_block_offsets)
        rng = np.random.default_rng(2)
        for dt in ("uint8", "uint16", "float32"):
            a = (rng.random((300, 420, 3)) * 200).astype(dt)
            gt = (10.0, 5.0, 0.0, 99.0, 0.0, -5.0)
            big = encode_gtiff(a, geotransform=gt, crs="EPSG:32633",
                               nodata=7, bigtiff=True)
            assert big[:4] == b"II+\x00"         # magic 43
            g = decode_gtiff(big)
            assert np.array_equal(g.pixels, a)
            assert tuple(g.geotransform) == gt
            assert g.crs == "EPSG:32633" and g.nodata == 7.0
            assert len(tiff_block_offsets(big)) == 4


# --------------------------------------------- ZSTD / WEBP / LERC
def test_zstd_compressed_tiff():
    # gcore golden: byte_zstd.tif band 1 checksum 4672 (tiff_read.py)
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/byte_zstd.tif",
        "rb").read())
    assert checksum(g.pixels) == 4672


def test_lerc_compressed_tiff():
    # gcore golden: byte_lerc.tif band 1 checksum 4672
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/byte_lerc.tif",
        "rb").read())
    assert checksum(g.pixels) == 4672


def test_webp_compressed_tiff():
    # reference checks approx stats (0, 215, 66.38, 47.186) eps 1
    import numpy as np
    from gdal_ray.codecs.gtiff import decode_gtiff
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/tif_webp.tif",
        "rb").read())
    b1 = g.pixels[:, :, 0].astype(np.float64)
    assert abs(b1.min() - 0) <= 1
    assert abs(b1.max() - 215) <= 1
    assert abs(b1.mean() - 66.38) <= 1
    assert abs(b1.std() - 47.186) <= 1


def test_jpeg_in_tiff():
    # abbreviated JPEG streams with the JPEGTables tag (347); the
    # reference's own expectations (tiff_write.py test_tiff_write_130):
    # byte_jpg_unusual_jpegtable 4771, byte_jpg_tablesmodezero 4743
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    A = "/root/reference/autotest/gcore/data/"
    g = decode_gtiff(open(A + "byte_jpg_unusual_jpegtable.tif",
                          "rb").read())
    assert checksum(g.pixels) == 4771
    g = decode_gtiff(open(A + "byte_jpg_tablesmodezero.tif",
                          "rb").read())
    assert checksum(g.pixels) == 4743


def test_jpeg_in_tiff_ycbcr():
    # color JPEG-in-TIFF incl. an undersized final strip
    from gdal_ray.codecs.gtiff import decode_gtiff
    A = "/root/reference/autotest/gcore/data/"
    g = decode_gtiff(open(A + "tif_jpeg_ycbcr_too_big_last_stripe.tif",
                          "rb").read())
    assert g.pixels.shape == (19, 20, 3)
    g = decode_gtiff(open(A + "ycbcr_with_mask.tif", "rb").read())
    assert g.pixels.shape == (331, 467, 3)


def test_odd_bit_depths():
    # 10/12/24-bit ints and 24-bit floats all decode byte.tif's
    # values (reference init_list: checksum 4672 for each)
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    A = "/root/reference/autotest/gcore/data/"
    for name in ("int10.tif", "int12.tif", "int24.tif", "float24.tif"):
        g = decode_gtiff(open(A + name, "rb").read())
        px = g.pixels
        assert checksum(px.astype(np.float64)
                        if px.dtype.kind == "f" else px) == 4672, name


def test_ycbcr_lzw_checksums():
    # libtiff-parity YCbCr conversion (integer SHIFT-16 tables) +
    # subsampled macro-pixel expansion; band checksums from the
    # reference's test_tiff_read_ycbcr_lzw matrix
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    A = "/root/reference/autotest/gcore/data/"
    exp = {"ycbcr_11_lzw.tif": (13459, 12939, 12414),
           "ycbcr_12_lzw.tif": (13565, 13105, 12660),
           "ycbcr_21_lzw.tif": (13587, 13297, 12760),
           "ycbcr_22_lzw.tif": (13393, 13137, 12656),
           "ycbcr_41_lzw.tif": (13218, 12758, 12592),
           "ycbcr_42_lzw.tif": (13277, 12779, 12614),
           "ycbcr_42_lzw_optimized.tif": (19918, 20120, 19087),
           "ycbcr_44_lzw.tif": (12994, 13229, 12149),
           "ycbcr_44_lzw_optimized.tif": (19666, 19860, 18836)}
    for name, e in exp.items():
        g = decode_gtiff(open(A + name, "rb").read())
        got = tuple(checksum(g.pixels[:, :, i]) for i in range(3))
        assert got == e, name
    # 1x4 / 2x4 raise, matching the reference matrix's -1 rows
    import pytest as _pytest
    for name in ("ycbcr_14_lzw.tif", "ycbcr_24_lzw.tif"):
        with _pytest.raises(ValueError):
            decode_gtiff(open(A + name, "rb").read())


def test_pathological_dimensions_fail_fast():
    # decode_gtiff materializes the raster, so absurd dimensions must
    # refuse fast instead of hanging/raising MemoryError mid-way
    import struct
    import pytest as _pytest
    from gdal_ray.codecs.gtiff import decode_gtiff
    A = "/root/reference/autotest/gcore/data/"
    buf = bytearray(open(A + "byte.tif", "rb").read())
    (off,) = struct.unpack_from("<I", buf, 4)
    n = struct.unpack_from("<H", buf, off)[0]
    for i in range(n):
        tag, = struct.unpack_from("<H", buf, off + 2 + 12 * i)
        if tag in (256, 257):        # width / height -> 2**21
            struct.pack_into("<I", buf, off + 2 + 12 * i + 8, 1 << 21)
    with _pytest.raises(ValueError, match="too large"):
        decode_gtiff(bytes(buf))


def test_next_thunder_sgilog():
    # NeXT 2-bit (32766), ThunderScan 4-bit (32809), SGILOG LogL16
    # (34676) — reference init_list checksums 4/4/4/3/4672
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    A = "/root/reference/autotest/gcore/data/"
    for name, exp in [("next_literalrow.tif", 4),
                      ("next_literalspan.tif", 4),
                      ("next_default_case.tif", 4),
                      ("thunder.tif", 3),
                      ("uint16_sgilog.tif", 4672)]:
        g = decode_gtiff(open(A + name, "rb").read())
        assert checksum(g.pixels) == exp, name


def test_rgba_jpeg_pixel_interleaved():
    # 4-component JPEG strips stay raw (no YCbCr transform): band
    # checksums from the reference's
    # test_tiff_jpeg_rgba_pixel_interleaved
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/"
        "stefan_full_rgba_jpeg_contig.tif", "rb").read())
    got = tuple(checksum(g.pixels[:, :, i]) for i in range(4))
    assert got == (16404, 62700, 37913, 14174)


def test_sparse_cog_with_zeroed_striles():
    # offset 0 → unwritten block (fill); count 0 with a real offset →
    # inferred from the next block's offset (the reference's
    # test_cog_sparse hex-zeroified fixture; truth reconstructed from
    # that test's MEM source: 255-fill with two zeroed squares)
    import numpy as np
    from gdal_ray.codecs.gtiff import decode_gtiff
    truth = np.full((512, 512), 255, np.uint8)
    truth[0:256, 0:256] = 0
    truth[256:384, 256:384] = 0
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/"
        "cog_sparse_strile_arrays_zeroified_when_possible.tif",
        "rb").read())
    assert np.array_equal(g.pixels, truth)


def test_old_style_jpeg():
    # compression 6 (OJPEG): baseline stream rebuilt from the
    # JPEGQTables/JPEGDCTables/JPEGACTables tag offsets, chroma
    # replicated, video-range ReferenceBlackWhite conversion —
    # reference expectation band 1 checksum 61570 (tiff_read.py
    # test_tiff_read_ojpeg)
    from gdal_ray.codecs.gtiff import decode_gtiff
    from gdal_ray.core.checksum import checksum
    g = decode_gtiff(open(
        "/root/reference/autotest/gcore/data/zackthecat.tif",
        "rb").read())
    assert g.pixels.shape == (213, 234, 3)
    assert checksum(g.pixels[:, :, 0]) == 61570


def _zero_last_block_count(buf: bytes, off_tag: int, cnt_tag: int) -> bytes:
    """Zero the byte count of the highest-offset block of a classic
    little-endian TIFF (LONG offset/count arrays)."""
    import struct
    (ifd,) = struct.unpack_from("<I", buf, 4)
    (n,) = struct.unpack_from("<H", buf, ifd)
    where = {}
    for i in range(n):
        tag, typ, cnt, val = struct.unpack_from("<HHII", buf, ifd + 2 + 12 * i)
        assert tag not in (off_tag, cnt_tag) or typ == 4
        # LONG arrays of one value sit inline in the entry
        where[tag] = (cnt, ifd + 2 + 12 * i + 8 if cnt == 1 else val)
    cnt, at = where[off_tag]
    offs = struct.unpack_from(f"<{cnt}I", buf, at)
    last = max(range(cnt), key=offs.__getitem__)
    out = bytearray(buf)
    struct.pack_into("<I", out, where[cnt_tag][1] + 4 * last, 0)
    return bytes(out)


def _strip_tiff(img, rows_per_strip: int) -> bytes:
    """Uncompressed single-band uint8 strip TIFF: header, IFD, strips."""
    import struct
    h, w = img.shape
    strips = [img[r:r + rows_per_strip].tobytes()
              for r in range(0, h, rows_per_strip)]
    k = len(strips)
    n = 9
    arrays = 8 + 2 + 12 * n + 4
    data = arrays + 8 * k
    offs, pos = [], data
    for s in strips:
        offs.append(pos)
        pos += len(s)
    entries = [(256, 4, 1, w), (257, 4, 1, h), (258, 3, 1, 8),
               (259, 3, 1, 1), (262, 3, 1, 1), (273, 4, k, arrays),
               (277, 3, 1, 1), (278, 4, 1, rows_per_strip),
               (279, 4, k, arrays + 4 * k)]
    out = b"II*\x00" + struct.pack("<I", 8) + struct.pack("<H", n)
    for tag, typ, cnt, val in entries:
        out += struct.pack("<HHII", tag, typ, cnt, val)
    out += struct.pack("<I", 0)
    out += struct.pack(f"<{k}I", *offs)
    out += struct.pack(f"<{k}I", *(len(s) for s in strips))
    return out + b"".join(strips)


def test_zeroed_count_on_last_block_tiled():
    # the highest-offset block has no next block to infer its count
    # from: it runs to the end of the file (no NameError)
    img = (np.arange(32 * 32) % 251).astype(np.uint8).reshape(32, 32)
    buf = encode_gtiff(img, tile_size=16, compress="none")
    g = decode_gtiff(_zero_last_block_count(buf, 324, 325))
    assert np.array_equal(g.pixels[:, :, 0] if g.pixels.ndim == 3
                          else g.pixels, img)


def test_zeroed_count_on_last_block_stripped():
    img = (np.arange(8 * 6) * 5 % 256).astype(np.uint8).reshape(6, 8)
    buf = _strip_tiff(img, 2)
    assert np.array_equal(np.squeeze(decode_gtiff(buf).pixels), img)
    g = decode_gtiff(_zero_last_block_count(buf, 273, 279))
    assert np.array_equal(np.squeeze(g.pixels), img)


def _ojpeg_tiff(px: np.ndarray) -> bytes:
    """Old-style JPEG (compression 6) strip TIFF built from this repo's
    baseline encoder: its DQT/DHT payloads become JPEGQTables /
    JPEGDCTables / JPEGACTables and its entropy-coded scan is the
    strip, with no JPEGInterchangeFormat stream."""
    import struct
    from gdal_ray.codecs.jpeg import encode as jpeg_encode

    jpg = jpeg_encode(px, quality=90)
    h, w = px.shape[:2]
    spp = 1 if px.ndim == 2 else px.shape[2]
    q, dc, ac = [], [], []
    pos = 2
    while True:
        marker, ln = struct.unpack(">HH", jpg[pos:pos + 4])
        seg = jpg[pos + 4:pos + 2 + ln]
        if marker == 0xFFDB:
            q.append(seg[1:65])
        elif marker == 0xFFC4:
            (ac if seg[0] >> 4 else dc).append(seg[1:])
        elif marker == 0xFFDA:
            scan = jpg[pos + 2 + ln:-2]          # up to the EOI
            break
        pos += 2 + ln
    blobs = bytearray()
    offs = {}
    for name, items in (("q", q), ("dc", dc), ("ac", ac),
                        ("scan", [scan])):
        offs[name] = []
        for b in items:
            offs[name].append(8 + len(blobs))
            blobs += b
    entries = [(256, 4, [w]), (257, 4, [h]), (258, 3, [8]),
               (259, 3, [6]), (262, 3, [1 if spp == 1 else 6]),
               (273, 4, offs["scan"]), (277, 3, [spp]), (278, 4, [h]),
               (279, 4, [len(scan)]), (512, 3, [1]),
               (519, 4, offs["q"]), (520, 4, offs["dc"]),
               (521, 4, offs["ac"])]
    if spp == 3:                         # 4:4:4, full-range YCbCr
        entries += [(530, 3, [1, 1]),
                    (532, 5, [0, 1, 255, 1, 128, 1, 255, 1, 128, 1,
                              255, 1])]
    ifd_off = 8 + len(blobs) + (len(blobs) & 1)
    extra_off = ifd_off + 2 + 12 * len(entries) + 4
    ifd, extra = bytearray(struct.pack("<H", len(entries))), bytearray()
    for tag, typ, vals in entries:
        fmt = {3: "H", 4: "I", 5: "I"}[typ]
        data = struct.pack(f"<{len(vals)}{fmt}", *vals)
        cnt = len(vals) // 2 if typ == 5 else len(vals)
        if len(data) <= 4:
            field = data.ljust(4, b"\0")
        else:
            field = struct.pack("<I", extra_off + len(extra))
            extra += data
        ifd += struct.pack("<HHI", tag, typ, cnt) + field
    ifd += struct.pack("<I", 0)
    return (b"II*\0" + struct.pack("<I", ifd_off) + bytes(blobs)
            + b"\0" * (ifd_off - 8 - len(blobs)) + bytes(ifd)
            + bytes(extra))


@pytest.mark.parametrize("bands", [1, 3])
def test_old_style_jpeg_from_table_tags(bands):
    # a 1-sample OJPEG strip has one Q/DC/AC table and a one-component
    # scan; a 3-sample strip with two tables of each kind reuses the
    # last for the second chroma component
    from gdal_ray.codecs.jpeg import decode as jpeg_decode
    from gdal_ray.codecs.jpeg import encode as jpeg_encode
    yy, xx = np.mgrid[0:21, 0:37]
    px = np.stack([yy * 6 + xx * 3, xx * 6,
                   255 - yy * 10], axis=-1).astype(np.uint8)
    px = px[:, :, 0] if bands == 1 else px
    g = decode_gtiff(_ojpeg_tiff(px))
    assert g.pixels.shape == px.shape
    assert np.abs(g.pixels.astype(int) - px).max() <= 4
    if bands == 1:                       # the same scan, same pixels
        ref = jpeg_decode(jpeg_encode(px, quality=90))
        assert np.array_equal(g.pixels, ref.reshape(px.shape))
