"""Raw-format batch 2 (codecs/rawexotic.py, codecs/ilwis.py) —
reference-fixture goldens straight from the reference's autotest
expectations: genbin.py (5738 over 500x1), paux.py (band2 12816),
ndf.py (6510 over 15620x1 + gt), noaa_b.py (3), eir.py (1), mff.py
(1/1/4672), doq2.py (4201/4010/5820 + gt + metadata), ctg.py (21),
isce.py (350), lcp.py (per-band lists + gt), ilwis.py (2351 + gt),
ace2.py (gt), nsidcbin.py (pixel probe), sigdem.py / zmap.py
(roundtrip byte.tif 4672)."""

import numpy as np
import pytest

from gdal_ray.codecs import rawexotic as R
from gdal_ray.core.checksum import checksum
from gdal_ray.sources.raster import read_raster

D = "/root/reference/autotest/gdrivers/data"


def cs(a):
    return int(checksum(np.asarray(a)))


class TestGenBin:
    def test_tm4628(self):
        px, gt, nd, meta = R.decode_genbin(f"{D}/genbin/tm4628_96.bil")
        assert px.shape == (8432, 9284, 7)
        assert cs(px[0:1, 0:500, 0]) == 5738

    def test_routing(self):
        px, gt, nd, meta = read_raster(f"{D}/genbin/tm4628_96.bil")
        assert meta["driver"] == "GenBin"


class TestPAux:
    def test_small16(self):
        px, gt, nd, meta = R.decode_paux(f"{D}/paux/small16.raw")
        assert px.shape == (35, 31, 2)
        assert cs(px[:, :, 1]) == 12816
        assert gt[0] == pytest.approx(440720.0)

    def test_routing(self):
        px, gt, nd, meta = read_raster(f"{D}/paux/small16.raw")
        assert meta["driver"] == "PAux"


class TestNdf:
    def test_le7(self):
        px, gt, nd, meta = R.decode_ndf(
            f"{D}/ndf/LE7134052000500350.H3")
        assert px.shape == (14680, 15620)
        assert cs(px[0:1, 0:15620]) == 6510
        want = (320325.75, 14.25, 0, 1383062.25, 0, -14.25)
        assert all(abs(a - b) < 1e-6 for a, b in zip(gt, want))

    def test_routing(self):
        px, gt, nd, meta = read_raster(f"{D}/ndf/LE7134052000500350.H3")
        assert meta["driver"] == "NDF"


class TestNoaaB:
    def test_big_endian(self):
        px, gt, nd, meta = R.decode_noaab(
            open(f"{D}/noaa_b/test.b", "rb").read())
        assert cs(px) == 3

    def test_little_endian(self):
        px, gt, nd, meta = R.decode_noaab(
            open(f"{D}/noaa_b/test_little_endian.b", "rb").read())
        assert cs(px) == 3


class TestEir:
    def test_fakeeir(self):
        px, gt, nd, meta = R.decode_eir(f"{D}/eir/fakeeir.hdr")
        assert px.shape == (1, 1)
        assert cs(px) == 1

    def test_routing(self):
        px, _, _, meta = read_raster(f"{D}/eir/fakeeir.hdr")
        assert meta["driver"] == "EIR"


class TestMff:
    def test_fakemff(self):
        px, _, _, meta = R.decode_mff(f"{D}/mff/fakemff.hdr")
        assert cs(px) == 1

    def test_fakemff_tiled(self):
        px, _, _, meta = R.decode_mff(f"{D}/mff/fakemfftiled.hdr")
        assert cs(px) == 1

    def test_bytemff(self):
        px, _, _, meta = R.decode_mff(f"{D}/mff/bytemff.hdr")
        assert px.shape == (20, 20)
        assert cs(px) == 4672

    def test_routing(self):
        px, _, _, meta = read_raster(f"{D}/mff/bytemff.hdr")
        assert cs(px) == 4672


class TestDoq2:
    def test_truncated_nws(self):
        px, gt, nd, meta = read_raster(f"{D}/doq2/C3607614_truncated.NWS")
        assert px.shape[2] == 3
        assert cs(px[0:1, 0:500, 0]) == 4201
        assert cs(px[0:1, 0:500, 1]) == 4010
        assert cs(px[0:1, 0:500, 2]) == 5820
        assert gt == (377054, 1, 0, 4082205, 0, -1)
        assert meta["QUADRANGLE_NAME"] == \
            "NORFOLK SOUTH 3.45 or 7.5-min. name*"


class TestCtg:
    def test_fake_grid_cell(self):
        px, gt, nd, meta = read_raster(f"{D}/ctg/fake_grid_cell")
        assert px.shape[2] == 6
        assert cs(px[:, :, 0]) == 21
        assert meta["crs"].startswith("EPSG:326")


class TestIsce:
    def test_slc(self):
        px, gt, nd, meta = read_raster(f"{D}/isce/isce.slc")
        assert px.shape == (10, 12)
        assert px.dtype == np.complex64
        assert cs(px) == 350


class TestLcp:
    def test_farsite_utm12(self):
        px, gt, nd, meta = read_raster(f"{D}/lcp/test_FARSITE_UTM12.LCP")
        assert px.shape[2] == 8
        want_cs = [18645, 16431, 18851, 26182, 30038, 22077, 30388, 23249]
        assert [cs(px[:, :, i]) for i in range(8)] == want_cs
        want_gt = (285807.932887174887583, 30, 0,
                   5379230.386217921040952, 0, -30)
        assert all(abs(a - b) < 1e-5 for a, b in zip(gt, want_gt))

    def test_usgs_lfnm(self):
        px, gt, nd, meta = read_raster(f"{D}/lcp/test_USGS_LFNM_Alb83.lcp")
        want_cs = [28381, 25824, 28413, 19052, 30164, 22316, 30575, 23304]
        assert [cs(px[:, :, i]) for i in range(8)] == want_cs
        want_gt = (-1328145, 30, 0, 2961735, 0, -30)
        assert all(abs(a - b) < 1e-5 for a, b in zip(gt, want_gt))


class TestIlwis:
    def test_landuse_small(self):
        px, gt, nd, meta = read_raster(f"{D}/ilwis/LanduseSmall.mpr")
        assert px.shape == (75, 75)
        assert cs(px) == 2351
        want = (795480, 20, 0, 8090520, 0, -20)
        assert all(abs(a - b) < 1e-6 for a, b in zip(gt, want))
        assert "utm" in meta.get("crs", "")
        assert "+south" in meta["crs"]

    def test_write_roundtrip_byte(self, tmp_path):
        from gdal_ray.codecs.gtiff import decode_gtiff
        from gdal_ray.codecs.ilwis import encode_ilwis
        g = decode_gtiff(open(
            "/root/reference/autotest/gcore/data/byte.tif", "rb").read())
        out = str(tmp_path / "byte.mpr")
        encode_ilwis(out, np.asarray(g.pixels), g.geotransform)
        px, gt, nd, meta = read_raster(out)
        assert cs(px) == 4672
        assert all(abs(a - b) < 1e-6
                   for a, b in zip(gt, g.geotransform))

    def test_write_roundtrip_float(self, tmp_path):
        from gdal_ray.codecs.ilwis import encode_ilwis
        rng = np.random.default_rng(7)
        img = rng.normal(size=(13, 17)).astype(np.float32)
        out = str(tmp_path / "f.mpr")
        encode_ilwis(out, img, (0, 1, 0, 13, 0, -1))
        px, _, _, _ = read_raster(out)
        assert (px == img).all()


class TestAce2:
    def test_synthetic_5m(self, tmp_path):
        p = tmp_path / "45N015E_5M.ACE2"
        p.write_bytes(b"\x00" * (180 * 180 * 4))
        px, gt, nd, meta = read_raster(str(p))
        assert px.shape == (180, 180)
        assert cs(px) == 0
        want = (15.0, 1 / 12, 0.0, 60.0, 0.0, -1 / 12)
        assert all(abs(a - b) < 1e-12 for a, b in zip(gt, want))
        assert px.dtype == np.float32

    def test_conf_int16(self, tmp_path):
        p = tmp_path / "45S015W_CONF_5M.ACE2"
        p.write_bytes(b"\x01\x00" * (180 * 180))
        px, gt, nd, meta = read_raster(str(p))
        assert px.dtype == np.int16
        assert gt[0] == -15.0 and gt[3] == -30.0


class TestNsidcBin:
    def test_south_grid(self):
        px, gt, nd, meta = read_raster(
            f"{D}/nsidcbin/nt_20220409_f18_nrt_s.bin")
        assert px.shape[1] == 316
        assert int(px[44, 60]) == 27
        assert meta["crs"] == "EPSG:3412"


class TestSigdem:
    def test_roundtrip_byte(self):
        from gdal_ray.codecs.gtiff import decode_gtiff
        g = decode_gtiff(open(
            "/root/reference/autotest/gcore/data/byte.tif", "rb").read())
        px0 = np.asarray(g.pixels)
        buf = R.encode_sigdem(px0, g.geotransform, epsg=26711)
        px, gt, nd, meta = R.decode_sigdem(buf)
        assert cs(px) == 4672
        assert (px == px0).all()
        assert all(abs(a - b) < 1e-9
                   for a, b in zip(gt, g.geotransform))
        assert meta["crs"] == "EPSG:26711"
        assert nd == -9999.0

    def test_nodata(self):
        img = np.array([[1.5, -9999.0], [2.25, 3.125]])
        buf = R.encode_sigdem(img, (0, 1, 0, 2, 0, -1), scale_z=1024.0)
        px, gt, nd, _ = R.decode_sigdem(buf)
        assert px[0, 1] == -9999.0
        assert px[0, 0] == pytest.approx(1.5)
        assert px[1, 1] == pytest.approx(3.125)


class TestZmap:
    def test_roundtrip_byte(self, tmp_path):
        from gdal_ray.codecs.gtiff import decode_gtiff
        g = decode_gtiff(open(
            "/root/reference/autotest/gcore/data/byte.tif", "rb").read())
        px0 = np.asarray(g.pixels)
        text = R.encode_zmap(px0.astype(np.float64), g.geotransform)
        px, gt, nd, meta = R.decode_zmap(text)
        assert cs(px) == 4672
        assert (px == px0).all()
        assert all(abs(a - b) < 1e-6
                   for a, b in zip(gt, g.geotransform))
        p = tmp_path / "byte.zmap"
        p.write_text(text)
        px2, _, _, _ = read_raster(str(p))
        assert (px2 == px0).all()


class TestKro:
    def test_roundtrip_rgbsmall(self):
        from gdal_ray.codecs.gtiff import decode_gtiff
        g = decode_gtiff(open(
            f"{D}/rgbsmall.tif", "rb").read())
        px0 = np.asarray(g.pixels)
        px, _, _, meta = R.decode_kro(R.encode_kro(px0))
        assert (px == px0).all()
        # autotest kro.py: band 2 checksum 21053 survives the copy
        assert cs(px[:, :, 1]) == 21053

    def test_roundtrip_uint16_float32(self):
        from gdal_ray.codecs.gtiff import decode_gtiff
        for name, want in (("uint16.tif", 4672), ("float32.tif", 4672)):
            g = decode_gtiff(open(
                f"/root/reference/autotest/gcore/data/{name}",
                "rb").read())
            px0 = np.asarray(g.pixels)
            px, _, _, _ = R.decode_kro(R.encode_kro(px0))
            assert (px == px0).all()
            assert cs(px) == want


class TestMff2:
    def test_bytemff2(self):
        from gdal_ray.codecs.rawexotic import decode_mff2
        px, gt, nd, meta = decode_mff2(f"{D}/mff2/bytemff2")
        assert px.shape == (20, 20)
        assert cs(px) == 4672
        assert gt is not None and gt[0] == pytest.approx(-117.64116862)

    def test_routing(self):
        px, _, _, meta = read_raster(f"{D}/mff2/bytemff2")
        assert meta["driver"] == "MFF2"
        assert cs(px) == 4672


class TestPcidskTil:
    def test_pcidsk_utm(self):
        from gdal_ray.codecs.rawexotic import decode_pcidsk
        px, gt, nd, meta = decode_pcidsk(f"{D}/pcidsk/utm.pix")
        assert px.shape == (7, 500)
        assert cs(px) == 39576

    def test_til_mosaic(self):
        from gdal_ray.codecs.rawexotic import decode_til
        px, gt, nd, meta = decode_til(f"{D}/til/testtil.til")
        assert cs(px) == 4672
        assert meta["SATELLITEID"] == "WV03"
        assert meta["CLOUDCOVER"] == "0.027"
        assert "ACQUISITIONDATETIME" in meta

    def test_routing(self):
        px, _, _, meta = read_raster(f"{D}/pcidsk/utm.pix")
        assert meta["driver"] == "PCIDSK"
        px, _, _, meta = read_raster(f"{D}/til/testtil.til")
        assert meta["driver"] == "TIL"


class TestHf2:
    def test_roundtrip_byte(self, tmp_path):
        from gdal_ray.codecs.gtiff import decode_gtiff
        from gdal_ray.codecs.rawexotic import decode_hf2, encode_hf2
        g = decode_gtiff(open(
            "/root/reference/autotest/gcore/data/byte.tif", "rb").read())
        px0 = np.asarray(g.pixels)
        buf = encode_hf2(px0.astype(np.float64), g.geotransform)
        px, gt, nd, meta = decode_hf2(buf)
        assert cs(px) == 4672
        assert all(abs(a - b) < 1e-6 for a, b in zip(gt, g.geotransform))
        p = tmp_path / "b.hf2"
        p.write_bytes(buf)
        px2, *_ = read_raster(str(p))
        assert cs(px2) == 4672

    def test_roundtrip_dted(self):
        from gdal_ray.codecs.dted import decode_dted
        from gdal_ray.codecs.rawexotic import decode_hf2, encode_hf2
        pd, gtd, ndd = decode_dted(open(
            f"{D}/n43.dt0", "rb").read())
        p2, *_ = decode_hf2(encode_hf2(np.asarray(pd, np.float64), gtd))
        assert cs(p2) == 49187  # autotest hf2.py golden

    def test_roundtrip_float(self):
        from gdal_ray.codecs.rawexotic import decode_hf2, encode_hf2
        rng = np.random.default_rng(3)
        img = np.round(rng.normal(size=(300, 270)) * 100, 2)
        px, *_ = decode_hf2(encode_hf2(img, precision=0.01))
        assert np.allclose(px, img, atol=0.005)


class TestMff2Headerless:
    """An MFF2 directory whose attrib lacks the extent keys, or that has
    no attrib at all, raises ValueError (hermetic)."""

    def test_attrib_without_extent(self, tmp_path):
        (tmp_path / "attrib").write_text("channel.enumeration = 1\n")
        (tmp_path / "image_data").write_bytes(bytes(16))
        with pytest.raises(ValueError, match="extent"):
            read_raster(str(tmp_path))

    def test_no_attrib(self, tmp_path):
        (tmp_path / "image_data").write_bytes(bytes(16))
        with pytest.raises(ValueError, match="extent"):
            R.decode_mff2(str(tmp_path))
