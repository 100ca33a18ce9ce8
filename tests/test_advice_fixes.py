"""Regression tests for the round-2 advisory findings (ADVICE.md):
shapefile MultiPoint write, DBF numeric overflow, GPKG GPB flag bits,
GeoTIFF geographic-code classification, zonal south-up envelopes."""

import os
import struct
import tempfile

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.core import wkb as W


class TestShapefileMultiPoint:
    def test_multipoint_roundtrip(self):
        from gdal_ray.sources.shapefile import read_shapefile, write_shapefile
        pts = [(1.5, 2.5), (3.0, -4.0), (5.25, 6.75)]
        t = pa.table({
            "fid": [0, 1],
            "wkb": [W.dumps(W.multipoint(pts)),
                    W.dumps(W.multipoint([(9.0, 9.0)]))],
            "name": ["a", "b"],
        })
        p = os.path.join(tempfile.mkdtemp(dir="/tmp"), "mp.shp")
        write_shapefile(t, p)
        back = read_shapefile(p)
        assert back.num_rows == 2
        g = W.loads(back["wkb"][0].as_py())
        assert g.geom_type == W.MULTIPOINT
        got = [(float(q.coords[0, 0]), float(q.coords[0, 1]))
               for q in g.parts]
        assert got == pts
        assert back["name"].to_pylist() == ["a", "b"]


class TestDBFNumericOverflow:
    def test_wide_float_scientific_fallback(self):
        from gdal_ray.sources.shapefile import read_shapefile, write_shapefile
        big = 3.14159e14          # f"{v:.8f}" would be 24 chars > width 19
        t = pa.table({
            "fid": [0],
            "wkb": [W.dumps(W.point(0.0, 0.0))],
            "val": pa.array([big], pa.float64()),
        })
        p = os.path.join(tempfile.mkdtemp(dir="/tmp"), "wide.shp")
        write_shapefile(t, p)
        back = read_shapefile(p)
        v = back["val"][0].as_py()
        assert v == pytest.approx(big, rel=1e-9)

    def test_wide_int_raises(self):
        from gdal_ray.sources.shapefile import write_shapefile
        t = pa.table({
            "fid": [0],
            "wkb": [W.dumps(W.point(0.0, 0.0))],
            "val": pa.array([10**19], pa.uint64()),   # 20 digits > width 18
        })
        p = os.path.join(tempfile.mkdtemp(dir="/tmp"), "ovf.shp")
        with pytest.raises(ValueError, match="does not fit"):
            write_shapefile(t, p)


class TestGPBFlags:
    def _gpb(self, flags: int, wkb: bytes = b"") -> bytes:
        return b"GP\x00" + bytes([flags]) + struct.pack("<i", 4326) + wkb

    def test_empty_bit4_returns_none(self):
        from gdal_ray.sources.gpkg import _parse_gpb
        # empty flag is bit 4 (0x10), little-endian bit 0
        assert _parse_gpb(self._gpb(0b00010001)) is None

    def test_extended_bit5_raises(self):
        from gdal_ray.sources.gpkg import _parse_gpb
        with pytest.raises(ValueError, match="extended"):
            _parse_gpb(self._gpb(0b00100001))

    def test_plain_geometry_parses(self):
        from gdal_ray.sources.gpkg import _parse_gpb
        g = _parse_gpb(self._gpb(0b00000001, W.dumps(W.point(3.0, 4.0))))
        assert g.coords[0, 0] == 3.0 and g.coords[0, 1] == 4.0


class TestGeographicEPSG:
    def test_classifier(self):
        from gdal_ray.codecs.gtiff import is_geographic_epsg
        assert is_geographic_epsg(4326)
        assert is_geographic_epsg(4269)       # NAD83
        assert is_geographic_epsg(4258)       # ETRS89
        assert not is_geographic_epsg(3857)
        assert not is_geographic_epsg(32631)
        assert not is_geographic_epsg(4087)   # World Equidistant Cyl (proj)

    def test_gtiff_writes_geographic_key_for_nad83(self):
        from gdal_ray.codecs.gtiff import decode_gtiff, encode_gtiff
        px = np.zeros((8, 8), np.uint8)
        buf = encode_gtiff(px, geotransform=(0, 1, 0, 8, 0, -1),
                           crs="EPSG:4269")
        tif = decode_gtiff(buf)
        assert tif.crs == "EPSG:4269"


class TestZonalSouthUp:
    def test_broadcast_counts_south_up_pixels(self, ray_session):
        import ray.data as rd
        from gdal_ray.codecs import encode
        from gdal_ray.stages.zonal import zonal_raster_broadcast

        w = h = 64
        px = (np.arange(w * h) % 251).astype(np.uint8).reshape(h, w)
        res = 2 * 20037508.342789244 / (1 << 8) / 256    # z8 pixel size
        # south-up: gt5 > 0, origin at the BOTTOM edge, so row 0 is south
        x0, y0 = -res * 40, -res * 32
        gt = (x0, res, 0.0, y0, 0.0, res)
        x1, y1 = x0 + w * res, y0 + h * res
        img = pa.table({
            "bytes": [encode(px, "png")], "fmt": ["png"],
            **{f"gt{k}": [float(gt[k])] for k in range(6)},
            "minx": [x0], "miny": [y0], "maxx": [x1], "maxy": [y1],
        })
        ym = y0 + (h // 2) * res
        zones = [W.box(x0 - res, y0 - res, x1 + res, y1 + res),
                 W.box(x0 - res, ym, x1 + res, y1 + res)]   # top half
        polys = pa.table({
            "fid": pa.array([1, 2], pa.int64()),
            "wkb": [W.dumps(g) for g in zones],
            "minx": [g.envelope()[0] for g in zones],
            "miny": [g.envelope()[1] for g in zones],
            "maxx": [g.envelope()[2] for g in zones],
            "maxy": [g.envelope()[3] for g in zones],
        })
        out = zonal_raster_broadcast(rd.from_arrow(img), polys) \
            .to_pandas().set_index("fid")
        assert out.loc[1, "pixel_count"] == w * h
        assert out.loc[1, "pixel_sum"] == float(px.sum())
        assert out.loc[2, "pixel_count"] == w * h // 2
        # the north half of a south-up image is its LAST rows
        assert out.loc[2, "pixel_sum"] == float(px[h // 2:].sum())
