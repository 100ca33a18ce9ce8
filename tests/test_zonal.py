"""Zonal raster statistics vs a driver-side brute-force oracle."""

import numpy as np
import pytest

from gdal_ray.core import wkb as wkb_mod
from gdal_ray.core.rastervec import rasterize
from gdal_ray.sources.images import images_dataset, decode_row
from gdal_ray.sources.vector import polygons_table
from gdal_ray.stages.georef import with_georef
from gdal_ray.stages.zonal import zonal_raster_broadcast


@pytest.fixture(scope="module")
def zonal_result(ray_session):
    imgs = images_dataset(64).map_batches(with_georef, batch_format="pyarrow")
    out = zonal_raster_broadcast(imgs, polygons_table(25)).to_pandas()
    return out.set_index("fid").sort_index()


def brute_force():
    """All-pairs oracle: decode every image, burn every polygon, reduce."""
    import ray.data  # session owned by fixture

    imgs = images_dataset(64).map_batches(with_georef, batch_format="pyarrow") \
        .to_pandas()
    pols = polygons_table(25).to_pandas()
    stats = {}
    for _, prow in pols.iterrows():
        g = wkb_mod.loads(prow["wkb"])
        acc = None
        for _, irow in imgs.iterrows():
            if (prow["minx"] > irow["maxx"] or irow["minx"] > prow["maxx"]
                    or prow["miny"] > irow["maxy"] or irow["miny"] > prow["maxy"]):
                continue
            px = decode_row(irow["bytes"], irow["fmt"])[:, :, 0]
            h, w = px.shape
            gt = tuple(irow[f"gt{i}"] for i in range(6))
            mask = rasterize([(g, 1)], (h, w), gt, dtype=np.uint8).astype(bool)
            if not mask.any():
                continue
            v = px[mask].astype(np.float64)
            cur = (v.sum(), v.size, v.min(), v.max())
            if acc is None:
                acc = cur
            else:
                acc = (acc[0] + cur[0], acc[1] + cur[1],
                       min(acc[2], cur[2]), max(acc[3], cur[3]))
        if acc is not None:
            stats[int(prow["fid"])] = acc
    return stats


class TestZonalRaster:
    def test_matches_brute_force(self, zonal_result):
        oracle = brute_force()
        assert set(zonal_result.index) == set(oracle)
        for fid, (s, n, mn, mx) in oracle.items():
            row = zonal_result.loc[fid]
            assert row["pixel_count"] == n, fid
            assert abs(row["pixel_sum"] - s) < 1e-6 * max(1.0, abs(s)), fid
            assert row["pixel_min"] == mn and row["pixel_max"] == mx, fid
            assert abs(row["pixel_mean"] - s / n) < 1e-9, fid

    def test_mean_in_band_range(self, zonal_result):
        assert (zonal_result["pixel_mean"] >= 0).all()
        assert (zonal_result["pixel_mean"] <= 255).all()

