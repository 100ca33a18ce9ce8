"""gdalinfo / ogrinfo analogs — one-call dataset summaries.

Reference semantics:
  gdalinfo  apps/gdalinfo_lib.cpp — driver, size, CRS, geotransform,
      per-band type/nodata/stats/checksum
  ogrinfo   apps/ogrinfo_lib.cpp (-so summary) — layer feature count,
      extent, geometry type, field schema

Both are driver-side conveniences over small inputs; at corpus scale
the same numbers come from the distributed stats queries
(raster_stats, raster_index)."""

from __future__ import annotations

import numpy as np

__all__ = ["raster_info", "vector_info"]


def raster_info(buf: bytes, fmt: str | None = None, *,
                compute_stats: bool = True) -> dict:
    """Decode + summarize one raster blob (gdalinfo -stats analog)."""
    from ..codecs import find
    from ..core.checksum import checksum

    codec = find(buf, fmt)
    px, geotransform, nodata, meta = codec.decode(buf)
    crs = meta.get("crs")
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, nb = px.shape
    info = {
        "driver": codec.name,
        "size": (w, h),
        "bands": nb,
        "dtype": str(px.dtype),
        "geotransform": geotransform,
        "crs": crs,
        "nodata": nodata,
        "band_info": [],
    }
    for b in range(nb):
        band = px[:, :, b]
        bi = {"band": b + 1, "checksum": int(checksum(band))}
        if compute_stats:
            f = band.astype(np.float64)
            if nodata is not None:
                f = np.where(band == nodata, np.nan, f)
            bi.update(
                minimum=float(np.nanmin(f)), maximum=float(np.nanmax(f)),
                mean=float(np.nanmean(f)), stddev=float(np.nanstd(f)))
        info["band_info"].append(bi)
    return info


def vector_info(table) -> dict:
    """Summarize a feature table (ogrinfo -so analog): count, extent,
    geometry-type histogram, field schema. Accepts a pyarrow Table or
    a Ray Dataset (small results only — the distributed path is the
    raster_index/envelope queries)."""
    import pyarrow as pa

    from ..core import wkb as W

    if not isinstance(table, pa.Table):
        table = table.to_arrow() if hasattr(table, "to_arrow") \
            else pa.Table.from_pandas(table)
    n = table.num_rows
    fields = [(f.name, str(f.type)) for f in table.schema
              if f.name != "wkb"]
    ext = [np.inf, np.inf, -np.inf, -np.inf]
    gtypes: dict[str, int] = {}
    if "wkb" in table.column_names:
        for b in table.column("wkb").to_pylist():
            if b is None:            # counted, with no type or extent
                continue
            g = W.loads(b)
            gtypes[g.type_name] = gtypes.get(g.type_name, 0) + 1
            e = g.envelope()
            if np.isfinite(e[0]):
                ext[0] = min(ext[0], e[0])
                ext[1] = min(ext[1], e[1])
                ext[2] = max(ext[2], e[2])
                ext[3] = max(ext[3], e[3])
    return {
        "feature_count": n,
        "extent": tuple(ext) if np.isfinite(ext[0]) else None,
        "geometry_types": gtypes,
        "fields": fields,
    }
