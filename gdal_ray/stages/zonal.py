"""Zonal statistics — per-polygon stats of raster pixels.

Reference semantics: alg/zonal.cpp (2,233 LoC) + the
`gdal raster zonal-stats` step (apps/gdalalg_raster_zonal_stats.cpp):
for every (raster, zone polygon) pair, the polygon is burned onto the
raster grid and the covered pixels are reduced (count/sum/min/max/mean).

Ray-Data plan (zone layers are small, the raster corpus is the large
side):

  1. BROADCAST: the zone polygon table ships once via ray.put.
  2. MAP: each image is envelope-tested against every polygon, decoded
     once if any polygon overlaps it, and each overlapping polygon is
     burned on the image grid; the map emits one partial row
     (fid, sum, count, min, max) per (image, polygon) in
     PARTIAL_SCHEMA. Partials are additive, so no dedup is needed.
  3. a tiny final groupby(fid).aggregate — the only all-to-all, on the
     small partials table, never on pixels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..core import wkb as wkb_mod
from ..core.rastervec import rasterize


PARTIAL_SCHEMA = pa.schema([
    ("fid", pa.int64()), ("psum", pa.float64()), ("pcount", pa.int64()),
    ("pmin", pa.float64()), ("pmax", pa.float64()),
])


def _emit_partial(out: dict, fid: int, g, px: np.ndarray, gt) -> None:
    """Burn polygon g on the pixel grid and append its partial row."""
    mask = rasterize([(g, 1)], px.shape, gt, dtype=np.uint8).astype(bool)
    if mask.any():
        vals = px[mask].astype(np.float64)
        out["fid"].append(fid)
        out["psum"].append(float(vals.sum()))
        out["pcount"].append(int(vals.size))
        out["pmin"].append(float(vals.min()))
        out["pmax"].append(float(vals.max()))


def _combine(partials):
    """Partials → per-fid (pixel_sum, pixel_count, pixel_min, pixel_max,
    pixel_mean): the tiny groupby(fid) all-to-all."""
    from ray.data.aggregate import Max, Min, Sum

    agg = partials.groupby("fid").aggregate(
        Sum("psum", alias_name="pixel_sum"),
        Sum("pcount", alias_name="pixel_count"),
        Min("pmin", alias_name="pixel_min"),
        Max("pmax", alias_name="pixel_max"))

    def finish(t: pa.Table) -> pa.Table:
        s = t.column("pixel_sum").to_numpy()
        n = t.column("pixel_count").to_numpy()
        mean = np.where(n > 0, s / np.maximum(n, 1), 0.0)
        return t.append_column("pixel_mean", pa.array(mean, pa.float64()))

    return agg.map_batches(finish, batch_format="pyarrow")


def zonal_raster_broadcast(images_geo, polygons_table: pa.Table,
                           band: int = 0):
    """Zonal stats with a BROADCAST zone layer (the usual shape: zone
    layers are small, the raster corpus is the 100 TB side). The polygon
    table ships once via ray.put; the per-image map emits additive
    partials; the only shuffle is the tiny groupby(fid) combine — no
    cell exchange, no image bytes movement, no hot-cell skew.

    images_geo must carry georef columns (with_georef); polygons_table
    the fid/wkb/envelope layer table. Returns a Dataset of (fid,
    pixel_sum, pixel_count, pixel_min, pixel_max, pixel_mean)."""
    import ray

    polys = [(int(f), wkb_mod.loads(b), (mn, mi, mx, my))
             for f, b, mn, mi, mx, my in zip(
                 polygons_table["fid"].to_pylist(),
                 polygons_table["wkb"].to_pylist(),
                 polygons_table["minx"].to_pylist(),
                 polygons_table["miny"].to_pylist(),
                 polygons_table["maxx"].to_pylist(),
                 polygons_table["maxy"].to_pylist())]
    pref = ray.put(polys)

    from ..codecs import decode as _decode_fn

    def partials_batch(t: pa.Table) -> pa.Table:
        # stateless task: ray.get of the broadcast polygon list is a
        # zero-copy plasma read per task (no actor-pool startup cost)
        polys_local = ray.get(pref)
        out: dict[str, list] = {k.name: [] for k in PARTIAL_SCHEMA}
        gts = [t[f"gt{k}"].to_numpy() for k in range(6)]
        blobs = t["bytes"].to_pylist()
        fmts = t["fmt"].to_pylist()
        ie = [t[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")]
        for i in range(t.num_rows):
            cand = [(f, g) for f, g, pe in polys_local
                    if not (pe[0] > ie[2][i] or ie[0][i] > pe[2]
                            or pe[1] > ie[3][i] or ie[1][i] > pe[3])]
            if not cand:
                continue
            px = _decode_fn(blobs[i], fmts[i])
            if px.ndim == 3:
                px = px[:, :, band]
            gt = tuple(float(g[i]) for g in gts)
            for fid, g in cand:
                _emit_partial(out, fid, g, px, gt)
        return pa.Table.from_pydict(out, schema=PARTIAL_SCHEMA)

    return _combine(images_geo.map_batches(
        partials_batch, batch_format="pyarrow", batch_size=8))

