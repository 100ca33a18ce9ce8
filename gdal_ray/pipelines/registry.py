"""Pipeline-step registry — the `gdal pipeline` analog.

GDAL composes CLI pipelines from registered GDALAlgorithm steps:
`gdal pipeline read in.tif ! reproject --dst-crs=EPSG:3857 ! tile ...`
(registration apps/gdalalg_raster_pipeline.cpp:165-237, dispatch
apps/gdalalg_abstract_pipeline.cpp:222-240; steps declare args via
AddArg and implement RunImpl).

Here a step is a plain function `fn(ds, **kwargs) -> Dataset`
registered under a name; a pipeline string

    "read_images n=96 ! georef ! reproject dst=EPSG:4326 ! select cols=image_id,dst_w"

is parsed into step calls chained left to right (`!` separator, the
same as GDAL's). Source steps take `ds=None`. Users extend the engine
by registering their own steps — the UDF surface on top of
``map_batches``.
"""

from __future__ import annotations

from typing import Callable

STEPS: dict[str, Callable] = {}


def register_step(name: str):
    """Decorator: register `fn(ds, **kwargs) -> Dataset` as a step."""
    def deco(fn):
        STEPS[name] = fn
        return fn
    return deco


def unregister_step(name: str) -> None:
    """Undo a user ``register_step``: the name is unknown again, or the
    built-in step it replaced is back. KeyError when no user step is
    registered under the name."""
    if STEPS.get(name) is _BUILTIN_STEPS.get(name):
        raise KeyError(f"no registered step {name!r}")
    if name in _BUILTIN_STEPS:
        STEPS[name] = _BUILTIN_STEPS[name]
    else:
        del STEPS[name]


def _coerce(v: str):
    for cast in (int, float):
        try:
            return cast(v)
        except ValueError:
            pass
    if v.lower() in ("true", "false"):
        return v.lower() == "true"
    if "," in v:
        return [s for s in v.split(",") if s]
    return v


def parse_pipeline(spec: str):
    """'step a=1 b=x ! step2 ...' → [(name, {kwargs}), ...].

    The separator is a whitespace-delimited '!' (as in `gdal pipeline`),
    so '!' inside an argument — e.g. `filter expr=w!=256` — survives."""
    import re as _re
    steps = []
    for part in _re.split(r"(?:^|\s)!(?:\s|$)", spec):
        toks = part.split()
        if not toks:
            raise ValueError("empty pipeline step")
        name, kwargs = toks[0], {}
        for tok in toks[1:]:
            if "=" not in tok:
                raise ValueError(f"step argument {tok!r} must be key=value")
            k, v = tok.split("=", 1)
            kwargs[k] = _coerce(v)
        steps.append((name, kwargs))
    return steps


def run_pipeline(spec: str, ds=None):
    """Execute a pipeline spec; returns the final step's result."""
    for name, kwargs in parse_pipeline(spec):
        fn = STEPS.get(name)
        if fn is None:
            raise ValueError(
                f"unknown step {name!r}; registered: {sorted(STEPS)}")
        ds = fn(ds, **kwargs)
    return ds


# ---------------------------------------------------------------------------
# built-in steps (the gdalalg_raster_* / gdalalg_vector_* equivalents)
# ---------------------------------------------------------------------------

@register_step("read_images")
def _read_images(ds, n: int = 128, **kw):
    from ..sources.images import images_dataset
    return images_dataset(int(n))


@register_step("read_parquet")
def _read_parquet(ds, path: str = "", cols=None, **kw):
    import ray.data as rd
    if isinstance(cols, str):
        cols = [cols]
    return rd.read_parquet(path, columns=cols)


@register_step("read_polygons")
def _read_polygons(ds, n: int = 40, **kw):
    from ..sources.vector import polygons_dataset
    return polygons_dataset(int(n))


@register_step("georef")
def _georef(ds, **kw):
    from ..stages.georef import with_georef
    return ds.map_batches(with_georef, batch_format="pyarrow")


@register_step("reproject")
def _reproject(ds, src: str = "EPSG:3857", dst: str = "EPSG:4326",
               resampling: str = "bilinear", concurrency: int = 4, **kw):
    from ..stages import per_process
    from ..stages.warp import ReprojectImages
    # tasks (at most ``concurrency`` at once), not an actor pool, which
    # would hold every CPU the upstream read needs
    return ds.map_batches(
        per_process(ReprojectImages, src_crs=src, dst_crs=dst,
                    resampling=resampling),
        concurrency=int(concurrency), batch_format="pyarrow")


@register_step("tiles")
def _tiles(ds, z: int | None = None, resampling: str = "bilinear", **kw):
    """Georeferenced images → base-zoom tiles at ``z`` (each image's
    native zoom when unset): one row per rendered tile in TILE_SCHEMA,
    z, x, y (int32, the XYZ address), png (RGBA), n_src, cs_r, cs_g,
    cs_b."""
    from .tiles import build_base_tiles
    return build_base_tiles(ds, None if z is None else int(z),
                            resampling=resampling)


@register_step("filter")
def _filter(ds, expr: str = "", **kw):
    """Attribute filter on a simple `col op literal` expression."""
    import pyarrow.compute as pc
    kernels = {"<": "less", "<=": "less_equal", ">": "greater",
               ">=": "greater_equal", "==": "equal", "!=": "not_equal"}
    for sym in sorted(kernels, key=len, reverse=True):
        if sym in expr:
            col, lit = expr.split(sym, 1)
            col, lit = col.strip(), _coerce(lit.strip())
            kern = getattr(pc, kernels[sym])
            return ds.map_batches(
                lambda t, c=col, k=kern, v=lit: t.filter(k(t[c], v)),
                batch_format="pyarrow")
    raise ValueError(f"cannot parse filter expression {expr!r}")


@register_step("select")
def _select(ds, cols=None, **kw):
    if isinstance(cols, str):
        cols = [cols]
    return ds.select_columns(list(cols))


@register_step("limit")
def _limit(ds, n: int = 10, **kw):
    return ds.limit(int(n))


@register_step("sort")
def _sort(ds, by: str = "", desc: bool = False, **kw):
    keys = by if isinstance(by, list) else [by]
    return ds.sort(keys, descending=bool(desc))


@register_step("spatial_sort")
def _spatial_sort(ds, z: int = 8, **kw):
    """Hilbert-style locality sort on interleaved-bit cell ids (the
    FlatGeobuf packed-R-tree idea, ogr/ogrsf_frmts/flatgeobuf/
    packedrtree.h:78): each row gets ONE representative cell (its
    envelope center) so cardinality is preserved, then sort by it."""
    import numpy as np
    import pyarrow as pa
    from ..core import mercator as merc

    def rep_cell(b: pa.Table) -> pa.Table:
        cx = (b["minx"].to_numpy() + b["maxx"].to_numpy()) * 0.5
        cy = (b["miny"].to_numpy() + b["maxy"].to_numpy()) * 0.5
        cells = merc.point_cells(cx, cy, int(z))
        return b.append_column("cell", pa.array(cells.view(np.int64),
                                                pa.int64()))

    return ds.map_batches(rep_cell, batch_format="pyarrow").sort("cell")


@register_step("write_parquet")
def _write_parquet(ds, path: str = "", **kw):
    ds.write_parquet(path)
    return ds


@register_step("contour")
def _contour(ds, levels="64,128,192", **kw):
    from ..core.contour import contour_lines
    import numpy as np
    import pyarrow as pa
    from ..stages.raster_ops import image_op
    lv = [float(v) for v in (levels if isinstance(levels, list)
                             else [levels])]

    def ctr(px, row):
        lines = contour_lines(px[:, :, 0].astype(np.float64), lv)
        total = sum(float(np.hypot(np.diff(l[:, 0]), np.diff(l[:, 1])).sum())
                    for _, l in lines)
        return {"n_lines": len(lines), "total_len": total}

    return ds.map_batches(image_op(ctr), batch_format="pyarrow")


@register_step("footprint")
def _footprint(ds, threshold: int = 100, **kw):
    import numpy as np
    from ..core.geom import area
    from ..core.rastervec import footprint
    from ..stages.raster_ops import image_op

    def fp(px, row):
        g = footprint((px[:, :, 0].astype(np.int64) > int(threshold))
                      .astype(np.int64), nodata=0)
        return {"fp_area": float(area(g)) if g is not None else 0.0}

    return ds.map_batches(image_op(fp), batch_format="pyarrow")


@register_step("vector_sql")
def _vector_sql(ds, query: str = "", **kw):
    """Run an OGR-SQL statement; the FROM table name binds to the
    incoming dataset."""
    from ..functions.sql import execute_sql, parse_select
    table = parse_select(query)["table"]
    return execute_sql(query, {table: ds})


@register_step("nearblack")
def _nearblack(ds, near_dist: int = 15, white: bool = False, **kw):
    """Collar removal per image; emits masked-pixel count columns
    (apps/nearblack_lib.cpp)."""
    import numpy as np
    from ..stages.raster_ops import image_op, nearblack

    def nb(px, row):
        _, valid = nearblack(px, near_dist=int(near_dist),
                             white=bool(white))
        return {"n_masked": int((~valid).sum())}

    return ds.map_batches(image_op(nb), batch_format="pyarrow")


@register_step("color_relief")
def _color_relief(ds, ramp="0:0:0:128,128:255:255:0,255:255:255:255",
                  mode: str = "interpolate", **kw):
    """gdaldem color-relief per image: ramp entries 'val:r:g:b' comma
    separated; emits per-channel sums."""
    import numpy as np
    from ..stages.raster_ops import color_relief, image_op

    entries = [tuple(int(v) for v in e.split(":"))
               for e in (ramp.split(",") if isinstance(ramp, str) else ramp)]

    def rel(px, row):
        rgba = color_relief(px[:, :, 0].astype(np.float64), entries,
                            mode=mode).astype(np.int64)
        return {"sum_r": int(rgba[:, :, 0].sum()),
                "sum_g": int(rgba[:, :, 1].sum()),
                "sum_b": int(rgba[:, :, 2].sum())}

    return ds.map_batches(image_op(rel), batch_format="pyarrow")


@register_step("rgb2pct")
def _rgb2pct(ds, n_colors: int = 256, dither: bool = False, **kw):
    """Median-cut quantization per image (alg/gdalmediancut.cpp);
    emits palette size and mean reconstruction error."""
    import numpy as np
    from ..functions.quantize import (dither_rgb2pct, median_cut_pct,
                                      remap_to_pct)
    from ..stages.raster_ops import image_op

    def q(px, row):
        if px.ndim == 2:
            px = np.repeat(px[:, :, None], 3, axis=2)
        crop = px[:256, :256, :3]
        pal, _ = median_cut_pct(crop, int(n_colors))
        idx = dither_rgb2pct(crop[:64, :64], pal) if dither \
            else remap_to_pct(crop, pal)
        rec = pal[idx].astype(np.int64)
        src = crop[:64, :64, :3] if dither else crop[:, :, :3]
        err = float(np.abs(rec - src.astype(np.int64)).mean())
        return {"n_pal": int(len(pal)), "mean_err": err}

    return ds.map_batches(image_op(q), batch_format="pyarrow")


@register_step("hillshade")
def _hillshade(ds, variant: str = "horn", azimuth: float = 315.0,
               altitude: float = 45.0, z: float = 1.0, **kw):
    """gdaldem hillshade per image: variant horn | multidirectional |
    combined | igor; emits the shaded byte-image mean."""
    import numpy as np
    from ..stages.raster_ops import (hillshade, hillshade_combined,
                                     hillshade_igor,
                                     hillshade_multidirectional, image_op)

    def sh(px, row):
        band = px[:, :, 0].astype(np.float64)
        if variant == "multidirectional":
            out = hillshade_multidirectional(band, altitude=float(altitude),
                                             z_factor=float(z))
        elif variant == "combined":
            out = hillshade_combined(band, azimuth=float(azimuth),
                                     altitude=float(altitude),
                                     z_factor=float(z))
        elif variant == "igor":
            out = hillshade_igor(band, azimuth=float(azimuth),
                                 z_factor=float(z))
        else:
            out = hillshade(band, azimuth=float(azimuth),
                            altitude=float(altitude), z_factor=float(z))
        return {"mean_shade_byte": float(out.mean())}

    return ds.map_batches(image_op(sh), batch_format="pyarrow")


@register_step("translate")
def _translate(ds, window=None, bands=None, scale=None, offset: float = 0.0,
               out_size=None, resampling: str = "near", **kw):
    """gdal_translate core: window/bands/scale/resize per image, output
    re-encoded in place of the bytes column."""
    import numpy as np
    import pyarrow as pa
    from ..codecs import decode as _dec, encode as _enc
    from ..stages.raster_ops import translate, to_uint8

    def parse_ints(v):
        if v is None or v == "":
            return None
        if isinstance(v, str):
            return tuple(int(t) for t in v.split(","))
        return tuple(int(t) for t in v)

    win = parse_ints(window)
    bnd = parse_ints(bands)
    osz = parse_ints(out_size)

    def tr(t: pa.Table) -> pa.Table:
        blobs = []
        for i in range(t.num_rows):
            px = _dec(t["bytes"][i].as_py(), t["fmt"][i].as_py())
            out = translate(px, window=win, bands=bnd,
                            scale=None if scale is None else float(scale),
                            offset=float(offset), out_size=osz,
                            resampling=resampling)
            blobs.append(_enc(to_uint8(np.asarray(out, np.float64)), "png"))
        cols = {c: t.column(c) for c in t.column_names}
        cols["bytes"] = pa.array(blobs, pa.binary())
        cols["fmt"] = pa.array(["png"] * t.num_rows)
        return pa.table(cols)

    return ds.map_batches(tr, batch_format="pyarrow")


@register_step("calc")
def _calc(ds, expr: str = "(A+B)/2", **kw):
    """gdal_raster_calc band algebra: A/B/C bind to bands 0/1/2 of each
    image; emits the per-image mean of the result."""
    import numpy as np
    from ..functions.calc import band_calc
    from ..stages.raster_ops import image_op

    def c(px, row):
        names = "ABCDEFGH"
        nb = 1 if px.ndim == 2 else px.shape[2]
        bands = {names[i]: (px if px.ndim == 2 else px[:, :, i])
                 for i in range(min(nb, len(names)))}
        out = band_calc(bands, expr)
        return {"calc_mean": float(np.nanmean(out))}

    return ds.map_batches(image_op(c), batch_format="pyarrow")


@register_step("reclassify")
def _reclassify(ds, rules: str = "[0,128)=0; [128,256)=1", nodata=None,
                **kw):
    """raster reclassify with the reference's textual grammar
    (frmts/vrt/vrtreclassifier.h); emits the per-image value sum."""
    import numpy as np
    from ..stages.raster_ops import image_op, reclassify_text

    def rc(px, row):
        out = reclassify_text(px[:, :, 0].astype(np.float64), rules,
                              nodata=None if nodata is None
                              else float(nodata))
        return {"reclass_sum": float(out.sum())}

    return ds.map_batches(image_op(rc), batch_format="pyarrow")


def _collect_layer(ds):
    """Bounded final collect for single-file layer sinks (shapefile /
    geojson are single-file formats; sharded output goes through
    write_parquet)."""
    import pyarrow as pa
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


@register_step("write_shapefile")
def _write_shapefile(ds, path: str = "", **kw):
    from ..sources.shapefile import write_shapefile
    write_shapefile(_collect_layer(ds), path)
    return ds


@register_step("write_geojson")
def _write_geojson(ds, path: str = "", seq: bool = False, **kw):
    from ..sources.geojson import write_geojson, write_geojsonseq
    t = _collect_layer(ds)
    (write_geojsonseq if seq else write_geojson)(t, path)
    return ds


@register_step("write_csv")
def _write_csv(ds, path: str = "", **kw):
    from ..sources.csvio import write_csv
    write_csv(_collect_layer(ds), path)
    return ds


@register_step("read_vector")
def _read_vector_step(ds, path: str = "", **kw):
    """Any registered vector driver by extension (driver manager)."""
    from ..sources.drivers import read_vector_dataset
    return read_vector_dataset(path)


@register_step("vector_reproject")
def _vector_reproject(ds, src: str = "EPSG:3857", dst: str = "EPSG:4326",
                      **kw):
    """ogr2ogr -s_srs/-t_srs: every WKB vertex through the CRS chain."""
    from ..stages.vector_ops import reproject_wkb_batch

    def reproject_wkb(t):
        return reproject_wkb_batch(t, src, dst)

    return ds.map_batches(reproject_wkb, batch_format="pyarrow")


@register_step("concave_hull")
def _concave_hull(ds, ratio: float = 0.3, **kw):
    """Per-feature concave hull (gdal vector geom concave-hull /
    OGR_G_ConcaveHull): each geometry's vertices → chi-shape ring."""
    import pyarrow as pa
    from ..core import wkb as W
    from ..stages.vector_ops import concave_hull

    def hull(t: pa.Table) -> pa.Table:
        out = []
        for b in t["wkb"].to_pylist():
            if b is None:
                out.append(None)
                continue
            pts = W._all_coords(W.loads(b))
            out.append(W.dumps(W.polygon(concave_hull(pts, float(ratio))))
                       if len(pts) >= 3 else b)
        i = t.column_names.index("wkb")
        return t.set_column(i, "wkb", pa.array(out, pa.binary()))

    return ds.map_batches(hull, batch_format="pyarrow")


@register_step("write_gpx")
def _write_gpx(ds, path: str = "", **kw):
    from ..sources.gpx import write_gpx
    write_gpx(_collect_layer(ds), path)
    return ds


@register_step("write_mif")
def _write_mif(ds, path: str = "", **kw):
    from ..sources.mif import write_mif
    write_mif(_collect_layer(ds), path)
    return ds


@register_step("read_raster")
def _read_raster_step(ds, path: str = "", **kw):
    """GDALOpen-style raster read: one row (image_id, bytes as PNG,
    w, h, gt0..gt5) from any supported raster path (tif/vrt/nc/asc/
    dted/hgt/gif/png/... + PAM/world-file sidecars)."""
    import os
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ..codecs import encode as cenc
    from ..sources.raster import read_raster

    px, gt, nodata, meta = read_raster(path)
    b0 = px if px.ndim == 2 else px[:, :, 0]
    payload = cenc(np.clip(b0, 0, 255).astype(np.uint8), "png")
    gt = gt or (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    cols = {"image_id": pa.array([os.path.basename(path)], pa.string()),
            "bytes": pa.array([payload], pa.binary()),
            "fmt": pa.array(["png"], pa.string()),
            "w": pa.array([b0.shape[1]], pa.int32()),
            "h": pa.array([b0.shape[0]], pa.int32())}
    for k in range(6):
        cols[f"gt{k}"] = pa.array([float(gt[k])], pa.float64())
    return rd.from_arrow(pa.table(cols))


_BUILTIN_STEPS = dict(STEPS)
