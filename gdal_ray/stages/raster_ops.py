"""Per-image raster operators — gdal_translate / pixel functions /
reclassify / color-map / DEM derivatives / neighbors.

Reference semantics:
  translate     apps/gdal_translate_lib.cpp:676 (window, band select,
                type cast, scale/offset, resize)
  pixel fns     frmts/vrt/pixelfunctions.cpp:4299-4400 registry
  reclassify    apps/gdalalg_raster_reclassify.cpp
  color-map     apps/gdalalg_raster_color_map.cpp
  DEM ops       apps/gdaldem_lib.cpp (Horn slope/aspect/hillshade,
                Wilson TPI/TRI, roughness — 3×3 focal windows)
  neighbors     apps/gdalalg_raster_neighbors.cpp (generic kernels)

All are embarrassingly parallel per image: stateless numpy kernels
wrapped by ``image_op`` into a decode→transform→encode ``map_batches``
stage (pixels never cross a stage boundary — SURVEY §7.5.6).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs import decode as codec_decode
from ..codecs import encode as codec_encode
from ..core.resample import to_uint8, warp

# ---------------------------------------------------------------------------
# translate: window / band select / cast / scale / resize
# ---------------------------------------------------------------------------

def translate(px: np.ndarray, *, window=None, projwin=None,
              geotransform=None, bands=None, scale=None,
              offset=0.0, out_size=None, resampling="near",
              out_dtype=None) -> np.ndarray:
    """Compose gdal_translate's core steps on one decoded image
    (h, w, b). window=(col, row, w, h); projwin=(ulx, uly, lrx, lry)
    in geo coordinates (requires geotransform — gdal_translate
    -projwin, apps/gdal_translate_lib.cpp: corners snap to the pixel
    grid by truncation like the reference's int() cast); bands=list of
    0-based indices; scale/offset: v*scale+offset;
    out_size=(out_w, out_h)."""
    out = px
    if projwin is not None:
        if geotransform is None:
            raise ValueError("projwin requires geotransform")
        from ..core import geotransform as _gtr
        inv = _gtr.inverse(geotransform)
        ulx, uly, lrx, lry = projwin
        c0, r0 = _gtr.apply(inv, ulx, uly)
        c1, r1 = _gtr.apply(inv, lrx, lry)
        window = (int(c0 + 0.001), int(r0 + 0.001),
                  int(c1 - c0 + 0.5), int(r1 - r0 + 0.5))
    if window is not None:
        c, r, w, h = window
        out = out[r:r + h, c:c + w]
    if bands is not None:
        out = out[:, :, list(bands)]
    if scale is not None or offset:
        out = out.astype(np.float64) * (1.0 if scale is None else scale) + offset
    if out_size is not None:
        ow, oh = out_size
        sh, sw = out.shape[:2]
        src_gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        dst_gt = (0.0, sw / ow, 0.0, 0.0, 0.0, sh / oh)
        out, _ = warp(out, src_gt, dst_gt, (oh, ow), resampling)
    if out_dtype is not None:
        if np.dtype(out_dtype) == np.uint8:
            out = to_uint8(np.asarray(out, dtype=np.float64))
        else:
            out = np.asarray(out).astype(out_dtype)
    return out


# ---------------------------------------------------------------------------
# pixel functions (vrt/pixelfunctions.cpp registry subset)
# ---------------------------------------------------------------------------

PIXEL_FUNCTIONS = {
    "sum": lambda bands: np.sum(bands, axis=0),
    "diff": lambda bands: bands[0] - bands[1],
    "mul": lambda bands: np.prod(bands, axis=0),
    "div": lambda bands: bands[0] / np.where(bands[1] == 0, np.nan, bands[1]),
    "min": lambda bands: np.min(bands, axis=0),
    "max": lambda bands: np.max(bands, axis=0),
    "mean": lambda bands: np.mean(bands, axis=0),
    "norm_diff": lambda bands: (bands[0] - bands[1])
    / np.where(bands[0] + bands[1] == 0, np.nan, bands[0] + bands[1]),
    "sqrt": lambda bands: np.sqrt(bands[0]),
    "log10": lambda bands: np.log10(np.where(bands[0] <= 0, np.nan, bands[0])),
    "exp": lambda bands: np.exp(bands[0]),
    "pow": lambda bands, exponent=2.0: np.power(bands[0], exponent),
    "scale": lambda bands, scale=1.0, offset=0.0: bands[0] * scale + offset,
    "mod": lambda bands: np.mod(bands[0], np.where(bands[1] == 0, np.nan, bands[1])),
    "interpolate_linear": lambda bands, t=0.5: bands[0] * (1 - t) + bands[1] * t,
}
_BUILTIN_PIXEL_FUNCTIONS = dict(PIXEL_FUNCTIONS)


def register_pixel_function(name: str, fn) -> None:
    """User-extension hook (GDALAddDerivedBandPixelFunc,
    frmts/vrt/pixelfunctions.cpp:4365): register a band-algebra
    callable fn(bands: list[np.ndarray], **kw) -> np.ndarray under a
    name usable anywhere a built-in pixel function is."""
    if not callable(fn):
        raise TypeError("pixel function must be callable")
    PIXEL_FUNCTIONS[name] = fn


def unregister_pixel_function(name: str) -> None:
    """Undo ``register_pixel_function``: the name is unknown again, or
    the built-in it replaced is back. KeyError when nothing is
    registered under the name."""
    if PIXEL_FUNCTIONS.get(name) is _BUILTIN_PIXEL_FUNCTIONS.get(name):
        raise KeyError(f"no registered pixel function {name!r}")
    if name in _BUILTIN_PIXEL_FUNCTIONS:
        PIXEL_FUNCTIONS[name] = _BUILTIN_PIXEL_FUNCTIONS[name]
    else:
        del PIXEL_FUNCTIONS[name]


def pixel_function(px: np.ndarray, name: str, **kw) -> np.ndarray:
    """Apply a registered band-algebra function: input (h, w, b) →
    (h, w) float64. Bands become the function's inputs."""
    fn = PIXEL_FUNCTIONS[name]
    bands = [px[:, :, i].astype(np.float64) for i in range(px.shape[2])]
    return fn(bands, **kw) if kw else fn(bands)


# ---------------------------------------------------------------------------
# reclassify / color-map
# ---------------------------------------------------------------------------

def reclassify(px: np.ndarray, mapping: dict[int, int],
               default: int | None = None) -> np.ndarray:
    """Value→value LUT remap (256-entry LUT for uint8 bands)."""
    lut = np.arange(256, dtype=np.int64) if default is None \
        else np.full(256, default, dtype=np.int64)
    for k, v in mapping.items():
        lut[k] = v
    return lut[px.astype(np.int64)]


def color_map(band: np.ndarray, ramp: list[tuple[float, tuple[int, int, int]]]) -> np.ndarray:
    """Color-ramp application: piecewise-linear interpolation between
    (value, (r,g,b)) stops → (h, w, 3) uint8."""
    vals = np.array([v for v, _ in ramp], dtype=np.float64)
    cols = np.array([c for _, c in ramp], dtype=np.float64)
    b = band.astype(np.float64)
    out = np.empty(band.shape + (3,), dtype=np.float64)
    for ch in range(3):
        out[..., ch] = np.interp(b, vals, cols[:, ch])
    return to_uint8(out)


# ---------------------------------------------------------------------------
# DEM derivatives (gdaldem Horn formulas) and generic neighbors
# ---------------------------------------------------------------------------

def _pad_edge(band: np.ndarray) -> np.ndarray:
    return np.pad(band.astype(np.float64), 1, mode="edge")


def _horn_gradients(band: np.ndarray, xres: float = 1.0, yres: float = 1.0):
    """Horn's 3×3 weighted gradients (gdaldem slope/hillshade kernel)."""
    p = _pad_edge(band)
    a, b, c = p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:]
    d, f = p[1:-1, :-2], p[1:-1, 2:]
    g, h, i = p[2:, :-2], p[2:, 1:-1], p[2:, 2:]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * xres)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8.0 * yres)
    return dzdx, dzdy


def slope(band: np.ndarray, xres=1.0, yres=1.0, *, degrees=True,
          alg: str = "horn") -> np.ndarray:
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    s = np.sqrt(dzdx**2 + dzdy**2)
    return np.degrees(np.arctan(s)) if degrees else s * 100.0


def aspect(band: np.ndarray, xres=1.0, yres=1.0, *,
           alg: str = "horn") -> np.ndarray:
    """Aspect in degrees clockwise from north (gdaldem convention);
    flat cells → -9999."""
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    asp = np.degrees(np.arctan2(dzdy, -dzdx))
    out = np.where(asp < 0, 90.0 - asp,
                   np.where(asp > 90.0, 360.0 - asp + 90.0, 90.0 - asp))
    flat = (dzdx == 0) & (dzdy == 0)
    return np.where(flat, -9999.0, out)


def hillshade_float(band: np.ndarray, xres=1.0, yres=1.0, *, azimuth=315.0,
                    altitude=45.0, z_factor=1.0) -> np.ndarray:
    """Raw Horn shade value in [-1, 1] (before the 1-255 byte mapping) —
    the quantity a closed-form oracle can recompute per pixel."""
    dzdx, dzdy = _horn_gradients(band, xres, yres)
    dzdx, dzdy = dzdx * z_factor, dzdy * z_factor
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)
    slope_r = np.arctan(np.sqrt(dzdx**2 + dzdy**2))
    aspect_r = np.arctan2(dzdy, -dzdx)
    return (np.sin(alt) * np.cos(slope_r)
            + np.cos(alt) * np.sin(slope_r) * np.cos(az - aspect_r))


def hillshade(band: np.ndarray, xres=1.0, yres=1.0, *, azimuth=315.0,
              altitude=45.0, z_factor=1.0) -> np.ndarray:
    """Horn hillshade, 1-255 byte convention (gdaldem_lib.cpp)."""
    dzdx, dzdy = _horn_gradients(band, xres, yres)
    dzdx, dzdy = dzdx * z_factor, dzdy * z_factor
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)
    slope_r = np.arctan(np.sqrt(dzdx**2 + dzdy**2))
    aspect_r = np.arctan2(dzdy, -dzdx)
    shade = (np.sin(alt) * np.cos(slope_r)
             + np.cos(alt) * np.sin(slope_r) * np.cos(az - aspect_r))
    return np.clip(1.0 + 254.0 * np.maximum(shade, 0.0), 1, 255).astype(np.uint8)


def _focal_windows(band: np.ndarray) -> np.ndarray:
    """(h, w, 3, 3) view of each cell's 3×3 neighborhood (edge-padded)."""
    from numpy.lib.stride_tricks import sliding_window_view
    return sliding_window_view(_pad_edge(band), (3, 3))


def tpi(band: np.ndarray) -> np.ndarray:
    """Topographic position index: center minus neighbor mean."""
    win = _focal_windows(band)
    nbr_sum = win.sum(axis=(2, 3)) - band.astype(np.float64)
    return band.astype(np.float64) - nbr_sum / 8.0


def tri(band: np.ndarray) -> np.ndarray:
    """Terrain ruggedness index (Wilson): mean |center − neighbor|."""
    win = _focal_windows(band)
    center = band.astype(np.float64)[:, :, None, None]
    return (np.abs(win - center).sum(axis=(2, 3))) / 8.0


def roughness(band: np.ndarray) -> np.ndarray:
    """Neighborhood max − min."""
    win = _focal_windows(band)
    return win.max(axis=(2, 3)) - win.min(axis=(2, 3))


def convolve(band: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Generic odd-sized 2-D convolution (raster neighbors), edge-padded,
    vectorized via sliding windows."""
    from numpy.lib.stride_tricks import sliding_window_view
    k = np.asarray(kernel, dtype=np.float64)
    kh, kw = k.shape
    assert kh % 2 == 1 and kw % 2 == 1
    p = np.pad(band.astype(np.float64), ((kh // 2,), (kw // 2,)), mode="edge")
    win = sliding_window_view(p, (kh, kw))
    return np.einsum("ijkl,kl->ij", win, k[::-1, ::-1])


# ---------------------------------------------------------------------------
# Ray stage wrapper
# ---------------------------------------------------------------------------

def image_op(fn, *, out_fmt: str = "png", extra_cols=None):
    """Wrap a per-image numpy function (pixels → pixels or pixels →
    dict of scalar columns) into a map_batches callable over image rows.

    fn(pixels: np.ndarray, row: dict) → np.ndarray (re-encoded into
    'bytes') or dict (appended as columns)."""

    def batch_fn(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        new_bytes, scalar_cols = [], {}
        for row in rows:
            px = codec_decode(row["bytes"], row["fmt"])
            res = fn(px, row)
            if isinstance(res, dict):
                for k, v in res.items():
                    scalar_cols.setdefault(k, []).append(v)
                new_bytes.append(row["bytes"])
            else:
                if res.ndim == 2:
                    res = res[:, :, None]
                if res.dtype != np.uint8:
                    res = to_uint8(res.astype(np.float64))
                new_bytes.append(codec_encode(res, out_fmt))
        out = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                           pa.array(new_bytes, pa.binary()))
        if scalar_cols:
            for k, v in scalar_cols.items():
                out = out.append_column(k, pa.array(v))
        return out

    return batch_fn


def cutline_clip(px: np.ndarray, gt, geom, nodata=0):
    """gdalwarp -cutline analog (alg/gdalcutline.cpp: the cutline polygon
    is burned into a validity mask on the target grid). Returns
    (clipped_pixels, mask)."""
    from ..core.rastervec import rasterize

    h, w = px.shape[:2]
    mask = rasterize([(geom, 1)], (h, w), gt, dtype=np.uint8).astype(bool)
    if px.ndim == 3:
        out = np.where(mask[:, :, None], px, nodata)
    else:
        out = np.where(mask, px, nodata)
    return out.astype(px.dtype), mask


def mosaic_partial(pxs, gts, ranks, dst_gt, dst_shape,
                   resampling: str = "bilinear", nodata=None):
    """Partial mosaic of several images onto one output grid.

    Returns (values (h,w,bands) float64, rank (h,w) int64, -1=empty).
    Compositing rule: highest rank wins per pixel — ASSOCIATIVE, so
    partials from parallel batches merge in any order (unlike raw
    last-write compositing). rank = image ordinal (mosaic order,
    apps/gdalalg_raster_mosaic.cpp / gdalbuildvrt semantics).
    nodata: scalar or per-band sequence (gdalwarp -srcnodata) — masked
    source pixels never win a destination pixel."""
    from ..core import resample as rs

    dh, dw = dst_shape
    nb = pxs[0].shape[2] if pxs and pxs[0].ndim == 3 else 1
    acc = np.zeros((dh, dw, nb), np.float64)
    rank = np.full((dh, dw), -1, np.int64)
    for px, gt, rk in zip(pxs, gts, ranks):
        warped, valid = rs.warp(px, gt, dst_gt, dst_shape, resampling,
                                nodata=nodata)
        if warped.ndim == 2:
            warped = warped[:, :, None]
        take = valid & (rk > rank)
        acc[take] = warped[take]
        rank[take] = rk
    return acc, rank


def alpha_composite_group(vals, valids, ranks, depth_cap: int = 24):
    """Ordered alpha compositing of co-located fragments: Porter-Duff
    "over" with constant per-layer alpha 1/2 over a transparent
    background, topmost = highest rank (gdalbuildvrt draw order), at
    most ``depth_cap`` contributing layers per pixel.

    Unlike rank-wins (associative, mosaic_partial), "over" is only
    associative along the ordered layer sequence — partials over
    non-contiguous rank subsets cannot merge. The scalable shape is
    therefore a CELL co-shuffle: fragments grouped by destination cell
    and composited in rank order inside the group (pipelines/queries.py
    ::q_mosaic_alpha).

    Returns (comp_scaled int64 (h, w) = composite * 2**depth_cap —
    exact, since alpha powers are dyadic — and depth int32 (h, w)).
    """
    order = np.argsort(np.asarray(ranks))[::-1]
    h, w = np.asarray(valids[0]).shape
    comp = np.zeros((h, w), np.int64)
    depth = np.zeros((h, w), np.int64)
    for j in order:
        m = np.asarray(valids[j], bool) & (depth < depth_cap)
        if not m.any():
            continue
        v = np.asarray(vals[j])[m].astype(np.int64)
        # layer weight 0.5^(depth+1), scaled by 2^depth_cap
        comp[m] += v << (depth_cap - 1 - depth[m])
        depth[m] += 1
    return comp, depth.astype(np.int32)


def mosaic_merge(a_vals, a_rank, b_vals, b_rank):
    """Merge two mosaic partials (associative, commutative given
    distinct ranks)."""
    take = b_rank > a_rank
    out_vals = a_vals.copy()
    out_vals[take] = b_vals[take]
    out_rank = np.maximum(a_rank, b_rank)
    return out_vals, out_rank


# ---------------------------------------------------------------------------
# pansharpen: weighted Brovey (alg/gdalpansharpen.cpp)
# ---------------------------------------------------------------------------

def pansharpen(spectral: np.ndarray, pan: np.ndarray, *,
               weights=None) -> np.ndarray:
    """Weighted-Brovey pansharpening (alg/gdalpansharpen.cpp:471-520
    semantics): out_i = spectral_i * pan / pseudo_pan with pseudo_pan
    = Σ w_i · spectral_i. Spectral bands are bilinearly upsampled onto
    the pan grid when coarser (the reference's default resampling);
    pseudo_pan == 0 → 0 (its zero guard). Returns float64 (caller
    casts/clamps — to_uint8 for byte output).

    Embarrassingly parallel per image: wrap with image_op into a
    map_batches stage, like every other per-image operator here."""
    from ..core.resample import sample_grid

    sp = np.asarray(spectral, np.float64)
    if sp.ndim == 2:
        sp = sp[:, :, None]
    ph, pw = pan.shape[:2]
    sh, sw = sp.shape[:2]
    if (sh, sw) != (ph, pw):
        # center-aligned bilinear upsample onto the pan grid
        # (sample_grid convention: 0.5 = first pixel center)
        cols = (np.arange(pw) + 0.5) * (sw / pw)
        rows = (np.arange(ph) + 0.5) * (sh / ph)
        sx, sy = np.meshgrid(cols, rows)
        sp, _ = sample_grid(sp, sx, sy, "bilinear")
    nb = sp.shape[2]
    w = np.full(nb, 1.0 / nb) if weights is None \
        else np.asarray(weights, np.float64)
    pseudo = (sp * w[None, None, :]).sum(axis=2)
    pan64 = np.asarray(pan, np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(pseudo == 0.0, 0.0, pan64 / pseudo)
    return sp * ratio[:, :, None]


# ---------------------------------------------------------------------------
# nearblack: collar removal
# ---------------------------------------------------------------------------

def nearblack(px: np.ndarray, *, near_dist: int = 15,
              max_non_black: int = 0, white: bool = False,
              colors=None):
    """Collar removal (apps/nearblack_lib.cpp): mask pixels connected
    to the image border by directional runs of near-collar color.

    A pixel is near-black when, for SOME color in ``colors``, every
    band is within ``near_dist`` of it (ProcessLine:592-593; default
    color all-0s, or all-255s with white=True).  GDAL scans top-down
    and bottom-up, each pass doing a per-column vertical check plus
    left→right / right→left horizontal checks; with the default
    max_non_black=0 the result is exactly the union of the four
    directional runs of the near-black mask, which is what we compute
    (vectorized cumulative products/sums instead of the scanline
    state machine).

    max_non_black > 0 tolerates that many non-collar pixels inside a
    run (replaced = inclusive run count ≤ max, ProcessLine:606-609)
    with the reference's edge guard: a non-collar pixel in the
    outermost line/column terminates that run immediately
    (:611-616, :707-713).  One documented divergence: GDAL's second
    (bottom-up) pass re-reads pixels already replaced by the first
    pass, which can cascade a grey-area run one step further; we
    compute the runs on the original mask (identical for
    max_non_black=0, the default).

    Returns (out_pixels, valid_mask) — collar pixels set to the
    replace value (0, or 255 when the single color is white), valid
    False where masked.
    """
    v = np.asarray(px)
    if v.ndim == 2:
        v = v[:, :, None]
    h, w, nb = v.shape
    if colors is None:
        colors = [np.full(nb, 255 if white else 0)]
    iv = v.astype(np.int64)
    near = np.zeros((h, w), bool)
    for col in colors:
        c = np.asarray(col, np.int64).reshape(1, 1, -1)
        near |= (np.abs(iv - c) <= near_dist).all(axis=2)

    nb_cnt = (~near).astype(np.int64)

    def run(counts, axis, reverse):
        c = np.flip(counts, axis=axis) if reverse else counts
        inc = np.cumsum(c, axis=axis)
        rep = inc <= max_non_black
        if max_non_black > 0:
            # edge guard: non-collar data right at the border kills
            # the whole run for that line/column
            first = np.take(c, 0, axis=axis) > 0
            rep &= ~np.expand_dims(first, axis)
        return np.flip(rep, axis=axis) if reverse else rep

    collar = run(nb_cnt, 0, False) | run(nb_cnt, 0, True) \
        | run(nb_cnt, 1, False) | run(nb_cnt, 1, True)

    rep_val = 255 if (len(colors) == 1
                      and np.asarray(colors[0]).flat[0] == 255) else 0
    out = v.copy()
    out[collar] = rep_val
    if px.ndim == 2:
        out = out[:, :, 0]
    return out, ~collar


# ---------------------------------------------------------------------------
# gdaldem color-relief
# ---------------------------------------------------------------------------

def color_relief(values: np.ndarray, ramp, mode: str = "interpolate",
                 nan_color=None):
    """gdaldem color-relief (apps/gdaldem_lib.cpp
    GDALColorReliefGetColor:1641-1807): map elevations through a
    (value → RGBA) ramp.

    ramp: sequence of (value, r, g, b[, a]) sorted ascending.  Modes:
      interpolate — linear between bracketing entries, channel =
          clamp(int(0.5 + lo + ratio·(hi−lo)), 0, 255); values at or
          beyond the ends take the end entry's color (:1691-1731)
      nearest     — closer entry wins, ties to the upper (:1761-1775)
      exact       — exact entries only, else transparent (0,0,0,0)
    NaN values take nan_color (or transparent) — the reference's
    leading-NaN ramp entry special case (:1648-1662).

    Returns (h, w, 4) uint8 RGBA.
    """
    v = np.asarray(values, np.float64)
    ramp = [tuple(e) + (255,) * (5 - len(e)) for e in ramp]
    ev = np.array([e[0] for e in ramp], np.float64)
    cols = np.array([e[1:5] for e in ramp], np.float64)   # (n, 4)
    nseg = len(ramp)
    out = np.zeros(v.shape + (4,), np.uint8)

    nan = np.isnan(v)
    vv = np.where(nan, ev[0], v)

    if mode == "exact":
        for k in range(nseg):
            hit = vv == ev[k]
            out[hit] = cols[k].astype(np.uint8)
    elif mode == "nearest":
        # first entry >= v (the reference's binary search), then the
        # closer of (i-1, i) with ties to i
        i = np.searchsorted(ev, vv, side="left")
        i = np.clip(i, 0, nseg - 1)
        im1 = np.maximum(i - 1, 0)
        pick_lo = (vv - ev[im1]) < (ev[i] - vv)
        idx = np.where(pick_lo, im1, i)
        out[...] = cols[idx].astype(np.uint8)
    elif mode == "interpolate":
        i = np.searchsorted(ev, vv, side="left")
        below = i == 0
        above = i == nseg
        mid = ~below & ~above
        out[below] = cols[0].astype(np.uint8)
        out[above] = cols[-1].astype(np.uint8)
        if mid.any():
            ii = i[mid]
            lo, hi = ev[ii - 1], ev[ii]
            ratio = (vv[mid] - lo) / (hi - lo)
            c = cols[ii - 1] + ratio[:, None] * (cols[ii] - cols[ii - 1])
            out[mid] = np.clip(np.floor(0.5 + c), 0, 255).astype(np.uint8)
    else:
        raise ValueError(f"unknown color-relief mode {mode!r}")

    if nan.any():
        out[nan] = (0, 0, 0, 0) if nan_color is None \
            else tuple(nan_color) + (255,) * (4 - len(nan_color))
    return out


# ---------------------------------------------------------------------------
# hillshade variants: multidirectional / combined / Igor, ZT gradients
# ---------------------------------------------------------------------------

def _zt_gradients(band: np.ndarray, xres=1.0, yres=1.0):
    """Zevenbergen-Thorne gradients (gdaldem_lib.cpp
    GDALSlopeZevenbergenThorneAlg): 2-point central differences instead
    of Horn's 6-point sums; same east/south-positive convention as
    _horn_gradients."""
    p = _pad_edge(band.astype(np.float64))
    d, f = p[1:-1, :-2], p[1:-1, 2:]
    b, h = p[:-2, 1:-1], p[2:, 1:-1]
    return (f - d) / (2.0 * xres), (h - b) / (2.0 * yres)


def _gradients(band, xres, yres, alg):
    if alg == "zt":
        return _zt_gradients(band, xres, yres)
    return _horn_gradients(band, xres, yres)


def hillshade_multidirectional_float(band: np.ndarray, xres=1.0, yres=1.0,
                                     *, altitude=45.0, z_factor=1.0,
                                     alg="horn") -> np.ndarray:
    """Raw multidirectional shade in [0, 1] (USGS OF 92-422 weighting,
    gdaldem_lib.cpp GDALHillshadeMultiDirectionalAlg:1255-1310): the
    sin²(aspect−az) weighted mean of the 225/270/315/360° shades, each
    clamped at 0 before weighting. Flat cells → sin(altitude)."""
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    X, Y = z_factor * dzdx, z_factor * dzdy
    sin_alt = np.sin(np.radians(altitude))
    cos_alt = np.cos(np.radians(altitude))
    s = X * X + Y * Y
    r = np.sqrt(0.5)
    v225 = np.maximum(0.0, sin_alt + cos_alt * r * (X - Y))
    v270 = np.maximum(0.0, sin_alt + cos_alt * X)
    v315 = np.maximum(0.0, sin_alt + cos_alt * r * (X + Y))
    v360 = np.maximum(0.0, sin_alt + cos_alt * Y)
    w225 = 0.5 * s - X * Y
    w270 = X * X
    w315 = 0.5 * s + X * Y
    w360 = Y * Y
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = (w225 * v225 + w270 * v270 + w315 * v315 + w360 * v360) \
            / (2.0 * s) / np.sqrt(1.0 + s)
    return np.where(s == 0.0, sin_alt, avg)


def hillshade_multidirectional(band, xres=1.0, yres=1.0, *, altitude=45.0,
                               z_factor=1.0, alg="horn") -> np.ndarray:
    """Byte (1-255) multidirectional hillshade."""
    avg = hillshade_multidirectional_float(band, xres, yres,
                                           altitude=altitude,
                                           z_factor=z_factor, alg=alg)
    return np.clip(1.0 + 254.0 * avg, 1, 255).astype(np.uint8)


def hillshade_combined(band, xres=1.0, yres=1.0, *, azimuth=315.0,
                       altitude=45.0, z_factor=1.0, alg="horn") -> np.ndarray:
    """Combined shading (gdaldem hillshade -combined,
    GDALHillshadeCombinedAlg:1151-1181): byte = 1 + 254·(1 −
    acos(shade)·atan(|∇z|)·4/π²), clamped to 1 where non-positive."""
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    X, Y = z_factor * dzdx, z_factor * dzdy
    sin_alt = np.sin(np.radians(altitude))
    cos_alt = np.cos(np.radians(altitude))
    az = np.radians(360.0 - azimuth + 90.0)
    s = X * X + Y * Y
    raw = (sin_alt + cos_alt * (Y * np.cos(az) - X * np.sin(az))) \
        / np.sqrt(1.0 + s)
    ang = np.arccos(np.clip(raw, -1.0, 1.0))
    cang = 1.0 - ang * np.arctan(np.sqrt(s)) * (4.0 / np.pi ** 2)
    return np.where(cang <= 0.0, 1.0,
                    1.0 + 254.0 * cang).astype(np.uint8)


def hillshade_igor(band, xres=1.0, yres=1.0, *, azimuth=315.0,
                   z_factor=1.0, alg="horn") -> np.ndarray:
    """Igor's shading (gdaldem hillshade -igor,
    GDALHillshadeIgorAlg:947-1013): shadowness = 1 − (slope°/90)·(1 −
    Δaspect/π), byte = 255·shadowness. Aspect uses the unscaled
    gradient sums, light direction 3π/2 − azimuth."""
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    X, Y = z_factor * dzdx, z_factor * dzdy
    slope_strength = np.degrees(np.arctan(np.sqrt(X * X + Y * Y))) / 90.0
    # aspect from the unscaled sums — same atan2 arguments up to the
    # positive res factors, which do not change the angle for square
    # pixels (the reference assumes them here)
    aspect = np.arctan2(dzdy, -dzdx)
    target = 1.5 * np.pi - np.radians(azimuth)
    diff = np.abs(np.mod(aspect, 2 * np.pi) - np.mod(target, 2 * np.pi))
    diff = np.where(diff > np.pi, 2 * np.pi - diff, diff)
    aspect_strength = 1.0 - diff / np.pi
    shadow = 1.0 - slope_strength * aspect_strength
    return np.clip(255.0 * shadow, 0, 255).astype(np.uint8)


def cutline_blend_density(px: np.ndarray, gt, geom,
                          blend_dist: float) -> np.ndarray:
    """Cutline density mask with blend distance (gdalwarp
    -wo CUTLINE_BLEND_DIST, alg/gdalcutline.cpp — the cutline is burned
    into a *density* mask rather than a binary one; GDALWarpKernel then
    multiplies source contributions by it).

    density = 1 deeper than blend_dist inside the cutline, ramping
    linearly to 0 at the edge, 0 outside: min(1, d/blend_dist) where d
    is the exact Euclidean pixel distance (core EDT) from an interior
    pixel to the nearest exterior pixel. blend_dist is in pixels.
    Returns (h, w) float64 density in [0, 1]."""
    from ..core.rastervec import proximity, rasterize

    h, w = px.shape[:2]
    inside = rasterize([(geom, 1)], (h, w), gt, dtype=np.uint8).astype(bool)
    if blend_dist <= 0:
        return inside.astype(np.float64)
    d = proximity(~inside)              # distance to nearest OUTSIDE px
    return np.where(inside, np.minimum(1.0, d / blend_dist), 0.0)


def apply_density(px: np.ndarray, density: np.ndarray,
                  background=0.0) -> np.ndarray:
    """Blend pixels against a background by density (the warp kernel's
    dst = src·d + dst·(1−d) step for a fresh destination)."""
    d = density[:, :, None] if px.ndim == 3 else density
    return px.astype(np.float64) * d + float(background) * (1.0 - d)


def reclassify_text(px: np.ndarray, text: str, *, nodata=None,
                    dtype=np.float64) -> np.ndarray:
    """The reference's textual reclassification grammar
    (frmts/vrt/vrtreclassifier.h:76-120): ``SOURCE=DEST`` mappings
    separated by ';', SOURCE = constant | interval like ``(3,4]`` /
    ``[7,inf]`` | NO_DATA | DEFAULT; DEST = constant | NO_DATA |
    PASS_THROUGH.  Values matching no mapping raise (the reference
    errors too unless DEFAULT is given).  Later mappings do not
    override earlier ones — first match wins, like the reference's
    ordered interval scan."""
    v = np.asarray(px, np.float64)
    out = np.full(v.shape, np.nan)
    assigned = np.zeros(v.shape, bool)
    default_dst = None
    have_default = False

    def parse_dst(s):
        s = s.strip()
        if s.upper() == "NO_DATA":
            if nodata is None:
                raise ValueError("NO_DATA used but no nodata value set")
            return float(nodata)
        if s.upper() == "PASS_THROUGH":
            return None
        return float(s)

    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        src, _, dst = part.partition("=")
        src = src.strip()
        dval = parse_dst(dst)
        if src.upper() == "DEFAULT":
            have_default = True
            default_dst = dval
            continue
        if src.upper() == "NO_DATA":
            if nodata is None:
                raise ValueError("NO_DATA used but no nodata value set")
            m = (v == float(nodata)) & ~assigned
        elif src[0] in "([":
            lo_inc = src[0] == "["
            if src[-1] not in ")]":
                raise ValueError(f"bad interval {src!r}")
            hi_inc = src[-1] == "]"
            lo_s, hi_s = src[1:-1].split(",")
            lo = -np.inf if lo_s.strip() in ("-inf", "inf") else float(lo_s)
            hi = np.inf if hi_s.strip() == "inf" else float(hi_s)
            m = ((v > lo) | (lo_inc & (v == lo))) \
                & ((v < hi) | (hi_inc & (v == hi))) & ~assigned
        else:
            m = (v == float(src)) & ~assigned
        out[m] = v[m] if dval is None else dval
        assigned |= m
    rest = ~assigned
    if rest.any():
        if not have_default:
            raise ValueError("values with no reclassification mapping "
                             "and no DEFAULT given")
        out[rest] = v[rest] if default_dst is None else default_dst
    return out.astype(dtype)


def tri_riley(band: np.ndarray) -> np.ndarray:
    """Terrain ruggedness index, Riley et al. 1999 variant
    (gdaldem TRI -alg Riley, GDALTRIAlgRiley:2332-2346):
    sqrt(Σ (neighbor − center)²) over the 8-neighborhood."""
    win = _focal_windows(band).astype(np.float64)
    center = band.astype(np.float64)[:, :, None, None]
    d2 = (win - center) ** 2
    # the window includes the center itself (difference 0) — harmless
    return np.sqrt(d2.sum(axis=(2, 3)))


def aspect_trigonometric(band: np.ndarray, xres=1.0, yres=1.0, *,
                         alg: str = "horn",
                         zero_for_flat: bool = False) -> np.ndarray:
    """gdaldem aspect -trigonometric (bAngleAsAzimuth=false,
    gdaldem_lib.cpp:1455-1478): angle counter-clockwise from east in
    0..360 instead of azimuth; flat cells → -9999 (or 0 with
    -zero_for_flat)."""
    dzdx, dzdy = _gradients(band, xres, yres, alg)
    asp = np.degrees(np.arctan2(dzdy, -dzdx))
    asp = np.where(asp < 0, asp + 360.0, asp)
    asp = np.where(asp == 360.0, 0.0, asp)
    flat = (dzdx == 0) & (dzdy == 0)
    return np.where(flat, 0.0 if zero_for_flat else -9999.0, asp)


def neighbors(band: np.ndarray, *, method: str = "mean",
              size: int = 3, kernel=None) -> np.ndarray:
    """gdal raster neighbors (apps/gdalalg_raster_neighbors.cpp:207
    method choices mean|sum|min|max|stddev|median|mode): focal
    statistic over an odd-sized window, optionally kernel-weighted for
    mean/sum (weights ignored by the order statistics, as in the
    reference's VRT kernel source). Edge-padded, vectorized."""
    from numpy.lib.stride_tricks import sliding_window_view

    if kernel is not None:
        k = np.asarray(kernel, np.float64)
        size = k.shape[0]
    if size % 2 != 1:
        raise ValueError("window size must be odd")
    p = np.pad(band.astype(np.float64), size // 2, mode="edge")
    win = sliding_window_view(p, (size, size))
    if method == "mean":
        if kernel is not None:
            s = k.sum()
            return np.einsum("ijkl,kl->ij", win, k) / (s if s else 1.0)
        return win.mean(axis=(2, 3))
    if method == "sum":
        if kernel is not None:
            return np.einsum("ijkl,kl->ij", win, k)
        return win.sum(axis=(2, 3))
    if method == "min":
        return win.min(axis=(2, 3))
    if method == "max":
        return win.max(axis=(2, 3))
    if method == "stddev":
        return win.std(axis=(2, 3))
    if method == "median":
        return np.median(win, axis=(2, 3))
    if method == "mode":
        # most frequent value; ties -> smallest (like the byte LUT path)
        flat = win.reshape(win.shape[0], win.shape[1], -1)
        srt = np.sort(flat, axis=2)
        n = srt.shape[2]
        best_cnt = np.zeros(srt.shape[:2], np.int64)
        best_val = srt[:, :, 0].copy()
        run = np.ones(srt.shape[:2], np.int64)
        for i in range(1, n):
            same = srt[:, :, i] == srt[:, :, i - 1]
            run = np.where(same, run + 1, 1)
            take = run > best_cnt
            best_cnt = np.where(take, run, best_cnt)
            best_val = np.where(take, srt[:, :, i], best_val)
        return best_val
    raise ValueError(f"unknown neighbors method {method!r}")


def band_stack(pxs, *, resampling: str = "near") -> np.ndarray:
    """gdal raster stack / gdalbuildvrt -separate
    (apps/gdalalg_raster_stack.cpp): stack each input's bands into one
    multi-band image on the FIRST input's grid; inputs with other
    dimensions are resampled onto it (the reference's resolution
    alignment)."""
    if not pxs:
        raise ValueError("band_stack needs at least one input")
    first = pxs[0]
    h, w = first.shape[:2]
    out = []
    for px in pxs:
        v = px if px.ndim == 3 else px[:, :, None]
        if v.shape[:2] != (h, w):
            sh, sw = v.shape[:2]
            src_gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
            dst_gt = (0.0, sw / w, 0.0, 0.0, 0.0, sh / h)
            v, _ = warp(v, src_gt, dst_gt, (h, w), resampling)
        out.append(v)
    return np.concatenate(out, axis=2)
