"""Warp/resampling kernels — vectorized numpy, no scipy.

Kernel set mirrors GDAL's published resampling algorithms (reference:
alg/gdalwarper.h:35-69 enum; kernel formulas
alg/gdalresamplingkernels.h:23-60): near, bilinear, cubic (Catmull-Rom,
B=0, C=0.5), cubicspline (B-spline B=1, C=0), lanczos (a=3, 6×6 taps),
plus the area reductions average / mode / min / max / sum used by
overview building (gcore/overview.cpp) and GWKAverageOrMode.

The warp itself is *affine dst→src*: both our source georeferencing and
the mercator tile grid are affine, so the composite pixel mapping is a
single affine transform — GDAL's GenImgProjTransformer chain
(alg/gdaltransformer.cpp:2236) collapses to 6 numbers here, computed
once per (tile, image) pair. Edge handling: source pixels outside the
array contribute nothing; a validity mask is returned so callers can
blend partial coverage (GDAL's density-mask idea, alg/gdalwarper.h).
"""

from __future__ import annotations

import numpy as np

from . import geotransform as gtr

RESAMPLERS = ("near", "bilinear", "cubic", "cubicspline", "lanczos",
              "average", "mode", "min", "max", "sum")


# ---------------------------------------------------------------------------
# 1-D kernel weight functions (alg/gdalresamplingkernels.h)
# ---------------------------------------------------------------------------

def _cubic_weight(x: np.ndarray) -> np.ndarray:
    """Catmull-Rom cubic (B=0, C=0.5): gdalresamplingkernels.h:23-43."""
    ax = np.abs(x)
    w = np.zeros_like(ax)
    m1 = ax <= 1.0
    m2 = (ax > 1.0) & (ax < 2.0)
    w[m1] = ((1.5 * ax - 2.5) * ax * ax + 1.0)[m1]
    w[m2] = (((-0.5 * ax + 2.5) * ax - 4.0) * ax + 2.0)[m2]
    return w


def _bspline_weight(x: np.ndarray) -> np.ndarray:
    """Cubic B-spline (B=1, C=0): gdalresamplingkernels.h:45-60."""
    ax = np.abs(x)
    w = np.zeros_like(ax)
    m1 = ax < 1.0
    m2 = (ax >= 1.0) & (ax < 2.0)
    w[m1] = ((0.5 * ax - 1.0) * ax * ax + 2.0 / 3.0)[m1]
    w[m2] = (((2.0 - ax) ** 3) / 6.0)[m2]
    return w


def _lanczos_weight(x: np.ndarray, a: int = 3) -> np.ndarray:
    w = np.sinc(x) * np.sinc(x / a)
    w[np.abs(x) >= a] = 0.0
    return w


_KERNELS = {
    "cubic": (_cubic_weight, 2),
    "cubicspline": (_bspline_weight, 2),
    "lanczos": (_lanczos_weight, 3),
}


def composite_affine(src_gt, dst_gt):
    """dst pixel → src pixel affine mapping (col_s, row_s) =
    f(col_d, row_d); returns a 6-tuple in geotransform layout."""
    inv = gtr.inverse(src_gt)
    # world = dst_gt(dst_px); src_px = inv(world)
    # compose: src = inv ∘ dst_gt
    c0 = inv[0] + inv[1] * dst_gt[0] + inv[2] * dst_gt[3]
    c1 = inv[1] * dst_gt[1] + inv[2] * dst_gt[4]
    c2 = inv[1] * dst_gt[2] + inv[2] * dst_gt[5]
    f0 = inv[3] + inv[4] * dst_gt[0] + inv[5] * dst_gt[3]
    f1 = inv[4] * dst_gt[1] + inv[5] * dst_gt[4]
    f2 = inv[4] * dst_gt[2] + inv[5] * dst_gt[5]
    return (c0, c1, c2, f0, f1, f2)


def warp(src: np.ndarray, src_gt, dst_gt, dst_shape, resampling: str = "near",
         *, nodata=None):
    """Warp src (h, w) or (h, w, bands) onto a dst grid.

    Returns (dst_pixels float64 or src dtype for 'near', valid_mask bool
    (dh, dw)). Pixels with no source coverage are 0 with valid=False.

    nodata: source pixels equal to this value are EXCLUDED from every
    area reduction (GDAL's nodata-weighted average/mode semantics,
    GDALWarpNoDataMasker + GWKAverageOrMode, alg/gdalwarper.h:77-111 /
    gcore/overview.cpp:1214+): a dst pixel whose window is all-nodata
    comes back invalid. For point kernels (near/bilinear/...) nodata
    source pixels invalidate the sampled result.

    nodata may also be a PER-BAND sequence (len == bands), the
    gdalwarp -srcnodata "v1 v2 ..." form: area reductions exclude each
    band's own value independently (per-band masking); point kernels
    invalidate a pixel when every band matches its value
    (UNIFIED_SRC_NODATA=YES, alg/gdalwarper.cpp GDALWarpNoDataMasker).
    """
    dh, dw = dst_shape
    if src.ndim == 2:
        src = src[:, :, None]
        squeeze = True
    else:
        squeeze = False
    if nodata is not None and not np.isscalar(nodata):
        nodata = np.asarray(nodata, np.float64).reshape(1, 1, -1)
        if nodata.shape[2] == 1:
            nodata = float(nodata[0, 0, 0])
        elif nodata.shape[2] != src.shape[2]:
            raise ValueError(
                f"per-band nodata has {nodata.shape[2]} values for "
                f"{src.shape[2]} bands")
    m = composite_affine(src_gt, dst_gt)

    if resampling in ("average", "mode", "min", "max", "sum",
                      "rms", "med", "q1", "q3"):
        return _warp_area(src, m, (dh, dw), resampling, squeeze,
                          nodata=nodata)
    if nodata is not None:
        # point kernels: sample, then invalidate dst pixels whose
        # nearest source pixel is nodata (conservative mask via 'near')
        out, valid = warp(src if not squeeze else src[:, :, 0],
                          src_gt, dst_gt, dst_shape, resampling)
        nd_near, v2 = warp((src == nodata).all(axis=2).astype(np.uint8),
                           src_gt, dst_gt, dst_shape, "near")
        valid = valid & v2 & (nd_near == 0)
        return out, valid

    # dst pixel centers
    cols_d = np.arange(dw, dtype=np.float64) + 0.5
    rows_d = np.arange(dh, dtype=np.float64) + 0.5
    if resampling == "bilinear" and abs(m[2]) < 1e-15 and abs(m[4]) < 1e-15:
        # axis-aligned fast path: the mapping separates into 1-D x / y
        # interpolations (two 1-D weight vectors instead of (dh, dw)
        # weight planes) — the tile-render hot path
        out, valid = _bilinear_separable(src, m[0] + m[1] * cols_d,
                                         m[3] + m[5] * rows_d)
        return (out[:, :, 0] if squeeze else out), valid
    # src pixel-space coordinates of each dst pixel center (continuous)
    sx = m[0] + m[1] * cols_d[None, :] + m[2] * rows_d[:, None]
    sy = m[3] + m[4] * cols_d[None, :] + m[5] * rows_d[:, None]
    out, valid = sample_grid(src, sx, sy, resampling)
    return (out[:, :, 0] if squeeze else out), valid


def _bilinear_separable(src: np.ndarray, sx: np.ndarray, sy: np.ndarray):
    """Bilinear sampling when sx depends only on dst col and sy only on
    dst row: interpolate rows first, then columns. Outside-source taps
    get zero weight (same edge semantics as the general kernel)."""
    sh, sw, nb = src.shape
    fx = sx - 0.5
    fy = sy - 0.5
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    tx = fx - x0
    ty = fy - y0
    okx0 = (x0 >= 0) & (x0 < sw)
    okx1 = (x0 + 1 >= 0) & (x0 + 1 < sw)
    oky0 = (y0 >= 0) & (y0 < sh)
    oky1 = (y0 + 1 >= 0) & (y0 + 1 < sh)
    xc0 = np.clip(x0, 0, sw - 1)
    xc1 = np.clip(x0 + 1, 0, sw - 1)
    yc0 = np.clip(y0, 0, sh - 1)
    yc1 = np.clip(y0 + 1, 0, sh - 1)
    wx0 = (1 - tx) * okx0
    wx1 = tx * okx1
    wy0 = (1 - ty) * oky0
    wy1 = ty * oky1
    srcf = src.astype(np.float64)
    # rows: (dh, sw, nb) weighted pair of source rows
    rows = (srcf[yc0] * wy0[:, None, None] + srcf[yc1] * wy1[:, None, None])
    # cols: gather the two column taps from the interpolated rows
    out = rows[:, xc0] * wx0[None, :, None] + rows[:, xc1] * wx1[None, :, None]
    wsum = (wy0 + wy1)[:, None] * (wx0 + wx1)[None, :]
    valid = wsum > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(valid[:, :, None], out / np.maximum(wsum, 1e-300)[:, :, None], 0.0)
    return out, valid


def sample_grid(src: np.ndarray, sx: np.ndarray, sy: np.ndarray,
                resampling: str = "near"):
    """Sample src (h, w, nb) at continuous source pixel coordinates
    (sx, sy) — point-kernel core shared by the affine warp and the
    transformer-driven reprojection warp (GDALWarpKernel's per-pixel
    gather, alg/gdalwarpkernel.cpp specializations).

    sx/sy are arrays of any shape giving src pixel-space positions
    (0.5 = first pixel center). Returns (values shape+(*nb,), valid)."""
    sh, sw, nb = src.shape
    dh, dw = sx.shape

    if resampling == "near":
        ix = np.floor(sx).astype(np.int64)
        iy = np.floor(sy).astype(np.int64)
        valid = (ix >= 0) & (ix < sw) & (iy >= 0) & (iy < sh)
        out = np.zeros((dh, dw, nb), dtype=src.dtype)
        out[valid] = src[iy[valid], ix[valid]]
        return out, valid

    if resampling == "bilinear":
        fx = sx - 0.5
        fy = sy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        tx = (fx - x0)[..., None]
        ty = (fy - y0)[..., None]
        out = np.zeros((dh, dw, nb), dtype=np.float64)
        wsum = np.zeros((dh, dw, 1), dtype=np.float64)
        for dyy in (0, 1):
            for dxx in (0, 1):
                xx = x0 + dxx
                yy = y0 + dyy
                wgt = (tx if dxx else 1 - tx) * (ty if dyy else 1 - ty)
                ok = (xx >= 0) & (xx < sw) & (yy >= 0) & (yy < sh)
                xs = np.clip(xx, 0, sw - 1)
                ys = np.clip(yy, 0, sh - 1)
                v = src[ys, xs].astype(np.float64)
                wgt = wgt * ok[..., None]
                out += v * wgt
                wsum += wgt
        valid = wsum[:, :, 0] > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(wsum > 0, out / np.maximum(wsum, 1e-300), 0.0)
        return out, valid

    if resampling in _KERNELS:
        kfn, radius = _KERNELS[resampling]
        fx = sx - 0.5
        fy = sy - 0.5
        x0 = np.floor(fx).astype(np.int64)
        y0 = np.floor(fy).astype(np.int64)
        out = np.zeros((dh, dw, nb), dtype=np.float64)
        wsum = np.zeros((dh, dw, 1), dtype=np.float64)
        srcf = src.reshape(-1, nb).astype(np.float64)
        taps = range(-radius + 1, radius + 1)
        # x-weights/masks/indices depend only on dxx — hoist out of the
        # row loop (computed once instead of once per dyy)
        xw, xok, xsi = {}, {}, {}
        for dxx in taps:
            xx = x0 + dxx
            xw[dxx] = kfn(xx - fx)
            xok[dxx] = (xx >= 0) & (xx < sw)
            xsi[dxx] = np.clip(xx, 0, sw - 1)
        for dyy in taps:
            yy = y0 + dyy
            wy = kfn(yy - fy)
            oky = (yy >= 0) & (yy < sh)
            ybase = np.clip(yy, 0, sh - 1) * sw
            for dxx in taps:
                ok = oky & xok[dxx]
                wgt = (xw[dxx] * wy * ok)[..., None]
                # flat take is measurably faster than 2-D fancy indexing
                v = srcf.take(ybase + xsi[dxx], axis=0)
                out += v * wgt
                wsum += wgt
        valid = wsum[:, :, 0] > 1e-10
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(wsum > 1e-10, out / np.maximum(wsum, 1e-300), 0.0)
        return out, valid

    raise ValueError(f"unknown resampling {resampling!r}")


def _warp_area(src, m, dst_shape, op, squeeze, nodata=None):
    """Area-based reductions: each dst pixel covers a rectangle of source
    pixels (axis-aligned mapping assumed — the mercator tile case);
    mirrors GWKAverageOrMode / overview average semantics."""
    dh, dw = dst_shape
    sh, sw, nb = src.shape
    if abs(m[2]) > 1e-12 or abs(m[4]) > 1e-12:
        raise ValueError("area resampling requires an axis-aligned mapping")
    # dst pixel [j, j+1) x [i, i+1) maps to src x in [m0+m1*j, m0+m1*(j+1))
    xe = m[0] + m[1] * np.arange(dw + 1, dtype=np.float64)
    ye = m[3] + m[5] * np.arange(dh + 1, dtype=np.float64)
    if m[1] < 0:
        xe = xe[::-1]
    if m[5] < 0:
        ye = ye[::-1]
    x0 = np.clip(np.floor(xe[:-1] + 1e-9).astype(np.int64), 0, sw)
    x1 = np.clip(np.ceil(xe[1:] - 1e-9).astype(np.int64), 0, sw)
    y0 = np.clip(np.floor(ye[:-1] + 1e-9).astype(np.int64), 0, sh)
    y1 = np.clip(np.ceil(ye[1:] - 1e-9).astype(np.int64), 0, sh)
    if m[1] < 0:
        x0, x1 = x0[::-1], x1[::-1]
    if m[5] < 0:
        y0, y1 = y0[::-1], y1[::-1]

    out = np.zeros((dh, dw, nb), dtype=np.float64)
    valid = np.zeros((dh, dw), dtype=bool)
    nd_mask = None
    if nodata is not None:
        nd_mask = (src == nodata) if src.ndim == 3 else (src == nodata)
    # integral-image path for average/sum/rms; loop fallback for
    # order statistics (mode/min/max/med/q1/q3)
    if op in ("average", "sum", "rms"):
        f = src.astype(np.float64)
        if nd_mask is not None:
            f = np.where(nd_mask, 0.0, f)
        if op == "rms":                     # alg/gdalwarper.h GRA_RMS
            f = f * f
        ii = np.zeros((sh + 1, sw + 1, nb), dtype=np.float64)
        ii[1:, 1:] = np.cumsum(np.cumsum(f, axis=0), axis=1)
        Y0 = y0[:, None]; Y1 = y1[:, None]; X0 = x0[None, :]; X1 = x1[None, :]
        tot = (ii[Y1, X1] - ii[Y0, X1] - ii[Y1, X0] + ii[Y0, X0])
        if nd_mask is None:
            cnt = ((y1[:, None] - y0[:, None])
                   * (x1[None, :] - x0[None, :]))[..., None]                 * np.ones((1, 1, nb), np.int64)
        else:
            # per-band VALID count via an integral image of the mask
            vi = np.zeros((sh + 1, sw + 1, nb), dtype=np.int64)
            vi[1:, 1:] = np.cumsum(np.cumsum(
                (~nd_mask).astype(np.int64), axis=0), axis=1)
            cnt = (vi[Y1, X1] - vi[Y0, X1] - vi[Y1, X0] + vi[Y0, X0])
        valid = (cnt > 0).any(axis=2)
        cntf = np.maximum(cnt, 1).astype(np.float64)
        if op == "sum":
            out = tot
        elif op == "average":
            out = tot / cntf
        else:
            out = np.sqrt(tot / cntf)
    else:
        for i in range(dh):
            if y1[i] <= y0[i]:
                continue
            for j in range(dw):
                if x1[j] <= x0[j]:
                    continue
                win = src[y0[i]:y1[i], x0[j]:x1[j]].reshape(-1, nb)
                if nd_mask is not None:
                    wmask = nd_mask[y0[i]:y1[i], x0[j]:x1[j]].reshape(-1, nb)
                    keep = ~wmask.all(axis=1)
                    win = win[keep]
                    if not len(win):
                        continue
                valid[i, j] = True
                if op == "min":
                    out[i, j] = win.min(axis=0)
                elif op == "max":
                    out[i, j] = win.max(axis=0)
                elif op in ("med", "q1", "q3"):
                    # GRA_Med/Q1/Q3 (alg/gdalwarper.h:35-69): linear-
                    # interpolated quantiles of the covered source px
                    qq = {"med": 50.0, "q1": 25.0, "q3": 75.0}[op]
                    out[i, j] = np.percentile(win.astype(np.float64), qq,
                                              axis=0)
                else:  # mode
                    for b in range(nb):
                        vals, counts = np.unique(win[:, b], return_counts=True)
                        out[i, j, b] = vals[np.argmax(counts)]
    return (out[:, :, 0] if squeeze else out), valid


def downsample2x_average(src: np.ndarray) -> np.ndarray:
    """2× box-filter downsample (overview cascade 4→1 combine;
    gcore/overview.cpp average semantics for even sizes)."""
    h, w = src.shape[:2]
    assert h % 2 == 0 and w % 2 == 0, "tile sizes are powers of two"
    if src.ndim == 2:
        a = src.reshape(h // 2, 2, w // 2, 2).astype(np.float64)
        return a.mean(axis=(1, 3))
    a = src.reshape(h // 2, 2, w // 2, 2, src.shape[2]).astype(np.float64)
    return a.mean(axis=(1, 3))


def downsample2x(src: np.ndarray, alg: str = "average") -> np.ndarray:
    """2× overview reduction with the gcore/overview.cpp algorithm set:
    average (box), rms, mode (majority of the 4 children), min, max,
    near (top-left child).

    Results are float64, except "average" over uint8, which stays
    uint8: (a + b + c + d + 2) >> 2 in uint16 is the float mean rounded
    half up (to_uint8 of it), byte for byte, at a fraction of the cost."""
    h, w = src.shape[:2]
    assert h % 2 == 0 and w % 2 == 0, "tile sizes are powers of two"
    squeeze = src.ndim == 2
    s = src[:, :, None] if squeeze else src
    q = s.reshape(h // 2, 2, w // 2, 2, s.shape[2])
    if alg == "average" and s.dtype == np.uint8:
        acc = q[:, 0, :, 0].astype(np.uint16)
        acc += q[:, 0, :, 1]
        acc += q[:, 1, :, 0]
        acc += q[:, 1, :, 1]
        acc += 2
        out = (acc >> 2).astype(np.uint8)
        return out[:, :, 0] if squeeze else out
    if np.issubdtype(s.dtype, np.complexfloating):
        # complex: reduce real/imag independently (overview.cpp treats
        # complex as interleaved component planes); only mean-like and
        # near reductions are defined for complex in the reference
        if alg not in ("average", "near"):
            raise ValueError(f"overview {alg!r} undefined for complex")
        out = (q.astype(np.complex128).mean(axis=(1, 3))
               if alg == "average" else q[:, 0, :, 0].astype(np.complex128))
        return out[:, :, 0] if squeeze else out
    if alg == "average":
        out = q.astype(np.float64).mean(axis=(1, 3))
    elif alg == "rms":
        out = np.sqrt((q.astype(np.float64) ** 2).mean(axis=(1, 3)))
    elif alg == "near":
        out = q[:, 0, :, 0].astype(np.float64)
    elif alg == "min":
        out = q.min(axis=(1, 3)).astype(np.float64)
    elif alg == "max":
        out = q.max(axis=(1, 3)).astype(np.float64)
    elif alg in ("med", "q1", "q3"):
        qq = {"med": 50.0, "q1": 25.0, "q3": 75.0}[alg]
        win = q.transpose(0, 2, 4, 1, 3).reshape(h // 2, w // 2,
                                                 s.shape[2], 4)
        out = np.percentile(win.astype(np.float64), qq, axis=3)
    elif alg == "mode":
        # majority of the 4 children; ties resolved toward the smallest
        # value (overview.cpp mode semantics for small neighborhoods)
        flat = q.transpose(0, 2, 4, 1, 3).reshape(h // 2, w // 2,
                                                  s.shape[2], 4)
        vals = np.sort(flat, axis=-1)
        # run lengths within the sorted 4: count occurrences of each
        best = vals[..., 0].astype(np.float64)
        best_n = np.ones(best.shape, np.int64)
        cur = vals[..., 0].astype(np.float64)
        cur_n = np.ones(best.shape, np.int64)
        for i in range(1, 4):
            v = vals[..., i].astype(np.float64)
            same = v == cur
            cur_n = np.where(same, cur_n + 1, 1)
            cur = v
            take = cur_n > best_n
            best = np.where(take, cur, best)
            best_n = np.where(take, cur_n, best_n)
        out = best
    else:
        raise ValueError(f"unknown overview algorithm {alg!r}")
    return out[:, :, 0] if squeeze else out


def to_uint8(arr: np.ndarray) -> np.ndarray:
    """Round-half-up + clamp to byte range (GDALCopyWords float→byte)."""
    return np.clip(np.floor(arr + 0.5), 0, 255).astype(np.uint8)
