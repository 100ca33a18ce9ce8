"""OziExplorer .MAP georeferencing wrapper.

A .map file is a text sidecar: line 1 the signature ("OziExplorer
Map Data File Version …"), line 3 the image path, then ``Point``
lines carrying pixel coordinates plus either geographic (deg +
decimal minutes, N/S/E/W) or cartesian grid coordinates, an
optional ``MSF`` map-scale factor dividing the pixel coordinates,
and projection lines (``Map Projection,<name>`` + ``Projection
Setup,…``).  The reference loads it via GDALLoadOziMapFile
(gcore/gdal_misc.cpp:2042-2240) + importFromOzi (ogr/ogr_srs_ozi.cpp)
and fits an affine geotransform from the GCPs, falling back to raw
GCPs when no first-order fit works; the underlying image is opened
as the real dataset (frmts/map/mapdataset.cpp).

This port supports the Latitude/Longitude, Mercator, Transverse
Mercator and UTM projections through the engine's own CRS kernels
(core/srs.py); geographic Points are forward-projected before the
fit, exactly like the reference's coordinate-transformation step.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["read_ozi_map"]


def _proj_for(name: str, setup: list[str], datum: str):
    """Ozi projection name + 'Projection Setup' tokens → proj string
    (WGS 84 ellipsoid; Ozi datum list beyond WGS 84 is out of scope
    and documented)."""
    name = name.strip().lower()

    def f(i, default=0.0):
        try:
            return float(setup[i])
        except (IndexError, ValueError):
            return default

    if "latitude/longitude" in name:
        return "+proj=longlat +ellps=WGS84"
    if "(utm)" in name or name == "utm":
        return None  # zone resolved from the first Point line
    if "transverse mercator" in name:
        return (f"+proj=tmerc +lat_0={f(1)} +lon_0={f(2)} "
                f"+k={f(3, 1.0)} +x_0={f(4)} +y_0={f(5)} +ellps=WGS84")
    if "mercator" in name:
        return (f"+proj=merc +lat_ts={f(1)} +lon_0={f(2)} "
                f"+x_0={f(4)} +y_0={f(5)} +ellps=WGS84")
    raise ValueError(f"Ozi projection {name!r} not supported")


def _fit_geotransform(gcps):
    """GDALGCPsToGeoTransform analog: exact least-squares affine; on
    >= 3 points accept only when the pixel-space residual is tiny."""
    n = len(gcps)
    if n < 2:
        return None
    px = np.array([g[0] for g in gcps])
    ln = np.array([g[1] for g in gcps])
    X = np.array([g[2] for g in gcps])
    Y = np.array([g[3] for g in gcps])
    if n == 2:
        dpx = px[1] - px[0]
        dln = ln[1] - ln[0]
        if dpx == 0 or dln == 0:
            return None
        gt1 = (X[1] - X[0]) / dpx
        gt5 = (Y[1] - Y[0]) / dln
        return (X[0] - px[0] * gt1, gt1, 0.0,
                Y[0] - ln[0] * gt5, 0.0, gt5)
    A = np.column_stack([np.ones(n), px, ln])
    cx, res_x, *_ = np.linalg.lstsq(A, X, rcond=None)
    cy, res_y, *_ = np.linalg.lstsq(A, Y, rcond=None)
    gt = (cx[0], cx[1], cx[2], cy[0], cy[1], cy[2])
    # residual check in pixel units
    Xf = A @ cx
    Yf = A @ cy
    scale = max(abs(cx[1]), abs(cy[2]), 1e-12)
    err = max(np.abs(Xf - X).max(), np.abs(Yf - Y).max()) / scale
    return gt if err < 0.25 else None


def read_ozi_map(path: str):
    """Open an OziExplorer .map → ``(pixels, geotransform, nodata,
    meta)`` with ``meta['crs']`` (proj string) and ``meta['gcps']``
    when no affine fit is possible."""
    with open(path, errors="replace") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh]
    if not lines or "OziExplorer Map Data File" not in lines[0]:
        raise ValueError("not an OziExplorer map file")

    # image path: line 3 (0-based 2); try absolute, then siblings
    img = None
    if len(lines) > 2:
        cand = lines[2].strip()
        for p in (cand, os.path.join(os.path.dirname(path),
                                     os.path.basename(
                                         cand.replace("\\", "/")))):
            if p and os.path.exists(p):
                img = p
                break
    if img is None:
        base = os.path.splitext(path)[0]
        for ext in (".png", ".jpg", ".jpeg", ".tif", ".bmp", ".gif"):
            if os.path.exists(base + ext):
                img = base + ext
                break
    if img is None:
        raise ValueError(f"Ozi map: image file not found for {path}")

    msf = 1.0
    proj_name = "latitude/longitude"
    setup: list[str] = []
    utm_zone = None
    utm_south = False
    points = []  # (pixel, line, lon/east, lat/north, is_geo)
    for line in lines[4:]:
        tok = [t.strip() for t in line.split(",")]
        if not tok:
            continue
        if tok[0].upper().startswith("MSF") and len(tok) >= 2:
            try:
                v = float(tok[1])
                if v > 0.01:
                    msf = v
            except ValueError:
                pass
        elif tok[0].lower() == "map projection" and len(tok) >= 2:
            proj_name = tok[1]
        elif tok[0].lower() == "projection setup":
            setup = tok
        elif tok[0].startswith("Point") and len(tok) >= 17 and \
                tok[2] and tok[3]:
            pxv = float(tok[2]) / msf
            lnv = float(tok[3]) / msf
            if tok[6] and tok[7] and tok[9] and tok[10]:
                lat = float(tok[6]) + float(tok[7]) / 60.0
                lon = float(tok[9]) + float(tok[10]) / 60.0
                if tok[11].upper() == "W":
                    lon = -lon
                if tok[8].upper() == "S":
                    lat = -lat
                points.append((pxv, lnv, lon, lat, True))
                if len(tok) >= 16 and tok[13]:
                    try:
                        utm_zone = int(tok[13])
                        utm_south = tok[16].upper() == "S" \
                            if len(tok) > 16 and tok[16] else lat < 0
                    except ValueError:
                        pass
            elif len(tok) >= 16 and tok[14] and tok[15]:
                points.append((pxv, lnv, float(tok[14]),
                               float(tok[15]), False))
                if tok[13]:
                    try:
                        utm_zone = int(tok[13])
                    except ValueError:
                        pass

    proj = _proj_for(proj_name, setup, "WGS 84")
    if proj is None:  # UTM: zone from the points
        if utm_zone is None:
            geo = [p for p in points if p[4]]
            if geo:
                utm_zone = int((geo[0][2] + 180) // 6) + 1
                utm_south = geo[0][3] < 0
            else:
                raise ValueError("Ozi map: UTM zone unresolved")
        proj = (f"+proj=utm +zone={utm_zone} "
                f"{'+south ' if utm_south else ''}+ellps=WGS84")

    from ..core.srs import crs_from
    crs = crs_from(proj)
    gcps = []
    for pxv, lnv, a, b, is_geo in points:
        if is_geo and crs.params["kind"] != "longlat":
            x, y = crs.proj.forward(np.float64(a), np.float64(b))
            gcps.append((pxv, lnv, float(x), float(y)))
        else:
            gcps.append((pxv, lnv, a, b))

    from .raster import read_raster
    px, _, nodata, meta = read_raster(img)
    meta = dict(meta)
    meta["driver"] = "MAP"
    meta["crs"] = proj
    meta["image"] = img
    gt = _fit_geotransform(gcps)
    if gt is None and gcps:
        meta["gcps"] = [(p, l, x, y, 0.0) for p, l, x, y in gcps]
    return np.asarray(px), gt, nodata, meta
