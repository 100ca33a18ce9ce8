"""NTv2 datum-shift grid (.gsb) reader — frmts/raw/ntv2dataset.cpp
analog, parsed from the public Canadian NTv2 format description.

Layout: 11 overview records of 16 bytes (8-byte key + 8-byte value;
NUM_OREC's int32 value 11 doubles as the endianness probe), then per
sub-grid 11 header records (S_LAT/N_LAT/E_LONG/W_LONG/LAT_INC/
LONG_INC in arc-seconds, longitudes positive WEST, GS_COUNT int32)
followed by GS_COUNT nodes of 4 float32: latitude shift, longitude
shift (arc-seconds, positive west), latitude error, longitude error.
Nodes run south→north, east→west; like the reference driver the
raster is presented north-up / east-positive by reversing both axes
(ntv2dataset.cpp OpenGrid: RawRasterBand with negative steps), and
the geotransform is node-centre-shifted:
x0 = (−W_LONG − LONG_INC/2)/3600, y0 = (N_LAT + LAT_INC/2)/3600.

Golden: test_ntv2_le.gsb / test_ntv2_be.gsb band-2 checksum 10, gt
(−5.55, 7.8, 0, 52.05, 0, −5.55) within the reference's gt_epsilon
(autotest/gdrivers/ntv2.py test_ntv2_1/2 with inc/100 tolerance).

Velocity-grid files (24-byte records, 6 float32 bands of mm/year
east/north/up velocities + errors — NUM_SREC key found at byte 24
instead of 16, ntv2dataset.cpp knMAX_RECORD_SIZE) read and write with
the same node ordering; NTv2Grid.shift rejects them by name since
velocities are not datum shifts.
"""

from __future__ import annotations

import struct

import numpy as np

_REC = 16


def sniff_ntv2(buf: bytes) -> bool:
    return buf[:8] == b"NUM_OREC"


def _num(buf: bytes, off: int, fmt_i: str) -> int:
    return struct.unpack_from(fmt_i, buf, off + 8)[0]


def _dbl(buf: bytes, off: int, fmt_d: str) -> float:
    return struct.unpack_from(fmt_d, buf, off + 8)[0]


def _txt(buf: bytes, off: int) -> str:
    return buf[off + 8:off + 16].decode("ascii", "replace").strip()


def parse_ntv2(buf: bytes):
    """→ (meta, [subgrid dicts]); each subgrid has bounds (arcsec,
    positive west as stored), increments, count and node offset.
    Record size is probed like the reference driver: NUM_SREC at
    byte 16 = classic 16-byte records (4 bands), at byte 24 = the
    velocity-grid variant (24-byte records, 6 bands, e.g.
    NAD83v70VG.gvb; ntv2dataset.cpp knMAX_RECORD_SIZE)."""
    if not sniff_ntv2(buf):
        raise ValueError("not an NTv2 .gsb file (no NUM_OREC)")
    if buf[16:24].upper().startswith(b"NUM_SREC"):
        rec = 16
    elif buf[24:32].upper().startswith(b"NUM_SREC"):
        rec = 24
    else:
        raise ValueError("NTv2 NUM_SREC record not found at byte "
                         "16 or 24")
    (le_probe,) = struct.unpack_from("<i", buf, 8)
    endian = "<" if le_probe == 11 else ">"
    fmt_i, fmt_d = endian + "i", endian + "d"
    if struct.unpack_from(fmt_i, buf, 8)[0] != 11:
        raise ValueError("NTv2 NUM_OREC != 11")
    n_sub = _num(buf, 2 * rec, fmt_i)
    meta = {
        "GS_TYPE": _txt(buf, 3 * rec),
        "VERSION": _txt(buf, 4 * rec),
        "SYSTEM_F": _txt(buf, 5 * rec),
        "SYSTEM_T": _txt(buf, 6 * rec),
        "MAJOR_F": _dbl(buf, 7 * rec, fmt_d),
        "MINOR_F": _dbl(buf, 8 * rec, fmt_d),
        "MAJOR_T": _dbl(buf, 9 * rec, fmt_d),
        "MINOR_T": _dbl(buf, 10 * rec, fmt_d),
        "endian": endian,
        "record_size": rec,
    }
    subs = []
    off = 11 * rec
    for _ in range(n_sub):
        if buf[off:off + 8] != b"SUB_NAME":
            raise ValueError("NTv2 sub-grid header out of sync")
        gs_count = _num(buf, off + 10 * rec, fmt_i)
        subs.append({
            "name": _txt(buf, off),
            "parent": _txt(buf, off + rec),
            "s_lat": _dbl(buf, off + 4 * rec, fmt_d),
            "n_lat": _dbl(buf, off + 5 * rec, fmt_d),
            "e_long": _dbl(buf, off + 6 * rec, fmt_d),
            "w_long": _dbl(buf, off + 7 * rec, fmt_d),
            "lat_inc": _dbl(buf, off + 8 * rec, fmt_d),
            "long_inc": _dbl(buf, off + 9 * rec, fmt_d),
            "gs_count": gs_count,
            "data_off": off + 11 * rec,
        })
        off += (11 + gs_count) * rec
    return meta, subs


def decode_ntv2(buf: bytes, grid: int = 0):
    """→ (pixels (h, w, 4) float32, geotransform, nodata=None, meta).
    Bands: 1 latitude shift, 2 longitude shift (arc-seconds, positive
    west), 3/4 accuracies — the reference's band order/descriptions."""
    meta, subs = parse_ntv2(buf)
    if not 0 <= grid < len(subs):
        raise ValueError(f"NTv2 sub-grid {grid} not in file "
                         f"(has {len(subs)})")
    g = subs[grid]
    # reference negates the positive-west bounds before sizing
    e_long, w_long = -g["e_long"], -g["w_long"]
    ncols = int((e_long - w_long) / g["long_inc"] + 1.5)
    nrows = int((g["n_lat"] - g["s_lat"]) / g["lat_inc"] + 1.5)
    if ncols * nrows != g["gs_count"]:
        raise ValueError("NTv2 GS_COUNT does not match grid extent")
    nbands = meta["record_size"] // 4          # 4 classic, 6 velocity
    nodes = np.frombuffer(
        buf, meta["endian"] + "f4", count=g["gs_count"] * nbands,
        offset=g["data_off"]).reshape(nrows, ncols, nbands)
    # stored south→north, east→west → flip both to north-up/east+
    px = np.ascontiguousarray(nodes[::-1, ::-1, :]).astype(np.float32)
    gt = ((w_long - g["long_inc"] * 0.5) / 3600.0,
          g["long_inc"] / 3600.0, 0.0,
          (g["n_lat"] + g["lat_inc"] * 0.5) / 3600.0, 0.0,
          -g["lat_inc"] / 3600.0)
    if nbands == 4:
        descs = ["Latitude Offset (arc seconds)",
                 "Longitude Offset (arc seconds)",
                 "Latitude Error", "Longitude Error"]
    else:
        # velocity variant: easting/northing order, contrary to the
        # classic lat/long order (ntv2dataset.cpp OpenGrid, verified
        # there on NAD83v70VG.gvb against the TRX software)
        descs = ["East velocity (mm/year)", "North velocity (mm/year)",
                 "Up velocity (mm/year)",
                 "East velocity Error (mm/year)",
                 "North velocity Error (mm/year)",
                 "Up velocity Error (mm/year)"]
    out_meta = dict(meta)
    out_meta.update({"sub_name": g["name"], "n_subgrids": len(subs),
                     "crs": "EPSG:4326",
                     "band_descriptions": descs})
    return px, gt, None, out_meta


class NTv2Grid:
    """Decoded shift grid with bilinear forward/inverse application —
    build once (per actor), apply per batch."""

    def __init__(self, buf: bytes, grid: int = 0):
        self.px, self.gt, _, self.meta = decode_ntv2(buf, grid)
        if self.px.shape[2] != 4:
            raise ValueError("NTv2 velocity grids (6-band) carry "
                             "mm/year velocities, not datum shifts")

    def shift(self, lon, lat):
        """Datum shift FROM the grid's source datum: NTv2 longitude
        shifts are positive WEST so they subtract from east-positive
        longitude; points outside pass through unchanged (PROJ
        hgridshift convention)."""
        px, gt = self.px, self.gt
        lon = np.asarray(lon, np.float64)
        lat = np.asarray(lat, np.float64)
        h, w = px.shape[:2]
        fx = (lon - gt[0]) / gt[1] - 0.5   # node-centre coordinates
        fy = (lat - gt[3]) / gt[5] - 0.5
        eps = 1e-9                         # PROJ-style edge tolerance
        inside = (fx >= -eps) & (fx <= w - 1 + eps) \
            & (fy >= -eps) & (fy <= h - 1 + eps)
        fxc = np.clip(fx, 0, w - 1)
        fyc = np.clip(fy, 0, h - 1)
        x0 = np.clip(np.floor(fxc).astype(np.int64), 0, max(w - 2, 0))
        y0 = np.clip(np.floor(fyc).astype(np.int64), 0, max(h - 2, 0))
        tx = fxc - x0
        ty = fyc - y0
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)

        def bilerp(band):
            v = px[:, :, band].astype(np.float64)
            return (v[y0, x0] * (1 - tx) * (1 - ty)
                    + v[y0, x1] * tx * (1 - ty)
                    + v[y1, x0] * (1 - tx) * ty
                    + v[y1, x1] * tx * ty)

        dlat = bilerp(0) / 3600.0
        dlon = -bilerp(1) / 3600.0         # positive west → east term
        return (np.where(inside, lon + dlon, lon),
                np.where(inside, lat + dlat, lat))

    def shift_inverse(self, lon, lat, iterations: int = 4):
        """Target-datum → source-datum by fixed-point iteration (the
        PROJ inverse-hgridshift scheme)."""
        lon = np.asarray(lon, np.float64)
        lat = np.asarray(lat, np.float64)
        glon, glat = lon.copy(), lat.copy()
        for _ in range(iterations):
            flon, flat = self.shift(glon, glat)
            glon = glon + (lon - flon)
            glat = glat + (lat - flat)
        return glon, glat


def encode_ntv2(px: np.ndarray, *, lat_min: float, lat_max: float,
                lon_min: float, lon_max: float,
                name: str = "GRID0") -> bytes:
    """Write a single-subgrid NTv2 .gsb (little-endian) from a
    north-up / east-positive (h, w, 4) float32 array whose node
    centres span [lon_min..lon_max] × [lat_min..lat_max] degrees —
    the inverse of decode_ntv2's presentation (reference driver has
    Create support too, ntv2dataset.cpp). An (h, w, 6) array writes
    the 24-byte-record velocity-grid variant."""
    px = np.ascontiguousarray(px, np.float32)
    if px.ndim != 3 or px.shape[2] not in (4, 6):
        raise ValueError("NTv2 encode needs an (h, w, 4|6) array")
    h, w = px.shape[:2]
    if h < 2 or w < 2:
        raise ValueError("NTv2 grid needs at least 2x2 nodes")
    rec = px.shape[2] * 4
    pad = b"\x00" * (rec - 16)

    def rec_txt(key: str, val: str) -> bytes:
        return key.ljust(8).encode()[:8] + val.ljust(8).encode()[:8] \
            + pad

    def rec_int(key: str, val: int) -> bytes:
        return key.ljust(8).encode()[:8] + struct.pack("<i4x", val) \
            + pad

    def rec_dbl(key: str, val: float) -> bytes:
        return key.ljust(8).encode()[:8] + struct.pack("<d", val) + pad

    s_lat, n_lat = lat_min * 3600.0, lat_max * 3600.0
    # stored positive west
    e_long, w_long = -lon_max * 3600.0, -lon_min * 3600.0
    lat_inc = (n_lat - s_lat) / (h - 1)
    long_inc = (w_long - e_long) / (w - 1)
    out = [rec_int("NUM_OREC", 11), rec_int("NUM_SREC", 11),
           rec_int("NUM_FILE", 1), rec_txt("GS_TYPE", "SECONDS"),
           rec_txt("VERSION", "NTv2.0"), rec_txt("SYSTEM_F", "SRC"),
           rec_txt("SYSTEM_T", "DST"),
           rec_dbl("MAJOR_F", 6378137.0),
           rec_dbl("MINOR_F", 6356752.314),
           rec_dbl("MAJOR_T", 6378137.0),
           rec_dbl("MINOR_T", 6356752.314),
           rec_txt("SUB_NAME", name), rec_txt("PARENT", "NONE"),
           rec_txt("CREATED", ""), rec_txt("UPDATED", ""),
           rec_dbl("S_LAT", s_lat), rec_dbl("N_LAT", n_lat),
           rec_dbl("E_LONG", e_long), rec_dbl("W_LONG", w_long),
           rec_dbl("LAT_INC", lat_inc), rec_dbl("LONG_INC", long_inc),
           rec_int("GS_COUNT", h * w)]
    # file order: south→north rows, east→west columns = both axes
    # reversed from the north-up/east+ presentation
    nodes = px[::-1, ::-1, :].reshape(-1, px.shape[2])
    out.append(nodes.astype("<f4").tobytes())
    out.append(b"END     " + b"\x00" * (rec - 8))
    return b"".join(out)
