"""Image codec table: one ``fmt → Codec(name, sniff, decode, encode)``
registry (GDAL driver-manager analog, gcore/gdaldrivermanager.cpp)
behind ``encode``, ``decode``, ``functions.info.raster_info`` and the
last entry of ``sources.raster.read_raster``.

Aliases (``jpg``, ``tif``, ``pgm``, ...) share one entry. A tagged
``decode(buf, fmt)`` is a dict lookup; with ``fmt=None`` the entries'
magic sniffers run in table order and the first match wins. An entry's
``decode`` returns ``(pixels, geotransform, nodata, meta)``, the shape
every raster driver returns; ``decode()`` keeps the pixels. Codec
modules are imported on first use.

``png`` is a real zlib PNG and ``gtiff`` a real GeoTIFF (gtiff.py).
``jpeg`` encodes the GRJ1 DCT stand-in (dct.py) and decodes both GRJ1
and real FFD8 JFIF streams, which go to the T.81 baseline decoder
(jpeg.py). ``register_codec`` puts user entries at the front.
"""

from __future__ import annotations

import importlib
from typing import Callable, NamedTuple

import numpy as np

from . import dct, png


class Codec(NamedTuple):
    name: str                              # driver name (gdalinfo)
    sniff: Callable[[bytes], bool] | None  # magic test on the head bytes
    decode: Callable                       # bytes → (px, gt, nodata, meta)
    encode: Callable | None                # (img, **kw) → bytes


def _lazy(ref: str):
    """``"module:function"`` → a callable that imports on first call."""
    mod, name = ref.split(":")

    def call(*a, **kw):
        return getattr(importlib.import_module(mod, __name__), name)(*a, **kw)
    return call


def _bands(px):
    return px if px.ndim == 3 else px[:, :, None]


def _pixels(fn):
    return lambda buf: (fn(buf), None, None, {})


def _jpeg(buf):
    if buf[:2] == b"\xFF\xD8":
        from . import jpeg
        return jpeg.decode(buf), None, None, {}
    return dct.decode(buf), None, None, {}


def _gtiff(buf):
    from .gtiff import decode_gtiff
    g = decode_gtiff(buf)
    return _bands(g.pixels), g.geotransform, g.nodata, \
        {"crs": g.crs} if g.crs else {}


def _bmp(buf):
    from .bmp import decode_bmp
    return decode_bmp(buf)[0], None, None, {}


def _gif(buf):
    from .gif import decode_gif
    return decode_gif(buf)[0], None, None, {}   # palette-index band


def _banded(ref):
    def read(buf):
        px, gt, nodata, meta = _lazy(ref)(buf)
        return _bands(px), gt, nodata, meta
    return read


def _grib(buf):
    from .grib2 import decode_grib2
    px, gt, nodata, meta = decode_grib2(buf)
    return (px if px.ndim >= 2 else px[:, :, None]), gt, nodata, meta


def _ktx2(buf):
    from .ktx2 import read_ktx2
    px, gt, nodata, meta = read_ktx2(buf)
    if px.size == 0:
        raise ValueError(
            f"KTX2 payload needs the {meta.get('codec')} transcoder")
    return _bands(px), gt, nodata, meta


def _heif(buf):
    import os
    import tempfile

    from .heif import read_heif
    # the heif reader is path-based; spill to a temp twin
    with tempfile.NamedTemporaryFile(suffix=".heif", delete=False) as tf:
        tf.write(buf)
        name = tf.name
    try:
        px, gt, nodata, meta = read_heif(name)
    finally:
        os.unlink(name)
    if px.size == 0:
        raise ValueError(f"HEIF payload needs the {meta.get('codec')} decoder")
    return _bands(px), gt, nodata, meta


def _table(*rows):
    return {fmt: entry for fmts, entry in rows for fmt in fmts}


# built-ins in magic-sniff order
_CODECS: dict[str, Codec] = _table(
    (("png",), Codec("PNG", lambda b: b[:8] == b"\x89PNG\r\n\x1a\n",
                     _pixels(png.decode), png.encode)),
    (("jpeg", "jpg"), Codec(
        "JPEG", lambda b: b[:4] == b"GRJ1" or b[:2] == b"\xFF\xD8",
        _jpeg, dct.encode)),
    (("gtiff", "tif", "tiff"), Codec(
        "GTiff", lambda b: b[:2] in (b"II", b"MM"),
        _gtiff, _lazy(".gtiff:encode_gtiff"))),
    (("bmp",), Codec("BMP", lambda b: b[:2] == b"BM",
                     _bmp, _lazy(".bmp:encode_bmp"))),
    (("pnm", "pgm", "ppm"), Codec(
        "PNM", lambda b: b[:1] == b"P" and b[1:2] in b"23456",
        _pixels(_lazy(".pnm:decode_pnm")), _lazy(".pnm:encode_pnm"))),
    (("webp",), Codec("WEBP", lambda b: b[:4] == b"RIFF" and
                      b[8:12] == b"WEBP",
                      _pixels(_lazy(".webp:decode_webp")),
                      _lazy(".webp:encode_webp"))),
    (("netcdf", "nc"), Codec(
        "netCDF", lambda b: b[:3] == b"CDF" and
        b[3:4] in (b"\x01", b"\x02", b"\x05"),
        _lazy(".netcdf:decode_netcdf"), _lazy(".netcdf:encode_netcdf"))),
    (("gif",), Codec("GIF", lambda b: b[:4] == b"GIF8", _gif, None)),
    (("jp2", "j2k", "jpeg2000"), Codec(
        "JP2", lambda b: b[:12] == b"\x00\x00\x00\x0cjP  \r\n\x87\n"
        or b[:4] == b"\xff\x4f\xff\x51", _banded(".jp2:decode_jp2"), None)),
    (("exr",), Codec("EXR", lambda b: b[:4] == b"\x76\x2f\x31\x01",
                     _banded(".exr:read_exr"), None)),
    (("ktx2",), Codec("KTX2",
                      lambda b: b[:12] == b"\xabKTX 20\xbb\r\n\x1a\n",
                      _ktx2, None)),
    (("heif", "heic", "avif"), Codec(
        "HEIF", lambda b: len(b) >= 16 and b[4:8] == b"ftyp", _heif, None)),
    # degrib/NDFD .bin wrappers put text before the first message; the
    # GRIB reader scans for the magic itself
    (("grib", "grb", "grb2", "grib2"), Codec(
        "GRIB", lambda b: b"GRIB" in b[:8192], _grib, None)),
)


_BUILTIN_CODECS = dict(_CODECS)


def register_codec(fmt: str, encode_fn, decode_fn, sniffer=None) -> None:
    """Register a user image codec at the front of the table:
    encode_fn(img, **kw) -> bytes, decode_fn(bytes) -> ndarray; optional
    sniffer(buf) -> bool for magic-based dispatch when fmt is unknown
    (``read_raster`` passes it the file's first 8 KiB)."""
    if not callable(encode_fn) or not callable(decode_fn):
        raise TypeError("codec hooks must be callable")
    rest = {k: v for k, v in _CODECS.items() if k != fmt}
    _CODECS.clear()
    _CODECS[fmt] = Codec(fmt, sniffer, _pixels(decode_fn), encode_fn)
    _CODECS.update(rest)


def unregister_codec(fmt: str) -> None:
    """Undo ``register_codec``: the table is as if ``fmt`` had never
    been registered (a built-in it replaced is back in its sniff
    place). KeyError when no user codec is registered under ``fmt``."""
    if _CODECS.get(fmt) is _BUILTIN_CODECS.get(fmt):
        raise KeyError(f"no registered codec {fmt!r}")
    user = {k: v for k, v in _CODECS.items()
            if k != fmt and v is not _BUILTIN_CODECS.get(k)}
    _CODECS.clear()
    _CODECS.update(user)
    _CODECS.update((k, v) for k, v in _BUILTIN_CODECS.items()
                   if k not in user)


def find(buf: bytes, fmt: str | None = None) -> Codec:
    """The table entry for ``fmt``, or the first whose sniffer claims
    ``buf`` when fmt is None."""
    if fmt is None:
        for c in dict.fromkeys(_CODECS.values()):
            if c.sniff is not None and c.sniff(buf):
                return c
        raise ValueError("unrecognized image magic")
    if fmt not in _CODECS:
        raise ValueError(f"unknown image format {fmt!r}")
    return _CODECS[fmt]


def encode(img: np.ndarray, fmt: str, **kw) -> bytes:
    c = _CODECS.get(fmt)
    if c is None or c.encode is None:
        raise ValueError(f"unknown image format {fmt!r}")
    return c.encode(img, **kw)


def decode(buf: bytes, fmt: str | None = None) -> np.ndarray:
    """Decode by fmt, or sniff from magic bytes when fmt is None."""
    return find(buf, fmt).decode(buf)[0]


psnr = dct.psnr
