"""libwebp through ctypes: the conformance oracle the WebP tests
compare the engine's own VP8L and VP8 codecs against
(frmts/webp/webpdataset.cpp wraps libwebp the same way).
Import-guarded: everything degrades to None/False when the shared
library is absent; the engine itself never calls it."""

from __future__ import annotations

import ctypes

import numpy as np

_LIB = None
_TRIED = False


def _lib():
    global _LIB, _TRIED
    if not _TRIED:
        _TRIED = True
        try:
            _LIB = ctypes.CDLL("libwebp.so.7")
        except OSError:
            try:
                _LIB = ctypes.CDLL("libwebp.so")
            except OSError:
                _LIB = None
        if _LIB is not None:
            _LIB.WebPDecodeRGBA.restype = ctypes.POINTER(ctypes.c_ubyte)
            _LIB.WebPEncodeLosslessRGBA.restype = ctypes.c_size_t
            _LIB.WebPEncodeRGBA.restype = ctypes.c_size_t
    return _LIB


def system_available() -> bool:
    return _lib() is not None


def decode_webp_system(buf: bytes) -> np.ndarray:
    """Any WebP (lossy VP8 or lossless VP8L) → (h, w, 4) uint8 RGBA."""
    lib = _lib()
    if lib is None:
        raise RuntimeError("libwebp not available")
    w = ctypes.c_int()
    h = ctypes.c_int()
    p = lib.WebPDecodeRGBA(buf, len(buf), ctypes.byref(w), ctypes.byref(h))
    if not p:
        raise ValueError("libwebp failed to decode stream")
    try:
        return np.ctypeslib.as_array(p, shape=(h.value, w.value, 4)).copy()
    finally:
        lib.WebPFree(p)


def encode_webp_system(img: np.ndarray, *, lossless: bool = True,
                       quality: float = 90.0) -> bytes:
    """(h, w[, 3|4]) uint8 → WebP bytes via libwebp (tests use this to
    produce full-featured VP8L streams for the own decoder)."""
    lib = _lib()
    if lib is None:
        raise RuntimeError("libwebp not available")
    img = np.asarray(img, np.uint8)
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=-1)
    if img.shape[2] == 3:
        img = np.concatenate(
            [img, np.full(img.shape[:2] + (1,), 255, np.uint8)], axis=2)
    h, w = img.shape[:2]
    out = ctypes.POINTER(ctypes.c_ubyte)()
    data = np.ascontiguousarray(img).tobytes()
    if lossless:
        n = lib.WebPEncodeLosslessRGBA(data, w, h, w * 4,
                                       ctypes.byref(out))
    else:
        n = lib.WebPEncodeRGBA(data, w, h, w * 4,
                               ctypes.c_float(quality), ctypes.byref(out))
    if not n:
        raise ValueError("libwebp failed to encode")
    try:
        return bytes(bytearray(ctypes.string_at(out, n)))
    finally:
        lib.WebPFree(out)
