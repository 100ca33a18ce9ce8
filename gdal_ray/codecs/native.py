"""On-demand C compilation of the engine's own hot kernels.

Some codec inner loops (EBCOT T1's MQ-coded bit decisions, VP8L's
predictor recurrence) are inherently sequential per block/row: no
numpy formulation exists, and a per-bit interpreted loop makes the
from-scratch codecs decorative on real-world image sizes. The C
sources next to this module are transcriptions of the SAME
spec-derived logic as their pure-Python twins — not a third-party
dependency — and tests assert native == Python on random inputs.

The shared object is built once with the system C compiler (cc/gcc)
and cached beside the source; every call site falls back to the
Python implementation when no compiler is available or
``GDAL_RAY_NO_NATIVE=1`` is set, so correctness never depends on a
toolchain.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
_CACHE: dict[str, object] = {}
_REASONS: dict[str, str] = {}       # stem → why it fell back


def _reason(e: Exception) -> str:
    """One line saying why a build or load failed."""
    if isinstance(e, subprocess.CalledProcessError):
        lines = (e.stderr or b"").decode(errors="replace").splitlines()
        # the first diagnostic, not gcc's trailing caret line
        msg = next((ln for ln in lines if "error" in ln),
                   lines[-1] if lines else "")
        return f"cc exited {e.returncode}: {msg.strip()}".rstrip(": ")
    return f"{type(e).__name__}: {e}"


def _build(stem: str):
    """Compile ``<stem>.c`` → ``<stem>.so`` (atomic, concurrent-safe)
    and load it. Returns the CDLL or None."""
    if stem in _CACHE:
        lib = _CACHE[stem]
        return lib if lib else None
    if os.environ.get("GDAL_RAY_NO_NATIVE"):
        _CACHE[stem] = False
        _REASONS[stem] = "GDAL_RAY_NO_NATIVE is set"
        return None
    src = os.path.join(_HERE, stem + ".c")
    # ".bin" not ".so": the import-sweep test (pkgutil) must not
    # mistake the artifact for a Python extension module
    so = os.path.join(_HERE, stem + ".bin")
    try:
        if (not os.path.exists(so)
                or os.path.getmtime(so) < os.path.getmtime(src)):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_HERE)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", "-O2", "-shared", "-fPIC", src, "-o", tmp],
                    check=True, capture_output=True, timeout=120)
                os.replace(tmp, so)     # atomic: racing actors all win
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(so)
    except Exception as e:
        _CACHE[stem] = False
        _REASONS[stem] = _reason(e)
        return None
    _CACHE[stem] = lib
    return lib


def status() -> dict[str, str]:
    """Per twin (``t1``, ``vp8l``, ...): ``"native"`` when the C kernel
    loads, else ``"fallback: <reason>"`` — the Python twin runs."""
    stems = sorted(f[:-2] for f in os.listdir(_HERE)
                   if f.startswith("_") and f.endswith(".c"))
    return {s[1:]: "native" if _build(s) is not None
            else f"fallback: {_REASONS.get(s, 'disabled')}"
            for s in stems}


def get_t1():
    """The EBCOT T1 kernel (decode + encode), or None."""
    lib = _build("_t1")
    if lib is None:
        return None
    if not getattr(lib, "_sigs_set", False):
        u8p = ctypes.POINTER(ctypes.c_uint8)
        lib.t1_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
            ctypes.POINTER(ctypes.c_int64)]
        lib.t1_decode.restype = ctypes.c_int
        lib.t1_encode.argtypes = [
            ctypes.POINTER(ctypes.c_int32), ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int, u8p, ctypes.c_int,
            ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_int)]
        lib.t1_encode.restype = ctypes.c_int
        lib._sigs_set = True
    return lib


def get_vp8f():
    """The VP8 loop-filter kernel, or None."""
    lib = _build("_vp8f")
    if lib is None:
        return None
    if not getattr(lib, "_sigs_set", False):
        i32p = ctypes.POINTER(ctypes.c_int32)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        lib.vp8_loop_filter.argtypes = [
            i32p, i32p, i32p, ctypes.c_int, ctypes.c_int,
            ctypes.c_int, ctypes.c_int, u8p, u8p]
        lib.vp8_loop_filter.restype = ctypes.c_int
        lib._sigs_set = True
    return lib


def get_vp8t():
    """The VP8 residual (token+IDCT) kernel, or None."""
    lib = _build("_vp8t")
    if lib is None:
        return None
    if not getattr(lib, "_sigs_set", False):
        i32p = ctypes.POINTER(ctypes.c_int32)
        u8p = ctypes.POINTER(ctypes.c_uint8)
        i64p = ctypes.POINTER(ctypes.c_int64)
        lib.vp8_mb_coeffs.argtypes = (
            [ctypes.c_char_p, ctypes.c_long, i64p, u8p,
             ctypes.c_int, ctypes.c_int]
            + [ctypes.c_int] * 6
            + [i32p] * 10)
        lib.vp8_mb_coeffs.restype = ctypes.c_int
        lib._sigs_set = True
    return lib


def get_vp8l():
    """The VP8L predictor-inverse kernel, or None."""
    lib = _build("_vp8l")
    if lib is None:
        return None
    if not getattr(lib, "_sigs_set", False):
        lib.vp8l_pred_inverse.argtypes = [
            ctypes.POINTER(ctypes.c_uint32), ctypes.c_int, ctypes.c_int,
            ctypes.POINTER(ctypes.c_uint8), ctypes.c_int, ctypes.c_int]
        lib.vp8l_pred_inverse.restype = ctypes.c_int
        lib._sigs_set = True
    return lib


def get_huf():
    """The PIZ Huffman decode loop (codecs/_huf.c), or None."""
    lib = _build("_huf")
    if lib is None:
        return None
    if not getattr(lib, "_sigs_set", False):
        i32p = ctypes.POINTER(ctypes.c_int32)
        i64p = ctypes.POINTER(ctypes.c_int64)
        u16p = ctypes.POINTER(ctypes.c_uint16)
        lib.huf_decode.argtypes = [
            ctypes.c_char_p, ctypes.c_long, ctypes.c_long,
            i32p, i32p, i64p, i64p, i64p, i32p,
            ctypes.c_long, u16p, ctypes.c_long]
        lib.huf_decode.restype = ctypes.c_int
        lib._sigs_set = True
    return lib
