"""Native C twin status: each twin reports whether its C kernel loaded
or why the Python fallback runs instead."""

import shutil

import pytest

from gdal_ray.codecs import native


@pytest.fixture
def fresh(monkeypatch):
    """An empty loader cache, restored after the test."""
    monkeypatch.setattr(native, "_CACHE", {})
    monkeypatch.setattr(native, "_REASONS", {})


def test_status_names_every_twin():
    assert set(native.status()) == {"t1", "vp8f", "vp8t", "vp8l", "huf"}


def test_no_native_env_reports_fallback(fresh, monkeypatch):
    monkeypatch.setenv("GDAL_RAY_NO_NATIVE", "1")
    st = native.status()
    assert st and all(v == "fallback: GDAL_RAY_NO_NATIVE is set"
                      for v in st.values())
    assert native.get_t1() is None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compile_failure_keeps_reason(fresh, monkeypatch, tmp_path):
    (tmp_path / "_broken.c").write_text("int f( { return 0; }\n")
    monkeypatch.setattr(native, "_HERE", str(tmp_path))
    monkeypatch.delenv("GDAL_RAY_NO_NATIVE", raising=False)
    st = native.status()
    assert st["broken"].startswith("fallback: cc exited ")
    assert "error" in st["broken"]
    assert not list(tmp_path.glob("*.so"))     # no half-built artifact
