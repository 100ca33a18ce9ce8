"""Reachability ratchet: every ``gdal_ray`` module is imported by
something in ``gdal_ray/``, ``bench.py``, ``geobench/`` or ``scripts/``,
or named by a ``"module:function"`` string of a driver table (the
raster table ``sources/raster.py::_DRIVERS``, the codec table
``codecs._CODECS`` and the vector table ``sources/drivers.py::_VECTOR``),
unless it is one of today's leftovers below. Imports are read from the
source (function-local and relative ones included), so nothing is
imported to run this. The leftover list may only shrink: a module that
becomes reachable, or is deleted, leaves it."""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PKG = ROOT / "gdal_ray"
SOURCES = [*PKG.rglob("*.py"), ROOT / "bench.py",
           *(ROOT / "geobench").rglob("*.py"),
           *(ROOT / "scripts").rglob("*.py")]
# files holding a table; a bare "module:function" ref there names a
# codec module, a ".module:function" one a module beside the file
TABLES = ("sources/raster.py", "codecs/__init__.py", "sources/drivers.py")
_REF = re.compile(r"^(\.?)(\w+):\w+$")

# module → why nothing reaches it yet
LEFTOVERS = {
    "gdal_ray.codecs.rcm": "RCM product reader; the raster table has no "
                           "product-directory entry for it yet",
    "gdal_ray.codecs.snaptiff": "SNAP TIFF reader; GTiff owns .tif in the "
                                "raster table and nothing sniffs SNAP tags",
    "gdal_ray.core.geodesic": "Vincenty geodesic length; no SQL function "
                              "or stage calls it yet",
    "gdal_ray.sources.adbc": "DuckDB/SQLite reading through one interface; "
                             "no driver-table entry opens a .duckdb",
    "gdal_ray.sources.geoparquet": "GeoParquet 'geo' metadata helpers; the "
                                   "Parquet sinks do not write it yet",
    "gdal_ray.sources.lance": "the Lance corpus-storage plug point the "
                              "paper names; lance is not installed",
    "gdal_ray.sources.netcdf_sg": "CF-1.8 simple geometries come back as "
                                  "WKT, not the wkb layer table",
    "gdal_ray.sources.pgdump": "PGDump SQL writer; no sink step calls it",
    "gdal_ray.sources.safe": "Sentinel-1 SAFE reader; the raster table has "
                             "no manifest.safe entry",
    "gdal_ray.sources.sentinel2": "Sentinel-2 SAFE reader; the raster "
                                  "table has no MTD_MSI entry",
    "gdal_ray.sources.xyzgrid": "XYZ grid reader; .xyz is not in the "
                                "raster table",
}


def _name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package(path: pathlib.Path) -> str:
    """The package a relative reference in ``path`` starts from."""
    me = _name(path)
    return me if path.name == "__init__.py" else me.rpartition(".")[0]


def _imports(path: pathlib.Path) -> set[str]:
    """Every module an ``import`` in ``path`` names, with its parents
    (importing a.b.c imports a and a.b)."""
    me, pkg = _name(path), _package(path)
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = pkg.split(".")
                anchor = parts[:len(parts) - node.level + 1]
                base = ".".join(anchor + [base] if base else anchor)
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    parts = {".".join(m.split(".")[:i]) for m in out
             for i in range(1, m.count(".") + 2)}
    return parts - {me}


def _table_refs() -> set[str]:
    out = set()
    for rel in TABLES:
        for node in ast.walk(ast.parse((PKG / rel).read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                m = _REF.match(node.value)
                if m:
                    pkg = (_package(PKG / rel) if m.group(1)
                           else "gdal_ray.codecs")
                    out.add(f"{pkg}.{m.group(2)}")
    return out


def _unreached() -> set[str]:
    modules = {_name(p) for p in PKG.rglob("*.py")}
    reached = set().union(*map(_imports, SOURCES)) | _table_refs()
    return modules - reached


def test_every_module_is_reached_or_a_listed_leftover():
    assert _unreached() == set(LEFTOVERS)


def test_leftovers_only_shrink():
    assert len(LEFTOVERS) <= 11


def test_table_strings_count_as_reach():
    refs = _table_refs()
    assert {"gdal_ray.sources.wasp", "gdal_ray.sources.shapefile",
            "gdal_ray.codecs.cphd", "gdal_ray.sources.vrt",
            "gdal_ray.codecs.gtiff"} <= refs
