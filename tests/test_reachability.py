"""Reachability ratchet: every ``gdal_ray`` module is imported by
something in ``gdal_ray/``, ``bench.py``, ``geobench/`` or ``scripts/``,
or named by a ``"module:function"`` string of a driver table (the
raster table ``sources/raster.py::_DRIVERS``, the codec table
``codecs._CODECS`` and the vector table ``sources/drivers.py::_VECTOR``),
unless it is one of today's leftovers below. Imports are read from the
source (function-local and relative ones included), so nothing is
imported to run this. The leftover list may only shrink: a module that
becomes reachable, or is deleted, leaves it.

The same holds one level down for every top-level ``def`` and
``class`` of ``gdal_ray``: its name is used (a name, an attribute, an
imported name or the function of a table string) by that code or by
``__ray_entry__.py``, or a decorator registers it, unless it is listed
in ``TESTED_ONLY`` (used by tests alone) or ``UNREACHED_DEFS``. Names
are matched by name alone, not by module."""

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
    "gdal_ray.core.geodesic": "Vincenty geodesic distance; no SQL function "
                              "or stage calls it, but geodesic_distance is "
                              "the oracle test_srs's TOWGS84 round trip "
                              "checks against",
    "gdal_ray.sources.lance": "the Lance corpus-storage plug point the "
                              "paper names; lance is not installed, and "
                              "ROADMAP Direction 4 folds it into the "
                              "Parquet corpus",
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
    assert len(LEFTOVERS) <= 2


def test_table_strings_count_as_reach():
    refs = _table_refs()
    assert {"gdal_ray.sources.wasp", "gdal_ray.sources.shapefile",
            "gdal_ray.codecs.cphd", "gdal_ray.sources.vrt",
            "gdal_ray.codecs.gtiff"} <= refs


# ------------------------------------------------------------ top-level defs
ENTRY = ROOT / "__ray_entry__.py"
_TABLE_FN = re.compile(r"^\.?\w+:(\w+)$")


def _used_names(paths) -> set[str]:
    out: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                m = _TABLE_FN.match(node.value)
                if m:
                    out.add(m.group(1))
    return out


def _top_level_defs():
    """(module path under gdal_ray/, name) of every undecorated
    top-level def and class."""
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not node.decorator_list:
                yield rel, node.name


def _unreached_defs() -> set[str]:
    used = _used_names([*SOURCES, ENTRY])
    return {f"{rel}::{name}" for rel, name in _top_level_defs()
            if name not in used}


# public API and writers that only the tests call so far; may only shrink
TESTED_ONLY = {
    "codecs/__init__.py": {"register_codec", "unregister_codec"},
    "codecs/aaigrid.py": {"encode_aaigrid"},
    "codecs/cals.py": {"encode_cals"},
    "codecs/dds.py": {"encode_dds"},
    "codecs/e57.py": {"_crc32c"},
    "codecs/ehdr.py": {"encode_ehdr"},
    "codecs/gif.py": {"encode_gif"},
    "codecs/gtiff.py": {"tiff_block_offsets"},
    "codecs/hdf4.py": {"list_hdf4"},
    "codecs/hfa.py": {"open_hfa"},
    "codecs/ilwis.py": {"encode_ilwis"},
    "codecs/jp2.py": {"sniff_jp2"},
    "codecs/native.py": {"status"},
    "codecs/overviews.py": {"add_overviews"},
    "codecs/rawexotic.py": {"encode_kro", "encode_sigdem", "encode_zmap",
                            "encode_hf2"},
    "codecs/rawgrids.py": {"decode_ngsgeoid", "decode_grassascii",
                           "encode_bt"},
    "codecs/srtmhgt.py": {"encode_hgt"},
    "codecs/vicar.py": {"read_vicar_prefix"},
    "codecs/zstd.py": {"zstd_compress"},
    "core/geodesic.py": {"geodesic_length_wkb"},
    "core/geom.py": {"touches", "overlaps", "distance"},
    "core/geotransform.py": {"apply_inverse", "window_envelope"},
    "core/mercator.py": {"quadkey_str"},
    "core/rasterprofile.py": {"tile_window"},
    "core/rastervec.py": {"grid_idw"},
    "core/resample.py": {"downsample2x_average"},
    "functions/ann.py": {"brute_topk"},
    "functions/dedup.py": {"verify_pairs"},
    "functions/info.py": {"vector_info"},
    "functions/sql.py": {"register_sql_function", "unregister_sql_function"},
    "functions/text.py": {"fingerprint"},
    "pipelines/registry.py": {"unregister_step"},
    "pipelines/tiles.py": {"tile_pyramid", "render_base_resumable"},
    "sources/cad.py": {"list_dwg_layers"},
    "sources/drivers.py": {"register_vector_driver",
                           "unregister_vector_driver", "vector_driver"},
    "sources/flatgeobuf.py": {"fgb_crs"},
    "sources/georss.py": {"write_georss"},
    "sources/gpkg.py": {"list_feature_tables"},
    "sources/images.py": {"decode_row"},
    "sources/lance.py": {"have_lance", "read_corpus"},
    "sources/mbtiles.py": {"read_mbtiles_metadata"},
    "sources/openfilegdb.py": {"read_gdb"},
    "sources/pdfvec.py": {"read_pdf_vector_table"},
    "sources/pmtiles.py": {"zxy_to_tileid", "read_pmtiles_metadata",
                           "read_pmtiles"},
    "sources/raster.py": {"overview_count", "raster_driver"},
    "sources/selafin.py": {"write_selafin"},
    "sources/sidecar.py": {"write_worldfile"},
    "sources/vrt.py": {"build_vrt"},
    "sources/wasp.py": {"write_wasp"},
    "sources/xyzgrid.py": {"encode_xyz"},
    "stages/grid.py": {"grid_partitioned"},
    "stages/layer_algebra.py": {"layer_update_layer", "layer_clip_geom"},
    "stages/multimodal.py": {"make_avi_video_batch"},
    "stages/raster_ops.py": {"register_pixel_function",
                             "unregister_pixel_function", "reclassify",
                             "color_map", "tpi", "apply_density",
                             "tri_riley", "aspect_trigonometric"},
    "stages/tiles.py": {"cover_batch", "RenderTile"},
    "stages/warp.py": {"reproject_large", "warp_output_grid"},
}

# top-level defs nothing uses, not even a test, and why they stay
UNREACHED_DEFS = {
    "sources/images.py::write_images_parquet":
        "corpus writer kept for ROADMAP Direction 4",
}


def test_every_top_level_def_is_reached_or_listed():
    listed = {f"{rel}::{n}" for rel, names in TESTED_ONLY.items()
              for n in names} | set(UNREACHED_DEFS)
    assert _unreached_defs() == listed


def test_tested_only_defs_are_used_by_tests():
    used = _used_names((ROOT / "tests").rglob("*.py"))
    assert {n for names in TESTED_ONLY.values() for n in names} <= used
    assert not set(UNREACHED_DEFS) & {
        f"{rel}::{n}" for rel, names in TESTED_ONLY.items() for n in names}


def test_def_lists_only_shrink():
    assert sum(map(len, TESTED_ONLY.values())) <= 83
    assert len(UNREACHED_DEFS) <= 1
