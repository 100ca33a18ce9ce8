"""The one layer-geometry function, ``sources/vector.py::with_geometry``,
and an AST ratchet against hand-built envelope columns elsewhere.

Every vector layer table carries a WKB ``wkb`` column and the float64
``minx/miny/maxx/maxy`` envelope columns (``ENVELOPE``), with a null
``wkb`` and a NaN envelope for a missing geometry. Readers and the
stages that write WKB build them through it, and no function takes the
geometry column's name as a parameter."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pyarrow as pa

from gdal_ray.core import wkb as W
from gdal_ray.sources.vector import ENVELOPE, with_geometry

PKG = Path(__file__).resolve().parent.parent / "gdal_ray"


def test_appends_wkb_then_envelope_and_keeps_metadata():
    t = pa.table({"fid": pa.array([0, 1], pa.int64())}).replace_schema_metadata(
        {b"crs": b"EPSG:4326"})
    out = with_geometry(t, [W.point(1.0, 2.0), W.box(0.0, 0.0, 3.0, 4.0)])
    assert out.column_names == ["fid", "wkb", *ENVELOPE]
    assert out.schema.field("wkb").type == pa.binary()
    assert all(out.schema.field(n).type == pa.float64() for n in ENVELOPE)
    assert out.schema.metadata == {b"crs": b"EPSG:4326"}
    assert [out[n].to_pylist() for n in ENVELOPE] == [
        [1.0, 0.0], [2.0, 0.0], [1.0, 3.0], [2.0, 4.0]]
    assert W.loads(out["wkb"][1].as_py()).envelope() == (0.0, 0.0, 3.0, 4.0)


def test_missing_geometry_is_null_wkb_and_nan_envelope():
    out = with_geometry(pa.table({"fid": [0, 1]}), [None, W.point(5, 6)])
    assert out["wkb"].to_pylist()[0] is None
    env = [out[n][0].as_py() for n in ENVELOPE]
    assert all(math.isnan(v) for v in env)          # NaN, not null
    assert out["minx"].null_count == 0


def test_wkb_buffers_pass_through_with_their_envelope():
    g = W.linestring([(0.0, 0.0), (3.0, 4.0)])
    out = with_geometry(pa.table({"fid": [0, 1]}), [W.dumps(g), None])
    assert out["wkb"].to_pylist() == [W.dumps(g), None]
    assert [out[n][0].as_py() for n in ENVELOPE] == [0.0, 0.0, 3.0, 4.0]


def test_empty_layer_has_typed_empty_columns():
    out = with_geometry(pa.table({"fid": pa.array([], pa.int64())}), [])
    assert out.num_rows == 0
    assert out.schema == pa.schema([("fid", pa.int64()), ("wkb", pa.binary()),
                                    *((n, pa.float64()) for n in ENVELOPE)])


def test_table_without_columns_takes_the_row_count_of_geoms():
    out = with_geometry(pa.table({}), [W.point(1, 1), None, W.point(2, 2)])
    assert out.num_rows == 3 and out.column_names == ["wkb", *ENVELOPE]


# ------------------------------------------------------------ ratchet
# modules that build the envelope columns by hand, and why; may only
# shrink
ALLOWED: dict[str, str] = {}

_ENV = set(ENVELOPE)


def _names_envelope(node) -> bool:
    return any(isinstance(n, ast.Constant) and n.value in _ENV
               for n in ast.walk(node))


def _builds_envelope(tree) -> bool:
    """A loop over a literal of envelope names (``enumerate([...])``
    included), a per-row ``cols["minx"].append(...)``, or a dict literal
    keyed by an envelope name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                    and it.func.id == "enumerate" and it.args:
                it = it.args[0]
            if isinstance(it, (ast.List, ast.Tuple)) and _names_envelope(it):
                return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "append" \
                and isinstance(node.func.value, ast.Subscript) \
                and _names_envelope(node.func.value.slice):
            return True
        if isinstance(node, ast.Dict) and any(
                k is not None and _names_envelope(k) for k in node.keys):
            return True
    return False


def _writes_wkb(tree) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "dumps"
               or isinstance(n, ast.Name) and n.id == "with_geometry"
               for n in ast.walk(tree))


def _hand_built():
    found = set()
    for path in sorted(PKG.glob("sources/*.py")) + sorted(
            PKG.glob("stages/*.py")):
        rel = path.relative_to(PKG).as_posix()
        if rel == "sources/vector.py":
            continue
        tree = ast.parse(path.read_text())
        if rel.startswith("stages/") and not _writes_wkb(tree):
            continue                     # a stage that writes no layer
        if _builds_envelope(tree):
            found.add(rel)
    return found


def test_only_with_geometry_builds_envelope_columns():
    assert _hand_built() == set(ALLOWED)


def test_allow_list_only_shrinks():
    assert len(ALLOWED) <= 0


def _layout_params():
    """``module:function`` for every parameter that names the layer's
    geometry column."""
    found = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
                    if arg.arg in ("wkb_col", "geometry_col"):
                        found.append(f"{path.relative_to(PKG).as_posix()}:"
                                     f"{getattr(node, 'name', 'lambda')}")
    return found


def test_no_function_takes_the_geometry_column_name():
    # the layer layout is fixed: the geometry column is always "wkb"
    assert _layout_params() == []


def test_ratchet_sees_the_hand_built_shapes():
    for src in ('for j, nm in enumerate(["minx", "miny", "maxx", "maxy"]):\n'
                '    t = t.append_column(nm, env[:, j])',
                'cols["maxy"].append(float(e[3]))',
                'out = {"wkb": w, "minx": pa.array(e[:, 0])}',
                'for c, a in (("minx", x), ("miny", y)):\n    pass'):
        assert _builds_envelope(ast.parse(src)), src
    assert not _builds_envelope(ast.parse("t = with_geometry(t, geoms)"))
