"""Distributed seam stitching (`stages/seams.py`). The two battery
queries without a DuckDB oracle (`distributed_contour`,
`distributed_polygonize`) are pinned to digests of their sorted frames,
so a change to the stitch must keep every row, value and dtype; the
union-find is checked against a set-merging reference, and both callers
against their own output under another block layout."""

import ast
import hashlib
import pathlib

import numpy as np
import pandas as pd
import pytest

import gdal_ray
from gdal_ray.pipelines import queries
from gdal_ray.stages.contour_merge import (distributed_contour,
                                           split_with_overlap)
from gdal_ray.stages.poly_merge import distributed_polygonize
from gdal_ray.stages.seams import union_find

GDAL_RAY = pathlib.Path(gdal_ray.__file__).parent


def frame_digest(df) -> str:
    """sha256 of a frame sorted by every column: dtypes + CSV text."""
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    text = repr([(c, str(t)) for c, t in df.dtypes.items()]) \
        + df.to_csv(index=False, float_format="%.6f")
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = {
    "distributed_contour": (
        47, "763f6c51d63b8049b46a18d8dcbd34f65c222773b98eb3e75486662663a9c192"),
    "distributed_polygonize": (
        9658, "a674e76286cb7697c17f74a8aff3aaa1cf858a6de0b70a3fc1e566373e5ebf31"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_only_query_pinned(ray_session, name):
    df = queries.QUERIES[name](None)
    rows, digest = PINNED[name]
    assert len(df) == rows
    assert frame_digest(df) == digest


def reference_components(a, b):
    """Set-merging union-find: id → smallest id of its component."""
    comp = {}
    for x, y in zip(a.tolist(), b.tolist()):
        merged = comp.get(x, {x}) | comp.get(y, {y})
        for m in merged:
            comp[m] = merged
    return {k: min(v) for k, v in comp.items()}


@pytest.mark.parametrize("seed", range(4))
def test_union_find_matches_reference_in_any_pair_order(seed):
    rng = np.random.default_rng(seed)
    ids = rng.choice(1 << 62, 300, replace=False).astype(np.int64)
    a, b = rng.choice(ids, 200), rng.choice(ids, 200)
    want = reference_components(a, b)
    for perm in (np.arange(200), rng.permutation(200)):
        got_ids, roots = union_find(a[perm], b[perm])
        assert dict(zip(got_ids.tolist(), roots.tolist())) == want
    assert union_find(b, a)[1].tolist() == roots.tolist()


def test_union_find_empty():
    ids, roots = union_find(np.empty(0, np.int64), np.empty(0, np.int64))
    assert len(ids) == len(roots) == 0


def _contour_tiles():
    y, x = np.mgrid[0:65, 0:97].astype(np.float64)
    grid = np.sin(x / 11.0) * np.cos(y / 9.0) + 0.3 * np.sin((x + y) / 17.0)
    return split_with_overlap(grid, 17, 17)


def _polygonize_tiles():
    from gdal_ray.stages.raster_ops import convolve
    rng = np.random.default_rng(7)
    smooth = convolve(rng.normal(size=(64, 96)), np.ones((3, 3)) / 9.0)
    grid = np.digitize(smooth, [-0.2, 0.2]).astype(np.int64)
    return [{"tile_x": tx, "tile_y": ty, "h": 16, "w": 16,
             "grid": np.ascontiguousarray(
                 grid[ty * 16:(ty + 1) * 16, tx * 16:(tx + 1) * 16]).tobytes()}
            for ty in range(4) for tx in range(6)]


CALLERS = {
    "contour": (_contour_tiles,
                lambda ds: distributed_contour(ds, [-0.4, 0.0, 0.4])),
    "polygonize4": (_polygonize_tiles,
                    lambda ds: distributed_polygonize(ds, 4)),
    "polygonize8": (_polygonize_tiles,
                    lambda ds: distributed_polygonize(ds, 8)),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_stitch_output_independent_of_block_layout(ray_session, caller):
    """One block, or one block per tile: the same frame, component ids
    included (a component's id is its smallest piece id)."""
    import ray.data as rd
    tiles, run = CALLERS[caller]
    rows = tiles()
    one = run(rd.from_items(rows, override_num_blocks=1))
    per_tile = run(rd.from_items(rows, override_num_blocks=len(rows)))
    assert (one["n_pieces"] > 1).any()
    cols = list(one.columns)
    pd.testing.assert_frame_equal(
        one.sort_values(cols).reset_index(drop=True),
        per_tile.sort_values(cols).reset_index(drop=True))


def _map_groups_calls():
    """(path, call node) of every `.map_groups(...)` call in gdal_ray/."""
    for path in sorted(GDAL_RAY.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups"):
                yield path, node


def test_pandas_map_groups_ratchet():
    """Groups run on Arrow tables: no
    map_groups(..., batch_format="pandas") call is left."""
    n = sum(any(kw.arg == "batch_format"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value == "pandas" for kw in node.keywords)
            for _, node in _map_groups_calls())
    assert n == 0


def test_map_groups_only_in_exchange():
    """Every grouped stage goes through stages/exchange.py::bucket_groups;
    no other module calls map_groups."""
    where = {str(p.relative_to(GDAL_RAY)) for p, _ in _map_groups_calls()}
    assert where == {"stages/exchange.py"}
