"""The batch cell cover ``core/mercator.py::cover_envelopes`` and the
point keys ``point_tiles`` / ``point_cells``.

``cover_envelopes`` is checked against the brute-force tile scan of
``test_tiles.oracle_cover``, against one-row ``cells_for_envelope``
calls, and against the per-row scalar loop the engine used before the
batch cover (``_scalar_cover`` below), which fixes each row's cell
order. An AST ratchet keeps the stages, pipelines and sources from
keying cells by hand again."""

from __future__ import annotations

import ast
import warnings
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdal_ray.core import mercator as merc
from gdal_ray.sources.vector import (ENVELOPE, boxes_table, polygons_table,
                                     with_geometry)
from test_tiles import oracle_cover

PKG = Path(__file__).resolve().parent.parent / "gdal_ray"
OS = merc.ORIGIN_SHIFT


def _scalar_cover(minx, miny, maxx, maxy, zoom, max_cells=4096):
    """The per-envelope cover loop body the engine ran before
    cover_envelopes (NaN envelopes aside): the reference for cell
    order and for the max_cells message."""
    minx = max(float(minx), -OS)
    miny = max(float(miny), -OS)
    maxx = min(float(maxx), OS)
    maxy = min(float(maxy), OS)
    if minx > maxx or miny > maxy:
        return np.empty(0, dtype=np.uint64)
    eps = merc.resolution(zoom) * 1e-6
    tx0, ty0 = merc.meters_to_tile(minx + eps, miny + eps, zoom)
    tx1, ty1 = merc.meters_to_tile(maxx - eps, maxy - eps, zoom)
    n = 2**int(zoom)
    tx0 = int(np.clip(tx0, 0, n - 1)); tx1 = int(np.clip(tx1, 0, n - 1))
    ty0 = int(np.clip(ty0, 0, n - 1)); ty1 = int(np.clip(ty1, 0, n - 1))
    tx1 = max(tx1, tx0)
    ty1 = max(ty1, ty0)
    count = (tx1 - tx0 + 1) * (ty1 - ty0 + 1)
    if count > max_cells:
        raise ValueError(f"envelope covers {count} cells at z{zoom} "
                         f"> max_cells={max_cells}")
    txs, tys = np.meshgrid(np.arange(tx0, tx1 + 1), np.arange(ty0, ty1 + 1))
    return merc.cell_id(zoom, txs.ravel(), merc.tms_to_xyz(tys.ravel(), zoom))


# ---------------------------------------------------------------------------
# property test
# ---------------------------------------------------------------------------

@st.composite
def _envelope(draw, zoom: int):
    """One envelope at ``zoom`` on the tile grid: each coordinate is a
    tile edge or at least 1e-4 pixel from one (so the cover's 1e-6-pixel
    corner nudge and the oracle's strict overlap agree), with tiles up
    to two beyond the world edge. Kinds: plain, tile-aligned,
    degenerate (zero width and/or height) and inverted."""
    w = 2 * OS / 2**zoom
    n = 2**zoom
    near = 1e-4 / merc.TILE_SIZE      # 1e-4 pixel, in tiles

    def coord(k):
        f = draw(st.one_of(st.sampled_from([0.0, near, 1 - near]),
                           st.floats(near, 1 - near)))
        return -OS + k * w + f * w

    kind = draw(st.sampled_from(["plain", "aligned", "degenerate",
                                 "inverted"]))
    kx, ky = (draw(st.integers(-2, n + 1)) for _ in range(2))
    dx, dy = (draw(st.integers(0, 2)) for _ in range(2))
    if kind == "aligned":
        return (-OS + kx * w, -OS + ky * w,
                -OS + (kx + dx) * w, -OS + (ky + dy) * w)
    x0, y0 = coord(kx), coord(ky)
    x1, y1 = max(coord(kx + dx), x0), max(coord(ky + dy), y0)
    if kind == "degenerate":
        flat = draw(st.sampled_from(["x", "y", "both"]))
        return (x0, y0, x0 if flat != "y" else x1, y0 if flat != "x" else y1)
    if kind == "inverted":
        return (x1 + w / 3, y0, x0, y1) if draw(st.booleans()) \
            else (x0, y1 + w / 3, x1, y0)
    return (x0, y0, x1, y1)


@st.composite
def _batch(draw):
    """A batch of envelopes and its zoom: one of 5, 7, 9, or one zoom
    per row drawn from them."""
    per_row = draw(st.booleans())
    n = draw(st.integers(0, 6))
    if per_row:
        zooms = [draw(st.sampled_from([5, 7, 9])) for _ in range(n)]
        envs = [draw(_envelope(z)) for z in zooms]
        return envs, np.array(zooms, np.int64)
    z = draw(st.sampled_from([5, 7, 9]))
    return [draw(_envelope(z)) for _ in range(n)], z


def _zoom_of(zoom, i: int) -> int:
    return int(zoom if np.isscalar(zoom) else zoom[i])


def _columns(envs):
    return [np.array([e[k] for e in envs], np.float64) for k in range(4)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_batch())
def test_cover_envelopes_matches_oracle_and_row_loop(batch):
    envs, zoom = batch
    row, cells = merc.cover_envelopes(*_columns(envs), zoom)
    assert row.dtype == np.int64 and cells.dtype == np.uint64
    expect = [_scalar_cover(*e, _zoom_of(zoom, i)) for i, e in enumerate(envs)]
    assert np.array_equal(row, np.repeat(np.arange(len(envs)),
                                         [len(c) for c in expect]))
    assert np.array_equal(cells, np.concatenate(
        [np.empty(0, np.uint64), *expect]))
    for i, e in enumerate(envs):
        z = _zoom_of(zoom, i)
        mine = cells[row == i]
        assert np.array_equal(merc.cells_for_envelope(*e, z), mine)
        c = np.clip(e, -OS, OS)
        if c[0] < c[2] and c[1] < c[3]:     # positive area in the world
            _, x, y = merc.cell_decode(mine)
            assert set(zip(x.tolist(), y.tolist())) == oracle_cover(*e, z)


@settings(max_examples=30, deadline=None)
@given(_batch(), st.integers(1, 4))
def test_max_cells_error_is_the_first_row_loop_error(batch, max_cells):
    envs, zoom = batch
    message = None
    for i, e in enumerate(envs):
        try:
            _scalar_cover(*e, _zoom_of(zoom, i), max_cells)
        except ValueError as ex:
            message = str(ex)
            break
    if message is None:
        merc.cover_envelopes(*_columns(envs), zoom, max_cells)
        return
    with pytest.raises(ValueError) as info:
        merc.cover_envelopes(*_columns(envs), zoom, max_cells)
    assert str(info.value) == message


def test_max_cells_message_names_count_zoom_and_cap():
    with pytest.raises(ValueError, match=r"^envelope covers 16384 cells at "
                       r"z7 > max_cells=4096$"):
        merc.cells_for_envelope(-OS, -OS, OS, OS, 7)


def test_point_tiles_clip_to_the_grid():
    x = np.array([-2 * OS, -OS, 0.0, OS, 2 * OS, 1.0])
    y = np.array([-2 * OS, -OS, 0.0, OS, 2 * OS, -1.0])
    tx, ty = merc.point_tiles(x, y, 3)
    assert tx.tolist() == [0, 0, 3, 7, 7, 4]
    assert ty.tolist() == [7, 7, 4, 0, 0, 4]
    assert np.array_equal(merc.point_cells(x, y, 3), merc.cell_id(3, tx, ty))
    # one zoom per point
    tx, ty = merc.point_tiles(x[:3], y[:3], np.array([1, 2, 3]))
    assert tx.tolist() == [0, 0, 3] and ty.tolist() == [1, 3, 4]


# ---------------------------------------------------------------------------
# missing geometries cover no cell
# ---------------------------------------------------------------------------

def _with_missing(table: pa.Table, encoding: str) -> pa.Table:
    """``table`` plus two rows without geometry: NaN envelopes (what
    with_geometry writes) or null envelopes (the CSV, GPKG, Shapefile
    and OpenFileGDB readers)."""
    extra = with_geometry(pa.table({"fid": pa.array([900, 901], pa.int64()),
                                    "name": ["none0", "none1"],
                                    "category": ["a", "b"]}), [None, None])
    if encoding == "null":
        extra = extra.drop_columns(list(ENVELOPE))
        for c in ENVELOPE:
            extra = extra.append_column(c, pa.nulls(2, pa.float64()))
    return pa.concat_tables([table, extra.select(table.column_names)
                             .cast(table.schema)])


@pytest.mark.parametrize("encoding", ["nan", "null"])
def test_missing_geometry_covers_no_cell(encoding):
    from gdal_ray.stages.join import _cover_cells_batch
    polys = polygons_table(6)
    t = _with_missing(polys, encoding)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _cover_cells_batch(t, 7, ["fid"])
    assert not set(got["fid"].to_pylist()) & {900, 901}
    assert got.equals(_cover_cells_batch(polys, 7, ["fid"]))


@pytest.mark.parametrize("encoding", ["nan", "null"])
def test_missing_geometry_rows_leave_joins_unchanged(ray_session, encoding):
    import ray.data as rd
    from gdal_ray.sources.images import images_dataset
    from gdal_ray.stages.georef import with_georef
    from gdal_ray.stages.join import with_cells, spatial_join
    from gdal_ray.stages.layer_algebra import layer_set_op_pairs

    polys = polygons_table(12)
    holed = _with_missing(polys, encoding)
    cov = with_cells(rd.from_arrow(holed), 7, ["fid"]).to_pandas()
    assert len(cov) and not set(cov["fid"]) & {900, 901}

    imgs = images_dataset(24).map_batches(with_georef,
                                          batch_format="pyarrow")

    def rows(df):
        return sorted(map(tuple, df.astype(str).values.tolist()))

    got = spatial_join(imgs, rd.from_arrow(holed)).to_pandas()
    want = spatial_join(imgs, rd.from_arrow(polys)).to_pandas()
    assert len(want) and rows(got) == rows(want)
    boxes = rd.from_arrow(boxes_table(15))
    got = layer_set_op_pairs(rd.from_arrow(holed), boxes, zoom=6).to_pandas()
    want = layer_set_op_pairs(rd.from_arrow(polys), boxes, zoom=6).to_pandas()
    assert len(want) and rows(got) == rows(want)


# ---------------------------------------------------------------------------
# ratchet: cells are keyed in core/mercator only
# ---------------------------------------------------------------------------

HAND_KEYING = {"meters_to_tile", "cells_for_envelope"}


def test_no_hand_cell_keying_outside_mercator():
    """The stages, pipelines and sources key envelopes with
    cover_envelopes and points with point_tiles / point_cells, never
    with the scalar cover or the raw tile math."""
    hits = []
    for sub in ("stages", "pipelines", "sources"):
        for path in sorted((PKG / sub).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name in HAND_KEYING:
                    hits.append(f"{path.relative_to(PKG)}:{node.lineno} "
                                f"{name}")
    assert hits == []

