"""Execution budget of the tile pipeline: how many Ray Data executions
(streaming-executor runs) each step starts, counted with an execution
callback the way ``geobench/trace.py::OperatorStats`` collects
operator stats. Each step re-plans and re-runs its whole upstream once
per execution, so an extra ``materialize``, ``count`` or ``take`` shows
up here before it shows up in a timing.

``BUDGET`` holds upper bounds; they may only fall."""

from __future__ import annotations

import contextlib
import sys

import pytest
import ray.cloudpickle
from ray.data._internal.execution.execution_callback import (
    EXECUTION_CALLBACKS_CONFIG_KEY, ExecutionCallback,
    get_execution_callbacks)

# Every task gets a pickled copy of the DataContext, callbacks included;
# a worker cannot import this test module, so its classes travel by value.
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])

# step → Ray Data executions it may start, on a three-level pyramid
BUDGET = {"base": 1, "overviews": 2, "write": 3}

# Executions started while counting. Module state on purpose: Ray Data
# deep-copies the DataContext, and the callback with it.
_STARTED: list[str] = []


class _Count(ExecutionCallback):
    def before_execution_starts(self, executor) -> None:
        _STARTED.append(type(executor).__name__)


@contextlib.contextmanager
def executions():
    """Yield a list that, on exit, holds one entry per Ray Data
    execution started inside the block."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = get_execution_callbacks(ctx)
    ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, [*before, _Count()])
    _STARTED.clear()
    seen: list[str] = []
    try:
        yield seen
    finally:
        ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, before)
        seen.extend(_STARTED)
        _STARTED.clear()


def test_callback_config_key(ray_session):
    """The private Ray Data hook this file and geobench's tracer rely
    on: the config key, and one callback call per execution. After a
    Ray upgrade this test fails first."""
    import ray.data as rd

    assert EXECUTION_CALLBACKS_CONFIG_KEY == "execution_callbacks"
    with executions() as seen:
        rd.range(8).map_batches(lambda b: b).materialize()
    assert seen == ["StreamingExecutor"]
    with executions() as seen:
        pass
    assert seen == []


@pytest.fixture(scope="module")
def counted(ray_session, tmp_path_factory):
    """Executions of each step of a small hermetic pyramid: base z7,
    overviews z6 and z5, all three levels written."""
    from gdal_ray.pipelines.tiles import (build_base_tiles, build_overviews,
                                          write_pyramid)
    from gdal_ray.sources.images import images_dataset

    out = {}
    with executions() as out["base"]:
        base = build_base_tiles(images_dataset(24), 7).materialize()
    with executions() as out["overviews"]:
        levels = build_overviews(base, 5, 7)
    store = str(tmp_path_factory.mktemp("budget") / "pyr")
    with executions() as out["write"]:
        manifest = write_pyramid(levels, store)
    assert sorted(manifest) == ["z=5", "z=6", "z=7"]
    assert all(v["n_tiles"] > 0 for v in manifest.values())
    return {k: len(v) for k, v in out.items()}


@pytest.mark.parametrize("step", sorted(BUDGET))
def test_tile_pipeline_within_budget(counted, step):
    assert 0 < counted[step] <= BUDGET[step], counted
