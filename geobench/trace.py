"""Tracing for the traced run: spans kept in memory around calls into
the engine's public functions, Ray Data's per-operator stats, and the
per-layer metric names every traced report carries."""

from __future__ import annotations

import contextlib
import re
import time

from ray.data._internal.execution.execution_callback import (
    EXECUTION_CALLBACKS_CONFIG_KEY, ExecutionCallback,
    get_execution_callbacks)

OP_CLASSES = ("read", "map", "shuffle", "group", "write")
OP_STATS = ("wall_s", "cpu_s", "rows_out", "mb_out")
SQL_STATEMENTS = ("grouped", "case", "join", "subquery", "scan")


def _per_layer() -> dict[str, str]:
    m = {
        # the end-to-end times, reported here ungated (see README.md)
        "input_rows_per_s": "1/s", "job_s_p50": "s", "cpu_s_per_job": "s",
        "pipelines.tiles.base_s": "s", "pipelines.tiles.overview_s": "s",
        "pipelines.tiles.write_s": "s",
        "stages.tiles.warp_fragments_ms_per_img": "ms",
        "stages.tiles.render_ms_per_tile": "ms",
        "stages.tiles.combine_ms_per_tile": "ms",
        "core.resample.warp_ms_per_frag": "ms",
        "core.resample.downsample2x_ms_per_tile": "ms",
        "codecs.png.decode_ms": "ms", "codecs.png.encode_ms": "ms",
        "codecs.jpeg.decode_ms": "ms",
        "stages.tiles.frags_per_img": "count",
        "stages.tiles.frag_yield": "ratio",
        "stages.tiles.tiles_z8": "count", "stages.tiles.tiles_z7": "count",
        "stages.tiles.tiles_z6": "count",
        "exchange.render.mb": "MB", "exchange.overview.mb": "MB",
        "exchange.render.skew": "ratio",
        "exchange.join.rows": "count", "exchange.join.mb": "MB",
        "exchange.join.skew": "ratio",
        "stages.join.join_s": "s", "stages.join.cells_per_img": "count",
        "stages.join.cells_per_poly": "count",
        "stages.join.candidates": "count",
        "stages.join.pbsm_keep_ratio": "ratio",
        "stages.join.exact_hit_ratio": "ratio",
        "core.mercator.cover_us_per_env": "us",
        "core.geom.predicate_us_per_cand": "us",
        "core.wkb.loads_us_per_poly": "us", "stages.georef.us_per_img": "us",
        "functions.sql.parse_ms": "ms",
    }
    m.update({f"functions.sql.{s}_s": "s" for s in SQL_STATEMENTS})
    m["functions.sql.driver_s"] = "s"
    m["sources.parquet.read_s"] = "s"
    for c in OP_CLASSES:
        m.update({f"op.{c}.wall_s": "s", f"op.{c}.cpu_s": "s",
                  f"op.{c}.rows_out": "count", f"op.{c}.mb_out": "MB"})
    m["trace.job_s_p50"] = "s"
    m["trace.overhead_s"] = "s"
    return m


# Every per-layer metric and its unit, in report order.  A layer that a
# workload does not exercise reads 0 there.
PER_LAYER = _per_layer()


class Tracer:
    """Spans (job, name, parent, start, end), kept in memory.
    ``enabled=False`` makes every call a no-op, for timed jobs."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.job = 0
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append({"job": self.job, "name": name,
                               "parent": parent, "start": t0,
                               "end": time.perf_counter()})

    def record(self, name: str, seconds: float) -> None:
        """A span measured elsewhere (e.g. read back from a log)."""
        if self.enabled:
            self.spans.append({"job": self.job, "name": name, "parent": None,
                               "start": 0.0, "end": seconds})

    def job_seconds(self, names) -> dict[int, float]:
        """Per traced job, the summed duration of spans named ``names``."""
        names = set(names)
        by_job: dict[int, float] = {}
        for s in self.spans:
            if s["name"] in names:
                by_job[s["job"]] = (by_job.get(s["job"], 0.0)
                                    + s["end"] - s["start"])
        return by_job

    def span_seconds(self, name: str) -> list[float]:
        """Duration of span ``name`` in each traced job."""
        return list(self.job_seconds([name]).values())


# ---------------------------------------------------------------------------
# Ray Data operator stats
# ---------------------------------------------------------------------------

def op_class(name: str) -> str:
    """Map a Ray Data operator name onto a fixed class: fused chains are
    named by their first operator."""
    head = name.split("->")[0]
    if head.startswith("Read"):
        return "read"
    if head.startswith("Write"):
        return "write"
    if re.match(r"(Sort|Shuffle|Aggregate|Repartition|HashShuffle|"
                r"HashAggregate|RandomShuffle|Split)", head):
        return "shuffle"
    if "_group" in head:
        return "group"
    return "map"


def op_class_totals(per_op: dict[str, dict[str, float]]) -> dict[str, float]:
    out = {f"op.{c}.{s}": 0.0 for c in OP_CLASSES for s in OP_STATS}
    for name, stats in per_op.items():
        c = op_class(name)
        for s, v in stats.items():
            out[f"op.{c}.{s}"] += v
    return out


def _walk(summary, seen: set):
    if id(summary) in seen:
        return
    seen.add(id(summary))
    yield from summary.operators_stats
    for parent in summary.parents:
        yield from _walk(parent, seen)


def _total(stat) -> float:
    return float((stat or {}).get("sum") or 0.0)


# Stats of every execution finished while collecting.  Module state on
# purpose: Ray Data deep-copies the DataContext, and the callback with it.
_FINISHED: list = []


class _Collect(ExecutionCallback):
    def after_execution_succeeds(self, executor) -> None:
        if executor._final_stats is not None:
            _FINISHED.append(executor._final_stats)


class OperatorStats:
    """Within ``with OperatorStats() as ops:``, every Ray Data execution
    of a dataset created inside hands its stats over (an execution
    callback); the engine is not touched.  ``ops.per_operator()`` then
    sums remote wall, CPU, rows and MB out per operator name, and
    ``ops.execution_s`` is the summed wall of the executions."""

    def __enter__(self) -> "OperatorStats":
        from ray.data import DataContext

        self._ctx = DataContext.get_current()
        self._before = get_execution_callbacks(self._ctx)
        self._ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY,
                             [*self._before, _Collect()])
        _FINISHED.clear()
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, self._before)
        self.executions = list(_FINISHED)
        _FINISHED.clear()

    @property
    def execution_s(self) -> float:
        return sum(s.time_total_s for s in self.executions)

    def per_operator(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        seen_ops: set = set()
        for stats in self.executions:
            for op in _walk(stats.to_summary(), set()):
                # an execution's summary repeats the materialized
                # datasets it started from: count each operator run once
                key = (op.operator_name, _total(op.wall_time),
                       _total(op.output_size_bytes))
                if key in seen_ops:
                    continue
                seen_ops.add(key)
                d = out.setdefault(op.operator_name,
                                   dict.fromkeys(OP_STATS, 0.0))
                d["wall_s"] += _total(op.wall_time)
                d["cpu_s"] += _total(op.cpu_time)
                d["rows_out"] += _total(op.output_num_rows)
                d["mb_out"] += _total(op.output_size_bytes) / 1e6
        return out
