"""Tests of the benchmark itself: each workload's job and check at tiny
size, and a corrupted output failing its check.

    python3 -m pytest geobench -q
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from geobench import run, workloads
from geobench.trace import PER_LAYER, Tracer

TINY = {
    "pyramid": {"images": 8},
    "join": {"footprints": 200, "polygons": 60},
    "sql": {"orders": 6000},
}


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    import ray

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 * 2**20,
             _temp_dir=str(tmp_path_factory.mktemp("ray")),
             runtime_env={"env_vars": {"PYTHONPATH": run.ROOT}})
    yield
    ray.shutdown()


def _setup_and_run(name, tmp_path):
    wl = workloads.make(name, str(tmp_path / "inputs"), seed=3,
                        sizes=TINY[name])
    wl.setup()
    result = wl.job(str(tmp_path / "job"), Tracer(enabled=False))
    assert wl.check(result) is None
    assert wl.output_bytes(result) > 0
    return wl, result


def test_pyramid_checks_and_catches_a_changed_tile(ray_session, tmp_path):
    wl, result = _setup_and_run("pyramid", tmp_path)
    path = sorted(glob.glob(os.path.join(result["dir"], "z=8", "*")))[0]
    t = pq.read_table(path)
    cs = t["cs_r"].to_pylist()
    cs[0] = (cs[0] + 1) % 65536
    pq.write_table(t.set_column(t.schema.get_field_index("cs_r"), "cs_r",
                                pa.array(cs, pa.int32())), path)
    assert "z8" in wl.check(result)


def test_pyramid_catches_changed_pixels(ray_session, tmp_path):
    from gdal_ray.codecs import encode

    from geobench.reference import png_pixels

    wl, result = _setup_and_run("pyramid", tmp_path)
    path = sorted(glob.glob(os.path.join(result["dir"], "z=7", "*")))[0]
    t = pq.read_table(path)
    pngs = t["png"].to_pylist()
    px = png_pixels(pngs[0]).copy()
    r, c = (int(v[0]) for v in px[:, :, 3].nonzero())
    px[r, c, 1] ^= 0x40     # one covered pixel, one band
    pngs[0] = encode(px, "png")
    pq.write_table(t.set_column(t.schema.get_field_index("png"), "png",
                                pa.array(pngs, pa.binary())), path)
    assert "z7" in wl.check(result)


def test_png_reader_undoes_every_filter():
    import zlib

    from geobench.reference import png_pixels

    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
    rows = []
    prev = np.zeros(16, np.int64)
    for y, f in enumerate([0, 1, 2, 3, 4]):
        cur = px[y].astype(np.int64).ravel()
        left = np.concatenate([np.zeros(4, np.int64), cur[:-4]])
        upleft = np.concatenate([np.zeros(4, np.int64), prev[:-4]])
        if f == 4:
            p = left + prev - upleft
            pa_, pb, pc = abs(p - left), abs(p - prev), abs(p - upleft)
            pred = np.where((pa_ <= pb) & (pa_ <= pc), left,
                            np.where(pb <= pc, prev, upleft))
        else:
            pred = [0 * cur, left, prev, (left + prev) // 2][f]
        rows.append(bytes([f]) + ((cur - pred) % 256).astype(np.uint8)
                    .tobytes())
        prev = cur

    def chunk(kind, body):
        return (struct.pack(">I", len(body)) + kind + body
                + struct.pack(">I", zlib.crc32(kind + body)))

    png = (b"\x89PNG\r\n\x1a\n"
           + chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 5, 8, 6, 0, 0, 0))
           + chunk(b"IDAT", zlib.compress(b"".join(rows)))
           + chunk(b"IEND", b""))
    assert (png_pixels(png) == px).all()


def test_join_checks_and_catches_a_dropped_pair(ray_session, tmp_path):
    wl, result = _setup_and_run("join", tmp_path)
    assert result["table"].num_rows > 0
    result["table"] = result["table"].slice(1)
    assert wl.check(result) is not None


def test_sql_checks_and_catches_a_perturbed_cell(ray_session, tmp_path):
    wl, result = _setup_and_run("sql", tmp_path)
    frame = result["frames"]["join"]
    frame.loc[0, "sd"] = frame.loc[0, "sd"] + 0.5
    assert wl.check(result).startswith("join:")


def test_sql_check_tolerates_only_rounding(ray_session, tmp_path):
    wl, result = _setup_and_run("sql", tmp_path)
    frame = result["frames"]["grouped"]
    frame.loc[0, "total"] = frame.loc[0, "total"] + 0.004
    assert wl.check(result) is None
    frame.loc[0, "n"] = frame.loc[0, "n"] + 1
    assert wl.check(result) is not None


def test_inputs_follow_the_seed():
    from geobench import inputs

    a, b = inputs.image_window(5, 4), inputs.image_window(5, 4)
    assert a.equals(b)
    assert not a.equals(inputs.image_window(6, 4))
    fids = inputs.polygon_window(9, 10)["fid"].to_pylist()
    assert {f % 5 for f in fids} == set(range(5))


def test_traced_run_reports_every_per_layer_metric():
    import ray

    if ray.is_initialized():
        ray.shutdown()
    report = run.run("sql", seed=4, seconds=0.0, trace=True,
                     sizes=TINY["sql"])
    assert report["attempted"] == 2 and report["incorrect"] == 0
    line = run.result_line(report, trace=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # every name the layer pass produces is a declared per-layer metric
    assert set(report["per_layer"]) == set(PER_LAYER)
    assert list(line["metrics"]) == list(PER_LAYER)
    for stmt in workloads.STATEMENTS:
        assert line["metrics"][f"functions.sql.{stmt}_s"]["value"] > 0
    # operator stats come from an execution callback, so the datasets
    # that functions.sql builds inside count too
    assert line["metrics"]["op.read.rows_out"]["value"] > 0
    assert line["metrics"]["op.read.cpu_s"]["value"] > 0


def test_a_job_that_raises_makes_the_run_incorrect():
    report = {"attempted": 3, "failed": 1, "incorrect": 0,
              "end_to_end": {"job_s_p50": 1.0}}
    line = run.result_line(report, trace=False)
    assert line["correct"] is False and line["failed"] == 1


def test_run_fails_without_the_engine(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "geobench"),
                    tmp_path / "geobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "geobench/run.py", "--workload",
                        "sql", "--seed", "1", "--seconds", "1"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=60, env={**os.environ, "PYTHONPATH": ""})
    assert p.returncode != 0
    for line in p.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
