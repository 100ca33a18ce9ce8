"""Liveness: an actor pool in front of an exchange must finish when the
session has fewer CPUs than the pool's size.

A fixed ``concurrency=4`` pool holds every CPU of a 4-CPU session, so
the Parquet read tasks feeding it never run and the plan waits forever.
The run happens in a child process with its own ``ray.init`` and its
own process group, which is killed whole (driver, raylet, GCS and
workers) if it does not finish in time, so a hang cannot wedge the
test session."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np

_TIMEOUT_S = 150

_CHILD = textwrap.dedent("""
    import json, sys
    import numpy as np, pyarrow as pa, pyarrow.parquet as pq
    import ray, ray.data as rd
    root = sys.argv[1]
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((400, 16))
    mat[395:] = mat[:5] + rng.normal(0, 0.01, (5, 16))
    t = pa.table({"vec_id": pa.array(np.arange(400), pa.int64()),
                  "embedding": pa.array(mat.tolist(),
                                        pa.list_(pa.float64()))})
    for i in range(0, 400, 100):          # four files: four read tasks
        pq.write_table(t.slice(i, 100), f"{root}/part{i:03d}.parquet")
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             object_store_memory=200 * 2**20, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    from gdal_ray.functions.dedup import embedding_near_dups
    out = embedding_near_dups(rd.read_parquet(root), threshold=0.95)
    df = out.to_pandas()
    print(json.dumps(sorted([int(a), int(b)] for a, b in
                            zip(df["id_a"], df["id_b"]))))
    ray.shutdown()
""")


def test_embedding_near_dups_finishes_at_four_cpus(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [repo] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(tmp_path)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"embedding_near_dups did not finish in {_TIMEOUT_S} s at "
            "num_cpus=4") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray Ray processes
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-2000:]
    pairs = json.loads(out.strip().splitlines()[-1])
    # the five injected near-copies, and nothing else, at cos >= 0.95
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((400, 16))
    mat[395:] = mat[:5] + rng.normal(0, 0.01, (5, 16))
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ii, jj = np.nonzero(np.triu(unit @ unit.T >= 0.95, k=1))
    assert pairs == sorted([int(i), int(j)] for i, j in zip(ii, jj))
    assert pairs == [[i, 395 + i] for i in range(5)]
