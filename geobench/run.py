"""Run one benchmark workload against the engine in this checkout.

    python3 geobench/run.py --workload pyramid --seed 1 --seconds 20 --trace 0

Set-up (timed as ``setup_s``): start Ray, build the native twins, write
the seeded inputs, compute the reference outputs without Ray and run one
checked warm-up job.  Then a closed loop runs one job at a time until
``--seconds`` have passed; every job is checked against the reference.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the gated end-to-end metrics with
``--trace 0``; the job-time and per-layer metrics with ``--trace 1``.  The full report (context,
every job, spans) is written under ``.gb/reports/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# short on purpose: Ray binds unix sockets below its temp dir
RUN_DIR = os.path.join(ROOT, ".gb")
OBJECT_STORE_BYTES = 512 * 2**20
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store"
SOCKET_SUFFIX = 64


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs in
    this process's affinity mask."""
    v = os.environ.get("OMP_NUM_THREADS", "")
    return int(v) if v.isdigit() and int(v) > 0 else len(
        os.sched_getaffinity(0))


def ray_temp_dir() -> tuple[str, bool]:
    """Ray's temp dir inside the checkout, unless the checkout path is so
    long that Ray's socket paths would pass the 107-byte AF_UNIX limit;
    then a fresh short directory in the system temp dir.  The flag says
    whether the directory is this run's own to remove."""
    d = os.path.join(RUN_DIR, "ray")
    if len(d.encode()) + SOCKET_SUFFIX <= 107:
        return d, False
    return tempfile.mkdtemp(prefix="gb"), True


def start_ray(temp_dir: str, plasma_dir: str, num_cpus: int) -> str:
    """Start a private Ray instance; returns its session directory.
    Workers find the engine through PYTHONPATH, whatever their working
    directory."""
    import ray
    from ray.data import DataContext

    os.makedirs(plasma_dir, exist_ok=True)
    ray.init(num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=temp_dir, _plasma_directory=plasma_dir,
             runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
    DataContext.get_current().enable_progress_bars = False
    return ray._private.worker._global_node.get_session_dir_path()


def stop_ray(timeout: float = 30.0) -> None:
    """Shut Ray down and wait until every process this run started has
    exited, killing stragglers."""
    import ray

    from geobench.host import process_tree

    ray.shutdown()
    deadline = time.monotonic() + timeout
    while True:
        rest = [p for p in process_tree(os.getpid()) if p != os.getpid()]
        if not rest:
            return
        if time.monotonic() > deadline:
            for p in rest:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.1)
        for p in rest:  # reap our own children
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass


def _quartiles(v: list[float]) -> list[float]:
    return statistics.quantiles(v, n=4) if len(v) > 1 else v * 3


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    from geobench import host, workloads
    from geobench.trace import (PER_LAYER, OperatorStats, Tracer,
                                op_class_totals)

    work = os.path.join(RUN_DIR, f"w{os.getpid()}")
    ray_dir, own_ray_dir = ray_temp_dir()
    session = None
    jobs_dir = os.path.join(work, "jobs")
    os.makedirs(jobs_dir, exist_ok=True)
    num_cpus = nproc()
    context = {"probe_ms_idle": host.contention_probe(),
               **host.versions(num_cpus)}
    tr = Tracer(enabled=False)
    jobs: list[dict] = []
    ops: list[dict] = []    # per traced job: Ray Data stats per operator
    layers: dict = {}
    try:
        t_setup = time.perf_counter()
        session = start_ray(ray_dir, os.path.join(work, "plasma"), num_cpus)
        t_ray = time.perf_counter() - t_setup
        context["native_twins"] = host.native_twins()
        wl = workloads.make(workload, os.path.join(work, "inputs"), seed,
                            sizes)
        wl.setup()
        t_inputs = time.perf_counter() - t_setup - t_ray
        warm = wl.job(os.path.join(jobs_dir, "warmup"), tr)
        err = wl.check(warm)
        if err:
            raise RuntimeError(f"warm-up job output is wrong: {err}")
        setup_s = time.perf_counter() - t_setup
        context["setup_parts_s"] = {"ray": t_ray, "inputs_and_reference":
                                    t_inputs, "warmup_job":
                                    setup_s - t_ray - t_inputs}
        shutil.rmtree(os.path.join(jobs_dir, "warmup"), ignore_errors=True)

        keep = None     # the last traced job's output, for the layer pass
        me = os.getpid()
        with host.MemorySampler(me) as mem:
            t_loop = time.perf_counter()
            # a traced run needs one untraced and one traced job at least
            while (len(jobs) < 1 + trace
                   or time.perf_counter() - t_loop < seconds):
                k = len(jobs)
                tr.enabled = trace and k % 2 == 1
                tr.job = k
                rec = {"job": k, "traced": tr.enabled,
                       "probe_ms": host.contention_probe()}
                out_dir = os.path.join(jobs_dir, str(k))
                steal0, cpu0 = host.steal_ticks(), host.tree_cpu(me)
                t0 = time.perf_counter()
                try:
                    # Ray Data hands over each execution's operator
                    # stats; only traced jobs pay for collecting them
                    with (OperatorStats() if tr.enabled
                          else contextlib.nullcontext()) as op_stats:
                        result = wl.job(out_dir, tr)
                except Exception:
                    rec.update(wall_s=time.perf_counter() - t0, raised=True,
                               ok=False, error=traceback.format_exc(limit=3))
                    jobs.append(rec)
                    shutil.rmtree(out_dir, ignore_errors=True)
                    continue
                rec["wall_s"] = time.perf_counter() - t0
                rec["cpu_s"] = host.cpu_delta(cpu0, host.tree_cpu(me))
                rec["steal_ticks"] = host.steal_ticks() - steal0
                rec["raised"] = False
                rec["error"] = wl.check(result)
                rec["ok"] = rec["error"] is None
                rec["output_bytes"] = wl.output_bytes(result)
                if tr.enabled:
                    tr.record("ray.data.executions", op_stats.execution_s)
                    ops.append(op_stats.per_operator())
                    if keep is not None:
                        shutil.rmtree(keep[0], ignore_errors=True)
                    keep = (out_dir, result)
                else:
                    shutil.rmtree(out_dir, ignore_errors=True)
                jobs.append(rec)
        if trace and keep is not None:
            tr.enabled = True
            try:
                layers = wl.layers(keep[1], tr)
            except Exception:  # the e2e result stands; the report says why
                context["layer_pass_error"] = traceback.format_exc(limit=3)
    finally:
        stop_ray()
        # other runs may share the temp dir: remove only this session
        if session:
            shutil.rmtree(session, ignore_errors=True)
        if own_ray_dir:
            shutil.rmtree(ray_dir, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)

    done = [j for j in jobs if not j["raised"]]
    timed = [j for j in jobs if not j["traced"]]
    timed_done = [j for j in timed if not j["raised"]]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": sizes or workloads.SIZES[workload],
        "input_rows_per_job": wl.rows,
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j["raised"]),
        "incorrect": sum(1 for j in done if not j["ok"]),
        "context": context, "jobs": jobs,
    }
    e2e = {}
    if timed_done:
        walls = [j["wall_s"] for j in timed_done]
        e2e = {
            # rows of the correct jobs per second spent in jobs: a job
            # that raises or is wrong costs its time and adds no rows
            "input_rows_per_s": (wl.rows * sum(j["ok"] for j in timed)
                                 / sum(j["wall_s"] for j in timed)),
            "job_s_p50": statistics.median(walls),
            "cpu_s_per_job": statistics.median(j["cpu_s"]
                                               for j in timed_done),
            "peak_rss_mb": mem.peak / 1e6,
            "output_mb": statistics.median(j["output_bytes"]
                                           for j in timed_done) / 1e6,
            "setup_s": setup_s,
        }
        report["job_s_quartiles"] = _quartiles(walls)
    report["end_to_end"] = e2e
    if trace:
        traced = [j["wall_s"] for j in done if j["traced"]]
        per_layer = dict.fromkeys(PER_LAYER, 0.0)
        per_layer.update(layers)
        per_layer.update({k: v for k, v in e2e.items() if k in PER_LAYER})
        if ops:
            classes = [op_class_totals(o) for o in ops]
            per_layer.update({k: statistics.median(c[k] for c in classes)
                              for k in classes[0]})
        if traced:
            per_layer["trace.job_s_p50"] = statistics.median(traced)
            if "job_s_p50" in e2e:
                per_layer["trace.overhead_s"] = (statistics.median(traced)
                                                 - e2e["job_s_p50"])
        report["per_layer"] = per_layer
        report["operators"] = ops
        report["spans"] = tr.spans
    return report


def result_line(report: dict, trace: bool) -> dict:
    from geobench.trace import PER_LAYER

    # the gated end-to-end metrics; the job times vary with the host by
    # more than any bound allows, so traced runs report them ungated
    units = {"peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s"}
    values = report["per_layer"] if trace else report["end_to_end"]
    if trace:
        units = PER_LAYER
    return {
        "correct": (report["attempted"] > 0 and report["failed"] == 0
                    and report["incorrect"] == 0),
        "attempted": report["attempted"],
        "failed": report["failed"] + report["incorrect"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pyramid", "join", "sql"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "gdal_ray")):
        print(f"no engine to measure: {ROOT} has no gdal_ray package",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    reports = os.path.join(RUN_DIR, "reports")
    os.makedirs(reports, exist_ok=True)
    path = os.path.join(reports, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)
    line = result_line(report, bool(args.trace))
    ctx = report["context"]
    print(json.dumps({
        "report": os.path.relpath(path, ROOT), "jobs": report["attempted"],
        "job_s_quartiles": report.get("job_s_quartiles"),
        "probe_ms": [round(j["probe_ms"], 2) for j in report["jobs"]],
        "native_twins": ctx.get("native_twins"),
        "ray": ctx["ray"], "pyarrow": ctx["pyarrow"],
        "num_cpus": ctx["num_cpus"],
        "errors": [j["error"] for j in report["jobs"] if j.get("error")][:3],
        "layer_pass_error": ctx.get("layer_pass_error"),
    }))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
