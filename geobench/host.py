"""Host-side measurement: CPU and memory of this process plus every Ray
process (read from /proc), a fixed contention probe, and the context
recorded beside every report."""

from __future__ import annotations

import os
import platform
import threading
import time

import numpy as np

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name sits in parentheses and may hold spaces
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """root and all of its descendants (Ray's daemons and workers are
    started beneath the process that calls ray.init)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids) -> dict[int, float]:
    """User + system CPU seconds per live pid, including reaped
    children."""
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime: fields 14-17 of stat(5)
            out[pid] = sum(int(v) for v in fields[11:15]) / _TICK
    return out


def tree_cpu(root: int) -> dict[int, float]:
    return cpu_seconds(process_tree(root))


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU spent between two snapshots; a process born in between
    counts from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def pss_bytes(pids) -> int:
    """Summed proportional set size: a page that n processes share
    (Ray's object store, shared libraries) counts 1/n in each."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1]) * 1024
                        break
        except (OSError, ValueError):
            pass
    return total


class MemorySampler:
    """Background thread: high-water mark of the summed PSS of the
    process tree, re-listing the tree on every sample so that
    short-lived workers are seen."""

    INTERVAL_S = 0.25

    def __init__(self, root: int):
        self.root = root
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, pss_bytes(process_tree(self.root)))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def contention_probe() -> float:
    """Milliseconds for a fixed slice of interpreter and numpy work.
    Slower than usual means the host is contended; it is recorded
    beside the metrics and never used to rescale them."""
    t0 = time.perf_counter()
    a = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) / 1e4
    for _ in range(20):
        a = np.tanh(a @ a.T / 160.0)
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def steal_ticks() -> int:
    """Cumulative CPU steal from /proc/stat (0 where not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


def native_twins() -> dict[str, str]:
    """Whether each native C twin loads or the Python fallback runs.
    The loader swallows build failures, so this asks each getter."""
    from gdal_ray.codecs import native

    state = {}
    for name in sorted(n for n in dir(native) if n.startswith("get_")):
        try:
            lib = getattr(native, name)()
        except Exception as e:  # a broken twin is context, not a crash
            state[name[4:]] = f"error: {type(e).__name__}"
            continue
        state[name[4:]] = "native" if lib is not None else "fallback"
    return state


def versions(num_cpus: int) -> dict:
    import pyarrow
    import ray

    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": np.__version__, "python": platform.python_version(),
            "num_cpus": num_cpus, "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS")}
