"""Benchmark harness: headline flagship pipeline + query battery.

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "headline": {"n_images": N, "images_per_sec": r, ...}}

Modes:
  python bench.py                 # full bench at $GRAFT_SF_DIR / $RAY_GRAFT_CPUS
  python bench.py --headline-only # only the flagship pipeline (used by --scaling)
  python bench.py --scaling       # same headline at num_cpus=8 and 32 in fresh
                                  # processes; reports both + scaling efficiency
  python bench.py --queries a,b   # only the named battery queries, after one
                                  # untimed Ray Data execution; no headline
                                  # ("headline": null), BENCH_full.json kept
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def sf_of(path: str) -> float:
    base = os.path.basename(path.rstrip("/"))
    if base.startswith("sf"):
        try:
            return float(base[2:])
        except ValueError:
            pass
    return 0.1


def n_images_for(sf: float) -> int:
    return max(256, int(20000 * sf))


def run_headline(n_images: int) -> dict:
    """Flagship: corpus → georef → z8 tile render → overview cascade to
    z6 → image×polygon spatial join. Returns timing + output counts."""
    from gdal_ray.pipelines.tiles import build_base_tiles, build_overviews
    from gdal_ray.sources.images import images_dataset
    from gdal_ray.sources.vector import polygons_dataset
    from gdal_ray.stages.georef import with_georef
    from gdal_ray.stages.join import spatial_join

    t0 = time.time()
    # each stage re-streams the corpus from the source (the synthetic
    # generator stands in for the storage read): at the 100 TB target
    # the corpus cannot be pinned in the object store, so tile-cut and
    # join each pay their own storage scan - measuring it that way keeps
    # the benchmark representative (and the scan parallelizes)
    base = build_base_tiles(images_dataset(n_images), zoom=8).materialize()
    n_base = base.count()
    t_tiles = time.time() - t0

    t1 = time.time()
    levels = build_overviews(base, 6, 8)
    n_overview = sum(levels[z].count() for z in (6, 7))
    t_overview = time.time() - t1

    t2 = time.time()
    imgs_geo = images_dataset(n_images).map_batches(with_georef,
                                                    batch_format="pyarrow")
    n_pairs = spatial_join(imgs_geo, polygons_dataset(200), zoom=7).count()
    t_join = time.time() - t2

    total = time.time() - t0
    return {
        "n_images": n_images, "n_base_tiles": n_base,
        "n_overview_tiles": n_overview, "n_join_pairs": n_pairs,
        "t_tiles_sec": round(t_tiles, 2), "t_overview_sec": round(t_overview, 2),
        "t_join_sec": round(t_join, 2), "total_sec": round(total, 2),
        "images_per_sec": round(n_images / total, 2),
    }


def _named_queries() -> list[str] | None:
    """The battery queries ``--queries a,b,c`` names, in battery order
    (None without the flag); an unknown name exits with an error."""
    if "--queries" not in sys.argv:
        return None
    i = sys.argv.index("--queries")
    names = sys.argv[i + 1].split(",") if i + 1 < len(sys.argv) else []
    from gdal_ray.pipelines.queries import QUERIES
    unknown = sorted(set(names) - set(QUERIES))
    if unknown or not names:
        sys.exit(f"--queries: unknown or missing query names {unknown}")
    return [n for n in QUERIES if n in names]


def main():
    headline_only = "--headline-only" in sys.argv
    only = _named_queries()

    if "--scaling" in sys.argv:
        results = {}
        # fixed LARGE workload at both parallelism levels: the scaling
        # criterion measures how compute spreads across cores, so the
        # corpus must be big enough that per-stage barrier overhead
        # (a few seconds, size-independent) is a small fraction
        n_scale = os.environ.get("GRAFT_SCALING_IMAGES", "32000")
        repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "2"))
        for cpus in (8, 32):
            runs = []
            for _ in range(repeats):
                # fresh process per run; MEAN of the repeats (all runs
                # reported) — single-node runs see large transient
                # variance from the shared plasma store / page cache
                env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                           GRAFT_SF_DIR=SF_DIR, GRAFT_N_IMAGES=n_scale)
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--headline-only"],
                    env=env, capture_output=True, text=True, timeout=3600)
                line = [ln for ln in out.stdout.strip().splitlines()
                        if ln.startswith("{")][-1]
                runs.append(json.loads(line)["headline"]["images_per_sec"])
            results[cpus] = runs
        r8 = sum(results[8]) / len(results[8])
        r32 = sum(results[32]) / len(results[32])
        eff = (r32 / r8) / 4.0
        print(json.dumps({
            "metric": "tile-cut+spatial-join scaling (8 vs 32 cpus)",
            "value": round(eff, 3), "unit": "efficiency",
            "images_per_sec_8cpu": round(r8, 2),
            "images_per_sec_32cpu": round(r32, 2),
            "runs_8cpu": [round(v, 1) for v in results[8]],
            "runs_32cpu": [round(v, 1) for v in results[32]],
            "speedup": round(r32 / r8, 2),
            "sf": sf_of(SF_DIR),
            "queries": {},
        }))
        return

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based sort shuffle: measurably faster exchanges on this Ray
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    sf = sf_of(SF_DIR)
    if only is None:
        n_images = int(os.environ.get("GRAFT_N_IMAGES", "0")) \
            or n_images_for(sf)
        headline = run_headline(n_images)
        total = headline["total_sec"]
    else:
        # no headline ran: one untimed Ray Data execution takes Ray
        # Data's start-up cost off the first named query
        headline, total = None, 0.0
        ray.data.range(8).map_batches(lambda b: b).materialize()

    qtimes: dict[str, float] = {}
    if not headline_only:
        from gdal_ray.pipelines.queries import QUERIES

        for name, fn in QUERIES.items():
            if only is not None and name not in only:
                continue
            t0 = time.time()
            res = fn(SF_DIR)
            # consume lazily-built results
            if hasattr(res, "count"):
                res.count()
            dt = time.time() - t0
            qtimes[name] = round(dt, 3)
            total += dt

    payload = {
        "metric": "end-to-end tile-cut + spatial-join + query battery",
        "value": round(total, 2), "unit": "sec",
        "queries": qtimes, "sf": sf, "num_cpus": NUM_CPUS,
        "headline": headline,
    }
    ray.shutdown()
    _emit(payload, record=only is None)


def _emit(payload: dict, record: bool = True) -> None:
    """Print the bench JSON so the driver can parse it.

    The driver keeps only the LAST 2000 bytes of stdout (BENCH_r02's
    full 103-query line was ~2.6 KB and its head was cut off →
    ``parsed: null``). So: write the FULL payload to BENCH_full.json,
    print it once for humans, then print a guaranteed-short (<1800 B)
    final line — per-query dict trimmed to the slowest entries, with
    n_queries / queries_total_sec carrying the rest — as the very last
    stdout bytes."""
    full = json.dumps(payload, separators=(",", ":"))
    try:
        if record:
            with open(os.path.join(os.path.dirname(
                    os.path.abspath(__file__)), "BENCH_full.json"), "w") as f:
                f.write(full + "\n")
    except OSError:
        pass
    if len(full) <= 1800:
        print(full, flush=True)
        return
    print(full, flush=True)          # human record; may fall out of the tail
    q = payload.get("queries") or {}
    items = sorted(q.items(), key=lambda kv: -kv[1])
    k = len(items)
    line = full
    while k >= 0:
        trimmed = dict(payload,
                       queries=dict(items[:k]),
                       n_queries=len(q),
                       n_queries_reported=k,
                       queries_total_sec=round(sum(q.values()), 2),
                       full_queries_in="BENCH_full.json")
        line = json.dumps(trimmed, separators=(",", ":"))
        if len(line) <= 1800:
            break
        k -= 5
    print(line, flush=True)


if __name__ == "__main__":
    main()
