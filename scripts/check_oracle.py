"""Self-check: run every queries() entry and its DuckDB oracle at a
given sf_dir and compare row count, column names (sorted) and values —
an approximation of the driver's correctness gate.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(mine: pd.DataFrame, theirs: pd.DataFrame) -> str | None:
    """Canonicalize a query result and its oracle's result, then diff
    column names, row count and values (floats within 1e-6, everything
    else as strings). Returns the first difference, or None on a match."""
    mine, theirs = canon(mine), canon(theirs)
    if list(mine.columns) != list(theirs.columns):
        return f"columns {list(mine.columns)} vs {list(theirs.columns)}"
    if len(mine) != len(theirs):
        return f"rows {len(mine)} vs {len(theirs)}"
    for c in mine.columns:
        a, b = mine[c], theirs[c]
        if pd.api.types.is_float_dtype(a):
            ok = np.allclose(a.to_numpy(dtype=float), b.to_numpy(dtype=float),
                             rtol=0, atol=1e-6, equal_nan=True)
        else:
            ok = a.astype(str).equals(b.astype(str))
        if not ok:
            bad = (a.astype(str) != b.astype(str))
            return (f"column {c} differs, e.g.\n"
                    f"{pd.concat([a[bad].head(3), b[bad].head(3)], axis=1)}")
    return None


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from gdal_ray.pipelines import queries as Q

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    oracles = Q.oracle_sql()
    # one untimed Ray Data execution first, so that Ray Data's start-up
    # cost is not charged to the first query's seconds
    ray.data.range(8).map_batches(lambda b: b).materialize()
    failures = 0
    for name, fn in Q.QUERIES.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: {len(mine)} rows (no oracle; rows-only) [{dt:.1f}s]")
            continue
        try:
            theirs = con.execute(sql).df()
        except Exception as e:
            print(f"FAIL {name}: oracle raised {e}")
            failures += 1
            continue
        err = compare(mine, theirs)
        if err is None:
            print(f"OK   {name}: {len(mine)} rows match [{dt:.1f}s]")
        else:
            print(f"FAIL {name}: {err}")
            failures += 1
    print("failures:", failures)
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
