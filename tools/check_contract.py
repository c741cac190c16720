"""Local stand-in for the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry at the given sf dir, runs the
matching ``oracle_sql()`` in DuckDB over views of the same parquet tables,
and compares row count, column-name set, and order-insensitive values
(sorted by all columns, floats rounded to 9 dp before hashing).  Each
``PASS``/``pass`` line ends with the sha256 of the entry's canonical rows,
so two sweeps compare with a plain ``diff`` of their logs.

Usage: python tools/check_contract.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import numpy as np
import pandas as pd

import ray

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], bytes):
            df[c] = df[c].map(lambda b: b.hex())
        if np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
        if np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), ignore_index=True)


def row_hash(df: pd.DataFrame) -> str:
    """sha256 of canonical rows (``canon`` output) as CSV text."""
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, oracles = e.queries(), e.oracle_sql()
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: ray side raised {type(ex).__name__}: {ex}")
            failed.append(name)
            continue
        if name not in oracles:
            print(f"pass {name}: rows-only check, {len(got)} rows,"
                  f" sha256 {row_hash(got)}")
            continue
        try:
            want = canon(con.execute(oracles[name]).df())
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            failed.append(name)
            continue
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(got.columns)} vs {list(want.columns)}")
            failed.append(name)
        elif len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} vs {len(want)}")
            failed.append(name)
        elif not got.equals(want):
            neq = (got != want).any(axis=1)
            print(f"FAIL {name}: {int(neq.sum())}/{len(got)} rows differ; first:")
            print(pd.concat([got[neq].head(3), want[neq].head(3)],
                            keys=["got", "want"]))
            failed.append(name)
        else:
            print(f"PASS {name}: {len(got)} rows, {len(got.columns)} cols,"
                  f" sha256 {row_hash(got)}")
    ray.shutdown()
    print("FAILED:" if failed else "ALL PASS", failed or "")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
