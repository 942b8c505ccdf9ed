"""Local emulation of the driver's correctness pass.

Usage: python tools/driver_emu.py [sf_dir]   (own Ray session; don't run
under the pytest fixture). Writes /tmp/correctness_emu.json.

Runs every __ray_entry__.queries() entry at sf0.01, runs the matching
oracle_sql() in DuckDB over the same parquet views, and compares
row count, schema (sorted column names), and a value hash computed
over columns sorted by name with floats rounded — mirroring the
driver's documented compare. Rows-only queries (no oracle) just get
executed and row-counted.
"""
import hashlib
import json
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import ray

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


def to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if s.dtype.kind == "f":
            df[c] = s.round(6)
        elif s.dtype == object:
            df[c] = s.map(lambda v: json.dumps(v, sort_keys=True, default=str)
                          if isinstance(v, (list, dict, np.ndarray)) else v)
    # JSON keeps value boundaries unambiguous ("a|b", "c" != "a", "b|c")
    rows = sorted(map(list, df.astype(str).itertuples(index=False,
                                                      name=None)))
    return hashlib.md5(json.dumps(rows).encode()).hexdigest()


def main():
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 ignore_reinit_error=True)
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")

    out = {}
    for name, fn in qs.items():
        t0 = time.time()
        rec = {}
        try:
            mine = to_pandas(fn(SF_DIR))
            rec["spark_rows"] = len(mine)
        except Exception as e:
            rec["err"] = f"query_failed: {type(e).__name__}: {e}"
            out[name] = rec
            print(f"{name:32s} FAIL(query) {rec['err'][:120]}", flush=True)
            continue
        sql = oracles.get(name)
        if sql is None:
            rec["err"] = "no_oracle"
            print(f"{name:32s} rows-only ({rec['spark_rows']} rows, "
                  f"{time.time()-t0:.1f}s)", flush=True)
            out[name] = rec
            continue
        try:
            ora = con.execute(sql).fetchdf()
        except Exception as e:
            rec["err"] = f"oracle_failed: {type(e).__name__}: {e}"
            out[name] = rec
            print(f"{name:32s} FAIL(oracle) {rec['err'][:120]}", flush=True)
            continue
        rec["oracle_rows"] = len(ora)
        rec["rows_match"] = len(mine) == len(ora)
        rec["schema_match"] = sorted(map(str, mine.columns)) == sorted(
            map(str, ora.columns))
        rec["hash_match"] = (rec["rows_match"] and rec["schema_match"]
                             and canon(mine) == canon(ora))
        ok = rec["hash_match"]
        print(f"{name:32s} {'PASS' if ok else 'MISMATCH'} "
              f"rows={rec['rows_match']} schema={rec['schema_match']} "
              f"hash={rec['hash_match']} ({time.time()-t0:.1f}s)", flush=True)
        out[name] = rec

    green = sum(1 for r in out.values() if r.get("hash_match"))
    rows_only = sum(1 for r in out.values() if r.get("err") == "no_oracle")
    # failed queries/oracles, and oracled queries that didn't hash-match
    bad = sorted(k for k, r in out.items()
                 if r.get("err", "no_oracle") != "no_oracle"
                 or (r.get("err") is None and not r.get("hash_match")))
    print(f"\nTOTAL {len(out)}  green {green}  rows-only {rows_only}  "
          f"bad {len(bad)}: {bad}")
    json.dump(out, open("/tmp/correctness_emu.json", "w"), indent=1)
    ray.shutdown()


if __name__ == "__main__":
    main()
