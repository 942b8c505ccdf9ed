"""Shared helpers for the query suite."""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def read_table(sf_dir: str, table: str, *, columns: Optional[List[str]] = None,
               filter=None) -> "ray.data.Dataset":
    """Column-pruned (and optionally row-filtered) parquet read of one
    driver table."""
    from .._rayprep import ensure_serializable
    ensure_serializable()
    kwargs = {}
    if columns is not None:
        kwargs["columns"] = columns
    if filter is not None:
        kwargs["filter"] = filter
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                                 **kwargs)


def join_partitions() -> int:
    """Hash-join partition count scaled to the cluster: too many
    partitions on a small cluster thrashes aggregator actors, too few
    under-parallelizes the build."""
    import ray
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    # each partition spawns an aggregator actor with ~seconds of
    # startup; cap well below the CPU count
    return max(2, min(cpus // 2, 16))


def sorted_lookup(ds: "ray.data.Dataset", key_col: str, val_col: str):
    """Build a broadcastable vectorized int-key lookup from a (small- to
    mid-sized) dimension Dataset: two parallel numpy arrays sorted by
    key. Probe with :func:`probe_sorted` (np.searchsorted — no per-row
    Python). ~16 bytes/row, so a 100TB-scale customer dim ships as a
    compact array, not a Python dict."""
    t = pa.concat_tables(
        ray.get(b) for b in ds.to_arrow_refs())  # columns only, no pandas
    if t.num_rows == 0 or key_col not in t.schema.names:
        # zero-row dimension: empty lookup (probe_sorted finds nothing)
        return (np.array([], dtype=np.int64),
                np.array([], dtype=object))
    keys = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
    vals = t[val_col].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    return keys[order], vals[order]


def probe_sorted(keys: np.ndarray, vals: np.ndarray, probe: np.ndarray,
                 default):
    """Vectorized dict.get over the sorted-array lookup: returns
    (values, found_mask); misses get ``default``."""
    probe = probe.astype(np.int64, copy=False)
    idx = np.searchsorted(keys, probe)
    idx_c = np.clip(idx, 0, len(keys) - 1) if len(keys) else idx
    found = np.zeros(len(probe), dtype=bool) if not len(keys) else \
        keys[idx_c] == probe
    out = np.full(len(probe), default,
                  dtype=vals.dtype if len(keys) else None)
    if len(keys):
        out[found] = vals[idx_c[found]]
    return out, found


def round_df(df: pd.DataFrame, cols: List[str], digits: int = 3) -> pd.DataFrame:
    """Round float columns so both the Ray result and the DuckDB oracle
    hash identically (round(3+) on doubles cannot hit decimal-half
    boundaries, so numpy banker's vs SQL half-away never diverges)."""
    for c in cols:
        df[c] = np.round(df[c].astype(np.float64), digits)
    return df


def one_row(**values) -> pd.DataFrame:
    return pd.DataFrame({k: [v] for k, v in values.items()})


def ensure_columns(df, columns):
    """Ray's to_pandas() of an EMPTY (0-row) aggregated/derived
    Dataset yields a COLUMN-LESS frame; reindex to the expected
    columns so empty inputs flow through downstream column math as a
    typed-empty frame instead of KeyError. No-op on non-empty input."""
    if df.empty and not set(columns) <= set(df.columns):
        return df.reindex(columns=list(columns))
    return df


def empty_frame(**cols):
    """Typed empty DataFrame from name=dtype pairs."""
    import pandas as pd
    return pd.DataFrame({k: pd.Series([], dtype=v)
                         for k, v in cols.items()})


def result_fingerprint(obj) -> str:
    """Order-insensitive self-consistency hash of a query result
    (Dataset / DataFrame / pyarrow Table): columns sorted by name,
    floats rounded to 6 decimals, each row serialized as canonical
    JSON, rows sorted, md5 over the lot. Used to PIN the rows-only
    (non-SQL-oracled) queries against regression — the driver can't
    DuckDB-compare them, so committed fixtures of these hashes at
    sf0.001/sf0.01 stand in (tests/test_rows_only_hashes.py)."""
    import hashlib
    import json

    if hasattr(obj, "to_pandas"):
        obj = obj.to_pandas()
    df = obj[sorted(obj.columns)]

    def norm(v):
        if isinstance(v, np.ndarray):
            return [norm(x) for x in v.tolist()]
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        if isinstance(v, dict):
            return {k: norm(x) for k, x in sorted(v.items())}
        if isinstance(v, (np.floating, float)):
            return None if pd.isna(v) else round(float(v), 6)
        if isinstance(v, (np.bool_, bool)):
            return bool(v)
        if isinstance(v, np.integer):
            return int(v)
        if v is None:
            return None
        if isinstance(v, (str, int)):
            return v
        try:
            if pd.isna(v):
                return None
        except (TypeError, ValueError):
            pass
        return str(v)  # timestamps etc: deterministic repr

    rows = sorted(
        json.dumps([norm(v) for v in row], ensure_ascii=False,
                   separators=(",", ":"))
        for row in df.itertuples(index=False, name=None))
    return hashlib.md5("\n".join(rows).encode("utf-8")).hexdigest()
