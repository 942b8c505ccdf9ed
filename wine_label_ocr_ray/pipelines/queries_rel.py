"""Relational + stream-shaped queries over the driver's TPC-H-ish
tables (the engine's general query capability: filter, project,
aggregate, join, sort/limit, distinct, union, windows, as-of join).

Every function takes ``sf_dir`` and returns a small pandas DataFrame /
Dataset; each has a DuckDB oracle twin in queries.py with IDENTICAL
column names (driver hash-compares sorted columns). Float outputs are
rounded to 3+ decimals on both sides (see _qutil.round_df).

The semi- and anti-joins (q3's customer filter, ``q4_semi_join``,
``anti_join_customers``) share one volume-gated implementation,
``_semi_join``; their ``broadcast_max`` keyword forces either leg.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Sum

from ._qutil import empty_frame, join_partitions, one_row, read_table

# ---------------------------------------------------------------- q1

def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: filtered scan -> grouped aggregate. Pattern:
    predicate+column pushdown at the read, Ray-native grouped
    aggregation (internally partial-aggregated per block)."""
    cutoff = _dt.datetime(1998, 9, 3)
    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
        filter=(pc.field("l_shipdate") < pa.scalar(cutoff)))

    def derive(t: pa.Table) -> pa.Table:
        # exact integer-cent arithmetic: sums become order-independent
        # int64, so parallel partial aggregation is bit-identical to the
        # sequential DuckDB oracle (no float-rounding boundary risk)
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                         pa.int64())
        tax_c = pc.cast(pc.round(pc.multiply(t["l_tax"], 100.0)), pa.int64())
        disc_price_e4 = pc.multiply(cents, pc.subtract(pa.scalar(100),
                                                       disc_c))
        charge_e6 = pc.multiply(disc_price_e4, pc.add(pa.scalar(100), tax_c))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": pc.cast(t["l_quantity"], pa.int64()),
            "price_c": cents, "disc_c": disc_c,
            "disc_price_e4": disc_price_e4, "charge_e6": charge_e6})

    out = (ds.map_batches(derive, batch_format="pyarrow")
             .groupby(["l_returnflag", "l_linestatus"])
             .aggregate(Sum("qty", alias_name="sum_qty"),
                        Sum("price_c", alias_name="price_c"),
                        Sum("disc_c", alias_name="disc_c"),
                        Sum("disc_price_e4", alias_name="disc_price_e4"),
                        Sum("charge_e6", alias_name="charge_e6"),
                        Count(alias_name="count_order"))
             .to_pandas())
    from ._qutil import ensure_columns
    out = ensure_columns(out, ["l_returnflag", "l_linestatus", "sum_qty",
                               "price_c", "disc_c", "disc_price_e4",
                               "charge_e6", "count_order"])
    n = out["count_order"].astype(np.float64)
    out["sum_base_price"] = out["price_c"].astype(np.float64) / 100
    out["sum_disc_price"] = out["disc_price_e4"].astype(np.float64) / 10000
    out["sum_charge"] = out["charge_e6"].astype(np.float64) / 1000000
    out["avg_qty"] = out["sum_qty"].astype(np.float64) / n
    out["avg_price"] = out["price_c"].astype(np.float64) / 100 / n
    out["avg_disc"] = out["disc_c"].astype(np.float64) / 100 / n
    return out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
                "sum_disc_price", "sum_charge", "avg_qty", "avg_price",
                "avg_disc", "count_order"]]


Q1_SQL = """
WITH c AS (
  SELECT l_returnflag, l_linestatus,
         CAST(l_quantity AS BIGINT) AS qty,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(round(l_discount * 100) AS BIGINT) AS disc_c,
         CAST(round(l_tax * 100) AS BIGINT) AS tax_c
  FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-03')
SELECT l_returnflag, l_linestatus,
       sum(qty)::BIGINT AS sum_qty,
       sum(price_c)::DOUBLE / 100 AS sum_base_price,
       sum(price_c * (100 - disc_c))::DOUBLE / 10000 AS sum_disc_price,
       sum(price_c * (100 - disc_c) * (100 + tax_c))::DOUBLE / 1000000
           AS sum_charge,
       sum(qty)::DOUBLE / count(*) AS avg_qty,
       sum(price_c)::DOUBLE / 100 / count(*) AS avg_price,
       sum(disc_c)::DOUBLE / 100 / count(*) AS avg_disc,
       count(*) AS count_order
FROM c GROUP BY l_returnflag, l_linestatus
"""

# ---------------------------------------------------------------- q6

def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape: tight filter -> global sum (single row)."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_extendedprice", "l_discount", "l_quantity",
                             "l_shipdate"],
                    filter=((pc.field("l_shipdate") >=
                             pa.scalar(_dt.datetime(1996, 1, 1))) &
                            (pc.field("l_shipdate") <
                             pa.scalar(_dt.datetime(1997, 1, 1)))))

    def rev(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.and_(pc.greater_equal(t["l_discount"], 0.05),
                            pc.less_equal(t["l_discount"], 0.07)),
                    pc.less(t["l_quantity"], 24.0))
        t = t.filter(m)
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                          pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                         pa.int64())
        return pa.table({"revenue_e4": pc.multiply(price_c, disc_c)})

    total = ds.map_batches(rev, batch_format="pyarrow").sum("revenue_e4")
    return one_row(revenue=float(total or 0) / 10000)


Q6_SQL = """
SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * CAST(round(l_discount * 100) AS BIGINT))::DOUBLE / 10000
    AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""

# ---------------------------------------------------------- sort/limit

def top_orders(sf_dir: str) -> pd.DataFrame:
    """Global sort + limit (top-k by totalprice, deterministic
    tie-break on orderkey)."""
    ds = read_table(sf_dir, "orders",
                    columns=["o_orderkey", "o_totalprice", "o_orderpriority"])
    return (ds.sort(["o_totalprice", "o_orderkey"],
                    descending=[True, False])
              .limit(10).to_pandas())


TOP_ORDERS_SQL = """
SELECT o_orderkey, o_totalprice, o_orderpriority
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""

# ------------------------------------------------------------ distinct

def distinct_segments(sf_dir: str) -> pd.DataFrame:
    vals = read_table(sf_dir, "customer",
                      columns=["c_mktsegment"]).unique("c_mktsegment")
    return pd.DataFrame({"c_mktsegment": sorted(vals or [])})


DISTINCT_SEGMENTS_SQL = "SELECT DISTINCT c_mktsegment FROM customer"


def count_distinct_cust(sf_dir: str) -> pd.DataFrame:
    n = len(read_table(sf_dir, "orders",
                       columns=["o_custkey"]).unique("o_custkey") or [])
    return one_row(n_customers=n)


COUNT_DISTINCT_SQL = \
    "SELECT count(DISTINCT o_custkey) AS n_customers FROM orders"

# -------------------------------------------------------------- union

def union_priority_counts(sf_dir: str) -> pd.DataFrame:
    """Union of two filtered scans -> grouped count."""
    cols = ["o_orderstatus", "o_orderpriority"]
    f = read_table(sf_dir, "orders", columns=cols,
                   filter=(pc.field("o_orderstatus") == "F"))
    o = read_table(sf_dir, "orders", columns=cols,
                   filter=(pc.field("o_orderstatus") == "O"))
    out = (f.union(o).groupby("o_orderpriority")
            .aggregate(Count(alias_name="n")).to_pandas())
    return out


UNION_PRIORITY_SQL = """
SELECT o_orderpriority, count(*) AS n FROM (
  SELECT o_orderpriority FROM orders WHERE o_orderstatus = 'F'
  UNION ALL
  SELECT o_orderpriority FROM orders WHERE o_orderstatus = 'O'
) GROUP BY o_orderpriority
"""

# ------------------------------------------------------------- joins

# Distinct-key count up to which ``_semi_join`` broadcasts its key set
# instead of joining (the same volume-routing shape as
# minhash_lsh_pairs' verify legs, queries_docs.py).
SEMI_BROADCAST_MAX = 500_000


def _semi_join(ds, col: str, keys_from, key_col: str, *, anti: bool,
               broadcast_max: int):
    """Rows of ``ds`` whose ``col`` is (``anti``: is not) among the
    ``key_col`` values of ``keys_from``. The key set is a distributed
    distinct (per-batch partial dedup, then a groupby) and is
    volume-gated: up to ``broadcast_max`` distinct keys (and always
    when there are none) it is pulled once and broadcast (``ray.put`` + ``np.isin``); above, it never
    lands on the driver — a distributed ``left_semi`` / ``left_anti``
    ``Dataset.join`` co-partitions ``ds`` against the key Dataset (the
    100-TB form; at that scale keys are billions of rows)."""
    keys_ds = (keys_from.map_batches(
                   lambda t: pa.table({col: pc.unique(t[key_col])}),
                   batch_format="pyarrow")
               .groupby(col).aggregate(Count(alias_name="_n"))
               .drop_columns(["_n"])
               .materialize())
    nkeys = keys_ds.count()
    # no key set reaches the join empty: Ray's hash join fails on an
    # empty side, and the broadcast leg needs no keys
    if nkeys > max(broadcast_max, 0):
        return ds.join(keys_ds, join_type="left_anti" if anti else "left_semi",
                       num_partitions=max(2, min(join_partitions(),
                                                 nkeys // 200_000 + 2)),
                       on=(col,))
    keys = keys_ds.to_pandas()[col].to_numpy() \
        if nkeys else np.array([], dtype=np.int64)
    ref = ray.put(np.sort(keys.astype(np.int64)))

    def member(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(np.isin(
            t[col].to_numpy(zero_copy_only=False), ray.get(ref),
            invert=anti)))

    return ds.map_batches(member, batch_format="pyarrow")


def q3_shipping_priority(sf_dir: str, *,
                         broadcast_max: int = SEMI_BROADCAST_MAX
                         ) -> pd.DataFrame:
    """TPC-H Q3 shape: volume-gated semi-join on the filtered dimension
    (customer segment — ~20% of customer, fact-scale at 100 TB) + hash
    join orders<->lineitem (Dataset.join, hash-partitioned), grouped
    revenue, top 10. The segment's customer keys filter the orders
    through ``_semi_join``."""
    cutoff = _dt.datetime(1996, 3, 15)
    orders = _semi_join(
        read_table(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"],
                   filter=(pc.field("o_orderdate") < pa.scalar(cutoff))),
        "o_custkey",
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"],
                   filter=(pc.field("c_mktsegment") == "BUILDING")),
        "c_custkey", anti=False,
        broadcast_max=broadcast_max).drop_columns(["o_custkey"])

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice", "l_discount",
                             "l_shipdate"],
                    filter=(pc.field("l_shipdate") > pa.scalar(cutoff)))

    def rev(t: pa.Table) -> pa.Table:
        price_c = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                          pa.int64())
        disc_c = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                         pa.int64())
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "revenue_e4": pc.multiply(price_c,
                                      pc.subtract(pa.scalar(100), disc_c))})

    li = li.map_batches(rev, batch_format="pyarrow")
    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions(),
                     on=("l_orderkey",), right_on=("o_orderkey",))
    out = (joined.groupby(["l_orderkey", "o_orderdate"])
                 .aggregate(Sum("revenue_e4", alias_name="revenue_e4"))
                 .to_pandas())
    out["revenue"] = out["revenue_e4"].astype(np.float64) / 10000
    out = out.sort_values(["revenue", "l_orderkey"],
                          ascending=[False, True]).head(10)
    out = out.rename(columns={"l_orderkey": "o_orderkey"})
    return out[["o_orderkey", "o_orderdate",
                "revenue"]].reset_index(drop=True)


Q3_SQL = """
SELECT l_orderkey AS o_orderkey, o_orderdate,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)))::DOUBLE / 10000
           AS revenue
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1996-03-15'
  AND l_shipdate  > TIMESTAMP '1996-03-15'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey LIMIT 10
"""


def q5_region_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 shape: small dims (region/nation/customer/supplier)
    broadcast as lookup arrays; the two big tables join hash-
    partitioned; revenue grouped by nation name."""
    from ._qutil import probe_sorted, sorted_lookup
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_name", "n_regionkey"]
                        ).to_pandas()
    from ._qutil import ensure_columns
    nation = ensure_columns(nation,
                            ["n_nationkey", "n_name", "n_regionkey"])
    region = read_table(sf_dir, "region").to_pandas()
    region = ensure_columns(region, ["r_regionkey", "r_name"])
    asia_keys = set(region[region.r_name == "ASIA"].r_regionkey)
    asia_nations = nation[nation.n_regionkey.isin(asia_keys)]
    # genuinely tiny (<= 25 rows): sorted arrays for vectorized probes
    nk = asia_nations.n_nationkey.to_numpy(dtype=np.int64)
    no = np.argsort(nk, kind="stable")
    nation_keys = nk[no]
    nation_names = asia_nations.n_name.to_numpy()[no]
    # customer/supplier fact-dims: compact sorted int arrays (no Python
    # dict, no pandas materialization), probed with np.searchsorted
    cust_lk = sorted_lookup(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        "c_custkey", "c_nationkey")
    supp_lk = sorted_lookup(
        read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        "s_suppkey", "s_nationkey")
    lookups = ray.put((nation_keys, nation_names, cust_lk, supp_lk))

    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=((pc.field("o_orderdate") >=
                 pa.scalar(_dt.datetime(1996, 1, 1))) &
                (pc.field("o_orderdate") <
                 pa.scalar(_dt.datetime(1997, 1, 1)))))

    def order_nation(t: pa.Table) -> pa.Table:
        nation_keys, _, (ck_keys, ck_vals), _ = ray.get(lookups)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        cn, found = probe_sorted(ck_keys, ck_vals, ck, -1)
        keep = found & np.isin(cn, nation_keys)
        return pa.table({"o_orderkey": pa.array(
            t["o_orderkey"].to_numpy(zero_copy_only=False)[keep]),
            "cust_nation": pa.array(cn[keep])})

    orders = orders.map_batches(order_nation, batch_format="pyarrow")

    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                             "l_discount"])

    def li_nation(t: pa.Table) -> pa.Table:
        nation_keys, _, _, (sk_keys, sk_vals) = ray.get(lookups)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False)
        sn, found = probe_sorted(sk_keys, sk_vals, sk, -1)
        keep = found & np.isin(sn, nation_keys)
        price_c = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        disc_c = np.round(
            t["l_discount"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        rev_e4 = price_c * (100 - disc_c)
        return pa.table({
            "l_orderkey": pa.array(
                t["l_orderkey"].to_numpy(zero_copy_only=False)[keep]),
            "supp_nation": pa.array(sn[keep]),
            "revenue_e4": pa.array(rev_e4[keep])})

    li = li.map_batches(li_nation, batch_format="pyarrow")
    joined = li.join(orders, join_type="inner",
                     num_partitions=join_partitions(),
                     on=("l_orderkey",), right_on=("o_orderkey",))

    def same_nation(t: pa.Table) -> pa.Table:
        nation_keys, nation_names, _, _ = ray.get(lookups)
        m = pc.equal(t["supp_nation"], t["cust_nation"])
        t = t.filter(m)
        sn = t["supp_nation"].to_numpy(zero_copy_only=False)
        names, _ = probe_sorted(nation_keys, nation_names, sn, "")
        return pa.table({"n_name": pa.array(names.astype(object), pa.string()),
                         "revenue_e4": t["revenue_e4"]})

    out = (joined.map_batches(same_nation, batch_format="pyarrow")
                 .groupby("n_name").aggregate(Sum("revenue_e4",
                                                  alias_name="revenue_e4"))
                 .to_pandas())
    out["revenue"] = out["revenue_e4"].astype(np.float64) / 10000
    return out[["n_name", "revenue"]]


Q5_SQL = """
SELECT n_name,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)))::DOUBLE / 10000
           AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
"""

# ------------------------------------------------------------- events

def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h window per event_type (streaming-shaped aggregate:
    window key computed vectorized, then a grouped agg)."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def win(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t["event_type"],
            "window": pc.floor_temporal(t["ts"], unit="hour"),
            "value_c": pc.cast(pc.round(pc.multiply(t["value"], 100.0)),
                               pa.int64())})

    out = (ds.map_batches(win, batch_format="pyarrow")
             .groupby(["event_type", "window"])
             .aggregate(Count(alias_name="n"),
                        Sum("value_c", alias_name="value_c"))
             .to_pandas())
    from ._qutil import ensure_columns
    out = ensure_columns(out, ["event_type", "window", "n", "value_c"])
    out["sum_value"] = out["value_c"].astype(np.float64) / 100
    return out[["event_type", "window", "n", "sum_value"]]


EVENTS_HOURLY_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window, count(*) AS n,
       sum(CAST(round(value * 100) AS BIGINT))::DOUBLE / 100 AS sum_value
FROM events GROUP BY 1, 2
"""


_KEY_BUCKETS = 64


def _grouped_by_user(ds, fn):
    """``groupby("user_id").map_groups(fn)`` with a CONSTANT group
    count: user cardinality grows with the data and sliced map_groups
    pays ~200 µs of dispatch per group, so the shuffle key is
    hash-bucketed user_id (64 buckets) and ``fn`` runs per user inside
    each bucket via a pandas sub-groupby — the same amortization as
    the flagship's ``assemble_bucket`` and the LSH bucket salting.
    ``fn`` keeps the exact per-user input contract."""
    def add_kb(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_kb"] = (df["user_id"].to_numpy().astype(np.int64)
                     % _KEY_BUCKETS)
        return df

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        parts = [fn(g) for _, g in df.groupby("user_id", sort=False)]
        return pd.concat(parts, ignore_index=True)

    return (ds.map_batches(add_kb, batch_format="pandas")
              .groupby("_kb")
              .map_groups(per_bucket, batch_format="pandas"))


def events_sessionize(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-min inactivity gap) per user: the reference's
    stream-session lifecycle (Char_Count_TurnTable.py:141-185 arm/start/
    end) re-expressed as sorted per-key gap analysis in map_groups."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].sort_values()
        gaps = ts.diff()
        n = int((gaps.isna() | (gaps > pd.Timedelta(minutes=30))).sum())
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]],
                             "n_sessions": [n]})

    return _grouped_by_user(ds, sessions).to_pandas()


EVENTS_SESSIONIZE_SQL = """
WITH g AS (
  SELECT user_id, ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS gap
  FROM events)
SELECT user_id,
       count(*) FILTER (WHERE gap IS NULL OR gap > INTERVAL 30 MINUTE)
           AS n_sessions
FROM g GROUP BY user_id
"""


def events_asof_click(sf_dir: str) -> pd.DataFrame:
    """As-of join: each purchase matched to the latest click at-or-
    before it by the same user. Ray Data lacks a native as-of join:
    composed as union-with-side-tag -> groupby(user) -> pd.merge_asof
    within each sorted group (SURVEY guide pattern)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def split_tag(t: pa.Table) -> pa.Table:
        m = pc.is_in(t["event_type"],
                     value_set=pa.array(["purchase", "click"]))
        t = t.filter(m)
        return pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "ts": t["ts"],
            "is_purchase": pc.equal(t["event_type"], "purchase")})

    tagged = ds.map_batches(split_tag, batch_format="pyarrow")

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g.is_purchase].sort_values("ts")
        c = g[~g.is_purchase].sort_values("ts")
        if p.empty or c.empty:
            return empty_frame(event_id="int64", click_id="int64")
        m = pd.merge_asof(p[["event_id", "ts"]],
                          c[["event_id", "ts"]].rename(
                              columns={"event_id": "click_id"}),
                          on="ts", direction="backward")
        m = m.dropna(subset=["click_id"])
        return pd.DataFrame({"event_id": m["event_id"].astype("int64"),
                             "click_id": m["click_id"].astype("int64")})

    return _grouped_by_user(tagged, asof).to_pandas()


EVENTS_ASOF_SQL = """
SELECT p.event_id AS event_id, c.event_id AS click_id
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
"""


def events_sliding(sf_dir: str) -> pd.DataFrame:
    """Sliding window (60 min length, 30 min step) per event_type:
    every event is exploded into the exactly-two windows containing it,
    then a grouped aggregate — the batch re-expression of overlapping
    windows."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def explode_pd(df: pd.DataFrame) -> pd.DataFrame:
        bucket = df["ts"].dt.floor("30min")
        value_c = np.round(df["value"].to_numpy() * 100.0).astype(np.int64)
        a = pd.DataFrame({"event_type": df["event_type"], "window": bucket,
                          "value_c": value_c})
        b = pd.DataFrame({"event_type": df["event_type"],
                          "window": bucket - pd.Timedelta(minutes=30),
                          "value_c": value_c})
        return pd.concat([a, b], ignore_index=True)

    out = (ds.map_batches(explode_pd, batch_format="pandas")
             .groupby(["event_type", "window"])
             .aggregate(Count(alias_name="n"),
                        Sum("value_c", alias_name="value_c"))
             .to_pandas())
    from ._qutil import ensure_columns
    out = ensure_columns(out, ["event_type", "window", "n", "value_c"])
    out["sum_value"] = out["value_c"].astype(np.float64) / 100
    return out[["event_type", "window", "n", "sum_value"]]


EVENTS_SLIDING_SQL = """
SELECT event_type,
       time_bucket(INTERVAL 30 MINUTE, ts) - k * INTERVAL 30 MINUTE
           AS window,
       count(*) AS n,
       sum(CAST(round(value * 100) AS BIGINT))::DOUBLE / 100 AS sum_value
FROM events CROSS JOIN (SELECT unnest([0, 1]) AS k)
GROUP BY 1, 2
"""


def events_window_range(sf_dir: str) -> pd.DataFrame:
    """Per-event trailing-30-minute value range per user — the batch
    analog of the reference's 5 s sliding-window range
    (Char_Count_TurnTable.py:83-94): sorted per-key rolling window in
    map_groups, oracle via a RANGE window frame."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                               "value"])

    def rolling(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts", kind="stable")
        vc = np.round(g["value"].to_numpy() * 100.0).astype(np.int64)
        s = pd.Series(vc, index=pd.DatetimeIndex(g["ts"]))
        # closed="both" matches the SQL RANGE frame (the boundary event
        # exactly 30 minutes back is INCLUDED); pandas' default right-
        # closed window would drop it
        roll = s.rolling("30min", closed="both")
        rng = (roll.max() - roll.min()).to_numpy()
        # peer-aware: a RANGE frame includes ALL rows sharing the current
        # timestamp (even later-positioned peers); pandas rolling is
        # positional, so take the value at the LAST row of each equal-ts
        # run (its window covers every peer) and broadcast it to the run
        ts = g["ts"].to_numpy()
        if len(ts) > 1:
            new_run = ts[1:] != ts[:-1]
            last_idx = np.flatnonzero(np.append(new_run, True))
            run_id = np.cumsum(np.insert(new_run, 0, 0))
            rng = rng[last_idx][run_id]
        return pd.DataFrame({"event_id": g["event_id"].to_numpy(),
                             "value_range": rng / 100.0})

    return _grouped_by_user(ds, rolling).to_pandas()


EVENTS_WINDOW_RANGE_SQL = """
SELECT event_id,
       (max(CAST(round(value * 100) AS BIGINT)) OVER w
        - min(CAST(round(value * 100) AS BIGINT)) OVER w)::DOUBLE / 100
           AS value_range
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 30 MINUTE PRECEDING AND CURRENT ROW)
"""


EMA_ALPHA = 0.25


def events_ema(sf_dir: str) -> pd.DataFrame:
    """Final EMA (alpha=0.25) of each user's value stream in ts order —
    the reference's streaming smoother (Char_Count_TurnTable.py:78-79)
    as a per-key ordered fold. Oracle: DuckDB folds the same recursion
    with list_reduce over list(value ORDER BY ts, value) — the (ts,
    value) order key makes equal-ts rows deterministic on both sides.
    The pandas-ewm pytest remains as an independent backstop."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])

    def ema(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "value"])
        acc = None
        for v in g["value"].to_numpy():
            acc = v if acc is None else EMA_ALPHA * v + (1 - EMA_ALPHA) * acc
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]],
                             "ema_value": [round(float(acc), 6)],
                             "n_events": [len(g)]})

    return _grouped_by_user(ds, ema).to_pandas()


EVENTS_EMA_SQL = """
SELECT user_id,
       round(list_reduce(list(value ORDER BY ts, value),
                         (acc, v) -> 0.25 * v + 0.75 * acc),
             6) AS ema_value,
       count(*) AS n_events
FROM events GROUP BY user_id
"""


def q4_semi_join(sf_dir: str, *,
                 broadcast_max: int = SEMI_BROADCAST_MAX) -> pd.DataFrame:
    """Semi-join (TPC-H Q4 shape): orders per priority having at least
    one high-quantity lineitem, through ``_semi_join`` on the
    fact-derived order-key set."""
    matched = _semi_join(
        read_table(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"]),
        "o_orderkey",
        read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"],
                   filter=(pc.field("l_quantity") > 45.0)),
        "l_orderkey", anti=False, broadcast_max=broadcast_max)
    return (matched.groupby("o_orderpriority")
                   .aggregate(Count(alias_name="n")).to_pandas())


Q4_SEMI_SQL = """
SELECT o_orderpriority, count(*) AS n FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_quantity > 45)
GROUP BY o_orderpriority
"""


def anti_join_customers(sf_dir: str, *,
                        broadcast_max: int = SEMI_BROADCAST_MAX
                        ) -> pd.DataFrame:
    """Anti-join: customers with no HIGH-VALUE order (totalprice >
    300000), counted per segment, through ``_semi_join`` with
    ``anti=True`` on the fact-derived customer-key set."""
    kept = _semi_join(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        "c_custkey",
        read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"],
                   filter=(pc.field("o_totalprice") > 300000.0)),
        "o_custkey", anti=True, broadcast_max=broadcast_max)
    out = (kept.groupby("c_mktsegment")
               .aggregate(Count(alias_name="n")).to_pandas())
    if out.empty:  # Ray drops the schema of an all-empty aggregate
        out = empty_frame(c_mktsegment=object, n="int64")
    return out


ANTI_JOIN_SQL = """
SELECT c_mktsegment, count(*) AS n FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_totalprice > 300000)
GROUP BY c_mktsegment
"""


def top_orders_per_segment(sf_dir: str) -> pd.DataFrame:
    """Top-3 orders per market segment (grouped top-k: broadcast a
    dictionary-encoded customer->segment lookup — sorted int keys +
    uint8 segment codes, probed with np.searchsorted — then per-group
    head after sort)."""
    from ._qutil import probe_sorted, sorted_lookup
    keys, segs = sorted_lookup(
        read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        "c_custkey", "c_mktsegment")
    # dictionary-encode: broadcast int codes, not object strings
    seg_names, seg_codes = np.unique(segs.astype(str), return_inverse=True)
    ref = ray.put((keys, seg_codes.astype(np.int8), seg_names))
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        k, codes, names = ray.get(ref)
        c, found = probe_sorted(k, codes, df["o_custkey"].to_numpy(), -1)
        df = df[found].copy()
        df["c_mktsegment"] = names[c[found].astype(np.int64)]
        return df[["c_mktsegment", "o_orderkey", "o_totalprice"]]

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True]).head(3)

    return (orders.map_batches(tag, batch_format="pandas")
                  .groupby("c_mktsegment")
                  .map_groups(top3, batch_format="pandas").to_pandas())


TOP_PER_SEGMENT_SQL = """
SELECT c_mktsegment, o_orderkey, o_totalprice FROM (
  SELECT c_mktsegment, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY c_mktsegment
                            ORDER BY o_totalprice DESC, o_orderkey) AS rn
  FROM orders JOIN customer ON o_custkey = c_custkey)
WHERE rn <= 3
"""


# ------------------------------------------- turntable guidance replay

# The reference's constants target a ~4 fps camera; this event stream
# ticks in minutes, so the TIME-valued knobs scale by 240x
# (ocr_interval 0.25 s -> 60 s, unlock dwell 0.6 s -> 144 s) while
# the count-valued thresholds (bump 1.0, drop 5.0, margin 3.0,
# absent 8) stay the reference's.
_GUIDANCE_TIME_SCALE = 240.0


def events_turntable_guidance(sf_dir: str) -> pd.DataFrame:
    """W1+W4-W8 (Char_Count_TurnTable.py:141-359) as a batch operator:
    each user's event stream is replayed in (ts, event_id) order
    through the full throttle / EMA / peak / phase-lock / unlock-
    hysteresis / session-debounce machine, emitting one row per
    detected session. Frame signals: present = event_type != 'error'
    (the bottle-visible analog), count = value (the char-count
    analog). Per-stream state is sequential by construction; the Ray
    shape is the bucketed per-user map_groups. Rows-only (recursive
    state machine, not SQL-expressible); pytest checks hand-traced
    transitions and pipeline-vs-oracle equality."""
    from ..functions.guidance import replay_guidance
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_id", "ts", "event_type",
                             "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(
            np.int64) / 1e6
        sessions = replay_guidance(
            ts, (g["event_type"] != "error").to_numpy(),
            g["value"].to_numpy(),
            ocr_interval=0.25 * _GUIDANCE_TIME_SCALE,
            unlock_dwell=0.6 * _GUIDANCE_TIME_SCALE)
        uid = int(g["user_id"].iloc[0])
        rows = [{**s, "user_id": uid} for s in sessions]
        cols = ["user_id", "session_id", "start_ts", "end_ts",
                "n_frames", "n_ocr", "peak_count", "locked",
                "first_lock_ts", "n_locks", "n_unlocks", "n_captures",
                "captured"]
        return pd.DataFrame(rows, columns=cols)

    out = _grouped_by_user(ds, per_user).to_pandas()
    from ._qutil import ensure_columns
    out = ensure_columns(out, ["user_id", "session_id", "start_ts",
                               "end_ts", "n_frames", "n_ocr",
                               "peak_count", "locked", "first_lock_ts",
                               "n_locks", "n_unlocks", "n_captures",
                               "captured"])
    return (out.sort_values(["user_id", "session_id"])
               .reset_index(drop=True))
