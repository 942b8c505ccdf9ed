"""Record-level dedup stages (reference J1/J2/D1/D4 semantics).

- ``best_match``: the scan-and-store decision
  (``ocr_scripts[NOT BEING USED]/scan_and_store.py:122-164``): exact
  canonical-key hit -> ("seen", 100); else fuzzy token_set_ratio over
  maker_norm with vintage blocking (same-vintage candidates preferred,
  +5 bonus capped at 100) and threshold 85, for one probe against a
  list. ``decide_distributed`` makes the same decision for a probe
  Dataset against a DB Dataset without broadcasting the DB.
- ``blob_near_dup_pairs``: D4 geometric near-dup
  (``similarity_functions/BlobSimilarity.py:105-144``) over candidate
  pairs blocked by vintage (the reference's J2 blocking key reused) —
  pairwise scoring only within blocks, never all-to-all. A hot vintage
  is salted into sub-block pairs, and one function,
  ``blob_pairs_in_block``, scores a whole block and a salted group
  alike (a whole block is the diagonal case).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import fuzzy as F
from ..functions.blobs import blob_similarity
from .bucketing import hash_mod as _hash_mod


def best_match(db: List[Dict], maker_norm: str, vintage: Optional[str],
               maker_threshold: int = 85):
    """Exact port of ``scan_and_store.best_match`` (:122-164) against a
    list of {maker_norm, vintage, key, id} records."""
    if not db:
        return "not seen", None, 0, "db empty"
    key = f"{maker_norm}|{vintage or ''}"
    for it in db:
        if it.get("key") == key and key != "|":
            return "seen", it, 100, "exact canonical key match"
    cands = db
    if vintage:
        same_vintage = [it for it in db if it.get("vintage") == vintage]
        if same_vintage:
            cands = same_vintage
    best_item, best_score = None, -1
    for it in cands:
        score = F.token_set_ratio(maker_norm, it.get("maker_norm", ""))
        if vintage and it.get("vintage") == vintage:
            score = min(100, score + 5)
        if score > best_score:
            best_score = score
            best_item = it
    if best_score >= maker_threshold and best_item:
        return "seen", best_item, best_score, \
            f"fuzzy maker match >= {maker_threshold}"
    return "not seen", best_item, best_score, "no sufficient match"


_DECISION_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("decision", pa.string()),
    ("score", pa.int64()), ("match_id", pa.string()),
    ("reason", pa.string())])

# exact-leg cogroup carrier: probes pass through with their match (or
# none); schema shared by both union sides so blocks concatenate
_EXACT_SCHEMA = pa.schema([
    ("role", pa.string()), ("doc_id", pa.string()),
    ("maker_norm", pa.string()), ("vintage_str", pa.string()),
    ("key", pa.string()), ("record_id", pa.string()),
    ("kb", pa.int32())])

_FALLBACK_PARTIAL_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("score", pa.float64()),
    ("db_doc", pa.string()), ("match_id", pa.string())])


def _tok_sets(makers) -> List[frozenset]:
    return [frozenset((m or "").split()) for m in makers]


def _exact_cogroup(df: pd.DataFrame) -> pa.Table:
    """One key-hash bucket: resolve probes against the FIRST (min
    db doc_id) DB record per exact key; matched probes carry their
    match_id, unmatched pass through for the fuzzy legs."""
    d = df[df["role"] == "d"]
    p = df[df["role"] == "p"]
    if len(d):
        first = (d.sort_values(["key", "doc_id"])
                  .drop_duplicates("key")[["key", "record_id"]])
        merged = p.drop(columns=["record_id"]).merge(
            first, on="key", how="left")
    else:
        merged = p.copy()
        merged["record_id"] = None
    return pa.Table.from_pandas(
        merged[[c.name for c in _EXACT_SCHEMA]], schema=_EXACT_SCHEMA,
        preserve_index=False).replace_schema_metadata(None)


def _fuzzy_block(df: pd.DataFrame, *, maker_threshold: int) -> pa.Table:
    """One vintage block (probe vintage bucket NON-empty): argmax of
    token_set_ratio + 5 (capped at 100, ``bonus_all``) over the block's
    DB records in DB order (ascending doc_id; strict > keeps the
    first max, matching ``best_match``)."""
    d = df[df["role"] == "d"].sort_values("doc_id")
    p = df[df["role"] == "p"]
    out = {k: [] for k in ("doc_id", "decision", "score", "match_id",
                           "reason")}
    dtoks = _tok_sets(d["maker_norm"].tolist())
    dids = d["record_id"].tolist()
    for pdoc, pmaker in zip(p["doc_id"], p["maker_norm"]):
        ptoks = set((pmaker or "").split())
        best_score, best_id = -1.0, None
        for toks, rid in zip(dtoks, dids):
            s = min(100, F.token_set_ratio_sets(ptoks, toks) + 5)
            if s > best_score:
                best_score, best_id = s, rid
        seen = best_score >= maker_threshold and best_id is not None
        out["doc_id"].append(pdoc)
        out["decision"].append("seen" if seen else "not seen")
        out["score"].append(int(best_score))
        out["match_id"].append(best_id)
        out["reason"].append(f"fuzzy maker match >= {maker_threshold}"
                             if seen else "no sufficient match")
    return pa.Table.from_pydict(out, schema=_DECISION_SCHEMA)


def _fallback_partial(df: pd.DataFrame) -> pa.Table:
    """One DB partition: per-probe partial argmax (NO vintage bonus —
    fallback probes have no vintage, or a vintage absent from the DB,
    so ``best_match``'s bonus can never fire). Emits the partition's
    best (score, db_doc, match_id) per probe."""
    d = df[df["role"] == "d"].sort_values("doc_id")
    p = df[df["role"] == "p"]
    out = {k: [] for k in ("doc_id", "score", "db_doc", "match_id")}
    if len(d):
        dtoks = _tok_sets(d["maker_norm"].tolist())
        dids = d["record_id"].tolist()
        ddocs = d["doc_id"].tolist()
        for pdoc, pmaker in zip(p["doc_id"], p["maker_norm"]):
            ptoks = set((pmaker or "").split())
            best_score, best_i = -1.0, -1
            for i, toks in enumerate(dtoks):
                s = F.token_set_ratio_sets(ptoks, toks)
                if s > best_score:
                    best_score, best_i = s, i
            out["doc_id"].append(pdoc)
            out["score"].append(float(best_score))
            out["db_doc"].append(ddocs[best_i])
            out["match_id"].append(dids[best_i])
    return pa.Table.from_pydict(out, schema=_FALLBACK_PARTIAL_SCHEMA)


def decide_distributed(probe_ds, db_ds, *, maker_threshold: int = 85,
                       num_buckets: int = 64,
                       db_rows_per_part: int = 2048):
    """Scale-safe ``best_match`` over probe and DB Datasets — the DB is
    never ``take_all()``'d to the driver or broadcast (round-2 verdict:
    the broadcast side was O(n)). Semantics are those of
    ``best_match`` over the DB in ascending ``doc_id`` order
    (pytest-asserted), that order expressed as min-doc_id tiebreaks:

    - exact leg (J1): key-hash-bucketed cogroup; first-occurrence =
      min db doc_id per key.
    - fuzzy vintage leg (J2): probes whose vintage EXISTS in the DB
      cogroup with their vintage block (vintage is a year string —
      bounded cardinality — so the block groupby is a narrow shuffle;
      the per-block pairwise scoring is the reference's own O(|block|)
      algorithm).
    - fuzzy fallback: probes with no vintage / an unseen vintage must
      scan the whole DB (reference semantics). Each probe is
      replicated to every DB hash-partition, partitions emit partial
      argmaxes, and a bucketed combine takes max score with min-db-doc
      tiebreak — no partition ever holds the whole DB.

    probe_ds columns: (doc_id, maker_norm, vintage_str);
    db_ds columns: (doc_id, maker_norm, vintage_str, key, record_id).
    Returns a decisions Dataset with ``_DECISION_SCHEMA``.
    """
    import functools

    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    db_count = db_ds.count()
    if db_count == 0:
        def empty_dec(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.Table.from_pydict(
                {"doc_id": t["doc_id"],
                 "decision": pa.array(["not seen"] * n, pa.string()),
                 "score": pa.array([0] * n, pa.int64()),
                 "match_id": pa.array([None] * n, pa.string()),
                 "reason": pa.array(["db empty"] * n, pa.string())},
                schema=_DECISION_SCHEMA)
        return probe_ds.map_batches(empty_dec, batch_format="pyarrow")

    # --- exact leg: bucketed cogroup on key -------------------------
    def tag(role: str):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                "role": pa.array([role] * n, pa.string()),
                "doc_id": t["doc_id"].cast(pa.string()),
                "maker_norm": t["maker_norm"].cast(pa.string()),
                "vintage_str": t["vintage_str"].cast(pa.string()),
                "key": t["key"].cast(pa.string()) if "key" in
                t.schema.names else pa.nulls(n, pa.string()),
                "record_id": t["record_id"].cast(pa.string()) if
                "record_id" in t.schema.names else pa.nulls(n, pa.string()),
            }
            tt = pa.Table.from_pydict(
                cols, schema=pa.schema(list(_EXACT_SCHEMA)[:-1]))
            return tt.append_column("kb", _hash_mod(tt["key"],
                                                    num_buckets))
        return f

    db_exact = db_ds.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["key"], "|"))),
        batch_format="pyarrow").map_batches(tag("d"),
                                            batch_format="pyarrow")
    probes_tagged = probe_ds.map_batches(
        lambda t: t.append_column(
            "key", pc.binary_join_element_wise(
                pc.cast(t["maker_norm"], pa.string()),
                pc.coalesce(pc.cast(t["vintage_str"], pa.string()), ""),
                "|")),
        batch_format="pyarrow").map_batches(tag("p"),
                                            batch_format="pyarrow")

    # three downstream branches (exact hits / blocked / fallback) read
    # this; materializing the slim 7-scalar-column table (same O(n)
    # footprint class as the caller's projected recs) runs the
    # key-bucket shuffle ONCE instead of once per branch
    resolved = (probes_tagged.union(db_exact)
                .groupby("kb")
                .map_groups(_exact_cogroup, batch_format="pandas")
                .materialize())

    exact_hits = resolved.map_batches(
        lambda t: pa.Table.from_pydict(
            {"doc_id": (m := t.filter(pc.and_(
                pc.is_valid(t["record_id"]),
                pc.invert(pc.equal(t["key"], "|")))))["doc_id"],
             "decision": pa.array(["seen"] * m.num_rows, pa.string()),
             "score": pa.array([100] * m.num_rows, pa.int64()),
             "match_id": m["record_id"],
             "reason": pa.array(["exact canonical key match"] *
                                m.num_rows, pa.string())},
            schema=_DECISION_SCHEMA),
        batch_format="pyarrow")
    unmatched = resolved.map_batches(
        lambda t: t.filter(pc.or_(pc.is_null(t["record_id"]),
                                  pc.equal(t["key"], "|")))
        .select(["doc_id", "maker_norm", "vintage_str"]),
        batch_format="pyarrow")

    # --- split unmatched probes by whether their vintage bucket is
    # non-empty in the DB (distinct vintages are years: the collected
    # set is bounded ~200 values, a scale-safe driver broadcast) -----
    db_vintages = sorted(
        r["vintage_str"] for r in
        db_ds.map_batches(lambda t: t.filter(
            pc.is_valid(t["vintage_str"])), batch_format="pyarrow")
        .groupby("vintage_str").aggregate(Count()).take_all())
    vset = pa.array(db_vintages, pa.string())

    def in_db_vintage(t: pa.Table, invert: bool) -> pa.Table:
        mask = pc.and_(pc.is_valid(t["vintage_str"]),
                       pc.is_in(t["vintage_str"], value_set=vset))
        return t.filter(pc.invert(mask) if invert else mask)

    blocked_probes = unmatched.map_batches(
        functools.partial(in_db_vintage, invert=False),
        batch_format="pyarrow")
    fallback_probes = unmatched.map_batches(
        functools.partial(in_db_vintage, invert=True),
        batch_format="pyarrow")

    # --- fuzzy vintage leg ------------------------------------------
    def tag_slim(role: str):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "role": pa.array([role] * n, pa.string()),
                "doc_id": t["doc_id"].cast(pa.string()),
                "maker_norm": t["maker_norm"].cast(pa.string()),
                "vintage_str": t["vintage_str"].cast(pa.string()),
                "record_id": t["record_id"].cast(pa.string()) if
                "record_id" in t.schema.names else pa.nulls(n, pa.string()),
            })
        return f

    db_vint = db_ds.map_batches(
        lambda t: t.filter(pc.is_valid(t["vintage_str"])),
        batch_format="pyarrow").map_batches(tag_slim("d"),
                                            batch_format="pyarrow")
    blocked_dec = (blocked_probes.map_batches(tag_slim("p"),
                                              batch_format="pyarrow")
                   .union(db_vint)
                   .groupby("vintage_str")
                   .map_groups(functools.partial(
                       _fuzzy_block, maker_threshold=maker_threshold),
                       batch_format="pandas"))

    # --- fuzzy fallback: probe replicated to every DB partition -----
    nparts = max(1, min(32, db_count // db_rows_per_part + 1))

    def assign_part(t: pa.Table) -> pa.Table:
        return t.append_column("part", _hash_mod(t["doc_id"], nparts))

    def replicate(t: pa.Table) -> pa.Table:
        idx = np.repeat(np.arange(t.num_rows), nparts)
        rep = t.take(pa.array(idx, pa.int64()))
        return rep.append_column("part", pa.array(
            np.tile(np.arange(nparts, dtype=np.int32), t.num_rows),
            pa.int32()))

    db_parts = db_ds.map_batches(tag_slim("d"), batch_format="pyarrow") \
        .map_batches(assign_part, batch_format="pyarrow")
    partials = (fallback_probes.map_batches(tag_slim("p"),
                                            batch_format="pyarrow")
                .map_batches(replicate, batch_format="pyarrow")
                .union(db_parts)
                .groupby("part")
                .map_groups(_fallback_partial, batch_format="pandas"))

    def _fallback_combine(df: pd.DataFrame) -> pa.Table:
        best = (df.sort_values(["doc_id", "score", "db_doc"],
                               ascending=[True, False, True])
                  .drop_duplicates("doc_id"))
        seen = best["score"] >= maker_threshold
        return pa.Table.from_pydict(
            {"doc_id": best["doc_id"].tolist(),
             "decision": np.where(seen, "seen", "not seen").tolist(),
             "score": best["score"].astype("int64").tolist(),
             "match_id": best["match_id"].tolist(),
             "reason": np.where(
                 seen, f"fuzzy maker match >= {maker_threshold}",
                 "no sufficient match").tolist()},
            schema=_DECISION_SCHEMA)

    fallback_dec = (partials.map_batches(
        lambda t: t.append_column("fb", _hash_mod(t["doc_id"],
                                                  num_buckets)),
        batch_format="pyarrow")
        .groupby("fb")
        .map_groups(_fallback_combine, batch_format="pandas"))

    return exact_hits.union(blocked_dec).union(fallback_dec)


def blob_pairs_in_block(g: pd.DataFrame, *, threshold: float,
                        pair_threshold: float) -> pd.DataFrame:
    """Pairwise blob similarity within one block: a whole vintage
    block, or a salted (vintage, sub-block-pair) group. A whole block
    and a diagonal group (a, a) own all their pairs; an off-diagonal
    group (a, b) owns only CROSS pairs (one row of each sub-block) —
    same-sub pairs there belong to the diagonal group."""
    rows = g.sort_values("doc_id").to_dict("records")
    blobs = [r["blob"] for r in rows]  # struct -> dict, no JSON parse
    diag = bool(rows[0].get("diag", True)) if rows else True
    out = {"doc_a": [], "doc_b": [], "blob_score": [], "similar": []}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not diag and rows[i]["my_sub"] == rows[j]["my_sub"]:
                continue
            similar, details = blob_similarity(
                blobs[i], blobs[j], threshold=threshold,
                pair_threshold=pair_threshold, return_details=True)
            if details["score"] > 0.0:
                out["doc_a"].append(rows[i]["doc_id"])
                out["doc_b"].append(rows[j]["doc_id"])
                out["blob_score"].append(round(details["score"], 6))
                out["similar"].append(bool(similar))
    return pd.DataFrame(out) if out["doc_a"] else pd.DataFrame(
        {"doc_a": pd.Series([], dtype="object"),
         "doc_b": pd.Series([], dtype="object"),
         "blob_score": pd.Series([], dtype="float64"),
         "similar": pd.Series([], dtype="bool")})


def blob_near_dup_pairs(records_ds, *, threshold: float = 0.55,
                        pair_threshold: float = 0.22,
                        max_block_rows: Optional[int] = 512):
    """records Dataset with (doc_id, vintage, blob) -> candidate pairs
    scored by D4 within vintage blocks. Records without vintage or
    without blobs are excluded (empty sides always decide False,
    ``BlobSimilarity.py:123-127``).

    Skew handling (hot blocking keys): a vintage block with n rows does
    O(n^2) pairwise work in ONE map_groups task. Blocks larger than
    ``max_block_rows`` are salted into S = ceil(n / cap) sub-blocks by
    doc-id hash, and every row is replicated into each (sub_a, sub_b)
    block-pair it participates in — the exact same pair set, spread
    over S*(S+1)/2 tasks. Needs the per-vintage counts first (a tiny
    grouped count, broadcast to the salting stage).
    """
    import functools
    import math

    import pyarrow.compute as pc
    import ray
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        blob = t["blob"]
        if isinstance(blob, pa.ChunkedArray):
            blob = blob.combine_chunks()
        counts = pc.struct_field(blob, "blob_count")
        keep = pc.and_(pc.greater(counts, 0),
                       pc.is_valid(t["vintage"]))
        t2 = t.filter(keep)
        # the blob STRUCT itself rides the shuffle (compact Arrow, no
        # JSON duplicate, no per-row Python serialization); the pair
        # fns receive per-row dicts from Arrow's pandas conversion
        return pa.table({"doc_id": t2["doc_id"],
                         "vintage": t2["vintage"],
                         "blob": t2["blob"]})

    prepped = records_ds.map_batches(prep, batch_format="pyarrow")
    fn = functools.partial(blob_pairs_in_block, threshold=threshold,
                           pair_threshold=pair_threshold)

    if max_block_rows is not None:
        # tiny grouped count -> S per vintage, broadcast
        sizes = (prepped.groupby("vintage")
                 .aggregate(Count(alias_name="n")).to_pandas())
        splits = {int(r.vintage): max(1, math.ceil(r.n / max_block_rows))
                  for r in sizes.itertuples()}
        if any(s > 1 for s in splits.values()):
            splits_ref = ray.put(splits)

            def salt(df: pd.DataFrame) -> pd.DataFrame:
                import zlib
                sp = ray.get(splits_ref)
                out = []
                for r in df.itertuples(index=False):
                    s = sp.get(int(r.vintage), 1)
                    my = zlib.crc32(str(r.doc_id).encode()) % s
                    for other in range(s):
                        a, b = min(my, other), max(my, other)
                        out.append((r.doc_id, r.vintage, r.blob,
                                    a * s + b, my, a == b))
                return pd.DataFrame(out, columns=["doc_id", "vintage",
                                                  "blob", "sub",
                                                  "my_sub", "diag"])

            return (prepped.map_batches(salt, batch_format="pandas")
                    .groupby(["vintage", "sub"])
                    .map_groups(fn, batch_format="pandas"))

    return (prepped.groupby("vintage")
                   .map_groups(fn, batch_format="pandas"))
