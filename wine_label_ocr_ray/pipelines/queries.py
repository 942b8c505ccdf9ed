"""Query registry: name -> callable(sf_dir) and name -> DuckDB oracle
SQL (the driver's correctness gate). Queries without an oracle entry
are non-SQL-expressible (flagship extraction, sketches) and get the
driver's rows-only check."""

from __future__ import annotations

import os

import pandas as pd

from . import queries_docs as D
from . import queries_rel as R


def derived_corpus(sf_dir: str) -> str:
    """The interleaved corpus derived deterministically from this
    sf_dir's documents table, cached under /tmp by the sf_dir's name."""
    from ..synth import derive_corpus_from_documents

    tag = os.path.basename(os.path.normpath(sf_dir))
    return derive_corpus_from_documents(
        os.path.join(sf_dir, "documents.parquet"),
        f"/tmp/wlor_corpus_{tag}", seed=42)


def flagship_extract(sf_dir: str):
    """Flagship interleaved-document extraction over a corpus derived
    deterministically from this sf_dir's documents table (scalar record
    columns only; span/blob equality is covered by the pytest oracle
    suite)."""
    from ..pipelines.extract import build_extract_pipeline

    ds = build_extract_pipeline(derived_corpus(sf_dir))
    return ds.select_columns(["doc_id", "custom_id", "maker_name",
                              "maker_norm", "vintage", "barcode", "key",
                              "record_id", "valid"])


def dedup_decision(sf_dir: str) -> pd.DataFrame:
    """Scan-and-store decision pipeline (reference J1/J2): a
    deterministic content-hash half of the flagship records
    (md5(doc_id) first hex digit < '8', the ``doc_sample`` trick)
    forms the committed DB, the other half is probed — exact key, then
    vintage-blocked token_set_ratio fuzzy argmax (threshold 85). Both
    sides stay Datasets end to end (``decide_distributed``): the DB is
    cogrouped with the probes per leg, never ``take_all()``'d or
    broadcast, and the DB/probe split is a predicate (no global sort +
    split_at_indices barrier — that was the harness's last all-to-all)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.dedup import decide_distributed

    def project(t):
        t = t.filter(pc.equal(t["valid"], True))
        # key = "<maker_norm>|<vintage>" and maker_norm can't contain a
        # pipe (charset A-Z0-9 &'-), so element 1 is the vintage
        vs = pc.list_element(pc.split_pattern(t["key"], "|"), 1)
        vs = pc.if_else(pc.equal(vs, ""), pa.scalar(None, pa.string()), vs)
        in_db = pa.array([hashlib.md5(d.encode()).hexdigest()[0] < "8"
                          for d in t["doc_id"].to_pylist()], pa.bool_())
        return pa.table({"doc_id": t["doc_id"],
                         "maker_norm": t["maker_norm"],
                         "key": t["key"], "record_id": t["record_id"],
                         "vintage_str": vs, "in_db": in_db})

    # materialize the small projected table once (6 scalar columns, no
    # blobs) so the two predicate splits don't re-execute extraction
    recs = (flagship_extract(sf_dir)
            .map_batches(project, batch_format="pyarrow")
            .materialize())
    db_ds = recs.filter(expr="in_db == True").drop_columns(["in_db"])
    probe_ds = recs.filter(expr="in_db == False").select_columns(
        ["doc_id", "maker_norm", "vintage_str"])
    out = decide_distributed(probe_ds, db_ds).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    return out[["doc_id", "decision", "score", "match_id", "reason"]]


def blob_near_dup(sf_dir: str) -> pd.DataFrame:
    """D4 geometric blob near-dup pairs over flagship records, blocked
    by vintage (reference pairwise comparison generalized)."""
    from ..stages.dedup import blob_near_dup_pairs

    ds = flagship_extract_full(sf_dir)
    return blob_near_dup_pairs(ds).to_pandas().sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)


def media_decode_stats(sf_dir: str) -> pd.DataFrame:
    """Multimodal plumbing: actor-pool image-feature stage over the
    derived corpus's media payloads (deterministic fake decode backend;
    real codecs are stubbed — see stages/multimodal.py)."""
    import numpy as np

    from ..stages.multimodal import image_features

    feats = image_features(
        os.path.join(derived_corpus(sf_dir), "media")).to_pandas()
    return pd.DataFrame({
        "n_images": [len(feats)],
        "avg_mean_val": [round(float(np.mean(feats.mean_val)), 4)],
        "avg_std_val": [round(float(np.mean(feats.std_val)), 4)],
        "max_height": [int(feats.height.max())],
        "max_width": [int(feats.width.max())],
    })


def media_frame_stats(sf_dir: str) -> pd.DataFrame:
    """Multimodal frame-sampling plumbing: actor-pool video stage over
    the derived corpus's media payloads (deterministic fake decode;
    real ffmpeg backends plug into DecodeBackend.sample_frames)."""
    import numpy as np

    from ..stages.multimodal import video_frame_features

    feats = video_frame_features(
        os.path.join(derived_corpus(sf_dir), "media")).to_pandas()
    if feats.empty:
        return pd.DataFrame({"n_videos": [0], "n_frames": [0],
                             "avg_temporal_delta": [0.0],
                             "max_frame_mean": [0.0]})
    return pd.DataFrame({
        "n_videos": [len(feats)],
        "n_frames": [int(feats.n_frames.iloc[0])],
        "avg_temporal_delta": [round(float(np.mean(feats.temporal_delta)),
                                     4)],
        "max_frame_mean": [round(float(max(m for row in feats.frame_means
                                           for m in row)), 4)],
    })


def flagship_extract_full(sf_dir: str):
    """Flagship records including the blob struct (internal helper for
    blob_near_dup; not registered — nested outputs stress the driver's
    hash compare)."""
    from ..pipelines.extract import build_extract_pipeline

    return build_extract_pipeline(derived_corpus(sf_dir))


def media_stitch(sf_dir: str) -> pd.DataFrame:
    """M14 horizontal stitch over the derived corpus: one row per doc
    with >= 2 media spans (front/back pair stitched with matched
    heights). Rows-only (pixel reduce, not SQL-expressible)."""
    from ..stages.stitch import build_stitch_pipeline

    out = build_stitch_pipeline(derived_corpus(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def record_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact record-level dedup over flagship output: first-wins per
    canonical key among valid records (reference D1 semantics,
    scan_and_store.py:234-235 made deterministic)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min

    ds = flagship_extract(sf_dir)
    ds = ds.map_batches(
        lambda t: t.filter(pc.equal(t["valid"], True)),
        batch_format="pyarrow")
    return (ds.groupby("key")
              .aggregate(Min("doc_id", alias_name="keep_doc_id"),
                         Count(alias_name="n_copies"))
              .to_pandas())


QUERIES = {
    # relational / TPC-H-shaped (SURVEY §2.3, §2.5-2.7 generalized)
    "q1_pricing_summary": R.q1_pricing_summary,
    "q6_forecast_revenue": R.q6_forecast_revenue,
    "top_orders": R.top_orders,
    "distinct_segments": R.distinct_segments,
    "count_distinct_cust": R.count_distinct_cust,
    "union_priority_counts": R.union_priority_counts,
    "q3_shipping_priority": R.q3_shipping_priority,
    "q5_region_revenue": R.q5_region_revenue,
    "q4_semi_join": R.q4_semi_join,
    "anti_join_customers": R.anti_join_customers,
    "top_orders_per_segment": R.top_orders_per_segment,
    # stream-shaped (SURVEY §2.8 re-expressed batch)
    "events_hourly": R.events_hourly,
    "events_sessionize": R.events_sessionize,
    "events_asof_click": R.events_asof_click,
    "events_sliding": R.events_sliding,
    "events_window_range": R.events_window_range,
    "events_ema": R.events_ema,
    "events_turntable_guidance": R.events_turntable_guidance,
    # documents: text analysis / fingerprints / dedup
    "doc_stats": D.doc_stats,
    "doc_quality": D.doc_quality,
    "doc_lang_id": D.doc_lang_id,
    "dedup_exact": D.dedup_exact,
    "ngram_jaccard_pairs": D.ngram_jaccard_pairs,
    "doc_sample": D.doc_sample,
    "doc_maker_norm": D.doc_maker_norm,
    "doc_top_terms": D.doc_top_terms,
    "doc_tfidf_topk": D.doc_tfidf_topk,
    "doc_rolling_fingerprint": D.doc_rolling_fingerprint,
    # embeddings: similarity search / centroids / near-dup
    "embedding_norms": D.embedding_norms,
    "embedding_centroids": D.embedding_centroids,
    "knn_cosine_topk": D.knn_cosine_topk,
    "cosine_dup_pairs": D.cosine_dup_pairs,
    "embedding_dedup_exact": D.embedding_dedup_exact,
    "embedding_lang_centroids": D.embedding_lang_centroids,
    # sketches with exact SQL twins (md5-derived token hashes)
    "simhash_fingerprints": D.simhash_fingerprints,
    "simhash_near_dup": D.simhash_near_dup,
    "minhash_signatures": D.minhash_signatures,
    # rows-only (non-SQL-expressible)
    "cosine_lsh_dup_pairs": D.cosine_lsh_dup_pairs,
    "minhash_lsh_pairs": D.minhash_lsh_pairs,
    "knn_lsh_topk": D.knn_lsh_topk,
    "knn_ivf_topk": D.knn_ivf_topk,
    "flagship_extract": flagship_extract,
    "record_dedup_exact": record_dedup_exact,
    "dedup_decision": dedup_decision,
    "blob_near_dup": blob_near_dup,
    "media_decode_stats": media_decode_stats,
    "media_frame_stats": media_frame_stats,
    "media_stitch": media_stitch,
}

ORACLE_SQL = {
    "q1_pricing_summary": R.Q1_SQL,
    "q6_forecast_revenue": R.Q6_SQL,
    "top_orders": R.TOP_ORDERS_SQL,
    "distinct_segments": R.DISTINCT_SEGMENTS_SQL,
    "count_distinct_cust": R.COUNT_DISTINCT_SQL,
    "union_priority_counts": R.UNION_PRIORITY_SQL,
    "q3_shipping_priority": R.Q3_SQL,
    "q5_region_revenue": R.Q5_SQL,
    "q4_semi_join": R.Q4_SEMI_SQL,
    "anti_join_customers": R.ANTI_JOIN_SQL,
    "top_orders_per_segment": R.TOP_PER_SEGMENT_SQL,
    "events_hourly": R.EVENTS_HOURLY_SQL,
    "events_sessionize": R.EVENTS_SESSIONIZE_SQL,
    "events_asof_click": R.EVENTS_ASOF_SQL,
    "events_sliding": R.EVENTS_SLIDING_SQL,
    "events_window_range": R.EVENTS_WINDOW_RANGE_SQL,
    "events_ema": R.EVENTS_EMA_SQL,
    "doc_stats": D.DOC_STATS_SQL,
    "doc_quality": D.DOC_QUALITY_SQL,
    "doc_lang_id": D.DOC_LANG_ID_SQL,
    "dedup_exact": D.DEDUP_EXACT_SQL,
    "ngram_jaccard_pairs": D.NGRAM_JACCARD_SQL,
    "doc_sample": D.DOC_SAMPLE_SQL,
    "doc_maker_norm": D.DOC_MAKER_NORM_SQL,
    "doc_top_terms": D.DOC_TOP_TERMS_SQL,
    "doc_tfidf_topk": D.DOC_TFIDF_SQL,
    "embedding_lang_centroids": D.EMBEDDING_LANG_CENTROIDS_SQL,
    "doc_rolling_fingerprint": D.DOC_ROLLING_FP_SQL,
    "embedding_dedup_exact": D.EMBEDDING_DEDUP_SQL,
    "embedding_norms": D.EMBEDDING_NORMS_SQL,
    "embedding_centroids": D.EMBEDDING_CENTROIDS_SQL,
    "knn_cosine_topk": D.KNN_SQL,
    "cosine_dup_pairs": D.COSINE_DUP_SQL,
    "simhash_fingerprints": D.SIMHASH_FP_SQL,
    "simhash_near_dup": D.SIMHASH_NEAR_DUP_SQL,
    "minhash_signatures": D.MINHASH_SIG_SQL,
}
