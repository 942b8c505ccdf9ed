"""Skew + failure-resilience tests for the flagship pipeline."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from wine_label_ocr_ray.oracle import oracle_records
from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
from wine_label_ocr_ray.schema import DOC_SCHEMA, MEDIA_SCHEMA
from wine_label_ocr_ray.synth import (_doc_rng, _make_media_payload,
                                      generate_corpus)


@pytest.fixture(scope="module")
def skewed_corpus(tmp_path_factory):
    """Regular corpus plus one pathological media-heavy document with
    300 media spans (the reference's 75x-fan-out skew analog,
    SURVEY.md section 4.1)."""
    out = str(tmp_path_factory.mktemp("skew") / "corpus")
    generate_corpus(out, num_docs=100, seed=13, num_shards=2)
    rng = _doc_rng(99, 0)
    spans, media = [], []
    for offset in range(300):
        ref = f"m-zz-heavy-{offset:04d}"
        media.append((ref, _make_media_payload(rng, "Opus One", 2019)))
        spans.append({"kind": "media", "text": "", "media_ref": ref,
                      "offset": offset})
    doc = {"doc_id": "doc-zz-heavy", "spans": spans}
    pq.write_table(pa.Table.from_pylist([doc], schema=DOC_SCHEMA),
                   os.path.join(out, "documents", "part-heavy.parquet"))
    media.sort(key=lambda r: r[0])
    pq.write_table(pa.Table.from_arrays(
        [pa.array([r[0] for r in media], pa.string()),
         pa.array([r[1] for r in media], pa.binary())],
        schema=MEDIA_SCHEMA),
        os.path.join(out, "media", "part-heavy.parquet"),
        row_group_size=256)
    # invalidate the corpus manifest so nothing assumes the seeded spec
    os.remove(os.path.join(out, "_corpus.json"))
    return out


def test_media_heavy_doc_exact(ray_session, skewed_corpus):
    recs = {r["doc_id"]: r
            for r in build_extract_pipeline(skewed_corpus).take_all()}
    expected = oracle_records(skewed_corpus)
    assert len(recs) == 101
    heavy = recs["doc-zz-heavy"]
    assert len(heavy["spans"]) == 300
    o = expected["doc-zz-heavy"]
    got = [(s["kind"], s["text"], s["media_ref"], s["order"])
           for s in heavy["spans"]]
    assert got == [tuple(s) for s in o["spans"]]
    assert heavy["maker_norm"] == o["maker_norm"]
    assert heavy["vintage"] == o["vintage"]


@pytest.mark.parametrize("media_batch_size", [1, 3])
def test_doc_boundaries_at_smallest_batches(ray_session, skewed_corpus,
                                            media_batch_size):
    """Every batch boundary is a document boundary: with one document
    per block and 1- or 3-document media batches, every record still
    equals the oracle's."""
    from wine_label_ocr_ray.config import PipelineConfig

    cfg = PipelineConfig(media_batch_size=media_batch_size,
                         override_num_blocks=101)
    recs = build_extract_pipeline(skewed_corpus, cfg).take_all()
    expected = oracle_records(skewed_corpus)
    assert sorted(r["doc_id"] for r in recs) == sorted(expected)
    for r in recs:
        o = expected[r["doc_id"]]
        assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]] == [tuple(s) for s in o["spans"]]
        for f in ("custom_id", "maker_norm", "vintage", "barcode",
                  "record_id", "valid", "mean_ocr_conf", "raw"):
            assert r[f] == o[f], (r["doc_id"], f)
        assert r["blob"]["blob_fingerprint"] == \
            o["blob"]["blob_fingerprint"]


def test_repeated_doc_id_in_one_batch_gives_one_record_per_row():
    """Ray-free: two doc rows sharing a ``doc_id`` in one batch stay two
    records, in input order, each with its own spans and riding
    ``path`` (merging them made the output depend on where batch
    boundaries fall, and broke the ``path`` append)."""
    from wine_label_ocr_ray.stages.reassemble import assemble_docs
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)

    docs = pa.Table.from_pylist([
        {"doc_id": "doc-dup", "spans": [
            {"kind": "text", "text": "VINTAGE 2001", "media_ref": "",
             "offset": 0}]},
        {"doc_id": "doc-dup", "spans": [
            {"kind": "text", "text": "bottled 1999", "media_ref": "",
             "offset": 0},
            {"kind": "text", "text": "second", "media_ref": "",
             "offset": 1}]},
    ], schema=DOC_SCHEMA)
    docs = docs.append_column("path", pa.array(["part-0", "part-1"]))
    recs = assemble_docs(docs, extract_text_spans(explode_spans(docs))
                         ).to_pylist()
    assert [(r["doc_id"], r["path"], r["vintage"],
             [s["text"] for s in r["spans"]]) for r in recs] == [
        ("doc-dup", "part-0", 2001, ["VINTAGE 2001"]),
        ("doc-dup", "part-1", 1999, ["bottled 1999", "second"])]


def test_missing_media_is_poison_pill_not_crash(ray_session, tmp_path):
    """A dangling media_ref must produce an error-marked row, not a
    failed block (SURVEY.md section 4.2 retry/poison-pill design)."""
    out = str(tmp_path / "corpus")
    generate_corpus(out, num_docs=30, seed=21, num_shards=1)
    # append a doc whose media_ref resolves to nothing
    doc = {"doc_id": "doc-zz-dangling",
           "spans": [{"kind": "media", "text": "",
                      "media_ref": "m-zz-missing-000", "offset": 0},
                     {"kind": "text", "text": "VINTAGE 2001",
                      "media_ref": "", "offset": 1}]}
    pq.write_table(pa.Table.from_pylist([doc], schema=DOC_SCHEMA),
                   os.path.join(out, "documents", "part-x.parquet"))
    recs = {r["doc_id"]: r
            for r in build_extract_pipeline(out).take_all()}
    assert len(recs) == 31
    r = recs["doc-zz-dangling"]
    # the media span survives with empty text; the text span's year
    # still feeds the record (fallback chain unaffected)
    assert [s["text"] for s in r["spans"]] == ["", "VINTAGE 2001"]
    assert r["vintage"] == 2001
    assert r["blob"]["blob_fingerprint"] == ""  # sentinel (no payload)


def test_corrupt_payloads_cost_one_row_each(tmp_path):
    """Ray-free: ``MediaExtract`` on one Arrow batch whose media rows
    include a truncated, a bad-JSON-header and a wrong-pixel-count
    payload emits one error row per bad payload and oracle-equal rows
    for every good one. Three adjacent headers that are each invalid
    but together read as three valid objects stay corrupt too."""
    import json

    from wine_label_ocr_ray.oracle import _process_media
    from wine_label_ocr_ray.stages.media import MediaExtract, raw_to_entries
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)
    from wine_label_ocr_ray.synth import (PAYLOAD_SEP, decode_payload,
                                          decode_payloads)

    out = str(tmp_path / "corpus")
    generate_corpus(out, num_docs=20, seed=5, num_shards=1)
    good = _make_media_payload(_doc_rng(7, 0), "Opus One", 2019)
    header = json.dumps({"w": 8, "h": 4, "elements": []}).encode()
    bad = {
        "m-zz-bad-0": good[:len(good) // 2],            # truncated pixels
        "m-zz-bad-1": good[:12],                        # truncated header
        "m-zz-bad-2": b"{not json" + PAYLOAD_SEP + bytes(32),
        "m-zz-bad-3": header + PAYLOAD_SEP + bytes(8 * 4 + 7),
    }
    # joined by commas into one list these read as 3 one-pixel headers
    merged = [b'{"h":1,"w":1,"x":[{}', b'{}]}',
              b'{"h":1,"w":1},{"h":1,"w":1}']
    merged = [m + PAYLOAD_SEP + bytes(1) for m in merged]
    assert not decode_payloads(pa.array(merged + [good])).ok[:3].any()
    bad.update((f"m-zz-bad-{4 + i}", m) for i, m in enumerate(merged))
    refs = sorted(bad)
    pq.write_table(pa.Table.from_arrays(
        [pa.array(refs, pa.string()),
         pa.array([bad[r] for r in refs], pa.binary())],
        schema=MEDIA_SCHEMA), os.path.join(out, "media", "part-bad.parquet"))
    doc = {"doc_id": "doc-zz-bad",
           "spans": [{"kind": "media", "text": "", "media_ref": r,
                      "offset": i} for i, r in enumerate(refs)]}
    pq.write_table(pa.Table.from_pylist([doc], schema=DOC_SCHEMA),
                   os.path.join(out, "documents", "part-bad.parquet"))

    docs = pa.concat_tables(
        [pq.read_table(p) for p in
         sorted(glob.glob(os.path.join(out, "documents", "*.parquet")))])
    batch = extract_text_spans(explode_spans(docs))
    rows = MediaExtract(os.path.join(out, "media"))(batch).to_pylist()
    assert len(rows) == batch.num_rows

    media = {}
    for p in glob.glob(os.path.join(out, "media", "*.parquet")):
        t = pq.read_table(p)
        media.update(zip(t.column("media_ref").to_pylist(),
                         t.column("payload").to_pylist()))
    errors = [r for r in rows if r["media_ref"] in bad]
    assert sorted(r["media_ref"] for r in errors) == refs
    for r in errors:
        assert r["raw"] == [{"bucket": "error", "text": "corrupt_media",
                             "conf": None}]
        assert r["blob"] is None and r["span_text"] == ""
    checked = 0
    for r in rows:
        if r["kind"] != "media" or r["media_ref"] in bad:
            continue
        m = _process_media(*decode_payload(media[r["media_ref"]]),
                           0.01, 0.08, 30.0)
        assert (r["span_text"], r["maker_name"], r["vintage_str"],
                r["barcode"]) == (m["span_text"], m["maker"], m["vintage"],
                                  m["barcode"])
        assert r["raw"] == raw_to_entries(m["raw"])
        assert r["blob"] == m["blob"]
        checked += 1
    assert checked == sum(r["kind"] == "media" for r in rows) - len(bad) > 0


# doc rows of the blob-selection corpus: (doc_id, [(kind, text or
# media_ref, offset)]) and the media_ref whose blob each row's record
# keeps (None: no media span decodes)
_SELECTION_DOCS = [
    # first payload missing, second corrupt, third good
    ("doc-a", [("media", "m-zz-missing", 0), ("media", "m-a-corrupt", 1),
               ("media", "m-a-good", 2), ("text", "VINTAGE 2001", 3)],
     "m-a-good"),
    # two media spans at one offset, the larger media_ref listed first
    ("doc-b", [("media", "m-b-2", 0), ("media", "m-b-1", 0)], "m-b-1"),
    # one ref used twice in a doc and once in another doc, where it is
    # not that doc's first media span
    ("doc-c", [("media", "m-c-shared", 2), ("text", "Opus One", 0),
               ("media", "m-c-shared", 1)], "m-c-shared"),
    ("doc-d", [("text", "bottled 1999", 0), ("media", "m-c-shared", 2),
               ("media", "m-d-0", 1)], "m-d-0"),
    # no media
    ("doc-e", [("text", "no media here", 0)], None),
    # two doc rows sharing a doc_id, each keeping its own blob
    ("doc-f", [("media", "m-f-0", 0), ("text", "first row", 1)], "m-f-0"),
    ("doc-f", [("media", "m-a-corrupt", 0), ("media", "m-f-1", 2)],
     "m-f-1"),
    # only a missing payload
    ("doc-g", [("media", "m-zz-missing", 0), ("text", "VIN 2011", 1)],
     None),
]


@pytest.fixture(scope="module")
def selection_corpus(tmp_path_factory):
    """One shard holding ``_SELECTION_DOCS`` (so at the default batch
    size they share one media batch) and its media store."""
    out = str(tmp_path_factory.mktemp("selection") / "corpus")
    os.makedirs(os.path.join(out, "documents"))
    os.makedirs(os.path.join(out, "media"))
    media = {}
    for i, ref in enumerate(["m-a-good", "m-b-1", "m-b-2", "m-c-shared",
                             "m-d-0", "m-f-0", "m-f-1"]):
        media[ref] = _make_media_payload(_doc_rng(31, i), "Opus One", 2019)
    media["m-a-corrupt"] = media["m-a-good"][:40]
    docs = [{"doc_id": d, "spans": [
        {"kind": k, "text": "" if k == "media" else v,
         "media_ref": v if k == "media" else "", "offset": o}
        for k, v, o in spans]} for d, spans, _keep in _SELECTION_DOCS]
    pq.write_table(pa.Table.from_pylist(docs, schema=DOC_SCHEMA),
                   os.path.join(out, "documents", "part-0000.parquet"))
    refs = sorted(media)
    pq.write_table(pa.Table.from_arrays(
        [pa.array(refs, pa.string()),
         pa.array([media[r] for r in refs], pa.binary())],
        schema=MEDIA_SCHEMA), os.path.join(out, "media", "part-0000.parquet"))
    return out, media


def _record_key(r):
    """Records of one doc_id differ in their span offsets."""
    return r["doc_id"], tuple(s["order"] for s in r["spans"])


@pytest.mark.parametrize("media_batch_size", [1, 1024])
def test_doc_rows_compute_only_the_kept_blob(ray_session, selection_corpus,
                                             media_batch_size):
    """Given each span row's doc, the media stage computes one blob per
    doc row with a decodable media span, on the span the record keeps
    (first decoded one by offset, then media_ref), and its records
    equal those assembled from the span-row ``MediaExtract`` without
    docs, which blobs every decodable media row."""
    import pyarrow.compute as pc

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.media import MediaExtract
    from wine_label_ocr_ray.stages.reassemble import assemble_docs
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)

    corpus, _media = selection_corpus
    media_path = os.path.join(corpus, "media")
    docs = pq.read_table(
        os.path.join(corpus, "documents", "part-0000.parquet"))
    stage = MediaExtract(media_path)
    span_rows = stage(extract_text_spans(explode_spans(docs)))
    assert sum(b is not None for b in span_rows.column("blob").to_pylist()) \
        == 9  # every decodable media row
    want = sorted(assemble_docs(docs, span_rows).to_pylist(),
                  key=_record_key)

    blobbed = [[] for _ in _SELECTION_DOCS]
    records = []
    for i in range(0, docs.num_rows, media_batch_size):
        part = docs.slice(i, media_batch_size)
        doc = pc.list_parent_indices(part.column("spans")).to_numpy()
        out = stage(extract_text_spans(explode_spans(part)), doc)
        for row, d in zip(out.to_pylist(), doc.tolist()):
            if row["blob"] is not None:
                blobbed[i + d].append(row)
        records.append(assemble_docs(part, out))
    for rows, (doc_id, _spans, keep) in zip(blobbed, _SELECTION_DOCS):
        assert [s["media_ref"] for s in rows] == \
            ([keep] if keep else []), doc_id
        if keep == "m-c-shared":
            assert rows[0]["offset"] == 1
    assert sorted(pa.concat_tables(records).to_pylist(),
                  key=_record_key) == want

    cfg = PipelineConfig(media_batch_size=media_batch_size)
    assert sorted(build_extract_pipeline(corpus, cfg).take_all(),
                  key=_record_key) == want


def test_crop_label_blob_through_doc_rows(ray_session, selection_corpus):
    """With ``crop_label=True`` each record's blob is the kept payload's
    blob over its detector-cropped ROI: the detections go to the blob
    leg in step with the images it keeps."""
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.reassemble import EMPTY_BLOB
    from wine_label_ocr_ray.state.engines import (BlobAnalyzer,
                                                  SyntheticDetectEngine)
    from wine_label_ocr_ray.synth import decode_payload

    corpus, media = selection_corpus
    keep_of = {(d, tuple(sorted(o for *_, o in spans))): keep
               for d, spans, keep in _SELECTION_DOCS}
    recs = build_extract_pipeline(
        corpus, PipelineConfig(crop_label=True)).take_all()
    assert len(recs) == len(keep_of)
    analyzer, detect = BlobAnalyzer(crop_label=True), SyntheticDetectEngine()
    cropped = 0
    for r in recs:
        keep = keep_of[_record_key(r)]
        if keep is None:
            assert r["blob"] == EMPTY_BLOB
            continue
        header, gray = decode_payload(media[keep])
        want = analyzer.analyze(gray, detect.detect(header))
        assert r["blob"] == want, r["doc_id"]
        cropped += want["roi_shape"] != list(gray.shape)
    assert cropped  # the crop changed some ROI


def test_queries_on_fully_empty_tables(ray_session, tmp_path):
    """Zero-row input tables (the degenerate partition case) must flow
    through as typed-empty results, not KeyError on the column-less
    frames Ray's to_pandas() yields for empty aggregates.

    Known limitation (documented, not asserted): queries whose plan is
    a distributed hash JOIN over an empty dataset
    (ngram_jaccard_pairs, cosine_lsh_dup_pairs, q3_shipping_priority,
    q5_region_revenue)
    raise inside Ray's hash-shuffle aggregator — empty BLOCKS within
    non-empty datasets are handled; fully-empty INPUT datasets hit a
    Ray Data limitation upstream of this repo."""
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.pipelines.queries import QUERIES

    src = "/root/testdata/sf0.001"
    dst = str(tmp_path / "empty_sf")
    os.makedirs(dst, exist_ok=True)
    for t in ["documents", "embeddings", "events", "region", "nation",
              "customer", "supplier", "part", "orders", "lineitem"]:
        tab = pq.read_table(f"{src}/{t}.parquet")
        pq.write_table(tab.slice(0, 0), f"{dst}/{t}.parquet")

    expect_cols = {
        "doc_stats": None, "dedup_exact": None, "doc_top_terms": None,
        "doc_tfidf_topk": ["doc_id", "score_e6", "rank"],
        "embedding_centroids": ["label", "dim", "avg_val"],
        "knn_cosine_topk": ["query_id", "neighbor_id", "score", "rank"],
        "knn_lsh_topk": ["query_id", "neighbor_id", "score", "rank"],
        "knn_ivf_topk": ["query_id", "neighbor_id", "score", "rank"],
        "cosine_dup_pairs": ["vec_a", "vec_b", "cosine"],
        "events_hourly": ["event_type", "window", "n", "sum_value"],
        "events_sliding": ["event_type", "window", "n", "sum_value"],
        "events_turntable_guidance": None,
        "q1_pricing_summary": None,
        "q4_semi_join": None, "anti_join_customers": None,
        "top_orders_per_segment": None, "distinct_segments": None,
        "count_distinct_cust": None, "events_asof_click": None,
        "events_window_range": None, "union_priority_counts": None,
        "minhash_signatures": None, "simhash_near_dup": None,
        "embedding_lang_centroids": ["pred_lang", "dim", "avg_val"],
    }
    one_row_summaries = {"count_distinct_cust"}
    for name, cols in expect_cols.items():
        out = QUERIES[name](dst)
        if hasattr(out, "to_pandas"):
            out = out.to_pandas()
        if name in one_row_summaries:
            assert len(out) == 1 and out.iloc[0, 0] == 0, name
        else:
            assert len(out) == 0, name
        if cols is not None:
            assert list(out.columns) == cols, name
