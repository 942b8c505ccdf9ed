"""Seeded workload corpora, their measured input mix, and record digests.

A corpus has the layout ``synth.generate_corpus`` writes and the
pipeline reads::

    <dir>/documents/part-NNNN.parquet   (doc_id, spans)
    <dir>/media/part-NNNN.parquet       (media_ref, payload), sorted by ref

Documents come from ``synth.generate_doc``, which seeds every document
from ``(seed, doc_index)``, so the same seed writes the same bytes.
``text_heavy`` then drops media spans at a seeded rate; a document
left with no span is skipped, so every document keeps at least one
span. Doc indices are scanned in order and a doc is taken while its
media-count bin is below quota (``media_quota``): the seed changes every
document, not how much media work the corpus holds.

Correctness is judged per document against ``oracle.oracle_records``:
both sides are reduced to one digest per ``doc_id`` over the span
sequence, every record field the pipeline test compares, and the blob
summary (shape, count, fingerprint).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
from typing import Dict, Iterable, List, Optional

import numpy as np

# Each workload: docs, document shards, media keep rate and, for the
# checkpointed runner, how many commits happen before the injected crash.
WORKLOADS: Dict[str, Dict] = {
    "mixed_media": {"docs": 600, "shards": 2, "media_keep": 1.0},
    "text_heavy": {"docs": 4000, "shards": 2, "media_keep": 0.002},
    "crash_resume": {"docs": 200, "shards": 4, "media_keep": 1.0,
                     "fail_after": 2},
}
# Small corpus of the same shape that every session runs once as its
# warm-up execution (actor pool spawned, worker processes started).
WARMUP_DOCS = 40
GENERATOR_VERSION = 2

RECORD_FIELDS = ("custom_id", "maker_name", "maker_norm", "vintage",
                 "barcode", "key", "record_id", "valid", "mean_ocr_conf")
# Corpora are stratified on a doc's media-span count: bins 0..6 and 7+,
# the last one being the media-heavy docs (the generator gives them
# 7-11). Bin shares come from a fixed reference sample of the generator.
MEDIA_BINS = 8
REFERENCE_SEED = 0
REFERENCE_DOCS = 4000
REFERENCE_FIRST_INDEX = 20_000_000
MAX_SCAN_FACTOR = 50


def _keep_media(seed: int, doc_index: int, n: int, rate: float) -> np.ndarray:
    if rate >= 1.0:
        return np.ones(n, dtype=bool)
    rng = np.random.RandomState((seed * 7_919 + doc_index * 31 + 17)
                                % (2**31 - 1))
    return rng.rand(n) < rate


def _media_bin(spans: List[Dict]) -> int:
    return min(sum(s["kind"] == "media" for s in spans), MEDIA_BINS - 1)


def _generate_docs(seed: int, num_docs: int, media_keep: float,
                   first_index: int = 0, quota: Optional[List[int]] = None):
    """Yields (doc_row, media_rows) for ``num_docs`` docs that keep at
    least one span. With a ``quota`` (docs wanted per media-count bin) a
    doc is taken only while its bin has room."""
    from wine_label_ocr_ray.synth import generate_doc

    remaining = list(quota) if quota is not None else None
    index = first_index
    made = 0
    while made < num_docs:
        if index - first_index > MAX_SCAN_FACTOR * num_docs:
            raise RuntimeError(f"media-count quota {quota} not met after "
                               f"{index - first_index} docs")
        doc, media = generate_doc(seed, index)
        keep = _keep_media(seed, index, len(doc["spans"]), media_keep)
        spans = [s for s, k in zip(doc["spans"], keep)
                 if s["kind"] == "text" or k]
        index += 1
        if not spans:
            continue
        if remaining is not None:
            b = _media_bin(spans)
            if remaining[b] == 0:
                continue
            remaining[b] -= 1
        refs = {s["media_ref"] for s in spans if s["kind"] == "media"}
        made += 1
        yield ({"doc_id": doc["doc_id"], "spans": spans},
               [m for m in media if m[0] in refs])


def media_quota(num_docs: int, media_keep: float, cache_dir: str
                ) -> List[int]:
    """Docs per media-count bin for a corpus of ``num_docs``: the bin
    shares of a fixed reference sample of the generator (same media keep
    rate), so every seed gets the same count mix and the corpus-to-corpus
    spread of media work stays out of the measurement."""
    path = os.path.join(cache_dir, f"reference-keep{media_keep}.json")
    spec = {"docs": REFERENCE_DOCS, "keep": media_keep,
            "bins": MEDIA_BINS, "version": GENERATOR_VERSION}
    counts = None
    if os.path.exists(path):
        with open(path) as f:
            ref = json.load(f)
        if ref["spec"] == spec:
            counts = ref["counts"]
    if counts is None:
        counts = [0] * MEDIA_BINS
        for doc, _m in _generate_docs(REFERENCE_SEED, REFERENCE_DOCS,
                                      media_keep, REFERENCE_FIRST_INDEX):
            counts[_media_bin(doc["spans"])] += 1
        os.makedirs(cache_dir, exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump({"spec": spec, "counts": counts}, f)
        os.replace(path + ".tmp", path)
    exact = np.array(counts, dtype=float) * num_docs / sum(counts)
    quota = np.floor(exact).astype(int)
    # the remainder goes to the bins with the largest fractional parts
    short = num_docs - int(quota.sum())
    quota[np.argsort(quota - exact, kind="stable")[:short]] += 1
    return quota.tolist()


def write_corpus(out_dir: str, seed: int, num_docs: int, shards: int,
                 media_keep: float, first_index: int = 0,
                 quota: Optional[List[int]] = None) -> Dict:
    """Writes the corpus and returns its measured input mix."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.schema import DOC_SCHEMA, MEDIA_SCHEMA

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "documents"))
    os.makedirs(os.path.join(out_dir, "media"))
    docs = list(_generate_docs(seed, num_docs, media_keep, first_index,
                               quota))
    bounds = np.linspace(0, len(docs), shards + 1).astype(int)
    for s in range(shards):
        part = docs[bounds[s]:bounds[s + 1]]
        media = sorted((m for _d, ms in part for m in ms),
                       key=lambda m: m[0])
        pq.write_table(pa.Table.from_pylist([d for d, _m in part],
                                            schema=DOC_SCHEMA),
                       os.path.join(out_dir, "documents",
                                    f"part-{s:04d}.parquet"))
        pq.write_table(pa.Table.from_arrays(
            [pa.array([m[0] for m in media], pa.string()),
             pa.array([m[1] for m in media], pa.binary())],
            schema=MEDIA_SCHEMA),
            os.path.join(out_dir, "media", f"part-{s:04d}.parquet"),
            row_group_size=1024)

    n_spans = sum(len(d["spans"]) for d, _m in docs)
    n_media = sum(len(m) for _d, m in docs)
    heavy = sum(1 for d, _m in docs
                if _media_bin(d["spans"]) == MEDIA_BINS - 1)
    return {
        "docs": len(docs),
        "shards": shards,
        "docs_per_shard": len(docs) / shards,
        "spans_per_doc": n_spans / len(docs),
        "media_span_share": n_media / n_spans,
        "media_heavy_doc_share": heavy / len(docs),
        "media_bytes_per_doc": sum(len(p) for _d, m in docs
                                   for _r, p in m) / len(docs),
    }


def _digest(spans: List, fields: Dict, raw: List, blob: Dict) -> str:
    canon = [spans, [fields[f] for f in RECORD_FIELDS], raw,
             [list(blob["roi_shape"]), blob["blob_count"],
              blob["blob_fingerprint"]]]
    return hashlib.sha1(json.dumps(canon, ensure_ascii=False)
                        .encode()).hexdigest()[:20]


def oracle_digests(corpus_dir: str) -> Dict[str, str]:
    from wine_label_ocr_ray.oracle import oracle_records

    out = {}
    for doc_id, rec in oracle_records(corpus_dir).items():
        raw = [[e["bucket"], e["text"], e["conf"]] for e in rec["raw"]]
        out[doc_id] = _digest([list(s) for s in rec["spans"]], rec, raw,
                              rec["blob"])
    return out


def record_digests(records: Iterable[Dict]) -> Iterable:
    """(doc_id, digest) for pipeline records (RECORD_SCHEMA rows)."""
    for r in records:
        spans = [[s["kind"], s["text"], s["media_ref"], s["order"]]
                 for s in r["spans"]]
        raw = [[e["bucket"], e["text"], e["conf"]] for e in r["raw"]]
        yield r["doc_id"], _digest(spans, r, raw, r["blob"])


def check_records(pairs: Iterable, expected: Dict[str, str]) -> Dict:
    """Exactly-once + equality check of (doc_id, digest) pairs against
    the oracle: every doc present once and equal to its oracle record."""
    seen: Dict[str, int] = {}
    mismatched = unexpected = 0
    for doc_id, digest in pairs:
        seen[doc_id] = seen.get(doc_id, 0) + 1
        want = expected.get(doc_id)
        if want is None:
            unexpected += 1
        elif seen[doc_id] == 1 and digest != want:
            mismatched += 1
    missing = sum(1 for d in expected if d not in seen)
    duplicated = sum(n - 1 for n in seen.values() if n > 1)
    return {"attempted": len(expected), "missing": missing,
            "duplicated": duplicated, "mismatched": mismatched,
            "unexpected": unexpected,
            "failed": missing + duplicated + mismatched + unexpected}


def check_output_dir(out_dir: str, pattern: str,
                     expected: Dict[str, str]) -> Dict:
    """Reads every parquet file under ``out_dir`` matching ``pattern``
    (the written records) and checks them against the oracle."""
    import pyarrow.parquet as pq

    files = sorted(glob.glob(os.path.join(out_dir, pattern)))

    def pairs():
        for path in files:
            yield from record_digests(pq.read_table(path).to_pylist())

    return check_records(pairs(), expected)


def prepare(cache_dir: str, workload: str, seed: int) -> Dict:
    """Corpus, warm-up corpus, mix and oracle digests for (workload,
    seed), generated once and reused from ``cache_dir``."""
    params = WORKLOADS[workload]
    spec = {"workload": workload, "seed": seed, "params": params,
            "warmup_docs": WARMUP_DOCS, "version": GENERATOR_VERSION}
    base = os.path.join(cache_dir, f"{workload}-s{seed}")
    meta_path = os.path.join(base, "meta.json")
    corpus = os.path.join(base, "corpus")
    warmup = os.path.join(base, "warmup")
    meta = None
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("spec") != spec:
            meta = None
    if meta is None:
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        quota = media_quota(params["docs"], params["media_keep"],
                            cache_dir)
        mix = write_corpus(corpus, seed, params["docs"], params["shards"],
                           params["media_keep"], quota=quota)
        # warm-up docs come from an index range the timed corpus never
        # uses
        write_corpus(warmup, seed, WARMUP_DOCS, 1, params["media_keep"],
                     first_index=10_000_000)
        meta = {"spec": spec, "mix": mix,
                "oracle": oracle_digests(corpus),
                "warmup_oracle": oracle_digests(warmup)}
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, meta_path)
    return dict(meta, corpus=corpus, warmup=warmup)
