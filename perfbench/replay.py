"""Off-Ray, single-process replay of a corpus through each layer's
public function, in pipeline order, with optional per-layer timers.

Run by ``run.py`` as its own process (the timers patch module
attributes, which must never reach a Ray worker)::

    python3 replay.py <spec.json>

The replay reads every document shard (pyarrow, the format
``sources.documents.read_documents`` reads), explodes it
(``stages.spans.explode_spans``), extracts text spans
(``extract_text_spans``), runs ``stages.media.MediaExtract`` over
batches of ``media_batch_size`` span rows, buckets the rows
(``stages.reassemble.add_bucket``), groups them by bucket and assembles
every bucket (``assemble_bucket``). After one pass over the warm-up
corpus it alternates untimed and timed passes; the timed passes'
median wall time against the untimed passes' is the tracing overhead.

Timers wrap calls from here, never code inside the package. A span's
self time is its duration minus the time of the spans it encloses. The
result (layer times, counters, record digests of every pass) is
written as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

import corpus as C

# Ray Data default: max(16, session CPUs) reassembly buckets
NUM_BUCKETS = 16
# untimed and timed passes, alternated
PASSES = 2


class Tracer:
    """Per-name totals of inclusive time, self time and calls."""

    def __init__(self):
        self.incl: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self._children: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns
        children = self._children

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = children.pop()
                self.incl[name] += dur
                self.self_ns[name] += dur - inner
                self.calls[name] += 1
                if children:
                    children[-1] += dur
                else:
                    self.top_ns += dur
        return timed


def _instrument(tracer: Tracer, media, masks: List) -> Callable:
    """Wraps the engines, the blob analyzer, the media store and the
    module-level functions the media stage and the blob leg call.
    Returns the function that undoes the module patches."""
    from wine_label_ocr_ray.functions import imaging
    from wine_label_ocr_ray.stages import media as media_mod
    from wine_label_ocr_ray.state import engines

    media.store.fetch = tracer.wrap("media_fetch", media.store.fetch)
    media.detect_engine.detect = tracer.wrap(
        "detect", media.detect_engine.detect)
    media.ocr_engine.ocr_box = tracer.wrap(
        "ocr_box", media.ocr_engine.ocr_box)
    media.ocr_engine.ocr_sweep = tracer.wrap(
        "ocr_sweep", media.ocr_engine.ocr_sweep)
    media.barcode_engine.scan = tracer.wrap(
        "barcode_scan", media.barcode_engine.scan)
    media.blob_analyzer.analyze = tracer.wrap(
        "blob_analyze", media.blob_analyzer.analyze)

    mask_fn = tracer.wrap("create_text_mask", imaging.create_text_mask)

    def create_text_mask(*args, **kwargs):
        out = mask_fn(*args, **kwargs)
        masks.append(out[0])
        return out

    patches = [
        (media_mod, "decode_payload",
         tracer.wrap("decode_payload", media_mod.decode_payload)),
        (media_mod, "extract_media_fields",
         tracer.wrap("extract_media_fields",
                     media_mod.extract_media_fields)),
        (imaging, "create_text_mask", create_text_mask),
        (imaging, "extract_smart_blobs",
         tracer.wrap("extract_smart_blobs", imaging.extract_smart_blobs)),
        (engines, "blob_fingerprint",
         tracer.wrap("blob_fingerprint", engines.blob_fingerprint)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, fn in patches:
        setattr(mod, name, fn)

    def undo():
        for mod, name, fn in saved:
            setattr(mod, name, fn)
    return undo


def replay(corpus_dir: str, tracer: Tracer = None) -> Dict:
    """One pass over the corpus; returns wall time, record digests and,
    when traced, the span rows and blob masks the counters need."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.media import MediaExtract
    from wine_label_ocr_ray.stages.reassemble import (add_bucket,
                                                      assemble_bucket)
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)

    cfg = PipelineConfig()
    masks: List = []
    undo = None
    media = MediaExtract(
        os.path.join(corpus_dir, "media"),
        confidence_threshold=cfg.confidence_threshold, pad=cfg.box_pad,
        min_blob_area=cfg.min_blob_area, crop_label=cfg.crop_label,
        skip_alignment=cfg.skip_alignment, engines=cfg.engines,
        sweep_max_variants=cfg.sweep_max_variants)
    steps = {"read": pq.read_table, "explode_spans": explode_spans,
             "extract_text_spans": extract_text_spans, "media_extract": media,
             "add_bucket": add_bucket,
             "group_by_bucket": _group_by_bucket,
             "assemble_bucket": assemble_bucket}
    if tracer is not None:
        undo = _instrument(tracer, media, masks)
        steps = {name: tracer.wrap(name, fn) for name, fn in steps.items()}
    t_start = time.perf_counter()
    try:
        span_rows = []
        for path in sorted(glob.glob(os.path.join(corpus_dir, "documents",
                                                  "*.parquet"))):
            rows = steps["extract_text_spans"](
                steps["explode_spans"](steps["read"](path)))
            for off in range(0, rows.num_rows, cfg.media_batch_size):
                batch = rows.slice(off, cfg.media_batch_size)
                span_rows.append(steps["add_bucket"](
                    steps["media_extract"](batch), NUM_BUCKETS))
        records = [steps["assemble_bucket"](group) for group in
                   steps["group_by_bucket"](pa.concat_tables(span_rows))]
        wall_s = time.perf_counter() - t_start
    finally:
        if undo is not None:
            undo()
    digests = dict(C.record_digests(pa.concat_tables(records).to_pylist()))
    return {"wall_s": wall_s, "digests": digests, "span_rows": span_rows,
            "masks": masks}


def _group_by_bucket(rows):
    """The replay's stand-in for the Sort shuffle: one table per bucket."""
    import numpy as np

    rows = rows.sort_by("bucket")
    buckets = rows.column("bucket").to_numpy()
    bounds = (np.flatnonzero(buckets[1:] != buckets[:-1]) + 1).tolist()
    starts = [0] + bounds
    ends = bounds + [rows.num_rows]
    return [rows.slice(s, e - s) for s, e in zip(starts, ends)]


def counters(span_rows, masks) -> Dict[str, float]:
    """Outcome ratios measured on the traced pass's span rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from wine_label_ocr_ray.functions.imaging import connected_components

    rows = pa.concat_tables(span_rows)
    kind = rows.column("kind")
    is_text = pc.equal(kind, "text")
    is_media = pc.equal(kind, "media")
    candidates = pc.sum(pc.and_(is_text, pc.match_substring_regex(
        rows.column("span_text"), r"\d{4}"))).as_py() or 0
    years = pc.sum(pc.and_(is_text, pc.is_valid(
        rows.column("text_year")))).as_py() or 0
    media_rows = rows.filter(is_media)
    fallback = 0
    for entries in media_rows.column("raw").to_pylist():
        if any(e["bucket"] == "vintage_from_fallback"
               for e in entries or []):
            fallback += 1
    kept = pc.sum(pc.struct_field(media_rows.column("blob"),
                                  "blob_count")).as_py() or 0
    components = sum(connected_components(m)[0] - 1 for m in masks)
    return {"text_candidates": candidates, "text_years": years,
            "media": media_rows.num_rows, "fallback_hits": fallback,
            "blobs_kept": kept, "components": components}


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["root"])
    replay(spec["warmup"])
    tracer = Tracer()
    plain, traced = [], []
    for _ in range(PASSES):
        plain.append(replay(spec["corpus"]))
        traced.append(replay(spec["corpus"], tracer))
    result = {
        "plain_wall_s": [p["wall_s"] for p in plain],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "digests": [p["digests"] for p in plain + traced],
        "incl_ns": dict(tracer.incl), "self_ns": dict(tracer.self_ns),
        "calls": dict(tracer.calls), "top_ns": tracer.top_ns,
        "counters": counters(traced[-1]["span_rows"], traced[-1]["masks"]),
    }
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
