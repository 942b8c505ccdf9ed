"""Media-span extraction stage: the stateful actor-pool heart of the
pipeline (detect -> pad/crop -> OCR -> field routing -> blob leg).

This is the Ray Data re-expression of the reference's per-image chain
``final_run_ocr.final_run_ocr`` (``final_run_ocr.py:381-441``) +
``hybrid.final_run_blobs`` (``hybrid.py:277-363``): engines are loaded
once per actor in ``__init__`` (the reference's module-global
singletons, ``final_run_ocr.py:41-80``), each ``__call__`` processes an
Arrow batch of span rows, fetching only that batch's payloads from the
media store. Text rows pass through untouched (see stages/spans.py for
the single-pass routing rationale). ``DocMediaExtract`` is the same
actor over the flagship plan's doc rows.

Field-routing semantics are an exact port of ``_extract_fields``
(``final_run_ocr.py:299-351``): per-class candidate buckets, the
longest-maker update rule, vintage overwrite on repeated Vintage
detections, the maker-region year backup, and the full-image fallback
sweep (text side of ``final_run_ocr.py:187-297``, fan-out replaced by
the engine's ``ocr_full`` view) when YOLO found no vintage box.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa

from ..functions import text as T
from ..functions.imaging import pad_box
from ..sources.media import MediaStore
from ..state.engines import BlobAnalyzer, decode_payload, resolve_engines
from .spans import nest_spans, span_rows_of

_MAKER_CLASSES = frozenset({"maker_name", "producer", "winery"})
_VINTAGE_CLASSES = frozenset({"vintage", "year"})


def _sweep_takes_gray(ocr_engine) -> bool:
    """Adapters written against the original 2-arg ``ocr_sweep``
    signature must keep working: pass ``gray`` only if the engine
    accepts it. Engine-invariant — resolved ONCE per actor in
    ``MediaExtract.__init__``, never re-inspected per payload
    (hot-path reflection, round-3 verdict #3). A plain function, not
    an ``lru_cache`` module global: cloudpickle serializes C-wrapped
    callables by module reference, which breaks the package's
    by-value shipping to workers (_rayprep.py)."""
    import inspect
    try:
        return "gray" in inspect.signature(
            ocr_engine.ocr_sweep).parameters
    except (TypeError, ValueError, AttributeError):
        return False


def extract_media_fields(decoded: Dict, gray: np.ndarray,
                         detections: List[Dict], *, ocr_engine,
                         barcode_engine, pad: float = 0.08,
                         sweep_max_variants: int = 75,
                         sweep_takes_gray: Optional[bool] = None) -> Dict:
    """Route ONE media payload's detections and OCR into the span-row
    fields (everything but ``blob``, which ``BlobAnalyzer.analyze_batch``
    computes for a whole batch). Pure given the engines. The oracle
    (oracle.py) re-implements this chain independently; the pipeline
    test asserts the two agree per row."""
    W, H = decoded["w"], decoded["h"]
    out_maker: Optional[str] = None
    out_vintage: Optional[str] = None
    raw: Dict[str, List] = {}
    vintage_by_yolo = False
    span_texts: List[str] = []

    for det in detections:
        cls_lower = det["class"].replace("-", "_").lower()
        box = pad_box(det["box"], W, H, pad=pad)
        texts, confs = ocr_engine.ocr_box(decoded, box)
        txt = " ".join(texts).strip()
        conf = float(np.mean(confs)) if confs else 0.0
        if txt:
            span_texts.append(txt)
        if cls_lower in _MAKER_CLASSES:
            cleaned = T.clean_maker_crop(txt)
            if cleaned and len(cleaned) >= 2:
                if not out_maker or len(cleaned) > len(out_maker):
                    out_maker = cleaned
            raw.setdefault("maker_name_candidates", []).append((cleaned, conf))
            year_in_maker = T.extract_year_from_text(txt)
            if year_in_maker and not out_vintage:
                out_vintage = year_in_maker
                raw.setdefault("vintage_from_maker_region", []).append(
                    (year_in_maker, conf))
        elif cls_lower in _VINTAGE_CLASSES:
            vintage_by_yolo = True
            year = T.extract_year_from_text(txt)
            if year:
                out_vintage = year
            raw.setdefault("vintage_candidates", []).append((txt, conf))
        else:
            raw.setdefault(cls_lower, []).append((txt, conf))

    if not vintage_by_yolo and not out_vintage:
        if sweep_takes_gray is None:  # direct (non-actor) callers
            sweep_takes_gray = _sweep_takes_gray(ocr_engine)
        texts = ocr_engine.ocr_sweep(decoded, sweep_max_variants,
                                     gray=gray) \
            if sweep_takes_gray else \
            ocr_engine.ocr_sweep(decoded, sweep_max_variants)
        sweep = T.sweep_year_from_texts(texts)
        if sweep:
            out_vintage = sweep
            raw["vintage_from_fallback"] = sweep

    return {
        "span_text": " ".join(span_texts).strip(),
        "maker_name": out_maker,
        "raw": raw_to_entries(raw),
        "vintage_str": out_vintage,
        "vintage_by_yolo": vintage_by_yolo,
        "barcode": barcode_engine.scan(decoded),
    }


def _error_fields(reason: str) -> Dict:
    """Span-row fields of a media row whose payload is missing or
    cannot be decoded."""
    return {"span_text": "", "maker_name": None,
            "raw": [{"bucket": "error", "text": reason, "conf": None}],
            "vintage_str": None, "vintage_by_yolo": False,
            "barcode": None, "blob": None}


def raw_to_entries(raw: Dict) -> List[Dict]:
    """Candidate map -> typed RAW_ENTRY_STRUCT list (spans.RAW_TYPE).
    Entry order = dict insertion order + per-bucket list order, so the
    assembly-side rebuild reproduces the map byte-identically; a bare
    string bucket value (vintage_from_fallback) becomes one entry with
    a NULL conf."""
    out: List[Dict] = []
    for bucket, v in raw.items():
        if isinstance(v, list):
            out.extend({"bucket": bucket, "text": t, "conf": float(c)}
                       for (t, c) in v)
        else:
            out.append({"bucket": bucket, "text": v, "conf": None})
    return out


class MediaExtract:
    """Actor-pool callable for ``map_batches``. One media store handle
    + engine set per actor; per batch it fetches exactly the refs in
    the batch's media rows."""

    def __init__(self, media_path: str, *, confidence_threshold: float = 0.01,
                 pad: float = 0.08, min_blob_area: float = 30.0,
                 crop_label: bool = False, skip_alignment: bool = True,
                 engines="synthetic", sweep_max_variants: int = 75):
        self.store = MediaStore(media_path)
        (self.detect_engine, self.ocr_engine,
         self.barcode_engine) = resolve_engines(engines,
                                                confidence_threshold)
        self.blob_analyzer = BlobAnalyzer(min_blob_area,
                                          crop_label=crop_label,
                                          skip_alignment=skip_alignment)
        self.pad = pad
        self.sweep_max_variants = sweep_max_variants
        # adapter-compat reflection resolved once per actor lifetime
        self.sweep_takes_gray = _sweep_takes_gray(self.ocr_engine)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        kind_col = batch.column("kind")
        media_mask = pc.equal(kind_col, "media")
        mask_np = media_mask.to_numpy(zero_copy_only=False)
        if not mask_np.any():
            return batch
        media_idx = np.flatnonzero(mask_np)
        refs_col = batch.column("media_ref")
        media_refs = pc.take(refs_col, pa.array(media_idx)).to_pylist()
        payloads = self.store.fetch(media_refs)

        # compute replacement values for media rows only, then splice
        # them in — no full-column python round-trips for the (large)
        # text-span columns. Pass 1 decodes and routes each payload;
        # pass 2 runs the blob leg once for every decoded image.
        vals: Dict[str, List] = {name: []
                                 for name in ("span_text", "maker_name",
                                              "raw", "vintage_str",
                                              "vintage_by_yolo", "barcode",
                                              "blob")}
        grays: List[np.ndarray] = []
        detections: List[List[Dict]] = []
        blob_rows: List[int] = []
        for row, ref in enumerate(media_refs):
            payload = payloads.get(ref)
            error = "missing_media" if payload is None else None
            if payload is not None:
                try:
                    decoded, gray = decode_payload(payload)
                except (ValueError, KeyError, TypeError):
                    # truncated payload, bad JSON header, or a pixel
                    # byte count that is not h*w
                    error = "corrupt_media"
            if error:
                # poison-pill row: emit an error marker instead of
                # failing the block (SURVEY.md section 4.2 retries note)
                fields = _error_fields(error)
            else:
                dets = self.detect_engine.detect(decoded)
                fields = extract_media_fields(
                    decoded, gray, dets, ocr_engine=self.ocr_engine,
                    barcode_engine=self.barcode_engine, pad=self.pad,
                    sweep_max_variants=self.sweep_max_variants,
                    sweep_takes_gray=self.sweep_takes_gray)
                grays.append(gray)
                detections.append(dets)
                blob_rows.append(row)
            for name in vals:
                vals[name].append(fields.get(name))
        for row, blob in zip(blob_rows, self.blob_analyzer.analyze_batch(
                grays, detections)):
            vals["blob"][row] = blob

        mask_arr = pa.array(mask_np)
        # nested (list/struct) columns: replace_with_mask has no nested
        # kernel — scatter via a null-masked take instead. Valid because
        # text rows carry NULL raw/blob by construction (explode_spans),
        # so "media value where media, null elsewhere" IS the splice.
        scatter_idx = np.zeros(len(batch), dtype=np.int64)
        scatter_idx[media_idx] = np.arange(len(media_idx))
        scatter = pa.array(scatter_idx, mask=~mask_np)

        out = batch
        for name, values in vals.items():
            field_idx = out.schema.get_field_index(name)
            typ = out.schema.field(name).type
            new_vals = pa.array(values, typ)
            if pa.types.is_nested(typ):
                replaced = pc.take(new_vals, scatter)
            else:
                col = out.column(name)
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                replaced = pc.replace_with_mask(col, mask_arr, new_vals)
            out = out.set_column(field_idx, name, replaced)
        return out


class DocMediaExtract(MediaExtract):
    """``MediaExtract`` over doc rows: flattens the batch's nested span
    rows, runs the span-row ``__call__`` and re-nests them."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return nest_spans(batch, super().__call__(span_rows_of(batch)))
