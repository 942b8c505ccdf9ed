"""Media-span extraction stage: the stateful actor-pool heart of the
pipeline (detect -> pad/crop -> OCR -> field routing -> blob leg).

This is the Ray Data re-expression of the reference's per-image chain
``final_run_ocr.final_run_ocr`` (``final_run_ocr.py:381-441``) +
``hybrid.final_run_blobs`` (``hybrid.py:277-363``): engines are loaded
once per actor in ``__init__`` (the reference's module-global
singletons, ``final_run_ocr.py:41-80``), each ``__call__`` processes an
Arrow batch of span rows, fetching only that batch's payloads from the
media store. Text rows pass through untouched (see stages/spans.py for
the single-pass routing rationale). The flagship's actor,
``pipelines/extract.py::DocMediaExtract``, runs this call on the span
rows of each media pass of a batch of documents, each row with its
doc, and assembles the records in the same call.

One ``__call__`` is one columnar pass over the batch's media rows, with
no loop over payloads: the payloads arrive as one Arrow binary column
straight from the parquet read (``MediaStore.fetch_column``), are
decoded in place (``synth.decode_payloads``: one header parse, pixels
never copied), and every engine is called once per batch through its
batch method (``state/engines.py``). ``route_media`` routes all
detections of the batch as one flat (payload, detection) table. The
blob leg (``BlobAnalyzer.analyze_column``: images grouped by shape
through the batch kernel) runs only on the image each doc's record
keeps, the payload of the doc's first media row, by (offset,
media_ref), that decoded; every other media row gets a null blob, and
record assembly (``reassemble``) picks that same row. Called without
docs, ``__call__`` takes each row as a doc of its own, so every media
row whose payload decoded gets its blob. Every output column is built
as an Arrow array and spliced into the batch.

Field-routing semantics are an exact port of ``_extract_fields``
(``final_run_ocr.py:299-351``): per-class candidate buckets, the
longest-maker update rule, vintage overwrite on repeated Vintage
detections, the maker-region year backup, and the full-image fallback
sweep (text side of ``final_run_ocr.py:187-297``, fan-out replaced by
the engine's ``ocr_full`` view) when YOLO found no vintage box. The
per-payload rules become masks and per-payload first/last picks;
Python runs only ``clean_maker_crop`` on maker texts and the year
regexes on maker, vintage and sweep texts, once per distinct text.
``extract_media_fields`` is the one-payload entry point over the same
code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import text as T
from ..functions.imaging import pad_boxes
from ..schema import RAW_ENTRY_STRUCT, RAW_TYPE
from ..sources.media import MediaStore
from ..state.engines import BlobAnalyzer, Detections, resolve_engines
# decode_payload: the one-payload decode, looked up here by callers
from ..synth import decode_payload, decode_payloads  # noqa: F401
from .spans import one_array

_MAKER_CLASSES = frozenset({"maker_name", "producer", "winery"})
_VINTAGE_CLASSES = frozenset({"vintage", "year"})
# raw buckets every batch may use; a detection of any other class goes
# to the bucket named after it
_BUCKETS = ["maker_name_candidates", "vintage_candidates",
            "vintage_from_maker_region", "vintage_from_fallback"]
_SPACE = pa.scalar(" ")
_MEDIA = pa.scalar("media")
_SPLICED = ("span_text", "maker_name", "raw", "vintage_str", "barcode",
            "blob")


def segment_sums(values: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """The sum of each segment ``values[starts[i]:starts[i] +
    lengths[i]]``, added left to right onto 0.0 as Python's ``sum`` of
    floats adds them (up to Python 3.11; 3.12 compensates), one column
    of the segments at a time."""
    total = np.zeros(len(lengths))
    for j in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > j)
        total[rows] += values[starts[rows] + j]
    return total


def _segment_means(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``float(np.mean(v))`` of each consecutive segment of ``values``
    (0.0 for an empty one), bit for bit. Below 8 values ``np.mean``
    adds left to right onto 0.0, so short segments are summed one
    column at a time; longer ones call ``np.mean`` itself."""
    starts = np.cumsum(lengths) - lengths
    short = lengths < 8
    out = np.zeros(len(lengths))
    np.divide(segment_sums(values, starts, lengths * short), lengths,
              out=out, where=lengths > 0)
    for i in np.flatnonzero(~short).tolist():
        out[i] = np.mean(values[starts[i]:starts[i] + lengths[i]])
    return out


def _pick(group: np.ndarray, ks: np.ndarray, n: int,
          last: bool = False) -> np.ndarray:
    """Per group g in 0..n-1: the first (or last) position k in ``ks``,
    taken in order, with ``group[k] == g``; -1 where there is none."""
    pos = np.full(n, -1 if last else len(ks), dtype=np.int64)
    (np.maximum if last else np.minimum).at(pos, group[ks],
                                            np.arange(len(ks)))
    found = (pos >= 0) & (pos < len(ks))
    out = np.full(n, -1, dtype=np.int64)
    out[found] = ks[pos[found]]
    return out


def _lists(values: pa.Array, group: np.ndarray, n: int) -> pa.Array:
    """``values`` (sorted by their nondecreasing ``group``) as one list
    per group 0..n-1."""
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(group, minlength=n), out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), values)


def per_text(fn: Callable[[str], str], texts: pa.Array) -> pa.Array:
    """``fn`` of every text, called once per distinct text."""
    codes = pc.dictionary_encode(texts)
    return pc.array_take(
        pa.array([fn(t) for t in codes.dictionary.to_pylist()], pa.string()),
        codes.indices)


def _take(values: pa.Array, idx: np.ndarray) -> pa.Array:
    """``values[idx]``, null where idx < 0."""
    return pc.array_take(values, pa.array(idx, mask=idx < 0))


def first_longest(texts: pa.Array, group: np.ndarray, n: int) -> pa.Array:
    """Per group g in 0..n-1: the first, in order, of the longest texts
    of at least 2 characters among ``texts[k]`` with ``group[k] == g``
    (the longest-maker update rule, ``final_run_ocr.py:321-324``); null
    where there is none."""
    length = pc.fill_null(pc.utf8_length(texts), 0).to_numpy(
        zero_copy_only=False)
    cand = np.flatnonzero(length >= 2)
    cand = cand[np.lexsort((cand, -length[cand], group[cand]))]
    return _take(texts, _pick(group, cand, n))


def _said(texts: pa.Array) -> np.ndarray:
    """Where a (slice-free) string array holds a non-empty string."""
    offsets = np.frombuffer(texts.buffers()[1], np.int32, len(texts) + 1)
    return offsets[1:] > offsets[:-1]


def route_media(decoded: Sequence[Dict], dets: Detections,
                gray: Callable[[int], np.ndarray], *, ocr_engine,
                barcode_engine, pad: float = 0.08,
                sweep_max_variants: int = 75) -> Dict[str, pa.Array]:
    """Routes the detections and OCR of a batch of decoded payloads
    into their span-row fields (everything but ``blob``), one Arrow
    array per field, one value per payload. ``gray(i)`` is payload i's
    image, asked for only by the fallback sweep. Pure given the
    engines; the oracle (oracle.py) re-implements the chain
    independently, and the pipeline test asserts the two agree."""
    n, m = len(decoded), len(dets.image)
    p = dets.image
    # class -> bucket, resolved once per distinct class name
    names = list(dict.fromkeys(dets.classes))
    code = {c: i for i, c in enumerate(names)}
    cls = np.array([code[c] for c in dets.classes], dtype=np.int64)
    lower = [c.replace("-", "_").lower() for c in names]
    is_maker = np.array([c in _MAKER_CLASSES for c in lower], bool)[cls]
    is_vint = np.array([c in _VINTAGE_CLASSES for c in lower], bool)[cls]
    buckets = list(dict.fromkeys(_BUCKETS + lower))
    other = np.array([buckets.index(c) for c in lower], dtype=np.int64)
    bucket = np.where(is_maker, 0, np.where(is_vint, 1, other[cls]))
    buckets = pa.array(buckets, pa.string())

    # box OCR, reduced per box to its text and mean confidence
    W = np.array([d["w"] for d in decoded], dtype=np.int64)
    H = np.array([d["h"] for d in decoded], dtype=np.int64)
    texts, confs = ocr_engine.ocr_boxes(
        decoded, p, pad_boxes(dets.box, W[p], H[p], pad))
    txt = pc.utf8_trim_whitespace(pc.binary_join(texts, _SPACE))
    conf = _segment_means(
        pc.list_flatten(confs).to_numpy(zero_copy_only=False),
        pc.list_value_length(confs).to_numpy(zero_copy_only=False))
    said = _said(txt)
    span_text = pc.binary_join(
        _lists(pc.array_filter(txt, pa.array(said)), p[said], n), _SPACE)

    # maker: the first of each payload's longest cleaned maker texts
    mk = np.flatnonzero(is_maker)
    cleaned = per_text(T.clean_maker_crop, pc.array_take(txt, mk))
    maker_name = first_longest(cleaned, p[mk], n)

    # years, read only from maker and vintage texts
    ask = np.flatnonzero(is_maker | is_vint)
    years = per_text(T.extract_year_from_text, pc.array_take(txt, ask))
    found = np.flatnonzero(pc.is_valid(years).to_numpy(zero_copy_only=False))
    year_of = np.full(m, -1, dtype=np.int64)
    year_of[ask[found]] = found
    has_year = year_of >= 0
    # a Vintage box's year overwrites, so the last one wins; a maker
    # region's year counts only before any vintage is set
    maker_year = _pick(p, np.flatnonzero(is_maker & has_year), n)
    vint_year = np.flatnonzero(is_vint & has_year)
    first_vint = _pick(p, vint_year, n)
    from_maker = np.flatnonzero((maker_year >= 0) & (
        (first_vint < 0) | (maker_year < first_vint)))
    src = np.where(first_vint >= 0, _pick(p, vint_year, n, last=True),
                   maker_year)
    vintage_by_yolo = np.bincount(p[is_vint], minlength=n) > 0

    # full-image fallback sweep where YOLO found no vintage at all
    swept = np.flatnonzero(~vintage_by_yolo & (src < 0))
    sweeps = [T.sweep_year_from_texts(t) for t in ocr_engine.ocr_sweeps(
        [decoded[i] for i in swept], sweep_max_variants,
        [gray(i) for i in swept.tolist()])] if len(swept) else []
    hit = swept[[y is not None for y in sweeps]]
    vintage_idx = np.full(n, -1, dtype=np.int64)
    vintage_idx[src >= 0] = year_of[src[src >= 0]]
    vintage_idx[hit] = len(years) + np.arange(len(hit))
    # every text a raw entry or vintage_str can hold: the detections'
    # texts, the cleaned maker texts, their years and the sweep hits
    pool = pa.concat_arrays([txt, cleaned, years, pa.array(
        [y for y in sweeps if y is not None], pa.string())])
    vintage_str = _take(pool, vintage_idx + np.where(vintage_idx >= 0,
                                                     m + len(mk), 0))

    # raw entries: one per detection, a maker-region year right after
    # its detection's, a sweep hit last; buckets in first-use order
    k = len(from_maker)
    ent_payload = np.concatenate([p, from_maker, hit])
    ent_time = np.concatenate([2 * np.arange(m),
                               2 * maker_year[from_maker] + 1,
                               np.full(len(hit), 2 * m)])
    ent_bucket = np.concatenate([bucket, np.full(k, 2), np.full(len(hit), 3)])
    ent_text = np.concatenate([
        np.where(is_maker, m + np.cumsum(is_maker) - 1, np.arange(m)),
        m + len(mk) + year_of[maker_year[from_maker]],
        m + len(mk) + len(years) + np.arange(len(hit))])
    ent_conf = np.concatenate([conf, conf[maker_year[from_maker]],
                               np.zeros(len(hit))])
    order = np.lexsort((ent_time, ent_payload))
    _, first, inverse = np.unique(
        ent_payload[order] * len(buckets) + ent_bucket[order],
        return_index=True, return_inverse=True)
    order = order[np.argsort(first[inverse], kind="stable")]
    raw = _lists(pa.StructArray.from_arrays([
        pc.array_take(buckets, ent_bucket[order]),
        pc.array_take(pool, ent_text[order]),
        pa.array(ent_conf[order], mask=order >= m + k)],
        fields=list(RAW_ENTRY_STRUCT)), ent_payload[order], n)

    return {"span_text": span_text, "maker_name": maker_name, "raw": raw,
            "vintage_str": vintage_str,
            "barcode": pa.array(barcode_engine.scan_batch(decoded),
                                pa.string())}


def extract_media_fields(decoded: Dict, gray: np.ndarray,
                         detections: List[Dict], *, ocr_engine,
                         barcode_engine, pad: float = 0.08,
                         sweep_max_variants: int = 75) -> Dict:
    """``route_media`` of ONE payload: its span-row fields (everything
    but ``blob``) as Python values."""
    fields = route_media([decoded], Detections.from_lists([detections]),
                         lambda i: gray, ocr_engine=ocr_engine,
                         barcode_engine=barcode_engine, pad=pad,
                         sweep_max_variants=sweep_max_variants)
    return {name: col[0].as_py() for name, col in fields.items()}


def _error_fields(reasons: List[str]) -> Dict[str, pa.Array]:
    """Span-row fields of media rows whose payload is missing or cannot
    be decoded: an error marker in ``raw``, nothing else."""
    k = len(reasons)
    return {"span_text": pa.array([""] * k, pa.string()),
            "maker_name": pa.nulls(k, pa.string()),
            "raw": pa.array([[{"bucket": "error", "text": r, "conf": None}]
                             for r in reasons], RAW_TYPE),
            "vintage_str": pa.nulls(k, pa.string()),
            "barcode": pa.nulls(k, pa.string())}


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

    def _fields(self, refs: pa.Array, offset: pa.Array,
                doc: np.ndarray) -> Dict[str, pa.Array]:
        """The spliced fields of the media rows of ``refs``, at
        ``offset`` in doc ``doc``, one array each. Every distinct
        payload is decoded and routed once. Only the blob a doc's record
        keeps is computed: that of its first media row, by (offset,
        media_ref), whose payload decoded, the row ``reassemble`` picks;
        every other row's blob is null."""
        payloads, at = self.store.fetch_column(refs)
        at = pc.fill_null(at, -1).to_numpy().astype(np.int64)
        dec = decode_payloads(payloads)
        ok = np.flatnonzero(dec.ok)
        headers = [dec.headers[i] for i in ok]
        dets = self.detect_engine.detect_batch(headers)
        fields = route_media(
            headers, dets, lambda j: dec.gray(ok[j]),
            ocr_engine=self.ocr_engine, barcode_engine=self.barcode_engine,
            pad=self.pad, sweep_max_variants=self.sweep_max_variants)
        # each media row's position in ``fields``; -1 where its payload
        # is missing or cannot be decoded
        routed = np.full(len(payloads) + 1, -1, dtype=np.int64)
        routed[ok] = np.arange(len(ok))
        pos = routed[at]

        # the blob leg, on each doc's first decoded row only
        good = np.flatnonzero(pos >= 0)
        first = good[pc.sort_indices(
            pa.table({"d": doc[good], "o": offset.take(good),
                      "m": refs.take(good)}),
            sort_keys=[(c, "ascending") for c in "dom"]).to_numpy()]
        first = first[np.diff(doc[first], prepend=-1) != 0]
        need, blob_of = np.unique(pos[first], return_inverse=True)
        dets_of = (dets.per_image(len(ok)) if self.blob_analyzer.crop_label
                   else None)
        blobs = self.blob_analyzer.analyze_column(
            dec.grays(ok[need]),
            None if dets_of is None else [dets_of[i] for i in need.tolist()])
        blob_at = np.full(len(pos), -1, dtype=np.int64)
        blob_at[first] = blob_of
        if not np.array_equal(blob_at, np.arange(len(pos))):
            blobs = _take(blobs, blob_at)

        bad = np.flatnonzero(pos < 0)
        if len(bad):
            # poison-pill rows: a missing or undecodable payload costs
            # one error-marked row, not the block (SURVEY.md section 4.2)
            errors = _error_fields(["missing_media" if at[i] < 0
                                    else "corrupt_media"
                                    for i in bad.tolist()])
            pos[bad] = len(ok) + np.arange(len(bad))
            fields = {name: pa.concat_arrays([col, errors[name]])
                      for name, col in fields.items()}
        if not np.array_equal(pos, np.arange(len(ok))):
            # some row is not its own payload in order: take per row
            pos = pa.array(pos)
            fields = {name: col.take(pos) for name, col in fields.items()}
        return dict(fields, blob=blobs)

    def __call__(self, batch: pa.Table,
                 doc: Optional[np.ndarray] = None) -> pa.Table:
        """``batch`` (span rows) with its media rows' fields spliced in.
        ``doc`` is the doc of each row; by default each row is a doc of
        its own, so every media row whose payload decoded gets its
        blob."""
        mask_np = pc.equal(batch.column("kind"), _MEDIA).to_numpy(
            zero_copy_only=False)
        if not mask_np.any():
            return batch
        media_idx = np.flatnonzero(mask_np)
        vals = self._fields(batch.column("media_ref").take(media_idx),
                            batch.column("offset").take(media_idx),
                            media_idx if doc is None else doc[media_idx])

        # splice the media rows' values in — no full-column python
        # round-trips for the (large) text-span columns
        mask_arr = pa.array(mask_np)
        # media-only columns (everything but span_text): scatter via a
        # null-masked take, which also covers the nested ones
        # replace_with_mask has no kernel for. Valid because text rows
        # carry NULL there by construction (explode_spans), so "media
        # value where media, null elsewhere" IS the splice.
        scatter_idx = np.zeros(len(batch), dtype=np.int64)
        scatter_idx[media_idx] = np.arange(len(media_idx))
        scatter = pa.array(scatter_idx, mask=~mask_np)

        out = batch
        for name in _SPLICED:
            field_idx = out.schema.get_field_index(name)
            typ = out.schema.field(name).type
            new_vals = vals[name]
            if new_vals.type != typ:
                new_vals = new_vals.cast(typ)
            if name != "span_text":
                replaced = pc.array_take(new_vals, scatter)
            else:
                replaced = pc.replace_with_mask(one_array(out.column(name)),
                                                mask_arr, new_vals)
            out = out.set_column(field_idx, name, replaced)
        return out

