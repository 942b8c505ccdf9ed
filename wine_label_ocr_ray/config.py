"""Pipeline configuration (the engine's user-extension surface,
SURVEY.md section 2.9: extraction thresholds, engine choices, debug
output, pool and batch sizing — the Ray Data analog of the reference's
kwargs/CLI flags, ``hybrid.py:277-289``, ``scan_and_store.py:186-196``).
The dedup and near-dup thresholds are keyword arguments of the stages
that use them (``stages/dedup.py``), as they are of the reference's
functions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class PipelineConfig:
    # detection / OCR (final_run_ocr.py:385, hybrid.py:287)
    confidence_threshold: float = 0.01
    box_pad: float = 0.08
    min_blob_area: float = 30.0

    # engine selection (SURVEY.md section 2.4): a state.engines
    # registry name, or a factory callable (conf_threshold) ->
    # (detect, ocr, barcode) shipped by value to the actors
    engines: object = "synthetic"
    # M21 image-side fan-out cap for OcrEngine.ocr_sweep (reference
    # enumerates 5 preprocess x 5 regions x 3 rotations = 75,
    # final_run_ocr.py:187-297); real adapters honor this bound
    sweep_max_variants: int = 75

    # physical execution: the media actor pool's size (one CPU per
    # actor). None -> autosize to half the cluster CPUs (min 2), never
    # all of them: a pool reserving every CPU starves the read and the
    # pipeline serializes (or deadlocks).
    media_concurrency: Optional[int] = None
    # documents (not spans) per media-actor batch. A parquet input is
    # read by the planned shard reader in blocks of about this many or
    # fewer, in whole rounds of the actor pool, each block one batch,
    # so the batch's fixed cost (read block, actor call, write task) is
    # paid once per block; a Lance input is read by Ray and cut into
    # batches of this many. The actor bounds media memory by media
    # spans per pass either way.
    media_batch_size: int = 4096

    # blob-leg options (hybrid.py:277-289 kwargs)
    crop_label: bool = False
    skip_alignment: bool = True

    # debug composite side-output dir (hybrid.py:367-413); None = off
    debug_out: Optional[str] = None
