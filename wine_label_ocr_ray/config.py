"""Pipeline configuration (the engine's user-extension surface,
SURVEY.md section 2.9: thresholds, weights, engine choices, paths,
partitioning — the Ray Data analog of the reference's kwargs/CLI flags,
``hybrid.py:277-289``, ``scan_and_store.py:186-196``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union


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

    # similarity / dedup thresholds (BlobSimilarity.py:105-116,
    # scan_and_store.py:127)
    maker_threshold: int = 85
    blob_threshold: float = 0.55
    pair_threshold: float = 0.22
    blob_weights: Dict[str, float] = field(default_factory=dict)

    # physical execution. media_concurrency=None -> autosize to half the
    # cluster CPUs (min 2): a pool reserving every CPU starves the read
    # and the pipeline serializes (or deadlocks).
    media_concurrency: Union[int, Tuple[int, int], None] = None
    # documents (not spans) per media-actor batch
    media_batch_size: int = 1024
    media_num_cpus: float = 1.0
    override_num_blocks: Optional[int] = None

    # blob-leg options (hybrid.py:277-289 kwargs)
    crop_label: bool = False
    skip_alignment: bool = True

    # debug composite side-output dir (hybrid.py:367-413); None = off
    debug_out: Optional[str] = None
