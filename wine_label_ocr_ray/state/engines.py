"""Detect / OCR / Barcode engine interfaces + deterministic synthetic
implementations.

The reference holds YOLO and PaddleOCR as lazy module-global singletons
(``data_extraction_functions/final_run_ocr.py:41-51,58-80``); in the
Ray Data engine that lifecycle becomes *actor state*: an engine is
constructed once in a ``map_batches`` actor's ``__init__`` and reused
per batch. Production adapters (ultralytics YOLO, PaddleOCR, Tesseract,
pyzbar) would subclass the same ABCs; none of those libraries exist in
this environment, so the shipped engines decode the synthetic payload's
embedded ground truth deterministically (SURVEY.md section 7.0).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..functions import imaging
from ..functions.blobs import blob_fingerprint
# NOTE: package-internal imports must stay at module top level — the
# package ships to workers via cloudpickle by-value registration, and a
# deferred relative import inside a method would attempt a real
# `import wine_label_ocr_ray...` on the worker (ModuleNotFoundError
# when the driver's cwd is not the repo).
from ..functions.enhance import (align_vertically, find_label_roi,
                                 find_label_roi_with_detections,
                                 sweep_variant_crops)
from ..synth import decode_payload


class DetectEngine(ABC):
    """Label-element detector (reference classes: Distinct Logo /
    Maker-Name / Vintage, ``final_run_ocr.py:404``)."""

    @abstractmethod
    def detect(self, decoded: Dict) -> List[Dict]:
        """decoded payload header -> [{'class', 'box', 'confidence'}]."""


class OcrEngine(ABC):
    @abstractmethod
    def ocr_box(self, decoded: Dict, box: List[float]) -> Tuple[List[str], List[float]]:
        """OCR the (padded) crop box -> (texts, confs)."""

    @abstractmethod
    def ocr_full(self, decoded: Dict) -> List[str]:
        """Full-image OCR (the fallback sweep's view): every text the
        image contains, including outside detection boxes."""

    def ocr_sweep(self, decoded: Dict, max_variants: int = 75,
                  gray: Optional[np.ndarray] = None) -> List[str]:
        """M21 contract (``final_run_ocr.py:187-297``): the vintage
        fallback sweep's image-side fan-out — up to ``max_variants``
        OCR passes over preprocess-variant x region x rotation
        combinations of the image (the reference enumerates 5 x 5 x 3
        = 75), returning ALL collected texts for the text-side
        reduction (functions/text.py::sweep_year_from_texts).
        ``gray`` is the decoded pixel image when the caller has one
        (the media stage always does).

        ``PixelSweepOcr`` below implements the real fan-out over the
        numpy kernel ports — a production adapter (PaddleOCR etc.)
        mixes it in and supplies only ``ocr_pixels``. The base default
        — and the synthetic engine — returns the ``ocr_full`` view:
        the union of everything any variant could read, which is
        exact for ground-truth-decoding engines."""
        del max_variants, gray
        return self.ocr_full(decoded)


class PixelSweepOcr:
    """The M21 image-side fan-out as engine-independent library code
    (``final_run_ocr.py:187-297``): mix into an ``OcrEngine`` whose
    backend reads pixels (a PaddleOCR adapter wraps its
    ``_run_paddle_ocr`` as ``ocr_pixels``) and ``ocr_sweep`` runs the
    real <=75-variant enumeration — 5 preprocess versions x 5 regions
    x [unrotated, -5 deg, +5 deg], reference nesting order, hard cap
    at ``max_variants`` — over the repo's numpy kernel ports
    (``functions/enhance.py::sweep_variant_crops``). All texts are
    returned; the exact text-side reduction
    (``functions/text.py::sweep_year_from_texts``) picks the year,
    preserving the reference's pattern-priority semantics without its
    driver-side early-exit loop."""

    def ocr_pixels(self, img: np.ndarray) -> List[str]:
        """Every text the OCR backend reads in ``img``. The adapter's
        single required hook."""
        raise NotImplementedError(
            "pixel-reading OCR backend required (e.g. PaddleOCR "
            "adapter); the synthetic engine uses the ocr_full view")

    def ocr_sweep(self, decoded: Dict, max_variants: int = 75,
                  gray: Optional[np.ndarray] = None) -> List[str]:
        if gray is None:
            # no pixels available (text-only caller): fall back to the
            # full-image view rather than silently returning nothing
            return self.ocr_full(decoded)  # type: ignore[attr-defined]
        texts: List[str] = []
        for _ver, _reg, _ang, crop in sweep_variant_crops(
                gray, max_variants):
            texts.extend(self.ocr_pixels(crop))
        return texts


class BarcodeEngine(ABC):
    @abstractmethod
    def scan(self, decoded: Dict) -> Optional[str]:
        """First decoded barcode string or None (QRCodeScanner.py:84-96)."""


class SyntheticDetectEngine(DetectEngine):
    """Reads the payload's ground-truth elements; applies the model
    confidence threshold exactly like the reference's YOLO call
    (``final_run_ocr.py:400`` with conf=0.01)."""

    def __init__(self, confidence_threshold: float = 0.01):
        self.confidence_threshold = confidence_threshold

    def detect(self, decoded: Dict) -> List[Dict]:
        out = []
        for el in decoded.get("elements", []):
            if el["conf"] >= self.confidence_threshold:
                out.append({"class": el["cls"], "box": list(el["box"]),
                            "confidence": float(el["conf"])})
        return out


class SyntheticOcrEngine(OcrEngine):
    """Returns the truth text of every element fully inside the crop
    box (the deterministic analog of PaddleOCR reading a crop)."""

    def ocr_box(self, decoded: Dict, box: List[float]) -> Tuple[List[str], List[float]]:
        x1, y1, x2, y2 = box
        texts, confs = [], []
        for el in decoded.get("elements", []):
            ex1, ey1, ex2, ey2 = el["box"]
            if ex1 >= x1 and ey1 >= y1 and ex2 <= x2 and ey2 <= y2:
                if el["truth_text"]:
                    texts.append(el["truth_text"].strip())
                    confs.append(float(el["ocr_conf"]))
        return texts, confs

    def ocr_full(self, decoded: Dict) -> List[str]:
        texts = [el["truth_text"] for el in decoded.get("elements", [])
                 if el["truth_text"]]
        texts.extend(decoded.get("background_texts", []))
        return texts


class SyntheticBarcodeEngine(BarcodeEngine):
    def scan(self, decoded: Dict) -> Optional[str]:
        return decoded.get("barcode")


# Pixels per blob-kernel call. The kernel's temporaries (bool masks,
# int64 histogram indices, run arrays) are a few times this, so a chunk
# stays cache-resident: on 64x96 images one stack of a whole media
# batch ran ~10% slower per image, 32-64 KiB chunks 50-80% slower.
BLOB_CHUNK_BYTES = 256 * 1024


class BlobAnalyzer:
    """The blob leg (``hybrid.py:277-363``): optional ROI crop (M15
    heuristic) and vertical alignment (M17), then Otsu text mask ->
    connected-component blobs -> fingerprint. Flagship defaults match
    the WineTracker.py:50 flags (full ROI, use_image_as_mask=True,
    skip_alignment=True)."""

    def __init__(self, min_blob_area: float = 30.0, *,
                 crop_label: bool = False, skip_alignment: bool = True,
                 roi_conf_threshold: float = 0.8):
        self.min_blob_area = min_blob_area
        self.crop_label = crop_label
        self.skip_alignment = skip_alignment
        self.roi_conf_threshold = roi_conf_threshold

    def _roi(self, gray: np.ndarray, detections) -> np.ndarray:
        H, W = gray.shape[:2]
        x1, y1, x2, y2 = (0, 0, W, H)
        if self.crop_label:
            # M16: detector-box override (best box >= conf 0.8 + 10px
            # pad, hybrid.py:66-99) with M15 heuristic fallback
            if detections:
                x1, y1, x2, y2 = find_label_roi_with_detections(
                    gray, detections, self.roi_conf_threshold)
            else:
                x1, y1, x2, y2 = find_label_roi(gray)
        roi = gray[y1:y2, x1:x2]
        if not self.skip_alignment:
            # the angle is internal; the blob schema is fixed
            roi, _angle = align_vertically(roi)
        return roi

    def analyze_batch(self, grays: Sequence[np.ndarray],
                      detections_list: Optional[Sequence] = None
                      ) -> List[Dict]:
        """Blob leg of many images at once: ROIs are grouped by shape
        and each group runs through the batch kernel in chunks of at
        most ``BLOB_CHUNK_BYTES`` pixels. Returns one blob dict per
        image, in input order."""
        if detections_list is None:
            detections_list = [None] * len(grays)
        rois = [self._roi(g, d) for g, d in zip(grays, detections_list)]
        by_shape: Dict[Tuple[int, int], List[int]] = {}
        for i, roi in enumerate(rois):
            by_shape.setdefault(roi.shape[:2], []).append(i)
        out: List[Optional[Dict]] = [None] * len(rois)
        for (rh, rw), idx in by_shape.items():
            step = max(1, BLOB_CHUNK_BYTES // max(rh * rw, 1))
            for s in range(0, len(idx), step):
                part = idx[s:s + step]
                masks = imaging.text_masks(np.stack([rois[i] for i in part]))
                for i, blobs in zip(part, imaging.smart_blobs(
                        masks, self.min_blob_area)):
                    out[i] = {"roi_shape": [rh, rw],
                              "blob_count": len(blobs),
                              "blob_fingerprint": blob_fingerprint(
                                  blobs, (rh, rw)),
                              "blobs": blobs}
        return out

    def analyze(self, gray: np.ndarray, detections=None) -> Dict:
        return self.analyze_batch([gray], [detections])[0]


def default_engines(confidence_threshold: float = 0.01):
    return (SyntheticDetectEngine(confidence_threshold),
            SyntheticOcrEngine(), SyntheticBarcodeEngine())


# Engine registry (SURVEY.md section 2.9 extension surface): factories
# take the detect confidence threshold and return (detect, ocr,
# barcode). Statically-registered names resolve on workers too (the
# module ships by value); runtime-registered custom engines should be
# passed to PipelineConfig.engines as the factory CALLABLE itself
# (cloudpickle ships it by value) rather than a name. The
# "production" entry (ultralytics YOLO / PaddleOCR / pyzbar, SURVEY
# section 2.4) is registered below from state/adapters.py — its
# classes import their packages lazily in __init__, raising a clear
# ImportError naming the missing pip package.
ENGINE_FACTORIES = {"synthetic": default_engines}


def resolve_engines(spec, confidence_threshold: float = 0.01):
    """spec: registry name or factory callable -> engine triple."""
    factory = ENGINE_FACTORIES[spec] if isinstance(spec, str) else spec
    return factory(confidence_threshold)


__all__ = [
    "DetectEngine", "OcrEngine", "BarcodeEngine",
    "SyntheticDetectEngine", "SyntheticOcrEngine", "SyntheticBarcodeEngine",
    "BlobAnalyzer", "default_engines", "ENGINE_FACTORIES",
    "resolve_engines", "decode_payload",
]

# bottom import purely for side effect: adapters.py subclasses the
# ABCs above and registers ENGINE_FACTORIES["production"] at ITS
# bottom (import-order-safe both ways round; heavy packages import
# lazily inside the adapter constructors)
from . import adapters  # noqa: E402,F401
