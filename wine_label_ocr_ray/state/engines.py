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

Batch contract: the media stage calls only the batch methods, once per
batch, over every decoded payload of the batch:

- ``DetectEngine.detect_batch(decoded_list)`` -> ``Detections``, flat
  columns grouped by image;
- ``OcrEngine.ocr_boxes(decoded_list, image, boxes)`` -> (texts,
  confs), one Arrow list per padded box;
- ``OcrEngine.ocr_sweeps(decoded_list, max_variants, grays)`` -> the
  fallback sweep's texts per image;
- ``BarcodeEngine.scan_batch(decoded_list)`` -> one code (or None) per
  image.

An adapter only has to implement the scalar methods (``detect``,
``ocr_box``, ``ocr_full``, ``scan``): each batch method's default loops
over its scalar one. An adapter whose backend batches natively
overrides the batch method instead; the synthetic engines and
``UltralyticsDetect`` do, and their scalar methods are the one-image
entry points over it. An adapter's ``ocr_sweep`` takes
``(decoded, max_variants, gray)``: ``ocr_sweeps`` passes each image's
pixels as ``gray``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

from ..functions import imaging
from ..functions.blobs import blob_fingerprint, blob_fingerprints
# NOTE: package-internal imports must stay at module top level — the
# package ships to workers via cloudpickle by-value registration, and a
# deferred relative import inside a method would attempt a real
# `import wine_label_ocr_ray...` on the worker (ModuleNotFoundError
# when the driver's cwd is not the repo).
from ..functions.enhance import (align_vertically, find_label_roi,
                                 find_label_roi_with_detections,
                                 sweep_variant_crops)
from ..schema import BLOB_STRUCT
from ..synth import decode_payload


def _numeric(values: np.ndarray, typ: pa.DataType) -> pa.Array:
    """``pa.array(values, typ)`` of in-range values, converted by numpy
    and wrapped without a copy (Arrow's checked cast costs tens of
    microseconds per call, ``pa.array`` several)."""
    values = np.ascontiguousarray(values, dtype=typ.to_pandas_dtype())
    return pa.Array.from_buffers(typ, len(values),
                                 [None, pa.py_buffer(values)])


TEXTS_TYPE = pa.list_(pa.string())
CONFS_TYPE = pa.list_(pa.float64())


class Detections(NamedTuple):
    """Detections of a batch of images as flat columns, grouped by image
    in image order: detection k is a ``classes[k]`` box ``box[k]``
    (x1, y1, x2, y2) of confidence ``confidence[k]`` in image
    ``image[k]``."""
    image: np.ndarray
    classes: List[str]
    box: np.ndarray
    confidence: np.ndarray

    @staticmethod
    def from_lists(per_image: Sequence[Sequence[Dict]]) -> "Detections":
        """From ``detect``'s per-image lists of
        {'class', 'box', 'confidence'} dicts."""
        flat = [d for dets in per_image for d in dets]
        return Detections(
            np.repeat(np.arange(len(per_image)),
                      [len(dets) for dets in per_image]),
            [d["class"] for d in flat],
            np.array([d["box"] for d in flat],
                     dtype=np.float64).reshape(-1, 4),
            np.array([d["confidence"] for d in flat], dtype=np.float64))

    def per_image(self, n: int) -> List[List[Dict]]:
        """``detect``'s per-image dict lists of the batch's n images."""
        out: List[List[Dict]] = [[] for _ in range(n)]
        for i, cls, box, conf in zip(self.image.tolist(), self.classes,
                                     self.box.tolist(),
                                     self.confidence.tolist()):
            out[i].append({"class": cls, "box": box, "confidence": conf})
        return out


class DetectEngine(ABC):
    """Label-element detector (reference classes: Distinct Logo /
    Maker-Name / Vintage, ``final_run_ocr.py:404``)."""

    @abstractmethod
    def detect(self, decoded: Dict) -> List[Dict]:
        """decoded payload header -> [{'class', 'box', 'confidence'}]."""

    def detect_batch(self, decoded_list: Sequence[Dict]) -> Detections:
        """``detect`` of many images, as one flat table."""
        return Detections.from_lists([self.detect(d) for d in decoded_list])


class OcrEngine(ABC):
    @abstractmethod
    def ocr_box(self, decoded: Dict, box: List[float]) -> Tuple[List[str], List[float]]:
        """OCR the (padded) crop box -> (texts, confs)."""

    @abstractmethod
    def ocr_full(self, decoded: Dict) -> List[str]:
        """Full-image OCR (the fallback sweep's view): every text the
        image contains, including outside detection boxes."""

    def ocr_boxes(self, decoded_list: Sequence[Dict], image: np.ndarray,
                  boxes: np.ndarray) -> Tuple[pa.Array, pa.Array]:
        """OCR of many padded crop boxes: box k is the int row
        ``boxes[k]`` of image ``decoded_list[image[k]]``. Returns
        (texts, confs), one list per box (``TEXTS_TYPE``,
        ``CONFS_TYPE``): what ``ocr_box`` returns for each."""
        reads = [self.ocr_box(decoded_list[i], box)
                 for i, box in zip(image.tolist(), boxes.tolist())]
        return (pa.array([t for t, _ in reads], TEXTS_TYPE),
                pa.array([c for _, c in reads], CONFS_TYPE))

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

    def ocr_sweeps(self, decoded_list: Sequence[Dict],
                   max_variants: int = 75,
                   grays: Optional[Sequence[np.ndarray]] = None
                   ) -> List[List[str]]:
        """``ocr_sweep`` of many images (``grays[i]``: image i's
        pixels; without ``grays`` no image has pixels)."""
        if grays is None:
            grays = [None] * len(decoded_list)
        return [self.ocr_sweep(d, max_variants, gray=g)
                for d, g in zip(decoded_list, grays)]


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

    def scan_batch(self, decoded_list: Sequence[Dict]) -> List[Optional[str]]:
        """``scan`` of many images."""
        return [self.scan(d) for d in decoded_list]


def _elements(decoded_list: Sequence[Dict]) -> Tuple[List[Dict], np.ndarray]:
    """Every ground-truth element of a batch of synthetic payload
    headers in image order, and each image's element count."""
    per_image = [d.get("elements", []) for d in decoded_list]
    return ([el for els in per_image for el in els],
            np.array([len(els) for els in per_image], dtype=np.int64))


def _element_boxes(elements: List[Dict]) -> np.ndarray:
    return np.fromiter(chain.from_iterable([el["box"] for el in elements]),
                       np.float64, 4 * len(elements)).reshape(-1, 4)


class SyntheticDetectEngine(DetectEngine):
    """Reads the payload's ground-truth elements; applies the model
    confidence threshold exactly like the reference's YOLO call
    (``final_run_ocr.py:400`` with conf=0.01)."""

    def __init__(self, confidence_threshold: float = 0.01):
        self.confidence_threshold = confidence_threshold

    def detect_batch(self, decoded_list: Sequence[Dict]) -> Detections:
        elements, counts = _elements(decoded_list)
        conf = np.array([el["conf"] for el in elements], dtype=np.float64)
        keep = np.flatnonzero(conf >= self.confidence_threshold)
        return Detections(np.repeat(np.arange(len(counts)), counts)[keep],
                          [elements[k]["cls"] for k in keep.tolist()],
                          _element_boxes(elements)[keep], conf[keep])

    def detect(self, decoded: Dict) -> List[Dict]:
        return self.detect_batch([decoded]).per_image(1)[0]


class SyntheticOcrEngine(OcrEngine):
    """Returns the truth text of every element fully inside the crop
    box (the deterministic analog of PaddleOCR reading a crop)."""

    def ocr_boxes(self, decoded_list: Sequence[Dict], image: np.ndarray,
                  boxes: np.ndarray) -> Tuple[pa.Array, pa.Array]:
        # every (box, element of the box's image) pair, box-major
        elements, counts = _elements(decoded_list)
        first = np.cumsum(counts) - counts
        per_box = counts[image]
        box = np.repeat(np.arange(len(image)), per_box)
        el = np.arange(len(box)) + np.repeat(
            first[image] - (np.cumsum(per_box) - per_box), per_box)
        texts = [e["truth_text"] for e in elements]
        has_text = np.fromiter(map(bool, texts), bool, len(texts))
        eb, b = _element_boxes(elements)[el], boxes[box]
        inside = np.flatnonzero(
            (eb[:, 0] >= b[:, 0]) & (eb[:, 1] >= b[:, 1])
            & (eb[:, 2] <= b[:, 2]) & (eb[:, 3] <= b[:, 3]) & has_text[el])
        offsets = _numeric(np.concatenate([[0], np.cumsum(np.bincount(
            box[inside], minlength=len(image)))]), pa.int32())
        read = el[inside].tolist()
        return (pa.ListArray.from_arrays(offsets, pa.array(
                    [texts[k].strip() for k in read], pa.string())),
                pa.ListArray.from_arrays(offsets, pa.array(
                    [float(elements[k]["ocr_conf"]) for k in read],
                    pa.float64())))

    def ocr_box(self, decoded: Dict, box: List[float]) -> Tuple[List[str], List[float]]:
        texts, confs = self.ocr_boxes([decoded], np.zeros(1, np.int64),
                                      np.array([box]))
        return texts[0].as_py(), confs[0].as_py()

    def ocr_sweeps(self, decoded_list: Sequence[Dict],
                   max_variants: int = 75,
                   grays: Optional[Sequence[np.ndarray]] = None
                   ) -> List[List[str]]:
        return [[el["truth_text"] for el in d.get("elements", [])
                 if el["truth_text"]] + list(d.get("background_texts", []))
                for d in decoded_list]

    def ocr_full(self, decoded: Dict) -> List[str]:
        return self.ocr_sweeps([decoded])[0]


class SyntheticBarcodeEngine(BarcodeEngine):
    def scan_batch(self, decoded_list: Sequence[Dict]) -> List[Optional[str]]:
        return [d.get("barcode") for d in decoded_list]

    def scan(self, decoded: Dict) -> Optional[str]:
        return self.scan_batch([decoded])[0]


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

    def analyze_column(self, grays: Sequence[np.ndarray],
                       detections_list: Optional[Sequence] = None
                       ) -> pa.Array:
        """``BLOB_STRUCT`` values of the ROIs of many images (M15/M16
        crop and M17 alignment per the flags), in input order. ROIs are
        grouped by shape and each group runs through the batch kernel
        in chunks of at most ``BLOB_CHUNK_BYTES`` pixels; the kept blobs
        stay columns, and the fingerprints of all ROIs are computed at
        once. The media stage passes only the images whose blob a
        record keeps (given each row's doc, at most one per doc)."""
        n = len(grays)
        if not n:
            return pa.array([], BLOB_STRUCT)
        if detections_list is None:
            detections_list = [None] * n
        rois = [self._roi(g, d) for g, d in zip(grays, detections_list)]
        shapes = np.array([r.shape[:2] for r in rois], dtype=np.int64)
        key = shapes[:, 0] << 32 | shapes[:, 1]
        rows, parts = [], []
        for rh, rw in sorted(set(map(tuple, shapes.tolist()))):
            idx = np.flatnonzero(key == rh << 32 | rw)
            step = max(1, BLOB_CHUNK_BYTES // max(rh * rw, 1))
            for s in range(0, len(idx), step):
                part = idx[s:s + step]
                cols = imaging.smart_blob_columns(
                    imaging.text_masks(np.stack([rois[i] for i in
                                                 part.tolist()])),
                    self.min_blob_area)
                rows.append(part[cols.img])
                parts.append(cols)
        if len(parts) == 1:
            # one kernel call: its blobs are in image order already
            img, cols = rows[0], parts[0]
        else:
            img = np.concatenate(rows)
            order = np.argsort(img, kind="stable")
            cols = imaging.BlobColumns(*(
                np.concatenate([getattr(p, f) for p in parts])[order]
                for f in imaging.BlobColumns._fields))
        counts = np.bincount(img, minlength=n)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        fingerprints = blob_fingerprints(offsets, cols.cx, cols.cy, cols.w,
                                         cols.h, cols.area, shapes[:, 0],
                                         shapes[:, 1])
        blobs = pa.Array.from_buffers(
            _BLOB_ITEM, len(cols.x), [None],
            children=[_numeric(getattr(cols, f.name), f.type)
                      for f in _BLOB_ITEM])
        return pa.Array.from_buffers(BLOB_STRUCT, n, [None], children=[
            pa.Array.from_buffers(_ROI_SHAPE, n, [None], children=[
                _numeric(shapes.ravel(), pa.int32())]),
            _numeric(counts, pa.int32()),
            pa.array(fingerprints, pa.string()),
            pa.Array.from_buffers(_BLOBS, n, [None, pa.py_buffer(
                offsets.astype(np.int32))], children=[blobs]),
        ])

    def analyze_batch(self, grays: Sequence[np.ndarray],
                      detections_list: Optional[Sequence] = None
                      ) -> List[Dict]:
        """``analyze_column`` as one blob dict per image."""
        return self.analyze_column(grays, detections_list).to_pylist()

    def analyze(self, gray: np.ndarray, detections=None) -> Dict:
        return self.analyze_batch([gray], [detections])[0]


_ROI_SHAPE = BLOB_STRUCT.field("roi_shape").type
_BLOBS = BLOB_STRUCT.field("blobs").type
_BLOB_ITEM = _BLOBS.value_type


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
    "Detections", "DetectEngine", "OcrEngine", "BarcodeEngine",
    "SyntheticDetectEngine", "SyntheticOcrEngine", "SyntheticBarcodeEngine",
    "BlobAnalyzer", "default_engines", "ENGINE_FACTORIES",
    "resolve_engines", "decode_payload", "blob_fingerprint",
]

# bottom import purely for side effect: adapters.py subclasses the
# ABCs above and registers ENGINE_FACTORIES["production"] at ITS
# bottom (import-order-safe both ways round; heavy packages import
# lazily inside the adapter constructors)
from . import adapters  # noqa: E402,F401
