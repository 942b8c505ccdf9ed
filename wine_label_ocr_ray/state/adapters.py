"""Import-guarded production engine adapters.

The reference holds its real models as lazy module-global singletons —
ultralytics YOLO + PaddleOCR in ``final_run_ocr.py:41-80`` and pyzbar
in ``QRCodeScanner.py:84-96``. Here each adapter is an engine-ABC
subclass constructed once per ``map_batches`` actor (``__init__`` IS
the singleton scope), so a user with those packages installed points
``PipelineConfig.engines`` at the ``"production"`` registry name (or a
partial of these classes) and runs the same flagship pipeline over
real images.

None of ultralytics / paddleocr / pyzbar exist in this sandbox, so
every import is guarded: constructing an adapter without its package
raises ImportError with the exact pip name. The classes themselves,
the registry entries, and the factory seam are real and tested
(tests/test_stitch_and_seams.py); only the model calls need the
package.

Pixel contract: a production corpus decodes media payloads to real
images — adapters read ``decoded["pixels"]`` (HxW or HxWx3 uint8
ndarray, grayscale or BGR like ``cv2.imread``). The synthetic corpus
carries no pixels, so adapters raise a clear KeyError-equivalent
ValueError if driven against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..functions.enhance import enhance_for_ocr
from .engines import (BarcodeEngine, DetectEngine, Detections, OcrEngine,
                      PixelSweepOcr)

# reference class-id mapping, final_run_ocr.py:403-404
ID_TO_NAME = {0: "Distinct Logo", 1: "Maker-Name", 2: "Vintage"}


def _require(module: str, pip_name: str):
    try:
        return __import__(module)
    except ImportError as e:
        raise ImportError(
            f"the {module!r} package is required for this production "
            f"engine adapter — install it with `pip install {pip_name}` "
            f"(not available in the build sandbox; the synthetic "
            f"engines cover the sandboxed pipeline)") from e


def _pixels(decoded: Dict) -> np.ndarray:
    px = decoded.get("pixels")
    if px is None:
        raise ValueError(
            "production engine adapters need decoded['pixels'] (a real "
            "image ndarray); the synthetic corpus carries ground-truth "
            "headers only — use engines='synthetic' for it")
    return px


def _to_gray(img: np.ndarray) -> np.ndarray:
    if img.ndim == 2:
        return img
    # BGR -> luma, the cv2.cvtColor(BGR2GRAY) weights (rounded like
    # cv2's fixed-point conversion, not truncated)
    return np.round(img[..., 2] * 0.299 + img[..., 1] * 0.587
                    + img[..., 0] * 0.114).astype(np.uint8)


class UltralyticsDetect(DetectEngine):
    """YOLO label-element detector (``final_run_ocr.py:41-51,398-420``):
    model loaded once per actor, one inference call per batch at the
    configured confidence threshold, boxes mapped to the reference's
    class names."""

    def __init__(self, weights_path: str,
                 confidence_threshold: float = 0.01,
                 id_to_name: Optional[Dict[int, str]] = None):
        ultralytics = _require("ultralytics", "ultralytics")
        self.model = ultralytics.YOLO(str(weights_path))
        self.confidence_threshold = confidence_threshold
        self.id_to_name = dict(id_to_name or ID_TO_NAME)

    def detect_batch(self, decoded_list: Sequence[Dict]) -> Detections:
        """One model call for the whole batch (ultralytics takes a list
        of images and returns one result per image)."""
        preds = self.model([_pixels(d) for d in decoded_list],
                           conf=self.confidence_threshold,
                           verbose=False) if decoded_list else []
        image, classes, boxes, confs = [], [], [], []
        for i, pred in enumerate(preds):
            if pred.boxes is None:
                continue
            ids = pred.boxes.cls.cpu().numpy().astype(np.int64).tolist()
            image += [i] * len(ids)
            classes += [self.id_to_name.get(c, str(c)) for c in ids]
            boxes.append(pred.boxes.xyxy.cpu().numpy().reshape(-1, 4))
            confs.append(pred.boxes.conf.cpu().numpy().reshape(-1))
        return Detections(
            np.array(image, dtype=np.int64), classes,
            np.concatenate(boxes).astype(np.float64) if boxes
            else np.zeros((0, 4)),
            np.concatenate(confs).astype(np.float64) if confs
            else np.zeros(0))

    def detect(self, decoded: Dict) -> List[Dict]:
        return self.detect_batch([decoded]).per_image(1)[0]


class PaddleOcr(PixelSweepOcr, OcrEngine):
    """PaddleOCR adapter (``final_run_ocr.py:58-80,107-151``): engine
    built once per actor; ``ocr_box`` runs the reference's best-of
    (sharpened, binarized) enhancement pair over the padded crop
    (``_best_ocr_text``, final_run_ocr.py:140-151); the M21 fallback
    sweep comes from PixelSweepOcr over ``ocr_pixels``."""

    def __init__(self, lang: str = "en", use_angle_cls: bool = True):
        paddleocr = _require("paddleocr", "paddleocr")
        import inspect
        kwargs = dict(lang=lang, use_angle_cls=use_angle_cls)
        try:
            if "show_log" in inspect.signature(
                    paddleocr.PaddleOCR.__init__).parameters:
                kwargs["show_log"] = False
        except (TypeError, ValueError):
            pass
        try:
            self.engine = paddleocr.PaddleOCR(**kwargs)
        except TypeError:
            self.engine = paddleocr.PaddleOCR()

    def _run(self, img: np.ndarray) -> Tuple[List[str], List[float]]:
        """Version-tolerant result unpacking (final_run_ocr.py:107-143:
        PaddleOCR changed its line shape across releases)."""
        if img is None or img.size == 0:
            return [], []
        if img.ndim == 2:
            rgb = np.repeat(img[..., None], 3, axis=2)
        else:
            rgb = img[..., ::-1]  # BGR -> RGB
        result = self.engine.ocr(rgb)
        if not result:
            return [], []
        lines = result[0] if (isinstance(result, (list, tuple)) and result
                              and isinstance(result[0],
                                             (list, tuple, dict))) \
            else result
        texts: List[str] = []
        confs: List[float] = []
        for line in lines or []:
            txt, score = None, None
            if isinstance(line, dict):
                txt = (line.get("rec_text") or line.get("label")
                       or line.get("text"))
                score = line.get("rec_score") or line.get("score")
            elif isinstance(line, (list, tuple)):
                if len(line) >= 2 and isinstance(line[1], (list, tuple)) \
                        and len(line[1]) >= 2:
                    txt, score = line[1][0], line[1][1]
                elif len(line) >= 3 and isinstance(line[1], str):
                    txt, score = line[1], line[2]
                elif len(line) >= 2 and isinstance(line[0], str):
                    txt, score = line[0], line[1]
            if txt:
                try:
                    conf = float(score) if score is not None else 0.0
                except (TypeError, ValueError):
                    conf = 0.0
                texts.append(txt.strip())
                confs.append(conf)
        return texts, confs

    def ocr_box(self, decoded: Dict,
                box: List[float]) -> Tuple[List[str], List[float]]:
        img = _pixels(decoded)
        x1, y1, x2, y2 = (int(v) for v in box)
        crop = img[max(0, y1):y2, max(0, x1):x2]
        if crop.size == 0:
            return [], []
        sharp, binar = enhance_for_ocr(_to_gray(crop))
        t1, c1 = self._run(sharp)
        t2, c2 = self._run(binar)
        m1 = float(np.mean(c1)) if c1 else 0.0
        m2 = float(np.mean(c2)) if c2 else 0.0
        return (t1, c1) if m1 >= m2 else (t2, c2)

    def ocr_pixels(self, img: np.ndarray) -> List[str]:
        texts, _confs = self._run(img)
        return texts

    def ocr_full(self, decoded: Dict) -> List[str]:
        return self.ocr_pixels(_pixels(decoded))


class PyzbarBarcode(BarcodeEngine):
    """pyzbar adapter (``QRCodeScanner.py:84-96``): first decoded
    symbol's utf-8 payload, None when nothing decodes."""

    def __init__(self):
        _require("pyzbar", "pyzbar")
        try:
            from pyzbar import pyzbar
        except ImportError as e:  # package present, libzbar missing
            raise ImportError(
                "pyzbar is installed but the zbar shared library could "
                "not be loaded — install libzbar0 (apt) / zbar (brew)"
            ) from e
        self._decode = pyzbar.decode

    def scan(self, decoded: Dict) -> Optional[str]:
        for bc in self._decode(_pixels(decoded)):
            return bc.data.decode("utf-8")
        return None


def production_engines(confidence_threshold: float = 0.01):
    """``ENGINE_FACTORIES['production']``: the reference's real model
    stack. Weights path comes from ``WLOR_YOLO_WEIGHTS`` (the reference
    passes it per call, ``final_run_ocr.py:381-400``)."""
    import os
    weights = os.environ.get("WLOR_YOLO_WEIGHTS", "weights.pt")
    return (UltralyticsDetect(weights, confidence_threshold),
            PaddleOcr(), PyzbarBarcode())


# registry entry lives HERE (not engines.py) so the modules import
# cleanly in either order; see engines.py's bottom import note
from .engines import ENGINE_FACTORIES  # noqa: E402

ENGINE_FACTORIES["production"] = production_engines
