"""Pure-Python single-process oracle (SURVEY.md section 5.2).

Implements the reference's per-record semantics row-at-a-time, straight
over the corpus parquet files, with NO Ray and NO reuse of the stage
implementations: only the golden-tested scalar text functions and the
pixel kernels are shared. Payload decode, box padding and the blob
fingerprint are re-implemented here one value at a time, independent
of the batch code the stage runs.
The pipeline test asserts span-sequence equality
``(kind, text, media_ref, order)`` per doc_id plus record-field
equality between this oracle and the Ray pipeline.

Reference chain replicated per media payload:
``final_run_ocr.py:299-351`` (_extract_fields routing) with the
fallback sweep text pass (``:274-295``), the normalize/best-from-raw
tail (``:430-436``), and the blob leg ``hybrid.py:316-331``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Dict, List, Optional

import numpy as np
import pyarrow.parquet as pq

from .functions import imaging
from .functions import text as T
from .synth import PAYLOAD_SEP


def _load_media(corpus_dir: str) -> Dict[str, bytes]:
    out: Dict[str, bytes] = {}
    for path in sorted(glob.glob(os.path.join(corpus_dir, "media", "*.parquet"))):
        t = pq.read_table(path)
        out.update(zip(t.column("media_ref").to_pylist(),
                       t.column("payload").to_pylist()))
    return out


def decode_payload(payload: bytes):
    idx = payload.index(PAYLOAD_SEP)
    header = json.loads(payload[:idx].decode("utf-8"))
    img = np.frombuffer(payload[idx + len(PAYLOAD_SEP):], dtype=np.uint8)
    return header, img.reshape(header["h"], header["w"])


def _pad_box(xyxy, img_w: int, img_h: int, pad: float) -> List[int]:
    x1, y1, x2, y2 = xyxy
    w, h = x2 - x1, y2 - y1
    return [max(0, int(x1 - pad * w)), max(0, int(y1 - pad * h)),
            min(img_w, int(x2 + pad * w)), min(img_h, int(y2 + pad * h))]


def blob_fingerprint(blobs, roi_shape) -> str:
    if not blobs:
        return "empty"
    H, W = roi_shape
    feats = [(round(b["cx"] / W, 3), round(b["cy"] / H, 3),
              round(b["w"] / W, 3), round(b["h"] / H, 3),
              round(b["area"] / (W * H), 4))
             for b in sorted(blobs, key=lambda x: (x["cy"], x["cx"]))]
    return hashlib.md5(str(feats).encode()).hexdigest()[:16]


def _ocr_box_texts(decoded: Dict, box: List[float]):
    x1, y1, x2, y2 = box
    texts, confs = [], []
    for el in decoded.get("elements", []):
        ex1, ey1, ex2, ey2 = el["box"]
        if ex1 >= x1 and ey1 >= y1 and ex2 <= x2 and ey2 <= y2 and el["truth_text"]:
            texts.append(el["truth_text"].strip())
            confs.append(float(el["ocr_conf"]))
    return texts, confs


def _process_media(decoded: Dict, gray: np.ndarray,
                   confidence_threshold: float, pad: float,
                   min_blob_area: float) -> Dict:
    W, H = decoded["w"], decoded["h"]
    maker = None
    vintage = None
    raw: Dict[str, list] = {}
    vintage_by_yolo = False
    span_texts: List[str] = []

    for el in decoded.get("elements", []):
        if el["conf"] < confidence_threshold:
            continue
        cls_lower = el["cls"].replace("-", "_").lower()
        box = _pad_box(el["box"], W, H, pad)
        texts, confs = _ocr_box_texts(decoded, box)
        txt = " ".join(texts).strip()
        conf = float(np.mean(confs)) if confs else 0.0
        if txt:
            span_texts.append(txt)
        if cls_lower in ("maker_name", "producer", "winery"):
            cleaned = T.clean_maker_crop(txt)
            if cleaned and len(cleaned) >= 2 and \
                    (not maker or len(cleaned) > len(maker)):
                maker = cleaned
            raw.setdefault("maker_name_candidates", []).append((cleaned, conf))
            y = T.extract_year_from_text(txt)
            if y and not vintage:
                vintage = y
                raw.setdefault("vintage_from_maker_region", []).append((y, conf))
        elif cls_lower in ("vintage", "year"):
            vintage_by_yolo = True
            y = T.extract_year_from_text(txt)
            if y:
                vintage = y
            raw.setdefault("vintage_candidates", []).append((txt, conf))
        else:
            raw.setdefault(cls_lower, []).append((txt, conf))

    if not vintage_by_yolo and not vintage:
        all_texts = [el["truth_text"] for el in decoded.get("elements", [])
                     if el["truth_text"]]
        all_texts.extend(decoded.get("background_texts", []))
        sweep = T.sweep_year_from_texts(all_texts)
        if sweep:
            vintage = sweep
            raw["vintage_from_fallback"] = sweep

    mask, _ = imaging.create_text_mask(gray, use_image_as_mask=True)
    blobs = imaging.extract_smart_blobs(mask, min_blob_area)
    blob = {"roi_shape": list(gray.shape[:2]), "blob_count": len(blobs),
            "blob_fingerprint": blob_fingerprint(blobs, gray.shape[:2]),
            "blobs": blobs}
    return {"span_text": " ".join(span_texts).strip(), "maker": maker,
            "vintage": vintage, "raw": raw, "blob": blob,
            "barcode": decoded.get("barcode")}


def oracle_records(corpus_dir: str, *, confidence_threshold: float = 0.01,
                   pad: float = 0.08, min_blob_area: float = 30.0
                   ) -> Dict[str, Dict]:
    """doc_id -> expected record (spans + assembled fields)."""
    media = _load_media(corpus_dir)
    out: Dict[str, Dict] = {}
    for path in sorted(glob.glob(os.path.join(corpus_dir, "documents",
                                              "*.parquet"))):
        for row in pq.read_table(path).to_pylist():
            doc_id = row["doc_id"]
            spans = sorted(row["spans"],
                           key=lambda s: (s["offset"], s["kind"],
                                          s["media_ref"] or ""))
            spans_out = []
            maker_raw: Optional[str] = None
            merged_raw: Dict[str, list] = {}
            vintage: Optional[str] = None
            text_year: Optional[str] = None
            barcode: Optional[str] = None
            blob: Optional[Dict] = None
            for s in spans:
                if s["kind"] == "text":
                    clean = T.strip_markup(s["text"])
                    spans_out.append(("text", clean, "", s["offset"]))
                    if text_year is None:
                        text_year = T.extract_year_from_text(clean)
                else:
                    decoded, gray = decode_payload(media[s["media_ref"]])
                    m = _process_media(decoded, gray, confidence_threshold,
                                       pad, min_blob_area)
                    spans_out.append(("media", m["span_text"],
                                      s["media_ref"], s["offset"]))
                    mk = m["maker"]
                    if mk and len(mk) >= 2 and \
                            (not maker_raw or len(mk) > len(maker_raw)):
                        maker_raw = mk
                    for k, v in m["raw"].items():
                        if isinstance(v, list):
                            merged_raw.setdefault(k, []).extend(v)
                        else:
                            merged_raw.setdefault(k, v)
                    if vintage is None and m["vintage"]:
                        vintage = m["vintage"]
                    if barcode is None and m["barcode"]:
                        barcode = m["barcode"]
                    if blob is None:
                        blob = m["blob"]

            if blob is None:
                blob = {"roi_shape": [0, 0], "blob_count": 0,
                        "blob_fingerprint": "", "blobs": []}
            if vintage is None:
                vintage = text_year
            maker_norm = T.normalize_maker(maker_raw) if maker_raw else ""
            if not maker_norm:
                maker_norm = T.extract_best_maker_from_raw(merged_raw)
            maker_out = maker_norm or None
            vintage_int = T.to_int_year(vintage)
            key = T.canonical_key(maker_norm, vintage)
            confs = [c for arr in merged_raw.values()
                     if isinstance(arr, list) for (_t, c) in arr]
            out[doc_id] = {
                "mean_ocr_conf": (sum(confs) / len(confs)) if confs else 0.0,
                "doc_id": doc_id,
                "spans": spans_out,
                "custom_id": T.custom_id(maker_out, vintage_int),
                "maker_name": maker_out,
                "maker_norm": maker_norm,
                "vintage": vintage_int,
                "barcode": barcode,
                "key": key,
                "record_id": T.hash_id(maker_norm, vintage),
                "valid": not (key == "|" or (not maker_norm and not vintage)),
                "blob": blob,
                # ocr_raw in the record schema's flattened entry form
                # (independent of stages.media.raw_to_entries by design)
                "raw": [
                    {"bucket": k, "text": t, "conf": c}
                    for k, v in merged_raw.items()
                    for (t, c) in (v if isinstance(v, list)
                                   else [(v, None)])
                ],
            }
    return out
