"""Text post-processing operators (exact reference-semantics ports).

These are the row-level scalar functions of the reference's OCR
post-processing chain, re-expressed as pure, dependency-free Python so
that the Ray Data batch stages (``map_batches``) can vectorize over
them. Reference parity (verified against the golden rows in
``storing_images/cellar.jsonl``):

- ``extract_year_from_text``  -> reference ``data_extraction_functions/final_run_ocr.py:153-185``
- ``clean_maker_crop``        -> ``final_run_ocr.py:314-325``
- ``normalize_maker``         -> ``final_run_ocr.py:353-359`` (dup ``ocr_scripts[NOT BEING USED]/scan_and_store.py:10-18``)
- ``extract_best_maker_from_raw`` -> ``final_run_ocr.py:361-373`` (dup ``scan_and_store.py:20-44``)
- ``to_int_year``             -> ``final_run_ocr.py:375-378``
- ``canonical_key``/``hash_id`` -> ``scan_and_store.py:46-52``
- ``custom_id``               -> ``final_run_ocr.py:436``
- ``strip_markup``            -> new (north-rule main-content extraction: HTML-ish
  boilerplate strip applied to text spans before reassembly)
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Dict, List, Optional, Tuple, Union

# final_run_ocr.py:353 — charset kept by maker normalization.
ALLOWED = set("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 &'-")

# final_run_ocr.py:159-164 — ordered year patterns.
_YEAR_PATTERNS: List[Tuple[re.Pattern, bool]] = [
    (re.compile(r"\b(19[0-9]{2}|20[0-9]{2})\b", re.IGNORECASE), True),
    (re.compile(r"(?:VIN|VINTAGE|VNT|V\.)\s*(\d{4})", re.IGNORECASE), True),
    (re.compile(r"(\d{4})(?:\s*(?:VINTAGE|VIN))", re.IGNORECASE), True),
    (re.compile(r"[^\d](\d{4})[^\d]", re.IGNORECASE), True),
]
_FOUR_DIGITS = re.compile(r"\d{4}")
_NON_DIGIT = re.compile(r"\D")
_MAKER_STRIP = re.compile(r"[^\w\s&'-]")
_DIGIT_SPACE_DIGIT = re.compile(r"(\d)\s+(\d)")

# Sweep patterns, final_run_ocr.py:282-286 (ordered).
_SWEEP_PATTERNS = [
    re.compile(r"(202[0-9])"),
    re.compile(r"(20[0-9]{2})"),
    re.compile(r"(\d{4})"),
]

# The vectorized twin (stages/spans.py::_drop_tags) finds the same
# matches with a byte scan, without RE2.
_TAG = re.compile(r"<[^>]{0,128}>")
# Sequential replacement with &amp; LAST (amp-last keeps sequential ==
# single-pass semantics). The vectorized twin runs the same passes, in
# this order, only on the rows holding a "&" (or a non-ASCII byte).
ENTITY_ORDER = [("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                ("&#39;", "'"), ("&nbsp;", " "), ("&amp;", "&")]
_WS = re.compile(r"\s+")


def extract_year_from_text(txt: Optional[str]) -> Optional[str]:
    """4-pattern vintage extraction; range-checked 1900-2030.

    Exact port of ``final_run_ocr.py:153-185`` including the
    ``m.group(1) if '(' in pattern else m.group(0)`` quirk (every
    shipped pattern contains a group, so group(1) is always used) and
    the trailing any-4-digits fallback scan.
    """
    if not txt:
        return None
    for pattern, _has_group in _YEAR_PATTERNS:
        m = pattern.search(txt)
        if m:
            year_str = m.group(1)
            year_str = _NON_DIGIT.sub("", year_str)
            if len(year_str) == 4 and year_str.startswith(("19", "20")):
                if 1900 <= int(year_str) <= 2030:
                    return year_str
    for d in _FOUR_DIGITS.findall(txt):
        if d.startswith(("19", "20")) and 1900 <= int(d) <= 2030:
            return d
    return None


def sweep_year_from_texts(texts: List[str]) -> Optional[str]:
    """Vintage fallback-sweep text pass (``final_run_ocr.py:274-295``).

    The reference's full-image sweep collects OCR text from many image
    variants, collapses digit-splitting whitespace, then applies three
    regex passes in order; first in-range hit wins. The image fan-out
    is the engine's concern — this is the text-side reduction.
    """
    full_text = " ".join(texts)
    # single non-overlapping pass, matching the reference exactly:
    # "2 0 1 9" becomes "20 19" (no vintage), NOT "2019" — a fixpoint
    # loop here would diverge from final_run_ocr.py:279 on digit-split
    # years
    text_no_spaces = _DIGIT_SPACE_DIGIT.sub(r"\1\2", full_text)
    for pattern in _SWEEP_PATTERNS:
        for match in pattern.findall(text_no_spaces):
            if match.startswith(("19", "20")) and 1900 <= int(match) <= 2030:
                return match
    return None


def clean_maker_crop(txt: str) -> str:
    """Crop-level maker cleaning (``final_run_ocr.py:314-319``)."""
    cleaned = txt.strip()
    cleaned = _MAKER_STRIP.sub(" ", cleaned)
    cleaned = " ".join(cleaned.split())
    return cleaned.upper()


def normalize_maker(s: Optional[str]) -> str:
    """Charset normalization (``final_run_ocr.py:355-359``)."""
    if not s:
        return ""
    s = s.upper()
    s = "".join(ch for ch in s if ch in ALLOWED)
    return " ".join(s.split())


_RAW_SKIP_KEYS = frozenset({
    "maker_name_candidates", "vintage_candidates",
    "vintage_from_maker_region", "vintage_from_fallback",
})


def extract_best_maker_from_raw(raw: Dict[str, Any]) -> str:
    """Longest normalized candidate across raw OCR buckets
    (``final_run_ocr.py:361-373``)."""
    cands = [txt for (txt, _sc) in raw.get("maker_name_candidates", []) if txt]
    for k, arr in raw.items():
        if k in _RAW_SKIP_KEYS:
            continue
        for item in arr:
            if isinstance(item, (tuple, list)) and len(item) >= 1:
                txt = item[0]
                if isinstance(txt, str) and len(txt.strip()) >= 3 and txt.strip() != ".":
                    cands.append(txt)
    cands = [normalize_maker(t) for t in cands if t]
    cands = [t for t in cands if t]
    return max(cands, key=len) if cands else ""


def to_int_year(v: Optional[Union[str, int]]) -> Optional[int]:
    """Int iff 4-char all-digit (``final_run_ocr.py:375-378``)."""
    if v is None:
        return None
    s = str(v).strip()
    return int(s) if (len(s) == 4 and s.isdigit()) else None


def custom_id(maker: Optional[str], vintage: Optional[int]) -> Optional[str]:
    """``f"{maker}|{vintage}"`` iff both present (``final_run_ocr.py:436``)."""
    return f"{maker}|{vintage}" if (maker and vintage) else None


def canonical_key(maker_norm: str, vintage: Optional[Union[str, int]]) -> str:
    """``scan_and_store.py:46-47``."""
    return f"{maker_norm}|{vintage or ''}"


def hash_id(maker_norm: str, vintage: Optional[Union[str, int]]) -> str:
    """sha1(key)[:12] (``scan_and_store.py:49-52``)."""
    m = hashlib.sha1()
    m.update(canonical_key(maker_norm, vintage).encode("utf-8"))
    return m.hexdigest()[:12]


def strip_markup(text: str) -> str:
    """Main-content extraction for text spans: drop HTML-ish tags,
    decode the common entities, collapse whitespace.

    New operator (north-rule "HTML boilerplate strip"); not present in
    the reference, whose text always arrives via OCR.
    """
    if not text:
        return ""
    out = _TAG.sub(" ", text)
    for src, dst in ENTITY_ORDER:
        out = out.replace(src, dst)
    return _WS.sub(" ", out).strip()
