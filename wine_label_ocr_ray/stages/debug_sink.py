"""Debug image side-output (reference K3: the cv2.imwrite composites of
``hybrid.py:367-413``). Off by default; a ``map_batches`` side-effect
stage that writes annotated composites per media span so runs can be
eyeballed without any image library.

Full port of ``_create_debug_visualization``: the 2x2 padded quadrant
layout (original ROI / text mask / blob overlay / stats panel), the
0.8:0.2 mask blend, per-blob rectangles with index labels and centroid
dots, and the separate ``*_blobs_only`` overlay — rendered grayscale
(cycling gray levels stand in for the reference's 8-color cycle) with
a built-in 3x5 bitmap font instead of cv2.putText, written as binary
PGM (zero deps). Doc rows pass through untouched.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# package-internal imports at module top (by-value pickling rule — see
# state/engines.py note)
from ..functions.imaging import create_text_mask, extract_smart_blobs
from ..sources.media import MediaStore
from ..synth import decode_payloads
from .spans import span_rows_of

# --------------------------------------------------------------- font
# 3x5 bitmap glyphs (rows of 3 bits, top to bottom) covering the
# annotation strings; anything unmapped renders as blank.
_F = {
    "0": "111101101101111", "1": "010110010010111",
    "2": "111001111100111", "3": "111001111001111",
    "4": "101101111001001", "5": "111100111001111",
    "6": "111100111101111", "7": "111001001010010",
    "8": "111101111101111", "9": "111101111001111",
    "A": "010101111101101", "B": "110101110101110",
    "C": "011100100100011", "D": "110101101101110",
    "E": "111100110100111", "F": "111100110100100",
    "G": "011100101101011", "H": "101101111101101",
    "I": "111010010010111", "K": "101110100110101",
    "L": "100100100100111", "M": "101111111101101",
    "N": "101111111111101", "O": "010101101101010",
    "P": "110101110100100", "R": "110101110110101",
    "S": "011100010001110", "T": "111010010010010",
    "U": "101101101101111", "V": "101101101101010",
    "X": "101101010101101", "Y": "101101010010010",
    "(": "010100100100010", ")": "010001001001010",
    "-": "000000111000000", " ": "000000000000000",
}


def draw_text(img: np.ndarray, text: str, x: int, y: int,
              value: int = 255, scale: int = 2) -> None:
    """Stamp ``text`` (3x5 font, upscaled by ``scale``) with its top
    left at (x, y); silently clips at image borders."""
    H, W = img.shape
    cx = x
    for ch in text.upper():
        bits = _F.get(ch)
        if bits:
            g = (np.frombuffer(bits.encode(), dtype=np.uint8)
                 .reshape(5, 3) - ord("0")).astype(bool)
            g = np.kron(g, np.ones((scale, scale), dtype=bool))
            gh, gw = g.shape
            y2, x2 = min(H, y + gh), min(W, cx + gw)
            if y2 > y and x2 > cx and y >= 0 and cx >= 0:
                region = img[y:y2, cx:x2]
                region[g[:y2 - y, :x2 - cx]] = value
        cx += 4 * scale  # 3px glyph + 1px spacing


def draw_rect(img: np.ndarray, x: int, y: int, w: int, h: int,
              value: int, thickness: int = 2) -> None:
    """Rectangle OUTLINE like cv2.rectangle(thickness=2), clipped."""
    H, W = img.shape
    x1, y1 = max(0, x), max(0, y)
    x2, y2 = min(W, x + w + 1), min(H, y + h + 1)
    if x2 <= x1 or y2 <= y1:
        return
    t = thickness
    img[y1:min(y1 + t, y2), x1:x2] = value
    img[max(y1, y2 - t):y2, x1:x2] = value
    img[y1:y2, x1:min(x1 + t, x2)] = value
    img[y1:y2, max(x1, x2 - t):x2] = value


# cycling gray levels standing in for hybrid.py's 8-color cycle
_BLOB_LEVELS = (255, 224, 192, 160, 230, 200, 176, 240)


def blob_overlay(gray: np.ndarray, mask: np.ndarray,
                 blobs: List[Dict]) -> np.ndarray:
    """The reference's annotated overlay (``hybrid.py:380-395``): ROI
    blended 0.8:0.2 with the text mask, one outlined rectangle + index
    label + filled 3px centroid dot per blob."""
    overlay = (0.8 * gray.astype(np.float64)
               + 0.2 * mask.astype(np.float64))
    overlay = np.clip(np.round(overlay), 0, 255).astype(np.uint8)
    H, W = overlay.shape
    for i, b in enumerate(blobs):
        lvl = _BLOB_LEVELS[i % len(_BLOB_LEVELS)]
        x, y, w, h = int(b["x"]), int(b["y"]), int(b["w"]), int(b["h"])
        draw_rect(overlay, x, y, w, h, lvl, 2)
        draw_text(overlay, str(i), x + 2, max(0, y - 11), lvl, 2)
        cx, cy = int(b["cx"]), int(b["cy"])
        overlay[max(0, cy - 1):min(H, cy + 2),
                max(0, cx - 1):min(W, cx + 2)] = lvl
    return overlay


def compose_debug(gray: np.ndarray, mask: np.ndarray,
                  blobs: List[Dict]) -> np.ndarray:
    """``_create_debug_visualization``'s 2x2 quadrant composite
    (``hybrid.py:367-405``): original / mask / annotated overlay /
    stats panel, 20px gutters, titles stamped in each quadrant."""
    H, W = gray.shape
    pad = 20
    out = np.zeros((H * 2 + 2 * pad, W * 2 + 2 * pad), dtype=np.uint8)
    out[pad:H + pad, pad:W + pad] = gray
    draw_text(out, "ORIGINAL ROI", pad + 5, pad + 5)
    out[pad:H + pad, W + 2 * pad:W * 2 + 2 * pad] = mask
    draw_text(out, f"TEXT MASK ({int(np.sum(mask > 0))} PX)",
              W + 2 * pad + 5, pad + 5)
    out[H + 2 * pad:H * 2 + 2 * pad, pad:W + pad] = \
        blob_overlay(gray, mask, blobs)
    draw_text(out, f"BLOB DETECTION - {len(blobs)} BLOBS",
              pad + 5, H + 2 * pad + 5)
    # stats quadrant (the reference prints a header then per-blob
    # lines; keep the header + first blobs that fit)
    sx, sy = W + 2 * pad, H + 2 * pad
    draw_text(out, f"BLOB STATS ({len(blobs)} TOTAL)", sx + 5, sy + 5)
    line_h = 14
    for i, b in enumerate(blobs):
        yy = sy + 5 + (i + 1) * line_h
        if yy + 10 > out.shape[0]:
            break
        draw_text(out, f"{i} {int(b['w'])}X{int(b['h'])} "
                       f"A{int(b['area'])}", sx + 5, yy, 200, 1)
    return out


def write_pgm(path: str, img: np.ndarray) -> None:
    """Binary PGM (P5) writer — viewable everywhere, zero deps."""
    H, W = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{W} {H}\n255\n".encode())
        f.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


class DebugImageSink:
    """Actor stage: decodes each media payload and writes the
    reference's TWO debug artifacts per span (a missing or undecodable
    payload is skipped) —
    ``<out_dir>/<media_ref>_debug.pgm`` (the annotated 2x2 composite)
    and ``<out_dir>/<media_ref>_blobs_only.pgm`` (the plain overlay,
    ``hybrid.py:407-409``)."""

    def __init__(self, media_path: str, out_dir: str,
                 limit_per_actor: Optional[int] = 64,
                 min_blob_area: float = 30.0):
        self._store = MediaStore(media_path)
        self._mask = create_text_mask
        self.out_dir = out_dir
        self.limit = limit_per_actor
        self.min_blob_area = min_blob_area
        self._written = 0
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.limit is not None and self._written >= self.limit:
            return batch
        spans = span_rows_of(batch)
        refs = spans.filter(pc.equal(spans.column("kind"), "media")) \
            .column("media_ref").combine_chunks()
        payloads, at = self._store.fetch_column(refs)
        dec = decode_payloads(payloads)
        for ref, j in zip(refs.to_pylist(),
                          pc.fill_null(at, -1).to_pylist()):
            if self.limit is not None and self._written >= self.limit:
                break
            if j < 0 or not dec.ok[j]:
                continue
            gray = dec.gray(j)
            mask, _ = self._mask(gray, use_image_as_mask=True)
            blobs = extract_smart_blobs(mask, self.min_blob_area)
            write_pgm(os.path.join(self.out_dir, f"{ref}_debug.pgm"),
                      compose_debug(gray, mask, blobs))
            write_pgm(os.path.join(self.out_dir, f"{ref}_blobs_only.pgm"),
                      blob_overlay(gray, mask, blobs))
            self._written += 1
        return batch
