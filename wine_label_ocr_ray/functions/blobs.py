"""Blob fingerprint + geometric blob-set similarity (reference ports).

- ``blob_fingerprints``  -> ``data_extraction_functions/hybrid.py:229-242``
  for a batch of images; ``blob_fingerprint`` is its one-image entry
  point (verified byte-exact against all 5 golden rows of the
  reference's ``wine_database.jsonl``).
- ``blob_similarity``    -> ``similarity_functions/BlobSimilarity.py:20-144``.
  The assignment step defaults to the reference's own greedy argsort
  fallback (``BlobSimilarity.py:86-93``) — matching the behavior a
  scipy-free deployment of the reference exhibits — and exposes the
  optimal path via ``assign="hungarian"`` (pure-numpy shortest-
  augmenting-path solver below; scipy's ``linear_sum_assignment`` is
  absent from this environment) so both reference behaviors are
  reproducible.

Attribution: the numeric feature/cost/score formulas in this module
(feature extraction, translation estimate, weighted cost matrix,
coverage x quality score — constants and operation order included) are
derived from ``similarity_functions/BlobSimilarity.py`` of the
MIT-licensed reference repository ``SrikarG30/wine-label-ocr``; the
golden-fixture tests require byte-exact semantic parity, so those
formulas ARE the specification. See NOTICE at the repo root.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_WEIGHTS = {
    "pos": 0.60, "scale": 0.15, "ratio": 0.10,
    "solidity": 0.075, "extent": 0.075,
}


def _scaled_round(x: np.ndarray, ndigits) -> np.ndarray:
    """``round(abs(v), nd) * 10**nd`` of every v as an exact int64, nd
    the matching (broadcast) element of ``ndigits``. Python rounds the
    exact binary value, ties to even. The float product ``y`` of
    ``abs(v)`` and the scale misleads ``rint`` only when it lands
    exactly on a half-integer; then its exact rounding error (Dekker's
    two-product, exact because the scale needs at most 14 bits) tells
    which side the true value lies on."""
    scale = 10.0 ** np.asarray(ndigits)
    a = np.abs(x)
    y = a * scale
    if not (np.isfinite(y) & (y < 2.0 ** 40)).all():
        raise ValueError("blob fingerprint features must be finite and "
                         "below 1e9")
    c = a * 134217729.0  # 2**27 + 1: Veltkamp split a = hi + lo
    hi = c - (c - a)
    err = (hi * scale - y) + (a - hi) * scale  # y + err == a * scale
    k = np.rint(y)
    floor = np.floor(y)
    tie = y - floor == 0.5
    k[tie & (err > 0)] = floor[tie & (err > 0)] + 1
    k[tie & (err < 0)] = floor[tie & (err < 0)]
    return k.astype(np.int64)


# the decimals the fingerprint rounds its features to (hybrid.py:235-239):
# 3 for cx/W, cy/H, w/W and h/H, 4 for area/(W*H)
_NDIGITS = np.array([3, 3, 3, 3, 4])
# the ASCII digits of 00..99
_TWO_DIGITS = (np.stack(np.divmod(np.arange(100), 10), axis=1)
               + ord("0")).astype(np.uint8)


def blob_fingerprints(offsets: np.ndarray, cx, cy, w, h, area,
                      roi_h, roi_w) -> List[str]:
    """``blob_fingerprint`` of many images at once. Image i's blobs are
    rows ``offsets[i]:offsets[i+1]`` of the feature columns and its ROI
    is ``roi_h[i]`` x ``roi_w[i]`` (arrays or scalars). The
    ``str(feats)`` text of every image is assembled as one byte matrix,
    a row per blob and a fixed-width cell per feature, and the mask of
    its used bytes; only the md5 runs per image."""
    n = len(offsets) - 1
    img = np.repeat(np.arange(n), np.diff(offsets))
    H = np.broadcast_to(roi_h, (n,))[img]
    W = np.broadcast_to(roi_w, (n,))[img]
    cx, cy, w, h, area = (np.asarray(f, dtype=np.float64)
                          for f in (cx, cy, w, h, area))
    # stable: equal (cy, cx) keys keep input order, like sorted()
    order = np.lexsort((cx, cy, img))
    img = img[order]
    feats = np.stack([cx / W, cy / H, w / W, h / H, area / (W * H)],
                     axis=1)[order]
    first = np.ones(len(img), dtype=bool)
    first[1:] = img[1:] != img[:-1]
    last = np.ones(len(img), dtype=bool)
    last[:-1] = first[1:]
    # repr(round(v, nd)) is the shortest repr of the double nearest
    # k / 10**nd: that decimal, with a '-' when v is negative (-0.0
    # too), no leading zeros but one and no trailing zeros but one
    whole, frac = np.divmod(_scaled_round(feats, _NDIGITS), 10 ** _NDIGITS)
    frac *= 10 ** (4 - _NDIGITS)  # as 4 decimals
    hi, lo = np.divmod(frac, 100)
    n_int = len(str(int(whole.max(initial=0))))
    place = 10 ** np.arange(n_int - 1, -1, -1)
    # a feature's cell: sign, whole digits, '.', 4 decimals, then ", "
    # or, for the last feature, ')' and ',' (']' on an image's last row)
    cells = np.empty((len(img), 5, n_int + 8), dtype=np.uint8)
    width = 5 * (n_int + 8)
    cell_used = np.ones(cells.shape, dtype=bool)
    cells[..., 0] = ord("-")
    cell_used[..., 0] = np.signbit(feats)
    cells[..., 1:n_int + 1] = (whole[..., None] // place) % 10 + ord("0")
    cell_used[..., 1:n_int] = whole[..., None] >= place[:-1]
    cells[..., n_int + 1] = ord(".")
    cells[..., n_int + 2:n_int + 4] = _TWO_DIGITS[hi]
    cells[..., n_int + 4:n_int + 6] = _TWO_DIGITS[lo]
    cell_used[..., n_int + 3] = frac % 1000 != 0
    cell_used[..., n_int + 4] = lo != 0
    cell_used[..., n_int + 5] = lo % 10 != 0
    cells[..., -2:] = np.frombuffer(b", ", dtype=np.uint8)
    cells[:, 4, -2] = ord(")")
    cells[:, 4, -1] = np.where(last, ord("]"), ord(","))
    # a row: '[' on an image's first row, '(', the cells, ' ' but on
    # an image's last row
    chars = np.concatenate([
        np.broadcast_to(np.frombuffer(b"[(", dtype=np.uint8),
                        (len(img), 2)),
        cells.reshape(len(img), width),
        np.full((len(img), 1), ord(" "), dtype=np.uint8)], axis=1)
    used = np.concatenate([first[:, None], np.ones((len(img), 1), bool),
                           cell_used.reshape(len(img), width),
                           ~last[:, None]], axis=1)
    text = memoryview(chars[used].tobytes())
    ends = np.cumsum(np.bincount(img, used.sum(axis=1), n)).astype(int)
    out, start = [], 0
    for end in ends.tolist():
        out.append(hashlib.md5(text[start:end]).hexdigest()[:16]
                   if end > start else "empty")
        start = end
    return out


def blob_fingerprint(blobs: Sequence[Dict], roi_shape: Tuple[int, int]) -> str:
    """md5 of the stable rounded feature tuple string; ``"empty"`` when
    no blobs (``hybrid.py:229-242``). ``blob_fingerprints`` of one
    image."""
    H, W = roi_shape
    cols = [np.array([b[k] for b in blobs], dtype=np.float64)
            for k in ("cx", "cy", "w", "h", "area")]
    return blob_fingerprints(np.array([0, len(blobs)]), *cols, H, W)[0]


def _roi_hw(blobdata: Dict) -> Tuple[int, int]:
    """``BlobSimilarity.py:5-17``."""
    if "roi_shape" in blobdata and len(blobdata["roi_shape"]) == 2:
        H, W = int(blobdata["roi_shape"][0]), int(blobdata["roi_shape"][1])
        return max(1, H), max(1, W)
    if "roi_bbox" in blobdata and len(blobdata["roi_bbox"]) == 4:
        x0, y0, x1, y1 = blobdata["roi_bbox"]
        return max(1, int(y1 - y0)), max(1, int(x1 - x0))
    xs, ys, ws, hs = [], [], [], []
    for b in blobdata.get("blobs", []):
        xs.append(b.get("x", 0)); ys.append(b.get("y", 0))
        ws.append(b.get("w", 0)); hs.append(b.get("h", 0))
    H = int(max(1, max((y + h) for y, h in zip(ys or [1], hs or [1]))))
    W = int(max(1, max((x + w) for x, w in zip(xs or [1], ws or [1]))))
    return H, W


def _extract_features(blobdata: Dict):
    """``BlobSimilarity.py:20-38``."""
    H, W = _roi_hw(blobdata)
    A_roi = float(H * W)
    feats = {"pos": [], "scale": [], "ratio": [], "sol": [], "ext": []}
    for b in blobdata.get("blobs", []):
        x = float(b.get("x", 0.0)); y = float(b.get("y", 0.0))
        w = float(b.get("w", 0.0)); h = float(b.get("h", 0.0))
        cx = float(b.get("cx", x + w * 0.5)); cy = float(b.get("cy", y + h * 0.5))
        area = float(b.get("area", max(1.0, w * h * 0.5)))
        ratio = float(np.clip(w / max(h, 1e-6), 1e-3, 1e3))
        extent = b.get("extent", area / max(w * h, 1e-6))
        solidity = b.get("solidity", 1.0)
        feats["pos"].append([cx / W, cy / H])
        feats["scale"].append(math.sqrt(max(area, 1.0)) / math.sqrt(A_roi))
        feats["ratio"].append(ratio)
        feats["sol"].append(float(np.clip(solidity, 0.0, 1.0)))
        feats["ext"].append(float(np.clip(extent, 0.0, 1.0)))
    for k in feats:
        feats[k] = np.asarray(feats[k], dtype=np.float32)
    return feats, (H, W)


def _pairwise_d2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    a2 = np.sum(A * A, axis=1, keepdims=True)
    b2 = np.sum(B * B, axis=1, keepdims=True).T
    return a2 + b2 - 2.0 * (A @ B.T)


def _estimate_translation(posA: np.ndarray, posB: np.ndarray) -> np.ndarray:
    """NN-median displacement (``BlobSimilarity.py:45-50``)."""
    if len(posA) == 0 or len(posB) == 0:
        return np.zeros(2, np.float32)
    d2 = _pairwise_d2(posA, posB)
    j = np.argmin(d2, axis=1)
    return np.median(posA - posB[j], axis=0).astype(np.float32)


def _build_cost_matrix(Fa, Fb, shift, weights) -> np.ndarray:
    """Weighted component cost (``BlobSimilarity.py:52-75``)."""
    pa = Fa["pos"]; pb = Fb["pos"] + shift[None, :]
    dpos = np.sqrt(np.maximum(_pairwise_d2(pa, pb), 0.0))
    sa, sb = Fa["scale"][:, None], Fb["scale"][None, :]
    ra, rb = Fa["ratio"][:, None], Fb["ratio"][None, :]
    sola, solb = Fa["sol"][:, None], Fb["sol"][None, :]
    exta, extb = Fa["ext"][:, None], Fb["ext"][None, :]
    dscale = np.abs(sa - sb)
    dratio = np.abs(np.log(ra / np.maximum(rb, 1e-8)))
    dsol = np.abs(sola - solb)
    dext = np.abs(exta - extb)
    return (weights.get("pos", 0.60) * dpos +
            weights.get("scale", 0.15) * dscale +
            weights.get("ratio", 0.10) * np.minimum(dratio, 2.0) +
            weights.get("solidity", 0.075) * dsol +
            weights.get("extent", 0.075) * dext)


def _assign_greedy(cost: np.ndarray, pair_threshold: float = 0.22):
    """Greedy global-argsort matching — the reference's scipy-free path
    (``BlobSimilarity.py:86-93``)."""
    na, nb = cost.shape
    if na == 0 or nb == 0:
        return []
    idx = np.argsort(cost, axis=None)
    used_a = np.zeros(na, bool); used_b = np.zeros(nb, bool)
    pairs = []
    for flat in idx:
        a, b = divmod(int(flat), nb)
        c = cost[a, b]
        if c > pair_threshold:
            break
        if not used_a[a] and not used_b[b]:
            used_a[a] = used_b[b] = True
            pairs.append((a, b, float(c)))
    return pairs


def hungarian(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-cost assignment on a rectangular matrix via the classic
    shortest-augmenting-path (Jonker-Volgenant style) algorithm,
    O(n^2 m) — the public textbook formulation, no scipy. Returns
    min(n, m) (row, col) pairs."""
    n, m = cost.shape
    transposed = False
    if n > m:
        cost = cost.T
        n, m = m, n
        transposed = True
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)      # p[j]: row matched to column j (1-indexed)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta, j1 = INF, 0
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    pairs = [(p[j] - 1, j - 1) for j in range(1, m + 1) if p[j] != 0]
    if transposed:
        pairs = [(b, a) for a, b in pairs]
    return sorted(pairs)


def _assign_hungarian(cost: np.ndarray, pair_threshold: float = 0.22):
    """The reference's PRIMARY path (``BlobSimilarity.py:80-84``):
    optimal assignment on the gated cost matrix (entries above the pair
    threshold raised to 1e6), keeping only pairs within threshold."""
    na, nb = cost.shape
    if na == 0 or nb == 0:
        return []
    gated = cost.copy()
    gated[gated > pair_threshold] = 1e6
    return [(a, b, float(cost[a, b])) for a, b in hungarian(gated)
            if cost[a, b] <= pair_threshold]


_ASSIGNERS = {"greedy": _assign_greedy, "hungarian": _assign_hungarian}


def _score(nA: int, nB: int, pairs, costs, pair_threshold: float):
    """Coverage x quality harmonic score (``BlobSimilarity.py:95-102``)."""
    if nA == 0 and nB == 0:
        return 1.0, 1.0, 0.0
    if nA == 0 or nB == 0 or len(pairs) == 0:
        return 0.0, 0.0, 1.0
    coverage = len(pairs) / float(max(nA, nB))
    med_cost = float(np.median(costs)) if costs else pair_threshold
    quality = max(0.0, 1.0 - (med_cost / max(pair_threshold, 1e-6)))
    score = 2 * (coverage * quality) / max(coverage + quality, 1e-6)
    return float(np.clip(score, 0.0, 1.0)), coverage, med_cost


def blob_similarity(blobdata1: Optional[Dict], blobdata2: Optional[Dict], *,
                    threshold: float = 0.55, pair_threshold: float = 0.22,
                    weights: Optional[Dict] = None,
                    return_details: bool = False,
                    assign="greedy"):
    """``isBlobDataSimilar`` over two BlobData dicts
    (``BlobSimilarity.py:105-144``): empty side short-circuits to False
    before the both-empty branch, exactly like the public API."""
    weights = weights or {}
    B1 = blobdata1 or {}
    B2 = blobdata2 or {}
    F1, _ = _extract_features(B1)
    F2, _ = _extract_features(B2)
    n1, n2 = len(F1["pos"]), len(F2["pos"])
    if n1 == 0 or n2 == 0:
        details = {"score": 0.0, "coverage": 0.0, "median_pair_cost": 1.0,
                   "matched_pairs": 0, "n1": n1, "n2": n2,
                   "pair_threshold": pair_threshold,
                   "decision_threshold": threshold}
        return (False, details) if return_details else False
    shift = _estimate_translation(F1["pos"], F2["pos"])
    cost = _build_cost_matrix(F1, F2, shift, weights)
    assign_fn = _ASSIGNERS[assign] if isinstance(assign, str) else assign
    pairs = assign_fn(cost, pair_threshold=pair_threshold)
    costs = [c for *_, c in pairs]
    score, coverage, med_cost = _score(n1, n2, pairs, costs, pair_threshold)
    similar = score >= threshold
    details = {"score": score, "coverage": coverage,
               "median_pair_cost": med_cost, "matched_pairs": len(pairs),
               "n1": n1, "n2": n2, "pair_threshold": pair_threshold,
               "decision_threshold": threshold}
    return (similar, details) if return_details else similar


def is_blob_data_similar(record1: Optional[Dict], record2: Optional[Dict], *,
                         threshold: float = 0.55, pair_threshold: float = 0.22,
                         weights: Optional[Dict] = None,
                         return_details: bool = False):
    """Record-level wrapper matching the reference signature."""
    return blob_similarity((record1 or {}).get("BlobData", {}) or {},
                           (record2 or {}).get("BlobData", {}) or {},
                           threshold=threshold, pair_threshold=pair_threshold,
                           weights=weights, return_details=return_details)
