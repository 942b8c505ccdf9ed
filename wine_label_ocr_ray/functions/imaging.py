"""Scipy/cv2-free numpy image primitives for the blob leg.

The reference does these with OpenCV; neither cv2 nor scipy exist in
this environment, so the kernels the blob/fingerprint operators need
are implemented directly in numpy. Semantics follow the cited
reference call sites; exact cv2 bit-parity is NOT claimed for the
pixel ops (the oracle and the engine share these implementations, and
reference parity is asserted at the *feature* level via the golden blob
rows — see ``functions/blobs.py``).

The blob leg is one batch kernel over an ``(N, H, W)`` uint8 stack of
same-shape images, one numpy step per stage for the whole stack:

- Otsu: one offset ``bincount`` (``gray + 256*i``) gives an ``(N, 256)``
  histogram; the float64 cumsum/argmax runs per row.
- open(2x2) / close(3x3 cross): shifted-slice AND/OR over the last two
  axes; every image keeps its own zero border.
- 8-connected labeling: the masks are stacked into one tall image with a
  zero separator row under each image and zero side columns, so runs
  never cross an image or a row. One flat diff yields every run; two
  ``searchsorted`` calls over flat ``row*(W+2)+col`` positions find each
  run's overlapping runs in the previous row; min-hooking
  (``np.minimum.at``) plus pointer jumping resolves the labels. A
  component's root is its first run in raster order, so components (and
  blobs) come out in raster order of their first pixel.
- stats: per-component bbox/area/moment sums in one scatter pass.
- hull: for the filter's non-rectangular survivors only, the per-row
  leftmost/rightmost pixels are pruned in rounds to the convex minorant
  (left side) and concave majorant (right side); twice the hull area is
  an integer trapezoid sum, so solidity is exact.

``text_masks`` + ``smart_blob_columns`` are the batch entry points; the
kept blobs come out as columns (``BlobColumns``), never as per-blob
dicts. ``smart_blobs`` is the per-image dict view of them, and
``create_text_mask``, ``extract_smart_blobs``, ``connected_components``
and ``otsu_threshold`` are the single-image (N=1) entry points over the
same kernel.

- ``pad_boxes``/``pad_box`` -> ``data_extraction_functions/final_run_ocr.py:83-90``
- ``otsu_threshold``     -> cv2.THRESH_OTSU as used in ``hybrid.py:181``
- ``binary_open/close``  -> ``hybrid.py:183-186`` (2x2 / 3x3 ellipse kernels)
- ``connected_components``-> cv2.connectedComponentsWithStats(8) in ``hybrid.py:190``
- ``smart_blob_columns`` -> ``hybrid.py:189-227`` (filters + per-blob stats,
  cv2.convexHull + contourArea solidity of ``hybrid.py:211-216``)
- ``text_masks``         -> ``hybrid.py:172-187``
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

# cv2.getStructuringElement(MORPH_ELLIPSE, (2, 2)) == all-ones 2x2;
# (3, 3) ellipse == a cross.
KERNEL_2X2 = np.ones((2, 2), dtype=bool)
KERNEL_3X3_ELLIPSE = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def pad_boxes(boxes: np.ndarray, img_w, img_h,
              pad: float = 0.08) -> np.ndarray:
    """Pads an (M, 4) float array of (x1, y1, x2, y2) boxes by ``pad``
    of their size and clamps them to the image (``img_w``/``img_h``:
    scalars or one per box). Truncates toward zero like ``int()``, so
    the (M, 4) int64 result is exactly ``pad_box`` of every row."""
    x1, y1, x2, y2 = boxes.T
    w, h = x2 - x1, y2 - y1
    out = np.empty((len(boxes), 4), dtype=np.int64)
    out[:, 0] = np.maximum(0, np.trunc(x1 - pad * w))
    out[:, 1] = np.maximum(0, np.trunc(y1 - pad * h))
    out[:, 2] = np.minimum(img_w, np.trunc(x2 + pad * w))
    out[:, 3] = np.minimum(img_h, np.trunc(y2 + pad * h))
    return out


def pad_box(xyxy: Sequence[float], img_w: int, img_h: int,
            pad: float = 0.08) -> List[int]:
    """``pad_boxes`` of one box."""
    return pad_boxes(np.array([xyxy], dtype=np.float64), img_w, img_h,
                     pad)[0].tolist()


def _otsu_thresholds(grays: np.ndarray) -> np.ndarray:
    """Per-image Otsu threshold of an (N, H, W) uint8 stack."""
    n = grays.shape[0]
    offs = (np.arange(n, dtype=np.intp) << 8)[:, None]
    pixels = grays.reshape(n, int(np.prod(grays.shape[1:])))
    hist = np.bincount((pixels + offs).ravel(),
                       minlength=256 * n).reshape(n, 256).astype(np.float64)
    omega = np.cumsum(hist, axis=1)
    mu = np.cumsum(hist * np.arange(256), axis=1)
    total = omega[:, -1:]
    w1 = total - omega
    between = np.zeros((n, 256))
    np.divide((mu[:, -1:] * omega - mu * total) ** 2,
              omega * w1 * total * total,
              out=between, where=(omega > 0) & (w1 > 0))
    return np.argmax(between, axis=1)


def otsu_threshold(gray: np.ndarray) -> Tuple[int, np.ndarray]:
    """Standard Otsu over a uint8 image; returns (threshold, mask 0/255)
    with the cv2 convention mask = 255 where pixel > threshold."""
    t = int(_otsu_thresholds(gray[None])[0])
    return t, np.where(gray > t, 255, 0).astype(np.uint8)


def _binary_dilate(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[..., y, x] = OR over kernel taps (di, dj) of
    mask[..., y - di + kh//2, x - dj + kw//2], zero outside each image
    (anchor at the kernel center, cv2 default)."""
    kh, kw = kernel.shape
    H, W = mask.shape[-2:]
    top, left = kh - 1 - kh // 2, kw - 1 - kw // 2
    padded = np.zeros(mask.shape[:-2] + (H + kh - 1, W + kw - 1), bool)
    padded[..., top:top + H, left:left + W] = mask
    out = np.zeros(mask.shape, dtype=bool)
    for di, dj in zip(*np.nonzero(kernel)):
        out |= padded[..., kh - 1 - di:kh - 1 - di + H,
                      kw - 1 - dj:kw - 1 - dj + W]
    return out


def _binary_erode(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[..., y, x] = AND over kernel taps (di, dj) of
    mask[..., y + di - kh//2, x + dj - kw//2], zero outside each image."""
    kh, kw = kernel.shape
    H, W = mask.shape[-2:]
    ah, aw = kh // 2, kw // 2
    padded = np.zeros(mask.shape[:-2] + (H + kh - 1, W + kw - 1), bool)
    padded[..., ah:ah + H, aw:aw + W] = mask
    out = np.ones(mask.shape, dtype=bool)
    for di, dj in zip(*np.nonzero(kernel)):
        out &= padded[..., di:di + H, dj:dj + W]
    return out


def binary_open(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    return (_binary_dilate(_binary_erode(mask > 0, kernel), kernel)
            .astype(np.uint8) * 255)


def binary_close(mask: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    return (_binary_erode(_binary_dilate(mask > 0, kernel), kernel)
            .astype(np.uint8) * 255)


def _open_close(masks: np.ndarray) -> np.ndarray:
    """open(2x2) then close(3x3 ellipse) of a bool stack."""
    m = _binary_dilate(_binary_erode(masks, KERNEL_2X2), KERNEL_2X2)
    return _binary_erode(_binary_dilate(m, KERNEL_3X3_ELLIPSE),
                         KERNEL_3X3_ELLIPSE)


def text_masks(grays: np.ndarray) -> np.ndarray:
    """Otsu + open(2x2) + close(3x3 ellipse) of an (N, H, W) uint8
    stack -> (N, H, W) bool text masks (``hybrid.py:172-187``)."""
    t = _otsu_thresholds(grays).astype(grays.dtype)
    return _open_close(grays > t[:, None, None])


def create_text_mask(roi_gray: np.ndarray,
                     use_image_as_mask: bool = False) -> Tuple[np.ndarray, Dict]:
    """Single-image text mask (0/255); disabled -> zeros
    (``hybrid.py:172-187``)."""
    H, W = roi_gray.shape[:2]
    if not use_image_as_mask:
        return np.zeros((H, W), dtype=np.uint8), {
            "method": "disabled", "foreground_ratio": 0.0}
    mask = text_masks(roi_gray[None])[0].astype(np.uint8) * 255
    fg_ratio = float(np.count_nonzero(mask)) / float(H * W if H * W else 1)
    return mask, {"method": "image_as_mask", "foreground_ratio": fg_ratio}


class _Runs(NamedTuple):
    """Foreground runs of a stack in raster order (image, row, column):
    run k covers columns a[k]..b[k] of row y[k] of image img[k] and
    belongs to component comp[k]; components are numbered in the
    raster order of their first run, ``root[c]`` being that run."""
    img: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    comp: np.ndarray
    root: np.ndarray
    starts: np.ndarray   # flat [start, end) of each run in the tall image
    ends: np.ndarray


def _label(masks: np.ndarray) -> _Runs:
    """8-connected run labeling of an (N, H, W) bool stack."""
    n, H, W = masks.shape
    W2 = W + 2
    tall = np.zeros((n, H + 1, W2), dtype=bool)
    tall[:, :H, 1:W + 1] = masks
    flat = tall.reshape(-1)
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # runs of the previous row touching [start - 1, end] (8-connected)
    lo = np.searchsorted(ends, starts - W2 - 1, side="right")
    hi = np.searchsorted(starts, ends - W2 + 1, side="left")
    cnt = hi - lo
    k = len(starts)
    src = np.repeat(np.arange(k), cnt)
    dst = np.arange(len(src)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    parent = np.arange(k)
    while True:
        pu, pv = parent[src], parent[dst]
        differ = pu != pv
        if not differ.any():
            break
        src, dst = src[differ], dst[differ]
        # hook the larger root under the smaller, then jump pointers
        # until every run points straight at its root
        np.minimum.at(parent, np.maximum(pu[differ], pv[differ]),
                      np.minimum(pu[differ], pv[differ]))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(k)
    comp = (np.cumsum(is_root) - 1)[parent]
    row = starts // W2
    img = row // (H + 1)
    col0 = row * W2 + 1
    return _Runs(img, row - img * (H + 1), starts - col0, ends - 1 - col0,
                 comp, np.flatnonzero(is_root), starts, ends)


class _Comps(NamedTuple):
    img: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    w: np.ndarray
    h: np.ndarray
    area: np.ndarray
    sx2: np.ndarray   # sum over the component's pixels of 2*x
    sy: np.ndarray    # sum over the component's pixels of y


def _component_stats(runs: _Runs) -> _Comps:
    """Per-component bbox, area and moment sums in one scatter pass.
    The sums are integers (exact in float64 at these sizes), so every
    float derived from them is the same whatever the summation order."""
    c = len(runs.root)
    length = runs.ends - runs.starts
    x0 = np.full(c, np.iinfo(np.int64).max)
    x1 = np.full(c, -1, dtype=np.int64)
    y1 = np.full(c, -1, dtype=np.int64)
    np.minimum.at(x0, runs.comp, runs.a)
    np.maximum.at(x1, runs.comp, runs.b)
    np.maximum.at(y1, runs.comp, runs.y)
    y0 = runs.y[runs.root]
    return _Comps(runs.img[runs.root], x0, y0, x1 - x0 + 1, y1 - y0 + 1,
                  np.bincount(runs.comp, length, c).astype(np.int64),
                  np.bincount(runs.comp, (runs.a + runs.b) * length, c),
                  np.bincount(runs.comp, runs.y * length, c))


def _blob_candidates(comps: _Comps, shape: Tuple[int, int],
                     min_area: float) -> np.ndarray:
    """The cheap half of the filter band: area, bbox size, ROI share."""
    H, W = shape
    roi_area = float(H * W) if H and W else 1.0
    return ((comps.area >= min_area) & (comps.w >= 3) & (comps.h >= 3)
            & (comps.area <= 0.1 * roi_area))


def _hull_areas(runs: _Runs, comps: _Comps, cand: np.ndarray) -> np.ndarray:
    """Convex hull area of each candidate component (0 elsewhere).

    An exact rectangle's hull is its 4 pixel-center corners. Otherwise
    every hull vertex is a per-row leftmost or rightmost pixel: the left
    chain is pruned to its convex minorant x = L(y), the right chain
    (negated) likewise, and 2*area = -sum over both chains of
    (x_i + x_{i+1}) * (y_{i+1} - y_i)."""
    hull = np.zeros(len(cand))
    rect = (comps.area == comps.w * comps.h) & (comps.w > 1) & (comps.h > 1)
    hull[cand & rect] = ((comps.w - 1) * (comps.h - 1))[cand & rect]
    sel = np.flatnonzero((cand & ~rect)[runs.comp])
    if not len(sel):
        return hull
    sel = sel[np.argsort(runs.comp[sel], kind="stable")]
    comp, y = runs.comp[sel], runs.y[sel]
    first = np.ones(len(sel), dtype=bool)
    first[1:] = (comp[1:] != comp[:-1]) | (y[1:] != y[:-1])
    head = np.flatnonzero(first)
    tail = np.append(head[1:], len(sel)) - 1
    chain = np.concatenate([comp[head], comp[head] + len(cand)])
    ys = np.concatenate([y[head], y[head]])
    xs = np.concatenate([runs.a[sel[head]], -runs.b[sel[tail]]])
    while len(chain) > 2:
        xp, xi, xn = xs[:-2], xs[1:-1], xs[2:]
        yp, yi, yn = ys[:-2], ys[1:-1], ys[2:]
        drop = ((chain[:-2] == chain[1:-1]) & (chain[2:] == chain[1:-1])
                & ((xi - xp) * (yn - yp) >= (xn - xp) * (yi - yp)))
        if not drop.any():
            break
        keep = np.ones(len(chain), dtype=bool)
        keep[1:-1] = ~drop
        chain, ys, xs = chain[keep], ys[keep], xs[keep]
    seg = chain[1:] == chain[:-1]
    twice = np.bincount(chain[:-1][seg] % len(cand),
                        ((xs[:-1] + xs[1:]) * (ys[1:] - ys[:-1]))[seg],
                        len(cand))
    hull[cand & ~rect] = -twice[cand & ~rect] / 2.0
    return hull


class BlobColumns(NamedTuple):
    """Kept blobs of an image stack, one column per blob-dict key, in
    image then component order: blob k belongs to image ``img[k]``."""
    img: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    area: np.ndarray
    aspect_ratio: np.ndarray
    solidity: np.ndarray
    extent: np.ndarray

    def dicts(self, n: int) -> List[List[Dict]]:
        """The blob dicts of each of the stack's ``n`` images."""
        out: List[List[Dict]] = [[] for _ in range(n)]
        keys = self._fields[1:]
        for i, *vals in zip(*(c.tolist() for c in self)):
            out[i].append(dict(zip(keys, vals)))
        return out


def smart_blob_columns(masks: np.ndarray,
                       min_area: float = 30.0) -> BlobColumns:
    """Blob extraction over an (N, H, W) bool stack with the reference's
    exact filter band (``hybrid.py:189-227``): area >= min_area,
    w,h >= 3, area <= 10% of ROI, 0.02 <= aspect <= 50,
    solidity >= 0.05, extent >= 0.05."""
    runs = _label(masks)
    comps = _component_stats(runs)
    cand = _blob_candidates(comps, masks.shape[1:], min_area)
    hull = _hull_areas(runs, comps, cand)
    area = comps.area.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        solidity = np.where(hull > 0, area / hull, 0.5)
    ar = comps.w / comps.h
    extent = area / (comps.w * comps.h)
    keep = np.flatnonzero(cand & (ar >= 0.02) & (ar <= 50.0)
                          & (solidity >= 0.05) & (extent >= 0.05))
    area = area[keep]
    return BlobColumns(comps.img[keep], comps.x0[keep], comps.y0[keep],
                       comps.w[keep], comps.h[keep],
                       comps.sx2[keep] / 2.0 / area, comps.sy[keep] / area,
                       area, ar[keep], solidity[keep], extent[keep])


def smart_blobs(masks: np.ndarray, min_area: float = 30.0) -> List[List[Dict]]:
    """``smart_blob_columns`` as each image's blob dicts."""
    return smart_blob_columns(masks, min_area).dicts(masks.shape[0])


def extract_smart_blobs(mask: np.ndarray, min_area: float = 30.0) -> List[Dict]:
    """``smart_blobs`` of one 0/255 mask."""
    return smart_blobs(mask[None] > 0, min_area)[0]


def connected_components(mask: np.ndarray):
    """8-connected components with stats over a 0/255 mask.

    Returns (num_labels, labels, stats, centroids) shaped like
    cv2.connectedComponentsWithStats: label 0 = background; stats rows
    are (x, y, w, h, area); centroids are (cx, cy) pixel means."""
    m = mask > 0
    H, W = m.shape
    runs = _label(m[None])
    comps = _component_stats(runs)
    n = len(runs.root) + 1
    # paint each run's label: +label at its start, -label at its end
    delta = np.zeros((H + 1) * (W + 2) + 1, dtype=np.int32)
    delta[runs.starts] = runs.comp + 1
    delta[runs.ends] = -(runs.comp + 1)
    labels = np.cumsum(delta[:-1], dtype=np.int32).reshape(
        H + 1, W + 2)[:H, 1:W + 1].copy()
    stats = np.zeros((n, 5), dtype=np.int64)
    centroids = np.zeros((n, 2), dtype=np.float64)
    stats[1:] = np.stack([comps.x0, comps.y0, comps.w, comps.h, comps.area],
                         axis=1)
    centroids[1:, 0] = comps.sx2 / 2.0 / comps.area
    centroids[1:, 1] = comps.sy / comps.area
    bg = H * W - int(comps.area.sum())
    stats[0] = (0, 0, W, H, bg)
    if bg:
        # background coordinate sums = all pixels' minus the components'
        bg_sx = H * W * (W - 1) // 2 - int(comps.sx2.sum()) // 2
        bg_sy = W * H * (H - 1) // 2 - int(comps.sy.sum())
        centroids[0] = (bg_sx / bg, bg_sy / bg)
    return n, labels, stats, centroids


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear resize (cv2 INTER_LINEAR semantics: the
    half-pixel center mapping; used where the reference resizes with
    the default interpolation — Photo_Stitch.py:130,
    final_run_ocr.py:259)."""
    H, W = img.shape[:2]
    if (H, W) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * H / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * W / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, H - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, W - 1)
    y1 = np.clip(y0 + 1, 0, H - 1)
    x1 = np.clip(x0 + 1, 0, W - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    a = img[y0][:, x0].astype(np.float64)
    b = img[y0][:, x1].astype(np.float64)
    c = img[y1][:, x0].astype(np.float64)
    d = img[y1][:, x1].astype(np.float64)
    out = (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx +
           c * wy * (1 - wx) + d * wy * wx)
    return np.round(out).astype(img.dtype)


def _cubic_coeffs(frac: np.ndarray) -> np.ndarray:
    """cv2's interpolateCubic weights (imgproc/resize: BiCubic kernel
    with A = -0.75) for the 4 taps around each sample, from the
    fractional offsets. Shape: frac.shape + (4,)."""
    A = -0.75
    x = frac
    w = np.empty(x.shape + (4,), dtype=np.float64)
    w[..., 0] = ((A * (x + 1) - 5 * A) * (x + 1) + 8 * A) * (x + 1) - 4 * A
    w[..., 1] = ((A + 2) * x - (A + 3)) * x * x + 1
    w[..., 2] = ((A + 2) * (1 - x) - (A + 3)) * (1 - x) * (1 - x) + 1
    w[..., 3] = 1.0 - w[..., 0] - w[..., 1] - w[..., 2]
    return w


def resize_bicubic(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bicubic resize with cv2 INTER_CUBIC semantics
    (``final_run_ocr.py:99``'s 2x OCR upscale): Catmull-Rom-family
    kernel with A=-0.75, half-pixel center mapping, edge-replicate
    taps, separable row/column passes. Bit-parity with cv2's
    fixed-point inner loop is not claimed; the kernel, taps and
    mapping are exact (pinned against a naive per-pixel evaluation in
    tests/test_imaging.py)."""
    H, W = img.shape[:2]
    if (H, W) == (out_h, out_w):
        return img.copy()
    f = img.astype(np.float64)

    ys = (np.arange(out_h) + 0.5) * H / out_h - 0.5
    y0 = np.floor(ys).astype(np.int64)
    wy = _cubic_coeffs(ys - y0)                      # (out_h, 4)
    rows = np.zeros((out_h, W), dtype=np.float64)
    for i in range(4):
        rows += wy[:, i:i + 1] * f[np.clip(y0 - 1 + i, 0, H - 1)]

    xs = (np.arange(out_w) + 0.5) * W / out_w - 0.5
    x0 = np.floor(xs).astype(np.int64)
    wx = _cubic_coeffs(xs - x0)                      # (out_w, 4)
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for j in range(4):
        out += wx[None, :, j] * rows[:, np.clip(x0 - 1 + j, 0, W - 1)]
    return np.clip(np.round(out), 0, 255).astype(img.dtype)


def stitch_horizontal(img1: np.ndarray, img2: np.ndarray) -> np.ndarray:
    """M14 (``Photo_Stitch.py:124-132``): side-by-side stitch with
    matched heights — the right image is rescaled to the left image's
    height (width scaled proportionally, floor like the reference's
    int()), then hstacked."""
    h1 = img1.shape[0]
    h2, w2 = img2.shape[:2]
    if h1 != h2:
        scale = h1 / float(h2 if h2 else 1)
        img2 = resize_bilinear(img2, h1, max(1, int(w2 * scale)))
    return np.hstack((img1, img2))


def choose_bottle_box(detections, *, bottle_class: str = "bottle",
                      conf_threshold: float = 0.4):
    """The T4 bottle-selection law (``Char_Count_TurnTable.py:97-112``):
    among detections of the bottle class at confidence >= 0.40, pick
    the LARGEST-AREA box (strictly greater wins, first seen kept on
    ties). Returns (x1, y1, x2, y2, conf) ints+float, or None. The
    YOLO model itself is a production adapter; this is the data-plane
    selection the guidance loop consumes."""
    best, best_area = None, 0
    for det in detections or []:
        if str(det.get("class", "")).lower() != bottle_class:
            continue
        conf = float(det.get("confidence", 0.0))
        if conf < conf_threshold:
            continue
        x1, y1, x2, y2 = (int(v) for v in det["box"])
        area = max(0, x2 - x1) * max(0, y2 - y1)
        if area > best_area:
            best_area = area
            best = (x1, y1, x2, y2, conf)
    return best


def roi_from_bbox(img_shape, box, *, width_frac: float = 1.0,
                  height_frac: float = 0.9):
    """The M25 ROI law (``Char_Count_TurnTable.py:115-126``): a
    width_frac x height_frac rectangle centered in the bottle box
    (min 10 px per side), clamped to the box. Returns
    (rx1, ry1, rx2, ry2); the caller slices its own image."""
    x1, y1, x2, y2 = (int(v) for v in box[:4])
    w, h = x2 - x1, y2 - y1
    roi_w = int(max(10, width_frac * w))
    roi_h = int(max(10, height_frac * h))
    cx = x1 + w // 2
    rx1 = max(x1, cx - roi_w // 2)
    rx2 = min(x2, cx + roi_w // 2)
    ry1 = max(y1 + (h - roi_h) // 2, y1)
    ry2 = min(ry1 + roi_h, y2)
    del img_shape  # reference clamps to the box, not the frame
    return rx1, ry1, rx2, ry2
