"""Hypothesis property tests for the scalar kernels."""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wine_label_ocr_ray.functions import fuzzy as F
from wine_label_ocr_ray.functions import text as T
from wine_label_ocr_ray.functions import textstats as TS

TEXT = st.text(max_size=80)
TOKENS = st.lists(st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8), max_size=20)


@settings(max_examples=200, deadline=None)
@given(TEXT, TEXT)
def test_token_set_ratio_bounds_and_symmetry(a, b):
    r = F.token_set_ratio(a, b)
    assert 0.0 <= r <= 100.0
    assert r == F.token_set_ratio(b, a)
    # rapidfuzz guard: self-similarity is 100 except the empty string,
    # which scores 0 against everything (FuzzyWuzzy-compat)
    assert F.token_set_ratio(a, a) == (100.0 if a.split() else 0.0)


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_year_extractor_returns_valid_range_or_none(txt):
    y = T.extract_year_from_text(txt)
    if y is not None:
        assert len(y) == 4 and y.isdigit()
        assert 1900 <= int(y) <= 2030
        assert y in "".join(ch if ch.isdigit() else " " for ch in txt).replace(" ", "") or y in txt or True


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_normalize_maker_idempotent(s):
    once = T.normalize_maker(s)
    assert T.normalize_maker(once) == once
    assert set(once) <= T.ALLOWED


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_strip_markup_no_tags_remain(s):
    out = T.strip_markup(s)
    assert "  " not in out
    assert out == out.strip()


@settings(max_examples=100, deadline=None)
@given(TOKENS, TOKENS)
def test_minhash_similarity_tracks_jaccard_extremes(a, b):
    sa, sb = set(a), set(b)
    siga = TS.minhash_signature(sa)
    sigb = TS.minhash_signature(sb)
    if sa == sb:
        assert (siga == sigb).all()
    if sa and sb and not (sa & sb):
        # disjoint sets agree only by chance; never fully identical
        # unless tiny hash collisions — allow <= 25% agreement
        assert (siga == sigb).mean() <= 0.25


@settings(max_examples=100, deadline=None)
@given(TOKENS)
def test_simhash_deterministic_and_order_invariant(tokens):
    a = TS.simhash64(tokens)
    b = TS.simhash64(list(reversed(tokens)))
    assert a == b  # unweighted sum over tokens is order-free
    assert 0 <= a < (1 << 64)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(1, 100), st.floats(1, 100),
                          st.integers(3, 20), st.integers(3, 20)),
                min_size=0, max_size=8))
def test_blob_fingerprint_stable_under_permutation(specs):
    from wine_label_ocr_ray.functions.blobs import blob_fingerprint
    # order invariance holds only for distinct (cy, cx) sort keys (the
    # reference's sort is stable, so exact ties keep input order)
    seen = set()
    specs = [s for s in specs
             if (s[1], s[0]) not in seen and not seen.add((s[1], s[0]))]
    blobs = [{"cx": cx, "cy": cy, "w": w, "h": h, "area": float(w * h)}
             for cx, cy, w, h in specs]
    fp1 = blob_fingerprint(blobs, (200, 300))
    fp2 = blob_fingerprint(list(reversed(blobs)), (200, 300))
    assert fp1 == fp2
    if not blobs:
        assert fp1 == "empty"


def test_bucket_pairs_salted_equals_naive():
    """Salted (band, bucket%K) grouping + local sub-groupby emits
    exactly the same pair set as naive per-bucket grouping."""
    import numpy as np
    import pandas as pd

    from wine_label_ocr_ray.pipelines.queries_docs import (_BUCKET_SALT,
                                                           _bucket_pairs)

    rng = np.random.RandomState(3)
    n = 400
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "bucket": rng.randint(-5000, 5000, n).astype(np.int64),
        "sim": rng.randint(-2**62, 2**62, n).astype(np.int64),
    })
    df["bucket_mod"] = df["bucket"].to_numpy() % _BUCKET_SALT

    got = set()
    for _, g in df.groupby("bucket_mod"):
        out = _bucket_pairs(g, extra_col="sim")
        got |= set(zip(out.doc_a, out.doc_b))
        # extra columns carry each side's value
        sim_of = dict(zip(df.doc_id, df.sim))
        for r in out.itertuples():
            assert sim_of[r.doc_a] == r.sim_a
            assert sim_of[r.doc_b] == r.sim_b

    naive = set()
    for _, g in df.groupby("bucket"):
        ids = np.sort(g["doc_id"].to_numpy())
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                naive.add((ids[i], ids[j]))
    assert got == naive and naive  # non-vacuous


def _naive_labels(mask):
    """8-connected labels by per-pixel BFS flood fill, numbered in the
    raster order of each component's first pixel."""
    from collections import deque

    H, W = mask.shape
    labels = [[0] * W for _ in range(H)]
    n = 0
    for y in range(H):
        for x in range(W):
            if not mask[y, x] or labels[y][x]:
                continue
            n += 1
            labels[y][x] = n
            todo = deque([(y, x)])
            while todo:
                cy, cx = todo.popleft()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < H and 0 <= nx < W and mask[ny, nx] \
                                and not labels[ny][nx]:
                            labels[ny][nx] = n
                            todo.append((ny, nx))
    return n, labels


def _naive_hull_area(points):
    """Monotone-chain convex hull of every pixel + shoelace area."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return 0.0

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and \
                    ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) -
                     (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out
    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    s = sum(hull[i][0] * hull[(i + 1) % len(hull)][1] -
            hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull)))
    return abs(s) / 2.0


def _naive_blobs(mask, min_area):
    """The reference filter band over naive labels, one pixel at a time."""
    H, W = mask.shape
    roi_area = float(H * W) if H and W else 1.0
    n, labels = _naive_labels(mask > 0)
    pixels = [[] for _ in range(n + 1)]
    for y in range(H):
        for x in range(W):
            pixels[labels[y][x]].append((x, y))
    out = []
    for lb in range(1, n + 1):
        xs = [p[0] for p in pixels[lb]]
        ys = [p[1] for p in pixels[lb]]
        area = len(xs)
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        w, h = x1 - x0 + 1, y1 - y0 + 1
        if area < min_area or w < 3 or h < 3 \
                or area > 0.1 * roi_area:
            continue
        cx = float(sum(xs) / area)
        cy = float(sum(ys) / area)
        ar = w / h
        hull = _naive_hull_area(pixels[lb])
        if area == w * h and w > 1 and h > 1:
            hull = float((w - 1) * (h - 1))
        solidity = float(area) / hull if hull > 0 else 0.5
        extent = float(area) / float(w * h)
        if (0.02 <= ar <= 50.0) and solidity >= 0.05 \
                and extent >= 0.05:
            out.append({"x": x0, "y": y0, "w": w, "h": h,
                        "cx": cx, "cy": cy, "area": float(area),
                        "aspect_ratio": float(ar),
                        "solidity": float(solidity),
                        "extent": float(extent)})
    return out


def _naive_text_mask(gray):
    """Otsu (same float formula, one threshold at a time) + open(2x2) +
    close(3x3 cross), one pixel at a time with a zero border."""
    import numpy as np

    H, W = gray.shape
    vals = gray.ravel().tolist()
    total = float(len(vals))
    mu_t = float(sum(vals))
    best_t, best = 0, 0.0
    for t in range(256):
        w0 = float(sum(1 for v in vals if v <= t))
        mu = float(sum(v for v in vals if v <= t))
        w1 = total - w0
        if w0 > 0 and w1 > 0:
            b = (mu_t * w0 - mu * total) ** 2 / (w0 * w1 * total * total)
            if b > best:
                best_t, best = t, b
    m = [[gray[y, x] > best_t for x in range(W)] for y in range(H)]

    def at(img, y, x):
        return 0 <= y < H and 0 <= x < W and img[y][x]

    def erode(img, offs):
        return [[all(at(img, y + dy, x + dx) for dy, dx in offs)
                 for x in range(W)] for y in range(H)]

    def dilate(img, offs):
        return [[any(at(img, y - dy, x - dx) for dy, dx in offs)
                 for x in range(W)] for y in range(H)]
    # taps relative to the anchor (kernel center, kh//2, kw//2)
    k2 = [(-1, -1), (-1, 0), (0, -1), (0, 0)]
    k3 = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    m = dilate(erode(m, k2), k2)
    m = erode(dilate(m, k3), k3)
    return np.array(m, dtype=np.uint8) * 255


def _assert_same_blobs(got, want, ctx):
    # blob ordering is label order in both paths; centroids are
    # integer-sum ratios so equality is exact, not approximate
    assert len(got) == len(want), ctx
    for g, w_ in zip(got, want):
        for k in ("x", "y", "w", "h", "area", "cx", "cy",
                  "aspect_ratio", "extent", "solidity"):
            assert g[k] == w_[k], (ctx, k, g, w_)


def test_extract_smart_blobs_matches_naive_per_pixel():
    """The batch blob kernel must agree with a naive per-pixel
    reference (BFS flood fill, all-pixel hull) on random masks:
    identical blob order, bbox, integer area, centroid floats, and
    the full filter band. Guards the byte-exact golden fingerprints
    against future vectorization edits."""
    import numpy as np

    from wine_label_ocr_ray.functions import imaging as I

    rng = np.random.RandomState(11)
    for trial in range(8):
        mask = (rng.rand(48, 64) > 0.72).astype(np.uint8) * 255
        got = I.extract_smart_blobs(mask, min_area=5.0)
        want = _naive_blobs(mask, min_area=5.0)
        _assert_same_blobs(got, want, trial)


def test_analyze_batch_matches_naive_per_image():
    """``BlobAnalyzer.analyze_batch`` over one call with mixed shapes
    equals the naive per-image blob leg for every image. Blobs touch
    the top and bottom rows of same-shape neighbours, so any leakage
    across the stacked images' separator would merge them."""
    import numpy as np

    from wine_label_ocr_ray.functions.blobs import blob_fingerprint
    from wine_label_ocr_ray.state.engines import BlobAnalyzer

    rng = np.random.RandomState(5)

    def image(h, w):
        g = (rng.rand(h, w) * 40).astype(np.uint8)
        for _ in range(rng.randint(2, 5)):
            bw, bh = rng.randint(3, max(4, w // 3)), rng.randint(3, 8)
            x = rng.randint(0, w - bw)
            y = rng.choice([0, h - bh, rng.randint(0, h - bh)])
            g[y:y + bh, x:x + bw] = 180 + rng.randint(0, 60)
        # a ragged blob, so the hull is not a rectangle's
        g[h // 2, 2:9] = g[h // 2 + 1, 4:7] = g[h // 2 + 2, 5] = 230
        return g

    grays = [image(24, 32) for _ in range(4)] + \
        [image(20, 20), image(31, 17), image(20, 20),
         np.zeros((24, 32), np.uint8), np.full((20, 20), 255, np.uint8),
         image(24, 32)]
    for batch in (grays, grays[:1]):
        got = BlobAnalyzer(5.0).analyze_batch(batch)
        assert len(got) == len(batch)
        for i, (g, res) in enumerate(zip(batch, got)):
            want = _naive_blobs(_naive_text_mask(g), 5.0)
            _assert_same_blobs(res["blobs"], want, i)
            assert res["roi_shape"] == list(g.shape)
            assert res["blob_count"] == len(want)
            assert res["blob_fingerprint"] == \
                blob_fingerprint(want, g.shape)

    # the text mask's zero-border close keeps mask pixels off the first
    # and last rows, so check the labeling's separator on raw masks:
    # column-aligned blobs on the bottom row of one image and the top
    # row of the next must stay separate blobs
    from wine_label_ocr_ray.functions import imaging as I

    masks = np.zeros((5, 16, 24), dtype=bool)
    for m in masks:
        m[:4, 3:12] = m[12:, 3:12] = True
        m[6:10, 14:21] = rng.rand(4, 7) > 0.3
    got = I.smart_blobs(masks, 5.0)
    for i, m in enumerate(masks):
        want = _naive_blobs(m.astype(np.uint8) * 255, 5.0)
        _assert_same_blobs(got[i], want, i)
        assert {b["y"] for b in got[i]} >= {0, 12}


# --- chunked blob fingerprint vs the scalar reference ----------------

def _ref_fingerprint(blobs, roi_shape):
    """The scalar per-image ``blob_fingerprint`` (``hybrid.py:229-242``)
    that ``blob_fingerprints`` replaced: Python ``round``, a stable
    ``(cy, cx)`` sort and ``str()`` of the tuple list."""
    if not blobs:
        return "empty"
    H, W = roi_shape
    feats = []
    for b in sorted(blobs, key=lambda x: (x["cy"], x["cx"])):
        feats.append((
            round(b["cx"] / W, 3),
            round(b["cy"] / H, 3),
            round(b["w"] / W, 3),
            round(b["h"] / H, 3),
            round(b["area"] / (W * H), 4),
        ))
    return hashlib.md5(str(feats).encode()).hexdigest()[:16]


def _ratio(ndigits):
    """A feature ratio: an x.xxx5 tie at ``ndigits`` decimals (the
    double nearest (2i+1) / (2 * 10**ndigits): exact when it is
    dyadic, like 0.0625, a hair above or below it otherwise), a tie
    one ulp off, a 1/64 step or any float in [0, 1]."""
    tie = st.integers(0, 10 ** ndigits - 1).map(
        lambda i: (2 * i + 1) / (2 * 10 ** ndigits))
    return st.one_of(tie, tie.map(lambda t: float(np.nextafter(t, 1.0))),
                     tie.map(lambda t: float(np.nextafter(t, 0.0))),
                     st.integers(0, 64).map(lambda k: k / 64),
                     st.floats(0.0, 1.0))


@st.composite
def _roi_blobs(draw):
    """An ROI shape (1xN and Nx1 included, sides not powers of ten) and
    0 to many blobs, some sharing a (cy, cx) key."""
    H = draw(st.one_of(st.just(1), st.integers(1, 3000)))
    W = draw(st.one_of(st.just(1), st.integers(1, 3000)))
    blobs = []
    for _ in range(draw(st.integers(0, 8))):
        blobs.append({"cx": draw(_ratio(3)) * W,
                      "cy": draw(_ratio(3)) * H,
                      "w": draw(st.integers(1, W)),
                      "h": draw(st.integers(1, H)),
                      "area": draw(_ratio(4)) * W * H})
        if draw(st.booleans()):  # same key: the stable sort decides
            blobs.append(dict(blobs[-1], w=draw(st.integers(1, W)),
                              area=draw(_ratio(4)) * W * H))
    return (H, W), blobs


@settings(max_examples=200, deadline=None)
@given(st.lists(_roi_blobs(), max_size=4))
# decimal ties whose scaled doubles land exactly on the half while the
# doubles lie above (0.0005, 0.00005) or below (0.0045, 0.00035) it,
# an exact tie (0.0625), -0.0 and a 1x1 ROI
@example([((1, 1), [{"cx": 0.0005, "cy": 0.0045, "w": 1, "h": 1,
                     "area": 0.00005},
                    {"cx": 0.0625, "cy": 0.0045, "w": 1, "h": 1,
                     "area": 0.00035},
                    {"cx": 0.0005, "cy": 0.0045, "w": 1, "h": 1,
                     "area": -0.0}])])
def test_chunked_fingerprint_matches_scalar_reference(images):
    """``blob_fingerprints`` over several ROIs of different shapes in
    one call, and ``blob_fingerprint`` of each, equal the scalar
    reference byte for byte."""
    from wine_label_ocr_ray.functions.blobs import (blob_fingerprint,
                                                    blob_fingerprints)

    want = [_ref_fingerprint(blobs, shape) for shape, blobs in images]
    cols = [np.array([b[k] for _, blobs in images for b in blobs],
                     dtype=np.float64)
            for k in ("cx", "cy", "w", "h", "area")]
    offsets = np.cumsum([0] + [len(blobs) for _, blobs in images])
    shapes = np.array([shape for shape, _ in images],
                      dtype=np.int64).reshape(-1, 2)
    assert blob_fingerprints(offsets, *cols, shapes[:, 0],
                             shapes[:, 1]) == want
    assert [blob_fingerprint(blobs, shape)
            for shape, blobs in images] == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([(1, 40), (40, 1), (3, 57), (24, 32), (37, 53),
                     (64, 96)]),
    st.integers(0, 2 ** 31 - 1)), min_size=1, max_size=8))
def test_analyze_batch_fingerprints_match_scalar_reference(specs):
    """Mixed shapes in one ``analyze_batch`` call: every image's
    fingerprint equals the scalar reference over its own blobs."""
    from wine_label_ocr_ray.state.engines import BlobAnalyzer

    grays = []
    for (h, w), seed in specs:
        rng = np.random.RandomState(seed)
        g = (rng.rand(h, w) * 40).astype(np.uint8)
        for _ in range(rng.randint(0, 7)):
            bw, bh = rng.randint(1, w + 1), rng.randint(1, h + 1)
            x, y = rng.randint(0, w - bw + 1), rng.randint(0, h - bh + 1)
            g[y:y + bh, x:x + bw] = 180 + rng.randint(0, 60)
        grays.append(g)
    for g, res in zip(grays, BlobAnalyzer(5.0).analyze_batch(grays)):
        assert res["roi_shape"] == list(g.shape)
        assert res["blob_fingerprint"] == \
            _ref_fingerprint(res["blobs"], g.shape)


# --- batch header parse vs one json.loads per header ------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.text("a~\"\\{", max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text("hw", max_size=2), kids, max_size=3),
    max_leaves=8)
_PIECES = ["{", "}", "[", "]", ",", ":", '"', '"a"', "1", " ", "\\",
           "null", '"~joint~"', "~joint~", '{"h":1}', '"\\"']


@st.composite
def _header_texts(draw):
    """Valid JSON texts, pieces of them, and JSON-ish token soup."""
    import json
    texts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            text = json.dumps(draw(_JSON), ensure_ascii=False)
        elif kind == 1:
            text = json.dumps(draw(_JSON))
            cut = draw(st.integers(0, len(text)))
            text = text[:cut] if draw(st.booleans()) else text[cut:]
        else:
            text = "".join(draw(st.lists(st.sampled_from(_PIECES),
                                         max_size=8)))
        texts.append(text.encode())
    return texts


@settings(max_examples=300, deadline=None)
@given(_header_texts())
@example([b'{"h":1,"w":1,"x":[{}', b'{}]}', b'{"h":1,"w":1},{"h":1,"w":1}'])
@example([b'{"a":"}', b'{"}', b'{},{}'])
@example([b'{"a":[1', b'2]},"~joint~",{}'])
@example([b'{"a":[1', b'2]},"\\u007ejoint~",{}'])
@example([b'[1', b'2],5,6', b'3'])
@example([b'[1', b']'])
def test_batch_header_parse_matches_per_header(texts):
    """``_parse_headers`` gives every header what ``json.loads`` gives
    it alone (None where that raises), whatever its neighbours hold."""
    import gc
    import json

    from wine_label_ocr_ray.synth import _parse_headers

    def alone(text):
        try:
            return json.loads(text.decode("utf-8"))
        except ValueError:
            return None
    assert _parse_headers([memoryview(t) for t in texts]) == \
        [alone(t) for t in texts]
    assert gc.isenabled()  # the batch parse pauses the collector only


# --- column-wise record assembly vs a row-wise reference -------------

def _ref_merge_raw(raw_lists):
    merged = {}
    for entries in raw_lists:
        if not entries:
            continue
        for e in entries:
            if e["conf"] is None:
                merged.setdefault(e["bucket"], e["text"])
            else:
                merged.setdefault(e["bucket"], []).append(
                    (e["text"], e["conf"]))
    return merged


def _ref_record(rows):
    """Row-wise reference of one doc's record: every span row as a
    dict, sorted by (offset, kind, media_ref), merged in Python."""
    from wine_label_ocr_ray.stages.media import raw_to_entries
    from wine_label_ocr_ray.stages.reassemble import EMPTY_BLOB

    rows = sorted(rows, key=lambda r: (r["offset"], r["kind"],
                                       r["media_ref"] or ""))
    media_rows = [r for r in rows if r["kind"] == "media"]
    maker_raw = None
    for r in media_rows:
        m = r["maker_name"]
        if m and len(m) >= 2 and (not maker_raw or len(m) > len(maker_raw)):
            maker_raw = m
    merged_raw = _ref_merge_raw([r["raw"] for r in media_rows])
    maker_norm = T.normalize_maker(maker_raw) if maker_raw else ""
    if not maker_norm:
        maker_norm = T.extract_best_maker_from_raw(merged_raw)
    maker_out = maker_norm or None
    vintage_str = next((r["vintage_str"] for r in media_rows
                        if r["vintage_str"]), None)
    if vintage_str is None:
        vintage_str = next((r["text_year"] for r in rows
                            if r["kind"] == "text" and r["text_year"]), None)
    vintage_int = T.to_int_year(vintage_str)
    confs = [c for arr in merged_raw.values() if isinstance(arr, list)
             for (_t, c) in arr]
    key = T.canonical_key(maker_norm, vintage_str)
    return {
        "doc_id": rows[0]["doc_id"],
        "spans": [{"kind": r["kind"], "text": r["span_text"] or "",
                   "media_ref": r["media_ref"] or "", "order": r["offset"]}
                  for r in rows],
        "custom_id": T.custom_id(maker_out, vintage_int),
        "maker_name": maker_out,
        "maker_norm": maker_norm,
        "vintage": vintage_int,
        "barcode": next((r["barcode"] for r in media_rows if r["barcode"]),
                        None),
        "key": key,
        "record_id": T.hash_id(maker_norm, vintage_str),
        "valid": not (key == "|" or (not maker_norm and not vintage_str)),
        "mean_ocr_conf": (sum(confs) / len(confs)) if confs else 0.0,
        "blob": next((r["blob"] for r in media_rows
                      if r["blob"] is not None), EMPTY_BLOB),
        "raw": raw_to_entries(merged_raw),
    }


_MAYBE = [None, ""]
_LIST_BUCKETS = ["maker_name", "vintage", "maker_name_candidates",
                 "vintage_candidates"]
_BARE_BUCKETS = ["vintage_from_fallback", "error"]
_RAW_ENTRY = st.one_of(
    st.fixed_dictionaries({
        "bucket": st.sampled_from(_LIST_BUCKETS),
        "text": st.sampled_from(["", ".", "ab", "Opus One", "château x",
                                 "2019"]),
        # float sums of these depend on the order they are added in
        "conf": st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.9, 1.0 / 3,
                                 1e-16])}),
    st.fixed_dictionaries({
        "bucket": st.sampled_from(_BARE_BUCKETS),
        "text": st.sampled_from(["1999", "2001", "corrupt_media"]),
        "conf": st.none()}))
_BLOB = st.one_of(st.none(), st.builds(
    lambda fp, n: {"roi_shape": [4, n], "blob_count": n,
                   "blob_fingerprint": fp,
                   "blobs": [{"x": i, "y": 0, "w": 1, "h": 1, "cx": 0.5,
                              "cy": 0.5, "area": 1.0, "aspect_ratio": 1.0,
                              "solidity": 1.0, "extent": 1.0}
                             for i in range(n)]},
    st.sampled_from(["f0", "f1", "f2"]), st.integers(0, 2)))
_SPAN_ROW = st.fixed_dictionaries({
    "offset": st.integers(0, 3),
    "kind": st.sampled_from(["text", "media", "media"]),
    "media_ref": st.sampled_from(_MAYBE + ["a", "b", "é", "z"]),
    "span_text": st.sampled_from(_MAYBE + ["x", "VINTAGE 2001"]),
    "text_year": st.sampled_from(_MAYBE + ["2005", "2011"]),
    # ties on length: "Opus"/"Okay", and "CHÂTEAU Y"/"CHATEAU Z" in
    # characters but not bytes; "??" normalizes to ""
    "maker_name": st.sampled_from(_MAYBE + ["A", "ab", "??", "Opus", "Okay",
                                            "CHÂTEAU Y", "CHATEAU Z"]),
    "raw": st.one_of(
        st.none(), st.lists(_RAW_ENTRY, max_size=5),
        st.just([{"bucket": "error", "text": "corrupt_media",
                  "conf": None}])),
    "vintage_str": st.sampled_from(_MAYBE + ["1999", "2001", "19x9"]),
    "barcode": st.sampled_from(_MAYBE + ["123", "456"]),
    "blob": _BLOB,
})
_DOC_IDS = st.sampled_from(["d0", "d1", "d2", "d3"])


def _span_table(rows):
    import pyarrow as pa

    from wine_label_ocr_ray.stages.spans import SPAN_ROW_SCHEMA
    return pa.Table.from_pylist(rows, schema=SPAN_ROW_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DOC_IDS, _SPAN_ROW), max_size=24))
def test_assemble_bucket_matches_rowwise_reference(tagged):
    """Span rows of several docs, interleaved: one record per doc_id in
    first-appearance order, equal to the row-wise reference."""
    from wine_label_ocr_ray.schema import RECORD_SCHEMA
    from wine_label_ocr_ray.stages.reassemble import assemble_bucket

    rows = [dict(r, doc_id=d) for d, r in tagged]
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    out = assemble_bucket(_span_table(rows))
    assert out.schema.equals(RECORD_SCHEMA)
    assert out.to_pylist() == [_ref_record(g) for g in by_doc.values()]


def _media_row(offset, ref, raw, maker=None):
    return {"offset": offset, "kind": "media", "media_ref": ref,
            "span_text": "", "text_year": None, "maker_name": maker,
            "raw": raw, "vintage_str": None, "barcode": None,
            "blob": None}


def _entry(bucket, text, conf):
    return {"bucket": bucket, "text": text, "conf": conf}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DOC_IDS, st.lists(_SPAN_ROW, max_size=12)),
                max_size=6), st.booleans())
# d0 merged puts bucket "vintage" first: 0.1 + 0.2 + 1e-16 (in offset
# order, 0.1 + 1e-16 + 0.2 reads one ulp lower), and a repeated bare
# bucket keeps its first entry; d1's 9 confs sum left to right to one
# ulp below what np.mean's pairwise sum gives
@example([("d0", [
    _media_row(0, "a", [_entry("vintage", "x", 0.1),
                        _entry("maker_name", "y", 1e-16)], "Okay"),
    _media_row(1, "b", [_entry("vintage", "z", 0.2),
                        _entry("vintage_from_fallback", "1999", None)],
               "Opus"),
    _media_row(2, "b", [_entry("vintage_from_fallback", "2001", None)])]),
    ("d1", [_media_row(0, "a", [_entry("vintage", "x", c) for c in
                                [0.1, 0.2, 1e-16] + [1.0 / 3] * 6])])], True)
def test_assemble_docs_matches_rowwise_reference(docs, lead):
    """Doc rows (some without spans, doc_ids may repeat) plus a riding
    ``path`` column, and their span rows: one record per doc row with
    spans, in input order, with its own ``path``. Docs and span rows
    are slices of a larger batch, with (``lead``) or without a row
    before them."""
    import numpy as np
    import pyarrow as pa

    from wine_label_ocr_ray.stages.reassemble import assemble_docs
    from wine_label_ocr_ray.stages.spans import SPAN_ROW_SCHEMA

    junk = ("junk", [_media_row(0, "j", [_entry("error", "x", None)])])
    padded = [junk] * lead + docs + [junk]
    rows = [dict(r, doc_id=d) for d, spans in padded for r in spans]
    offsets = np.zeros(len(padded) + 1, dtype=np.int32)
    np.cumsum([len(spans) for _d, spans in padded], out=offsets[1:])
    values = pa.array(rows, pa.struct(list(SPAN_ROW_SCHEMA)))
    paths = [f"part-{i}" for i in range(len(padded))]
    table = pa.table({
        "doc_id": pa.array([d for d, _s in padded], pa.string()),
        "spans": pa.ListArray.from_arrays(pa.array(offsets), values),
        "path": pa.array(paths, pa.string())}).slice(lead, len(docs))
    first, last = offsets[[lead, lead + len(docs)]].tolist()
    span_rows = pa.Table.from_struct_array(values).slice(first,
                                                         last - first)
    want = [dict(_ref_record([dict(r, doc_id=d) for r in spans]), path=p)
            for (d, spans), p in zip(docs, paths[lead:]) if spans]
    assert assemble_docs(table, span_rows).to_pylist() == want


# --- vectorized text leg vs the scalar spec --------------------------

# every character of str.isspace (the last one is U+3000)
_SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()]
_MARKUP = st.one_of(
    st.sampled_from(["<b>", "</p>", "<br/>", "<div class=nav>", "<", ">",
                     "<>", "&lt;", "&gt;", "&quot;", "&#39;", "&nbsp;",
                     "&amp;", "&amp;lt;", "&", ";", "&lt"]),
    # tags around the 128-character bound, some with a non-ASCII body
    st.builds(lambda k, c: "<" + c * k + ">",
              st.integers(120, 135), st.sampled_from(["a", " ", "é", "<"])),
)
_WORDS = st.sampled_from(["VIN", "vIn", "vintage", "ViNtAgE", "V.", "v.",
                          "vnt", "VNT", "_", "x", "Opus", "٩", "é"])
_TEXT_TOKEN = st.one_of(_MARKUP, _WORDS, st.sampled_from(_SPACES),
                        st.text("0123456789", min_size=1, max_size=6))
# digit runs of 1-9 digits, years just inside and outside 1900-2030
_YEARISH = st.one_of(
    st.sampled_from(["1899", "1900", "1901", "1999", "2000", "2029",
                     "2030", "2031", "19", "20", "٩"]),
    st.text("0123456789", min_size=1, max_size=9))
_DIGIT_TOKEN = st.one_of(_YEARISH, _YEARISH, _WORDS,
                         st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c",
                                          "\xa0", "-", "<b>", "&amp;"]))


def _assert_text_leg_matches_spec(spans, junk):
    """``extract_text_spans`` over the span rows of ``spans`` (a list of
    (kind, text)) behind ``junk`` rows that are sliced off first, so
    every column starts at a non-zero offset: each text row equals the
    scalar spec, each media row is untouched."""
    import pyarrow as pa

    from wine_label_ocr_ray.schema import DOC_SCHEMA
    from wine_label_ocr_ray.stages.spans import (explode_spans,
                                                 extract_text_spans)

    docs = pa.Table.from_pylist(
        [{"doc_id": f"d{i}", "spans": [
            {"kind": kind, "text": text, "media_ref": "m" if kind == "media"
             else "", "offset": 0}]}
         for i, (kind, text) in enumerate(junk + spans)], schema=DOC_SCHEMA)
    rows = explode_spans(docs).slice(len(junk))
    out = extract_text_spans(rows).to_pylist()
    assert len(out) == len(spans)
    for (kind, text), before, after in zip(spans, rows.to_pylist(), out):
        if kind == "media":
            assert after == before
        else:
            clean = T.strip_markup(text)
            assert after == dict(before, span_text=clean,
                                 text_year=T.extract_year_from_text(clean))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["text", "text", "text", "media"]),
    st.lists(_TEXT_TOKEN, max_size=12).map("".join)), max_size=12),
    st.lists(st.tuples(st.just("text"), st.sampled_from(
        ["<b>x</b>", "2001", "a  b"])), max_size=3))
@example([("text", "vin\xa02011")], [])
@example([("text", "bottled 19٩٠ x")], [])
@example([("text", "<" + "a" * 128 + ">2001"), ("text", "<" + "a" * 129
                                                 + ">x"),
          ("text", "<a <" + "é" * 127 + "> z")], [])
def test_text_leg_matches_scalar_spec(spans, junk):
    _assert_text_leg_matches_spec(spans, junk)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["text", "text", "media"]),
    st.lists(_DIGIT_TOKEN, max_size=10).map("".join)), max_size=12))
@example([("text", "x18991900"), ("text", "12019 vin"),
          ("text", "203020301900"), ("text", "v.\x0b1999"),
          ("text", "19001")])
def test_text_leg_years_match_scalar_spec(spans):
    """Also on text that was not stripped: the year passes read any
    whitespace as Python's ``\\s`` does."""
    import numpy as np
    import pyarrow as pa

    from wine_label_ocr_ray.stages.spans import _text_years

    _assert_text_leg_matches_spec(spans, [])
    texts = [text for _kind, text in spans]
    assert _text_years(pa.array(texts, pa.string()), np.ones(
        len(texts), dtype=bool)).to_pylist() == [
            T.extract_year_from_text(t) for t in texts]
