"""Deterministic synthetic interleaved-document corpus.

Stand-in for the reference's capture hardware (OAK camera frames,
``Photo_Stitch.py:141-166``) and its 162-image manual test corpus: a
seeded generator that produces the BASELINE.json-shaped document table
plus a media-payload side table, with ground truth embedded in the
payloads so the deterministic Detect/OCR engines (state/engines.py)
and the pure-Python oracle agree exactly.

Layout written by :func:`generate_corpus`:

    <out_dir>/documents/part-{shard:04d}.parquet   (doc_id, spans)
    <out_dir>/media/part-{shard:04d}.parquet       (media_ref, payload) sorted by ref

Payload binary layout: ``json-header utf8 + b"\\0IMG\\0" + gray bytes``
where the header carries detection ground truth
(cls/box/conf/truth_text/ocr_conf), a nullable barcode, background
texts (what a full-image OCR sweep would see beyond the boxes), and
the gray image dims for the blob leg.

Determinism: every doc is generated from ``RandomState(seed ^ doc_index)``
so content is independent of sharding and generation order.
"""

from __future__ import annotations

import gc
import json
import os
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .schema import DOC_SCHEMA, MEDIA_SCHEMA

PAYLOAD_SEP = b"\x00IMG\x00"

# Maker phrases: the golden cellar makers (FIXTURES.md F4) plus
# accent/punctuation variants from the reference's commented truth
# table (MakerAndCustomIDSimilarity.py:99-137) and synthetic fillers.
MAKERS = [
    "HIORENT AUIGUSTIN", "MERLOT", "CHATEAU PEYROUQUET SAINT-EI",
    "LE BY EQ", "BLARD&FILS", "JHATEAU BEAUPRE DE", "CHATEAU ALCEE",
    "Château Margaux", "Chateau   Margaux", "Robert Mondavi Winery",
    "Robert Mondavi", "Opus One", "OPUS-ONE", "OPU-ON",
    "Domaine de la Romanee", "Bodega Catena Zapata", "Weingut Keller",
    "Tenuta San Guido", "Penfolds Grange", "Screaming Eagle",
    "Vega Sicilia Unico", "Chateau d'Yquem", "Sassicaia",
]

FILLER = ("estate grown hand picked reserve barrel aged limited release "
          "grand cru appellation controlee mis en bouteille old vines "
          "single vineyard terroir noble rot late harvest").split()

VINTAGE_TEMPLATES = [
    "VINTAGE {y}", "Vin {y}", "VNT {y}", "V. {y}", "{y}", "x{y}x",
    "bottled in {y}", "{y} VINTAGE",
]

DECOYS = ["1234", "7777", "1899", "2077", "lot 42", "75cl", "13.5%"]

IMG_H, IMG_W = 64, 96


def _doc_rng(seed: int, doc_index: int) -> np.random.RandomState:
    return np.random.RandomState((seed * 1_000_003 + doc_index) % (2**31 - 1))


def _maybe_markup(rng: np.random.RandomState, text: str) -> str:
    r = rng.rand()
    if r < 0.25:
        return f"<div class=nav>menu home</div><p>{text}</p>"
    if r < 0.4:
        return text.replace("&", "&amp;") + " <br/>"
    return text


def _make_text_span(rng: np.random.RandomState, vintage: Optional[int]) -> str:
    words = [FILLER[i] for i in rng.randint(0, len(FILLER), size=rng.randint(3, 12))]
    r = rng.rand()
    if r < 0.25 and vintage is not None:
        tmpl = VINTAGE_TEMPLATES[rng.randint(0, len(VINTAGE_TEMPLATES))]
        words.insert(rng.randint(0, len(words) + 1), tmpl.format(y=vintage))
    elif r < 0.4:
        words.insert(rng.randint(0, len(words) + 1),
                     DECOYS[rng.randint(0, len(DECOYS))])
    return _maybe_markup(rng, " ".join(words))


def _ocr_noise(rng: np.random.RandomState, text: str) -> str:
    """Deterministic OCR-style corruption: occasional char swap."""
    if rng.rand() < 0.8 or len(text) < 4:
        return text
    chars = list(text)
    i = rng.randint(0, len(chars))
    chars[i] = "CJIO0B8"[rng.randint(0, 7)]
    return "".join(chars)


def _make_gray_image(rng: np.random.RandomState) -> np.ndarray:
    """Deterministic 'edge image': dark background + a few bright
    rectangles that become the blobs of the fingerprint leg."""
    img = (rng.rand(IMG_H, IMG_W) * 40).astype(np.uint8)
    for _ in range(rng.randint(0, 6)):
        w = rng.randint(4, 20)
        h = rng.randint(4, 14)
        x = rng.randint(0, IMG_W - w)
        y = rng.randint(0, IMG_H - h)
        img[y:y + h, x:x + w] = 180 + rng.randint(0, 60)
    return img


def _make_media_payload(rng: np.random.RandomState, maker: str,
                        vintage: Optional[int]) -> bytes:
    elements: List[Dict] = []
    # Maker-Name element(s): 1-2 candidates of differing length
    n_makers = 1 + (rng.rand() < 0.3)
    for k in range(n_makers):
        txt = _ocr_noise(rng, maker if k == 0 else maker.split()[0])
        elements.append({
            "cls": "Maker-Name",
            "box": [float(5 + 10 * k), 5.0, float(60 + 10 * k), 20.0],
            "conf": round(float(0.5 + 0.5 * rng.rand()), 4),
            "truth_text": txt,
            "ocr_conf": round(float(0.6 + 0.4 * rng.rand()), 4),
        })
    # Vintage element ~70% of the time (absence triggers the sweep path)
    has_vintage_el = vintage is not None and rng.rand() < 0.7
    if has_vintage_el:
        tmpl = VINTAGE_TEMPLATES[rng.randint(0, len(VINTAGE_TEMPLATES))]
        elements.append({
            "cls": "Vintage", "box": [10.0, 30.0, 50.0, 45.0],
            "conf": round(float(0.4 + 0.6 * rng.rand()), 4),
            "truth_text": tmpl.format(y=vintage),
            "ocr_conf": round(float(0.5 + 0.5 * rng.rand()), 4),
        })
    # Distinct Logo bucket with sometimes-empty text
    if rng.rand() < 0.5:
        logo_txt = "" if rng.rand() < 0.4 else \
            f"{maker.upper()} {vintage if (vintage and rng.rand() < 0.3) else ''}".strip()
        elements.append({
            "cls": "Distinct Logo", "box": [60.0, 30.0, 90.0, 55.0],
            "conf": round(float(0.3 + 0.7 * rng.rand()), 4),
            "truth_text": logo_txt,
            "ocr_conf": round(float(rng.rand()), 4) if logo_txt else 0.0,
        })
    # Sub-threshold detection (filtered by the detect stage, conf < 0.01)
    if rng.rand() < 0.15:
        elements.append({
            "cls": "Maker-Name", "box": [0.0, 0.0, 10.0, 5.0],
            "conf": 0.005, "truth_text": "GHOST", "ocr_conf": 0.9,
        })
    background: List[str] = []
    if vintage is not None and not has_vintage_el and rng.rand() < 0.8:
        # digit-split year only the sweep's space-collapse can recover
        y = str(vintage)
        background.append(" ".join(y) if rng.rand() < 0.3 else f"est. {y}")
    if rng.rand() < 0.3:
        background.append(DECOYS[rng.randint(0, len(DECOYS))])

    barcode = None
    if rng.rand() < 0.3:
        barcode = "".join(str(d) for d in rng.randint(0, 10, size=12))

    img = _make_gray_image(rng)
    header = {
        "w": IMG_W, "h": IMG_H, "elements": elements,
        "barcode": barcode, "background_texts": background,
    }
    return json.dumps(header, ensure_ascii=False).encode("utf-8") + \
        PAYLOAD_SEP + img.tobytes()


class DecodedPayloads(NamedTuple):
    """A payload column decoded in place. Row i's header is
    ``headers[i]`` and its gray image the ``shapes[i]`` block of
    ``data`` at ``starts[i]``; ``ok[i]`` is False, and the header None,
    where the payload is null or cannot be decoded."""
    headers: List[Optional[Dict]]
    ok: np.ndarray
    shapes: np.ndarray
    starts: np.ndarray
    data: np.ndarray

    def gray(self, i: int) -> np.ndarray:
        h, w = self.shapes[i].tolist()
        return self.data[self.starts[i]:self.starts[i] + h * w].reshape(h, w)

    def grays(self, rows: np.ndarray) -> List[np.ndarray]:
        """``gray(i)`` of every i in ``rows``."""
        return [self.data[s:s + h * w].reshape(h, w) for s, (h, w) in
                zip(self.starts[rows].tolist(), self.shapes[rows].tolist())]


def _loads_paused(text: str):
    """``json.loads`` with the cyclic garbage collector paused. A batch's
    headers stay alive together, so while they are built the collector
    would keep rescanning them; JSON values hold no reference cycles, so
    it has nothing to find in them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


# the string value between the headers of a batch parse (_parse_headers)
_JOINT = b'"~joint~"'


def _parse_headers(texts: List[memoryview]) -> List:
    """JSON headers, None where one does not parse: what ``json.loads``
    gives each text on its own, via one ``json.loads`` of the list
    ``[t1, J, t2, J, ..., tn]`` (J the ``_JOINT`` string). That parse is
    kept only when it can hold nothing but the texts' own values: no
    text has a backslash, so every string is its literal bytes and J's
    bytes occur only at the n-1 joints; if the list then holds J at every
    odd index and 2n-1 items, each joint sits at the top level of the
    list and each text is exactly one item. Otherwise every text is
    parsed on its own, so a corrupt header costs only its own row."""
    joined = (b"," + _JOINT + b",").join(texts)
    if b"\\" not in joined and joined.count(_JOINT) == len(texts) - 1:
        try:
            items = _loads_paused("[" + str(joined, "utf-8") + "]")
        except ValueError:
            items = []
        joint = _JOINT[1:-1].decode()
        if len(items) == 2 * len(texts) - 1 \
                and items[1::2].count(joint) == len(texts) - 1:
            return items[::2]
    out = []
    for text in texts:
        try:
            out.append(json.loads(str(text, "utf-8")))
        except ValueError:
            out.append(None)
    return out


def _pixel_shape(header, data: np.ndarray, start: int,
                 size: int) -> Optional[Tuple[int, int]]:
    """The shape ``reshape(header["h"], header["w"])`` gives the
    ``size`` pixel bytes at ``start``, None if it raises."""
    try:
        h, w = header["h"], header["w"]
        if type(h) is int and type(w) is int and h >= 0 and w >= 0 \
                and h * w == size:
            return h, w
        return data[start:start + size].reshape(h, w).shape
    except (KeyError, TypeError, ValueError):
        return None


def decode_payloads(payloads) -> DecodedPayloads:
    """Decodes a binary column of payloads (an Arrow array or chunked
    array, binary or large_binary) without copying pixels: the chunks
    are joined as one large_binary array, so a batch may hold more than
    2 GiB of payloads; the separator is found by one ``find_substring``
    and the headers are parsed by one ``json.loads``
    (``_parse_headers``). A payload without a separator, with a header
    that does not parse or whose dims do not fit its pixel bytes is not
    ``ok``."""
    payloads = payloads.cast(pa.large_binary())
    if isinstance(payloads, pa.ChunkedArray):
        payloads = payloads.chunk(0) if payloads.num_chunks == 1 \
            else payloads.combine_chunks()
    n = len(payloads)
    bufs = payloads.buffers()
    offsets = np.frombuffer(bufs[1], np.int64)[
        payloads.offset:payloads.offset + n + 1]
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None \
        else np.zeros(0, np.uint8)
    data.flags.writeable = False
    sep = pc.fill_null(pc.find_substring(payloads, PAYLOAD_SEP),
                       -1).to_numpy()
    found = np.flatnonzero(sep >= 0)
    head = offsets[found].astype(np.int64)
    head_end = head + sep[found]
    pixels = head_end + len(PAYLOAD_SEP)
    sizes = offsets[found + 1] - pixels
    view = memoryview(data)
    texts = [view[a:b] for a, b in zip(head.tolist(), head_end.tolist())]
    parsed = _parse_headers(texts)
    dims = [_pixel_shape(hdr, data, start, size) for hdr, start, size in
            zip(parsed, pixels.tolist(), sizes.tolist())]
    good = [j for j, shape in enumerate(dims) if shape is not None]
    rows = found[good]
    headers: List[Optional[Dict]] = [None] * n
    for i, j in zip(rows.tolist(), good):
        headers[i] = parsed[j]
    ok = np.zeros(n, dtype=bool)
    ok[rows] = True
    shapes = np.zeros((n, 2), dtype=np.int64)
    shapes[rows] = np.array([dims[j] for j in good],
                            dtype=np.int64).reshape(-1, 2)
    starts = np.zeros(n, dtype=np.int64)
    starts[rows] = pixels[good]
    return DecodedPayloads(headers, ok, shapes, starts, data)


def decode_payload(payload: bytes) -> Tuple[Dict, np.ndarray]:
    """Parse a payload binary back into (header dict, gray image):
    ``decode_payloads`` of one payload. Raises ValueError if it cannot
    be decoded."""
    dec = decode_payloads(pa.array([payload], pa.binary()))
    if not dec.ok[0]:
        raise ValueError("corrupt media payload")
    return dec.headers[0], dec.gray(0)


def generate_doc(seed: int, doc_index: int):
    """One document + its media payloads. Returns
    (doc_row, [(media_ref, payload_bytes), ...])."""
    rng = _doc_rng(seed, doc_index)
    doc_id = f"doc-{doc_index:08d}"
    maker = MAKERS[rng.randint(0, len(MAKERS))]
    vintage = int(1990 + rng.randint(0, 36)) if rng.rand() < 0.8 else None

    media_heavy = rng.rand() < 0.02
    if media_heavy:
        n_spans = int(rng.randint(8, 13))
        kinds = ["media"] * n_spans
        # keep at least one text span so both legs see the doc
        kinds[int(rng.randint(0, n_spans))] = "text"
    else:
        n_spans = int(rng.randint(1, 13))
        kinds = ["text" if rng.rand() < 0.7 else "media" for _ in range(n_spans)]

    spans = []
    media_rows = []
    for offset, kind in enumerate(kinds):
        if kind == "text":
            spans.append({"kind": "text",
                          "text": _make_text_span(rng, vintage),
                          "media_ref": "", "offset": offset})
        else:
            ref = f"m-{doc_index:08d}-{offset:03d}"
            payload = _make_media_payload(rng, maker, vintage)
            media_rows.append((ref, payload))
            spans.append({"kind": "media", "text": "",
                          "media_ref": ref, "offset": offset})
    return {"doc_id": doc_id, "spans": spans}, media_rows


def _write_shard(out_dir: str, seed: int, shard: int, lo: int, hi: int) -> int:
    docs, media = [], []
    for i in range(lo, hi):
        doc, mrows = generate_doc(seed, i)
        docs.append(doc)
        media.extend(mrows)
    media.sort(key=lambda r: r[0])
    doc_table = pa.Table.from_pylist(docs, schema=DOC_SCHEMA)
    media_table = pa.Table.from_arrays(
        [pa.array([r[0] for r in media], pa.string()),
         pa.array([r[1] for r in media], pa.binary())],
        schema=MEDIA_SCHEMA)
    pq.write_table(doc_table,
                   os.path.join(out_dir, "documents", f"part-{shard:04d}.parquet"))
    pq.write_table(media_table,
                   os.path.join(out_dir, "media", f"part-{shard:04d}.parquet"),
                   row_group_size=1024)
    return len(media)


def _derive_rows(seed: int, start: int, src_ids, texts):
    """Synthesize interleaved docs + media payloads for source rows
    [start, start+len(src_ids)). Pure in (seed, global row index) —
    the parallel fan-out below concatenates ranges in order, so output
    is byte-identical to a single serial pass."""
    docs, media = [], []
    for off, (src_id, text) in enumerate(zip(src_ids, texts)):
        i = start + off
        rng = _doc_rng(seed, i)
        doc_id = f"doc-{int(src_id):08d}"
        maker = MAKERS[rng.randint(0, len(MAKERS))]
        vintage = int(1990 + rng.randint(0, 36)) if rng.rand() < 0.8 else None
        words = (text or "").split()
        n_chunks = max(1, min(6, len(words) // 12))
        bounds = np.linspace(0, len(words), n_chunks + 1).astype(int)
        chunks = [" ".join(words[bounds[j]:bounds[j + 1]])
                  for j in range(n_chunks)]
        n_media = int(rng.randint(0, 4))
        kinds = ["text"] * n_chunks + ["media"] * n_media
        order = rng.permutation(len(kinds))
        spans = []
        ci = 0
        for offset, k in enumerate(kinds[j] for j in order):
            if k == "text":
                spans.append({"kind": "text",
                              "text": _maybe_markup(rng, chunks[ci]),
                              "media_ref": "", "offset": offset})
                ci += 1
            else:
                ref = f"m-{i:08d}-{offset:03d}"
                media.append((ref, _make_media_payload(rng, maker, vintage)))
                spans.append({"kind": "media", "text": "",
                              "media_ref": ref, "offset": offset})
        docs.append({"doc_id": doc_id, "spans": spans})
    return docs, media


def derive_corpus_from_documents(documents_parquet: str, out_dir: str,
                                 seed: int = 42) -> str:
    """Build an interleaved corpus from a flat documents table (the
    driver's ``documents.parquet``): each source row's text is split
    into text spans and deterministic media spans are interleaved
    (payloads synthesized per-doc from the seeded generator). Idempotent
    per (source path, seed)."""
    manifest_path = os.path.join(out_dir, "_corpus.json")
    spec = {"source": documents_parquet, "seed": seed, "version": 3}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            if json.load(f) == spec:
                return out_dir
    import shutil
    shutil.rmtree(os.path.join(out_dir, "documents"), ignore_errors=True)
    shutil.rmtree(os.path.join(out_dir, "media"), ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "documents"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "media"), exist_ok=True)
    src = pq.read_table(documents_parquet, columns=["doc_id", "text"])
    n = src.num_rows
    src_ids = src.column("doc_id").to_pylist()
    texts = src.column("text").to_pylist()
    # the per-doc synthesis is embarrassingly parallel over row ranges
    # (the RNG is keyed on (seed, global row index)); fan it out as Ray
    # tasks instead of a driver-side O(n) loop (VERDICT r4 item 8) —
    # byte-identical to the serial form because ranges are concatenated
    # in order and refs/doc order never depended on execution order
    import ray
    chunk = 4000
    if ray.is_initialized() and n > chunk:
        from ._rayprep import ensure_serializable
        ensure_serializable()  # _derive_rows must ship by value
        fn = ray.remote(_derive_rows)
        parts = ray.get([
            fn.remote(seed, lo, src_ids[lo:lo + chunk],
                      texts[lo:lo + chunk])
            for lo in range(0, n, chunk)])
    else:
        parts = [_derive_rows(seed, 0, src_ids, texts)]
    docs = [d for p in parts for d in p[0]]
    media = [m for p in parts for m in p[1]]
    media.sort(key=lambda r: r[0])
    pq.write_table(pa.Table.from_pylist(docs, schema=DOC_SCHEMA),
                   os.path.join(out_dir, "documents", "part-0000.parquet"))
    pq.write_table(pa.Table.from_arrays(
        [pa.array([r[0] for r in media], pa.string()),
         pa.array([r[1] for r in media], pa.binary())], schema=MEDIA_SCHEMA),
        os.path.join(out_dir, "media", "part-0000.parquet"),
        row_group_size=1024)
    with open(manifest_path, "w") as f:
        json.dump(spec, f)
    return out_dir


def generate_corpus(out_dir: str, num_docs: int, seed: int = 42,
                    num_shards: Optional[int] = None,
                    use_ray: bool = False) -> str:
    """Write the corpus; returns out_dir. Idempotent: if a matching
    manifest exists the corpus is reused."""
    manifest_path = os.path.join(out_dir, "_corpus.json")
    spec = {"num_docs": num_docs, "seed": seed, "version": 3}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            if json.load(f) == spec:
                return out_dir
    if num_shards is None:
        num_shards = max(1, min(64, num_docs // 500))
    import shutil
    shutil.rmtree(os.path.join(out_dir, "documents"), ignore_errors=True)
    shutil.rmtree(os.path.join(out_dir, "media"), ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "documents"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "media"), exist_ok=True)
    bounds = np.linspace(0, num_docs, num_shards + 1).astype(int)
    if use_ray:
        import ray

        from ._rayprep import ensure_serializable
        ensure_serializable()  # _write_shard must ship by value
        fn = ray.remote(_write_shard)
        ray.get([fn.remote(out_dir, seed, s, int(bounds[s]), int(bounds[s + 1]))
                 for s in range(num_shards)])
    else:
        for s in range(num_shards):
            _write_shard(out_dir, seed, s, int(bounds[s]), int(bounds[s + 1]))
    with open(manifest_path, "w") as f:
        json.dump(spec, f)
    return out_dir
