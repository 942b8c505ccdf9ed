"""M14 stitch, M16 detector-ROI override, M21 sweep-cap contract, and
the engine-factory seam (VERDICT round-1 items 8-9 + missing 1-2)."""

import numpy as np
import pytest

from wine_label_ocr_ray.functions.imaging import (resize_bilinear,
                                                  stitch_horizontal)


def test_stitch_equal_heights_is_exact_hstack():
    a = np.arange(12, dtype=np.uint8).reshape(3, 4)
    b = np.arange(6, dtype=np.uint8).reshape(3, 2) + 100
    s = stitch_horizontal(a, b)
    assert s.shape == (3, 6)
    assert (s[:, :4] == a).all() and (s[:, 4:] == b).all()


def test_stitch_height_mismatch_rescales_right():
    a = np.zeros((40, 10), dtype=np.uint8)
    b = np.full((20, 8), 200, dtype=np.uint8)
    s = stitch_horizontal(a, b)
    # reference law: scale = h1/h2 = 2 -> right width int(8*2) = 16
    assert s.shape == (40, 26)
    assert (s[:, :10] == 0).all()
    assert (s[:, 10:] == 200).all()  # constant image survives resize


def test_resize_bilinear_identity_and_range():
    img = np.random.RandomState(0).randint(0, 255, (17, 23), np.uint8)
    assert (resize_bilinear(img, 17, 23) == img).all()
    up = resize_bilinear(img, 34, 46)
    assert up.shape == (34, 46)
    assert up.min() >= img.min() and up.max() <= img.max()


def test_stitch_pipeline_rows(ray_session, tmp_path):
    from wine_label_ocr_ray.stages.stitch import build_stitch_pipeline
    from wine_label_ocr_ray.synth import generate_corpus
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=120, seed=11)
    out = build_stitch_pipeline(corpus).to_pandas()
    assert len(out) > 0
    assert (out.stitched_h > 0).all() and (out.stitched_w > 0).all()
    assert out.checksum.notna().all()
    assert out.doc_id.is_unique
    # determinism: a second run is byte-identical
    out2 = build_stitch_pipeline(corpus).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_stitch_matches_manual_pair(ray_session, tmp_path):
    """Oracle equality: stitch of the first doc's first two media
    payloads computed independently equals the pipeline row."""
    import hashlib

    from wine_label_ocr_ray.sources.media import MediaStore
    from wine_label_ocr_ray.stages.spans import explode_spans
    from wine_label_ocr_ray.stages.stitch import build_stitch_pipeline
    from wine_label_ocr_ray.state.engines import decode_payload
    from wine_label_ocr_ray.synth import generate_corpus
    import os
    import pyarrow.dataset as pads

    corpus = str(tmp_path / "corpus2")
    generate_corpus(corpus, num_docs=60, seed=3)
    out = build_stitch_pipeline(corpus).to_pandas().set_index("doc_id")

    docs = pads.dataset(os.path.join(corpus, "documents")).to_table()
    rows = explode_spans(docs).to_pandas()
    media = rows[rows.kind == "media"].sort_values(["doc_id", "offset"])
    store = MediaStore(os.path.join(corpus, "media"))
    checked = 0
    for doc_id, g in media.groupby("doc_id"):
        if len(g) < 2 or doc_id not in out.index:
            continue
        refs = g["media_ref"].tolist()[:2]
        payloads = store.fetch(refs)
        _, ga = decode_payload(payloads[refs[0]])
        _, gb = decode_payload(payloads[refs[1]])
        s = stitch_horizontal(ga, gb)
        row = out.loc[doc_id]
        assert (row.stitched_h, row.stitched_w) == s.shape
        assert row.checksum == hashlib.md5(s.tobytes()).hexdigest()[:16]
        checked += 1
        if checked >= 5:
            break
    assert checked >= 1


def _pair_first_two_bucket(g):
    """Reference: the pair selection of the shuffle plan this module
    replaced (rank each doc's media span rows by a stable sort on
    (doc_id, offset), inner-join rank 0 with rank 1)."""
    g = g.sort_values(["doc_id", "offset"], kind="stable")
    rank = g.groupby("doc_id", sort=False).cumcount()
    firsts = g.loc[rank == 0, ["doc_id", "media_ref"]].rename(
        columns={"media_ref": "ref_a"})
    seconds = g.loc[rank == 1, ["doc_id", "media_ref"]].rename(
        columns={"media_ref": "ref_b"})
    return firsts.merge(seconds, on="doc_id", how="inner")


def _docs_table(docs):
    import pyarrow as pa

    from wine_label_ocr_ray.schema import DOC_SCHEMA
    return pa.Table.from_pylist(
        [{"doc_id": d, "spans": [
            {"kind": k, "text": "" if k == "media" else "t", "media_ref":
             r if k == "media" else "", "offset": o} for k, r, o in spans]}
         for d, spans in docs], schema=DOC_SCHEMA)


def test_first_two_media_matches_shuffle_reference():
    """The doc-row pair selection equals the old bucket shuffle's pandas
    pair selection: offset ties (span order wins), unsorted offsets,
    text spans between media spans, docs with 0, 1, 2 and >= 3 media
    spans, an empty doc, and chunked batches."""
    import pandas as pd
    import pyarrow as pa

    from wine_label_ocr_ray.stages.stitch import first_two_media
    docs = [
        ("d-empty", []),
        ("d-text", [("text", None, 0), ("text", None, 1)]),
        ("d-one", [("text", None, 0), ("media", "one-a", 1)]),
        ("d-two-unsorted", [("media", "u-late", 9), ("text", None, 5),
                            ("media", "u-early", 2)]),
        ("d-text-between", [("media", "b-0", 0), ("text", None, 1),
                            ("text", None, 2), ("media", "b-3", 3),
                            ("media", "b-4", 4)]),
        ("d-ties", [("media", "t-3a", 3), ("media", "t-3b", 3),
                    ("media", "t-1", 1), ("media", "t-3c", 3)]),
        ("d-tie-first", [("media", "f-a", 0), ("media", "f-b", 0),
                         ("text", None, 0)]),
    ]
    rng = np.random.RandomState(5)
    for i in range(300):
        spans = []
        for j in range(rng.randint(0, 9)):
            kind = "media" if rng.rand() < 0.5 else "text"
            spans.append((kind, f"r-{i}-{j}", int(rng.randint(0, 4))))
        docs.append((f"doc-{i:04d}", spans))
    table = _docs_table(docs)
    rows = [{"doc_id": d, "offset": o, "media_ref": r}
            for d, spans in docs for k, r, o in spans if k == "media"]
    want = _pair_first_two_bucket(pd.DataFrame(rows)) \
        .sort_values("doc_id").reset_index(drop=True)
    assert {"d-empty", "d-text", "d-one"}.isdisjoint(want.doc_id)
    assert len(want) > 100
    for t in (table, pa.concat_tables([table.slice(0, 150),
                                       table.slice(150)])):
        got = first_two_media(t).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)
    got = first_two_media(table).to_pandas().set_index("doc_id")
    assert tuple(got.loc["d-two-unsorted"]) == ("u-early", "u-late")
    assert tuple(got.loc["d-text-between"]) == ("b-0", "b-3")
    assert tuple(got.loc["d-ties"]) == ("t-1", "t-3a")
    assert tuple(got.loc["d-tie-first"]) == ("f-a", "f-b")
    assert first_two_media(table.slice(0, 0)).num_rows == 0


def _media_store_with(tmp_path, corpus, bad):
    """A copy of ``corpus``'s media store whose ``bad`` refs hold
    payloads that do not decode."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    media = pads.dataset(os.path.join(corpus, "media")).to_table()
    corrupt = pc.is_in(media["media_ref"], value_set=pa.array(bad))
    payload = pc.if_else(corrupt, pa.scalar(b"{not json", pa.binary()),
                         media["payload"])
    out = tmp_path / "media"
    out.mkdir()
    pq.write_table(media.set_column(1, "payload", payload),
                   str(out / "part-0.parquet"))
    return str(out)


def test_stitch_pairs_corrupt_or_missing_payload_costs_one_row(tmp_path):
    """A pair with an undecodable or missing payload gets the
    missing-pair row (0, 0, null); the batch's other pairs are
    stitched as before."""
    import hashlib
    import os

    import pyarrow as pa
    import pyarrow.dataset as pads

    from wine_label_ocr_ray.sources.media import MediaStore
    from wine_label_ocr_ray.stages.stitch import StitchPairs
    from wine_label_ocr_ray.synth import decode_payload, generate_corpus
    corpus = generate_corpus(str(tmp_path / "c"), num_docs=20, seed=3)
    refs = sorted(pads.dataset(os.path.join(corpus, "media")).to_table(
        columns=["media_ref"]).column("media_ref").to_pylist())
    refs_a, refs_b = refs[:6], refs[6:12]
    media_path = _media_store_with(tmp_path, corpus, [refs_b[1]])
    refs_b[2] = "no-such-ref"
    pairs = pa.table({"doc_id": [f"d-{i}" for i in range(6)],
                      "ref_a": refs_a, "ref_b": refs_b})
    out = StitchPairs(media_path)(pairs).to_pylist()
    assert [r["doc_id"] for r in out] == pairs.column("doc_id").to_pylist()
    for i in (1, 2):
        assert (out[i]["stitched_h"], out[i]["stitched_w"],
                out[i]["checksum"]) == (0, 0, None)
    store = MediaStore(os.path.join(corpus, "media"))
    for i in (0, 3, 4, 5):
        got = store.fetch([refs_a[i], refs_b[i]])
        s = stitch_horizontal(decode_payload(got[refs_a[i]])[1],
                              decode_payload(got[refs_b[i]])[1])
        assert (out[i]["stitched_h"], out[i]["stitched_w"]) == s.shape
        assert out[i]["checksum"] == hashlib.md5(
            s.tobytes()).hexdigest()[:16]


def test_stitch_plan_has_no_all_to_all_operator(ray_session, tmp_path):
    """Each doc row holds all of its spans, so the stitch plan pairs
    refs without an exchange: no Sort, Aggregate or Repartition."""
    from wine_label_ocr_ray.stages.stitch import build_stitch_pipeline
    from wine_label_ocr_ray.synth import generate_corpus

    def names(op):
        yield op.name
        for dep in op.input_dependencies:
            yield from names(dep)
    corpus = generate_corpus(str(tmp_path / "c"), num_docs=20, seed=1)
    ops = list(names(build_stitch_pipeline(corpus)._logical_plan.dag))
    assert any("StitchPairs" in n for n in ops), ops
    assert not [n for n in ops
                if n.split("(")[0] in ("Sort", "Aggregate", "Repartition")]


def test_roi_detector_override_and_fallback():
    from wine_label_ocr_ray.functions.enhance import (
        find_label_roi, find_label_roi_with_detections)
    img = np.zeros((100, 200), dtype=np.uint8)
    img[30:70, 60:140] = 180
    dets = [{"class": "maker_name", "box": [50, 25, 150, 75],
             "confidence": 0.95},
            {"class": "vintage", "box": [0, 0, 20, 20],
             "confidence": 0.99}]
    # best-confidence box wins, 10px pad, clamped
    assert find_label_roi_with_detections(img, dets) == (0, 0, 30, 30)
    # below-threshold detections fall back to the heuristic
    weak = [{"class": "x", "box": [50, 25, 150, 75], "confidence": 0.5}]
    assert find_label_roi_with_detections(img, weak) == find_label_roi(img)
    assert find_label_roi_with_detections(img, []) == find_label_roi(img)
    # clamping at the far edge
    edge = [{"class": "x", "box": [150, 60, 199, 99], "confidence": 0.9}]
    assert find_label_roi_with_detections(img, edge) == (140, 50, 200, 100)


def test_blob_analyzer_uses_detector_box():
    from wine_label_ocr_ray.state.engines import BlobAnalyzer
    img = np.zeros((80, 120), dtype=np.uint8)
    img[20:60, 30:90] = 200
    dets = [{"class": "maker_name", "box": [30, 20, 90, 60],
             "confidence": 0.9}]
    overridden = BlobAnalyzer(30.0, crop_label=True).analyze(
        img, detections=dets)
    # 10px pad around the detection box -> ROI (20,10)-(100,70)
    assert overridden["roi_shape"] == [60, 80]
    heuristic = BlobAnalyzer(30.0, crop_label=True).analyze(img)
    assert heuristic["roi_shape"] != [80, 120]


def test_ocr_sweep_cap_contract():
    """The sweep cap reaches the engine; default implementation is the
    ocr_full view; a custom adapter sees the configured bound."""
    from wine_label_ocr_ray.state.engines import (OcrEngine,
                                                  SyntheticOcrEngine)

    decoded = {"elements": [{"truth_text": "CHATEAU 2019", "ocr_conf": 0.9,
                             "box": [0, 0, 10, 10], "cls": "vintage"}],
               "background_texts": ["noise"]}
    syn = SyntheticOcrEngine()
    assert syn.ocr_sweep(decoded, 75) == syn.ocr_full(decoded)

    seen = {}

    class CountingOcr(OcrEngine):
        def ocr_box(self, d, box):
            return [], []

        def ocr_full(self, d):
            return []

        def ocr_sweep(self, d, max_variants=75, gray=None):
            seen["cap"] = max_variants
            return ["2016"]

    from wine_label_ocr_ray.stages.media import extract_media_fields
    from wine_label_ocr_ray.state.engines import SyntheticBarcodeEngine
    decoded_full = {"w": 64, "h": 48, "elements": [],
                    "background_texts": []}
    gray = np.zeros((48, 64), dtype=np.uint8)
    fields = extract_media_fields(
        decoded_full, gray, [],
        ocr_engine=CountingOcr(),
        barcode_engine=SyntheticBarcodeEngine(),
        sweep_max_variants=42)
    assert seen["cap"] == 42
    assert fields["vintage_str"] == "2016"


def test_ultralytics_detect_batch_one_model_call(monkeypatch):
    """``UltralyticsDetect.detect_batch`` runs the model once per batch
    (a fake ``ultralytics`` module stands in for the package) and gives
    every image the detections a per-image ``detect`` gives it."""
    import sys
    import types

    from wine_label_ocr_ray.state.adapters import UltralyticsDetect

    class Tensor:
        def __init__(self, values):
            self.values = np.asarray(values, dtype=np.float32)

        def cpu(self):
            return self

        def numpy(self):
            return self.values

    def result(level):
        """Image content decides its boxes: a result without boxes
        (level 3) or ``level % 4`` boxes of class ids 0-3, id 3 having
        no reference class name (it maps to "3")."""
        if level == 3:
            return types.SimpleNamespace(boxes=None)
        k = level % 4
        return types.SimpleNamespace(boxes=types.SimpleNamespace(
            xyxy=Tensor(np.reshape([[level, 2 * j, level + 10.5,
                                     2 * j + 4.25] for j in range(k)],
                                   (k, 4))),
            cls=Tensor([(level + j) % 4 for j in range(k)]),
            conf=Tensor([0.5 + 0.125 * j for j in range(k)])))

    calls = []

    class YOLO:
        def __init__(self, weights):
            self.weights = weights

        def __call__(self, images, conf, verbose):
            calls.append((len(images), conf))
            return [result(int(img[0, 0])) for img in images]

    monkeypatch.setitem(sys.modules, "ultralytics",
                        types.SimpleNamespace(YOLO=YOLO))
    det = UltralyticsDetect("w.pt", confidence_threshold=0.25)
    decoded = [{"pixels": np.full((6, 8), level, np.uint8)}
               for level in (0, 1, 2, 3, 5, 6, 7)]
    batch = det.detect_batch(decoded)
    assert calls == [(7, 0.25)]
    per_image = [det.detect(d) for d in decoded]
    assert len(calls) == 1 + len(decoded)
    assert batch.per_image(len(decoded)) == per_image
    assert [len(d) for d in per_image] == [0, 1, 2, 0, 1, 2, 3]
    assert per_image[6] == [
        {"class": "3", "box": [7.0, 0.0, 17.5, 4.25], "confidence": 0.5},
        {"class": "Distinct Logo", "box": [7.0, 2.0, 17.5, 6.25],
         "confidence": 0.625},
        {"class": "Maker-Name", "box": [7.0, 4.0, 17.5, 8.25],
         "confidence": 0.75}]
    assert det.detect_batch([]).per_image(0) == [] and len(calls) == 8


def test_engine_factory_seam(ray_session, tmp_path):
    """A second (non-synthetic) engine factory plugs through
    PipelineConfig.engines into the actor pool and visibly changes the
    pipeline output — proving the ABC seam with a real pipeline run."""
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
    from wine_label_ocr_ray.synth import generate_corpus

    corpus = str(tmp_path / "corpus3")
    generate_corpus(corpus, num_docs=40, seed=5)

    # adapter smoke: same ABCs, trivially different behavior (reads
    # nothing). Defined INSIDE the test so cloudpickle ships it by
    # value — a test-module-level function pickles by reference and
    # Ray workers cannot import tests/.
    def blind_engines(confidence_threshold: float = 0.01):
        from wine_label_ocr_ray.state.engines import (
            OcrEngine, SyntheticBarcodeEngine, SyntheticDetectEngine)

        class BlindOcr(OcrEngine):
            def ocr_box(self, decoded, box):
                return [], []

            def ocr_full(self, decoded):
                return []

        return (SyntheticDetectEngine(confidence_threshold), BlindOcr(),
                SyntheticBarcodeEngine())

    base = build_extract_pipeline(corpus).to_pandas()
    alt = build_extract_pipeline(
        corpus, PipelineConfig(engines=blind_engines)).to_pandas()
    assert len(base) == len(alt) == 40
    assert base.maker_name.notna().any()
    assert alt.maker_name.isna().all()      # blind OCR finds nothing
    assert alt.barcode.equals(base.barcode)  # barcode engine unchanged


def test_sweep_variant_enumeration_matches_reference_shape():
    """M21 image-side fan-out: 5 preprocess versions x 5 regions x
    [unrotated, -5, +5] = 75 variants in the reference's nesting
    order (final_run_ocr.py:236-272), hard-capped by max_variants."""
    from wine_label_ocr_ray.functions.enhance import (sweep_regions,
                                                      sweep_variant_crops)
    rng = np.random.RandomState(3)
    gray = rng.randint(0, 255, size=(60, 90)).astype(np.uint8)
    variants = list(sweep_variant_crops(gray, 75))
    assert len(variants) == 75
    # ordering: versions outer, regions middle, angles inner
    labels = [(v, r, a) for v, r, a, _ in variants]
    versions = ["original", "red_enhanced", "red_mask", "high_contrast",
                "sharpened"]
    regions = [n for n, _ in sweep_regions(90, 60)]
    expect = [(v, r, a) for v in versions for r in regions
              for a in (0.0, -5.0, 5.0)]
    assert labels == expect
    # region geometry: crops match the reference slices
    by_region = {r: c.shape for v, r, a, c in variants
                 if v == "original" and a == 0.0}
    assert by_region["full"] == (60, 90)
    assert by_region["top_half"] == (30, 90)
    assert by_region["middle_band"] == (20, 90)
    assert by_region["left_third"] == (60, 30)
    assert by_region["right_third"] == (60, 30)
    # hard cap honored mid-enumeration
    assert len(list(sweep_variant_crops(gray, 13))) == 13
    # deterministic
    again = list(sweep_variant_crops(gray, 75))
    assert all((a[3] == b[3]).all() for a, b in zip(variants, again))


def test_pixel_sweep_ocr_mixin_runs_real_fanout():
    """PixelSweepOcr.ocr_sweep drives ocr_pixels once per variant,
    honors the cap, and concatenates every variant's texts for the
    text-side reduction."""
    from wine_label_ocr_ray.functions.text import sweep_year_from_texts
    from wine_label_ocr_ray.state.engines import OcrEngine, PixelSweepOcr

    calls = []

    class PixelOcr(PixelSweepOcr, OcrEngine):
        def ocr_box(self, d, box):
            return [], []

        def ocr_full(self, d):
            return ["full-view"]

        def ocr_pixels(self, img):
            calls.append(img.shape)
            # only the 40th variant "reads" a year
            return ["vintage 2017"] if len(calls) == 40 else ["noise"]

    eng = PixelOcr()
    gray = np.full((48, 66), 128, dtype=np.uint8)
    texts = eng.ocr_sweep({}, 75, gray=gray)
    assert len(calls) == 75
    assert texts.count("vintage 2017") == 1 and len(texts) == 75
    assert sweep_year_from_texts(texts) == "2017"
    # cap propagates to the OCR call count
    calls.clear()
    eng.ocr_sweep({}, 10, gray=gray)
    assert len(calls) == 10
    # no pixels -> ocr_full fallback, no crash
    assert eng.ocr_sweep({}, 75) == ["full-view"]


def test_ocr_sweeps_without_grays_sweeps_each_image_without_pixels():
    """``ocr_sweeps`` called without ``grays`` gives each image's
    ``ocr_sweep`` no pixels: the base engine and ``PixelSweepOcr``
    both answer with the ``ocr_full`` view."""
    from wine_label_ocr_ray.state.engines import OcrEngine, PixelSweepOcr

    class Minimal(OcrEngine):
        def ocr_box(self, d, box):
            return [], []

        def ocr_full(self, d):
            return [f"full-{d['id']}"]

    class Pixel(PixelSweepOcr, Minimal):
        pass

    images = [{"id": 0}, {"id": 1}]
    for eng in (Minimal(), Pixel()):
        assert eng.ocr_sweeps(images) == [["full-0"], ["full-1"]]
        assert eng.ocr_sweeps(images, 5) == [["full-0"], ["full-1"]]


def test_production_adapter_registry_and_import_guard():
    """VERDICT r4 item 4: the production adapters resolve by name
    through the factory seam; without ultralytics/paddleocr/pyzbar in
    the environment each raises an ImportError naming the pip package
    (never a NameError/AttributeError), and with them present the
    classes construct (skip-proofed both ways)."""
    import importlib.util

    from wine_label_ocr_ray.state import adapters as A
    from wine_label_ocr_ray.state.engines import (ENGINE_FACTORIES,
                                                  resolve_engines)

    assert ENGINE_FACTORIES["production"] is A.production_engines

    have = {name: importlib.util.find_spec(mod) is not None
            for name, mod in (("ultralytics", "ultralytics"),
                              ("paddleocr", "paddleocr"),
                              ("pyzbar", "pyzbar"))}
    if not all(have.values()):
        with pytest.raises(ImportError) as ei:
            resolve_engines("production")
        assert "pip install" in str(ei.value)
    else:  # pragma: no cover - packages absent from the sandbox
        det, ocr, bar = resolve_engines("production")
        assert hasattr(det, "detect") and hasattr(ocr, "ocr_sweep")

    # per-class guard messages name the exact missing package
    for cls, pkg in ((A.UltralyticsDetect, "ultralytics"),
                     (A.PaddleOcr, "paddleocr"),
                     (A.PyzbarBarcode, "pyzbar")):
        if not have[pkg]:
            with pytest.raises(ImportError) as ei:
                cls("w.pt") if pkg == "ultralytics" else cls()
            assert pkg in str(ei.value)


def test_production_adapter_pixel_contract():
    """Adapters refuse the synthetic (pixel-free) decoded payload with
    an actionable error instead of misbehaving."""
    from wine_label_ocr_ray.state import adapters as A

    with pytest.raises(ValueError, match="pixels"):
        A._pixels({"w": 4, "h": 4})
    # grayscale passthrough + BGR luma conversion shape contract
    img = np.zeros((3, 3), dtype=np.uint8)
    assert A._to_gray(img) is img
    bgr = np.zeros((2, 2, 3), dtype=np.uint8)
    bgr[..., 2] = 255  # pure red in BGR -> luma 255*0.299 = 76.245
    g = A._to_gray(bgr)
    assert g.shape == (2, 2) and g.dtype == np.uint8 and int(g[0, 0]) == 76
