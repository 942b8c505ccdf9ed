"""Debug PGM side-output (K3 analog)."""

import glob
import os

import numpy as np

from wine_label_ocr_ray.stages.debug_sink import write_pgm


def test_write_pgm_roundtrip(tmp_path):
    img = np.arange(120, dtype=np.uint8).reshape(10, 12)
    p = str(tmp_path / "x.pgm")
    write_pgm(p, img)
    raw = open(p, "rb").read()
    assert raw.startswith(b"P5\n12 10\n255\n")
    body = raw.split(b"255\n", 1)[1]
    assert np.frombuffer(body, dtype=np.uint8).reshape(10, 12).tolist() == \
        img.tolist()


def test_pipeline_debug_out(ray_session, tmp_path):
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
    from wine_label_ocr_ray.synth import generate_corpus
    corpus = str(tmp_path / "c")
    generate_corpus(corpus, num_docs=40, seed=11)
    dbg = str(tmp_path / "dbg")
    cfg = PipelineConfig(debug_out=dbg)
    n = build_extract_pipeline(corpus, cfg).count()
    assert n == 40
    pgms = glob.glob(os.path.join(dbg, "*.pgm"))
    assert len(pgms) > 0
    assert open(pgms[0], "rb").read(2) == b"P5"


def test_compose_debug_layout_and_annotations():
    """The hybrid.py:367-405 composite port: 2x2 padded quadrants,
    quadrant titles stamped, blob rectangles + centroid dots drawn."""
    from wine_label_ocr_ray.stages.debug_sink import (blob_overlay,
                                                      compose_debug,
                                                      draw_rect, draw_text)
    H, W = 60, 80
    gray = np.full((H, W), 40, dtype=np.uint8)
    mask = np.zeros((H, W), dtype=np.uint8)
    mask[20:30, 30:50] = 255
    blobs = [{"x": 30, "y": 20, "w": 19, "h": 9, "cx": 39.5, "cy": 24.5,
              "area": 200.0, "aspect_ratio": 2.0, "solidity": 1.0,
              "extent": 1.0}]
    out = compose_debug(gray, mask, blobs)
    assert out.shape == (2 * H + 40, 2 * W + 40)
    # original quadrant carries the gray image unmodified outside text
    assert out[20 + H - 1, 20 + W - 1] == 40
    # mask quadrant carries the mask
    assert out[20 + 25, W + 40 + 40] == 255
    # titles stamped: nonzero pixels in each quadrant's title strip
    # beyond the underlying image values
    assert (out[25:35, 25:100] == 255).any()            # ORIGINAL ROI
    assert (out[H + 45:H + 55, 25:140] == 255).any()    # BLOB DETECTION
    assert (out[H + 45:H + 55, W + 45:] > 0).any()      # BLOB STATS
    # overlay quadrant: rectangle outline at the blob border
    ov = blob_overlay(gray, mask, blobs)
    assert ov[20, 30] == 255 and ov[29, 49] == 255      # outline corners
    assert ov[24, 39] == 255                            # centroid dot
    # blend: mask interior (not on the outline) is 0.8*40+0.2*255=83
    assert ov[25, 35] in (83, 84) or ov[25, 35] == 255
    # draw primitives clip instead of raising at borders
    img = np.zeros((10, 10), dtype=np.uint8)
    draw_rect(img, -5, -5, 30, 30, 255)
    draw_text(img, "ABC", 6, 6)


def test_pipeline_debug_out_writes_both_artifacts(ray_session, tmp_path):
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
    from wine_label_ocr_ray.synth import generate_corpus
    corpus = str(tmp_path / "c2")
    generate_corpus(corpus, num_docs=30, seed=13)
    dbg = str(tmp_path / "dbg2")
    cfg = PipelineConfig(debug_out=dbg)
    build_extract_pipeline(corpus, cfg).count()
    debugs = glob.glob(os.path.join(dbg, "*_debug.pgm"))
    overlays = glob.glob(os.path.join(dbg, "*_blobs_only.pgm"))
    assert debugs and overlays
    assert {os.path.basename(p).replace("_debug.pgm", "")
            for p in debugs} == \
        {os.path.basename(p).replace("_blobs_only.pgm", "")
         for p in overlays}


def test_debug_sink_skips_corrupt_and_missing_payloads(tmp_path):
    """A payload that does not decode is skipped like a missing ref:
    the batch passes through and every decodable media span still gets
    its two artifacts."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.stages.debug_sink import DebugImageSink
    from wine_label_ocr_ray.synth import generate_corpus
    corpus = generate_corpus(str(tmp_path / "c"), num_docs=10, seed=2)
    media = pads.dataset(os.path.join(corpus, "media")).to_table()
    good_a, bad, good_b = sorted(media.column("media_ref").to_pylist())[:3]
    payload = pc.if_else(pc.equal(media["media_ref"], bad),
                         pa.scalar(b"{not json", pa.binary()),
                         media["payload"])
    os.makedirs(tmp_path / "media")
    pq.write_table(media.set_column(1, "payload", payload),
                   str(tmp_path / "media" / "part-0.parquet"))

    def span(kind, ref):
        return {"kind": kind, "media_ref": ref}
    batch = pa.table({"doc_id": ["a", "b", "c"], "spans": [
        [span("media", good_a), span("text", "")],
        [span("media", bad), span("media", "no-such-ref")],
        [span("media", good_b)]]})
    dbg = str(tmp_path / "dbg")
    sink = DebugImageSink(str(tmp_path / "media"), dbg,
                          limit_per_actor=None)
    assert sink(batch) is batch
    assert sorted(os.listdir(dbg)) == sorted(
        f"{r}_{suffix}.pgm" for r in (good_a, good_b)
        for suffix in ("debug", "blobs_only"))
