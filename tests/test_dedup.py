"""Dedup-decision (J1/J2), blob near-dup (D4), multimodal stubs, and
LSH-ANN recall tests. Decision fixtures follow FIXTURES.md F7."""

import numpy as np
import pytest

from wine_label_ocr_ray.functions.text import canonical_key, hash_id
from wine_label_ocr_ray.stages.dedup import best_match
from wine_label_ocr_ray.stages.multimodal import (DecodeBackend,
                                                  DeterministicFakeBackend,
                                                  ImageFeatureStage)

# DB = the golden cellar rows (FIXTURES.md F4)
DB = [
    {"maker_norm": mn, "vintage": v,
     "key": canonical_key(mn, v), "id": hash_id(mn, v)}
    for mn, v in [("HIORENT AUIGUSTIN", None), ("MERLOT", None),
                  ("CHATEAU PEYROUQUET SAINT-EI", None),
                  ("LE BY EQ", "2019"), ("BLARD&FILS", "2020"),
                  ("JHATEAU BEAUPRE DE", "2012"), ("CHATEAU ALCEE", None)]
]


def test_exact_key_hit():
    decision, item, score, reason = best_match(DB, "LE BY EQ", "2019")
    assert (decision, score) == ("seen", 100)
    assert reason == "exact canonical key match"
    assert item["id"] == "244218444cd3"


def test_fuzzy_hit_above_threshold():
    # token-subset of an existing maker -> token_set_ratio 100
    decision, item, score, _ = best_match(DB, "CHATEAU PEYROUQUET", None)
    assert decision == "seen" and score >= 85
    assert item["maker_norm"] == "CHATEAU PEYROUQUET SAINT-EI"


def test_vintage_blocking_prefers_same_vintage():
    # same-vintage candidates exist -> only they are scored
    db = DB + [{"maker_norm": "LE BY EQ", "vintage": "2020",
                "key": "LE BY EQ|2020", "id": "x"}]
    decision, item, score, _ = best_match(db, "LE BY EQQ", "2020")
    assert item["vintage"] == "2020"


def test_gibberish_not_seen():
    decision, item, score, _ = best_match(DB, "ZZQQXXWW", None)
    assert decision == "not seen"
    assert score < 85


def test_empty_db():
    assert best_match([], "ANY", None)[0] == "not seen"


def test_empty_key_never_exact_matches():
    db = [{"maker_norm": "", "vintage": None, "key": "|", "id": "z"}]
    decision, item, score, reason = best_match(db, "", None)
    assert reason != "exact canonical key match"


def test_bonus_capped_at_100():
    db = [{"maker_norm": "OPUS ONE", "vintage": "2019",
           "key": "OPUS ONEX|2019", "id": "y"}]  # key differs -> no exact
    _, _, score, _ = best_match(db, "OPUS ONE", "2019")
    assert score == 100  # 100 + 5 capped


# ------------------------------------------------------ multimodal

def test_real_backend_is_stubbed():
    with pytest.raises(NotImplementedError, match="codec"):
        DecodeBackend().decode_image(b"\xff\xd8\xff")


def test_fake_backend_deterministic():
    b = DeterministicFakeBackend()
    img1 = b.decode_image(b"payload-bytes")
    img2 = b.decode_image(b"payload-bytes")
    assert (img1 == img2).all()
    assert img1.shape == (32, 48, 3)
    assert (b.decode_image(b"other") != img1).any()


def test_image_feature_stage_batch():
    import pyarrow as pa
    stage = ImageFeatureStage(backend="fake")
    batch = pa.table({"media_ref": ["a", "b"],
                      "payload": [b"p1", b"p2"]})
    out = stage(batch)
    assert out.num_rows == 2
    assert "payload" not in out.schema.names
    assert set(out.schema.names) >= {"media_ref", "height", "width",
                                     "mean_val", "hist"}
    assert sum(out.column("hist").to_pylist()[0]) == 32 * 48 * 3


# ------------------------------------------------------ LSH ANN

def test_knn_lsh_recall(ray_session):
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    sf = "/root/testdata/sf0.01"
    exact = QUERIES["knn_cosine_topk"](sf)
    approx = QUERIES["knn_lsh_topk"](sf)
    # per query, approx results must be a subset of candidates with
    # correct internal ordering; overall recall should be meaningful
    e = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    a = {(r.query_id, r.neighbor_id) for r in approx.itertuples()}
    recall = len(e & a) / len(e)
    assert recall >= 0.3, recall
    # approx scores must agree with exact scores where pairs overlap
    em = {(r.query_id, r.neighbor_id): r.score for r in exact.itertuples()}
    for r in approx.itertuples():
        if (r.query_id, r.neighbor_id) in em:
            assert em[(r.query_id, r.neighbor_id)] == r.score


def test_dedup_decision_pipeline(ray_session):
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    out = QUERIES["dedup_decision"]("/root/testdata/sf0.001")
    assert set(out.columns) == {"doc_id", "decision", "score", "match_id",
                                "reason"}
    assert len(out) > 50
    assert set(out.decision) <= {"seen", "not seen"}
    assert (out[out.reason == "exact canonical key match"].score == 100).all()
    # corpus draws makers from a small pool: both outcomes must occur
    assert (out.decision == "seen").any()


def test_decide_distributed_equals_best_match(ray_session):
    """The distributed decision (cogrouped exact leg + vintage blocks +
    replicated-probe fallback) must be row-identical to ``best_match``
    per probe over the DB in ascending doc_id order, on inputs covering
    every leg: exact hits, same-vintage fuzzy (+5 bonus), empty-bucket
    fallback, no-vintage fallback, empty maker, the '|' key guard, and
    score ties (first-max-wins)."""
    import ray.data
    from wine_label_ocr_ray.stages.dedup import decide_distributed

    db_rows = [
        {"doc_id": "d00", "maker_norm": "OPUS ONE", "vintage_str": "2019"},
        {"doc_id": "d01", "maker_norm": "OPUS ONE", "vintage_str": "2019"},
        {"doc_id": "d02", "maker_norm": "SILVER OAK CELLARS",
         "vintage_str": "2018"},
        {"doc_id": "d03", "maker_norm": "CAYMUS", "vintage_str": None},
        {"doc_id": "d04", "maker_norm": "", "vintage_str": None},
        {"doc_id": "d05", "maker_norm": "PENFOLDS GRANGE",
         "vintage_str": "2015"},
        {"doc_id": "d06", "maker_norm": "OPUS ONE", "vintage_str": "2017"},
    ]
    for r in db_rows:
        r["key"] = f"{r['maker_norm']}|{r['vintage_str'] or ''}"
        r["record_id"] = "id_" + r["doc_id"]
    probes = [
        {"doc_id": "p00", "maker_norm": "OPUS ONE",
         "vintage_str": "2019"},                     # exact hit (first=d00)
        {"doc_id": "p01", "maker_norm": "OPUS ONE WINERY",
         "vintage_str": "2019"},                     # fuzzy same-vintage
        {"doc_id": "p02", "maker_norm": "SILVER OAK",
         "vintage_str": "1999"},                     # empty bucket -> full DB
        {"doc_id": "p03", "maker_norm": "CAYMUS",
         "vintage_str": None},                       # no vintage -> full DB
        {"doc_id": "p04", "maker_norm": "", "vintage_str": None},  # '|' key
        {"doc_id": "p05", "maker_norm": "ZZZZ QQQQ",
         "vintage_str": "2018"},                     # below threshold
        {"doc_id": "p06", "maker_norm": "OPUS ONE",
         "vintage_str": "2016"},                     # empty bucket, exact
                                                     # maker tie d00/d01/d06
    ]
    db_ds = ray.data.from_items(db_rows)
    probe_ds = ray.data.from_items(probes)
    dist = (decide_distributed(probe_ds, db_ds).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    db = [{"maker_norm": r["maker_norm"], "vintage": r["vintage_str"],
           "key": r["key"], "id": r["record_id"]}
          for r in sorted(db_rows, key=lambda r: r["doc_id"])]
    want = []
    for p in sorted(probes, key=lambda p: p["doc_id"]):
        decision, item, score, reason = best_match(
            db, p["maker_norm"], p["vintage_str"])
        want.append((p["doc_id"], decision, int(score),
                     item["id"] if item else None, reason))
    cols = ["doc_id", "decision", "score", "match_id", "reason"]
    assert list(dist[cols].itertuples(index=False, name=None)) == want
    # empty DB short-circuit
    empty = ray.data.from_items(db_rows).filter(lambda r: False)
    out = (decide_distributed(probe_ds, empty).to_pandas()
           .sort_values("doc_id"))
    assert (out.decision == "not seen").all() and (out.score == 0).all()
    assert (out.reason == "db empty").all()


def test_blob_near_dup_pipeline(ray_session):
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    out = QUERIES["blob_near_dup"]("/root/testdata/sf0.001")
    assert set(out.columns) == {"doc_a", "doc_b", "blob_score", "similar"}
    if len(out):
        assert out.blob_score.between(0, 1).all()
        assert out.doc_a.lt(out.doc_b).all()


def test_media_decode_stats(ray_session):
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    out = QUERIES["media_decode_stats"]("/root/testdata/sf0.001")
    assert out.n_images[0] > 100
    assert 100 < out.avg_mean_val[0] < 155  # uniform noise mean ~127.5


def test_blob_salting_equals_unsalted(ray_session):
    """Hot-key salting (block-pair sub-splitting) must produce exactly
    the same pair set as the single-task path."""
    from wine_label_ocr_ray.pipelines.queries import flagship_extract_full
    from wine_label_ocr_ray.stages.dedup import blob_near_dup_pairs
    ds = flagship_extract_full("/root/testdata/sf0.001")
    base = blob_near_dup_pairs(ds, max_block_rows=None).to_pandas()
    ds2 = flagship_extract_full("/root/testdata/sf0.001")
    salted = blob_near_dup_pairs(ds2, max_block_rows=8).to_pandas()

    def key(df):
        return sorted(zip(df.doc_a, df.doc_b, df.blob_score, df.similar))

    assert key(salted) == key(base)
    assert len(base) > 100


def test_cosine_lsh_pairs_subset_and_recall(ray_session):
    """Bucketed embedding near-dup pairs: precision is exact (every
    emitted pair is cosine-verified), recall vs the all-pairs baseline
    must clear 0.85 with the 16x4-bit table configuration."""
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    sf = "/root/testdata/sf0.01"
    exact = QUERIES["cosine_dup_pairs"](sf)
    approx = QUERIES["cosine_lsh_dup_pairs"](sf)
    e = {(r.vec_a, r.vec_b) for r in exact.itertuples()}
    a = {(r.vec_a, r.vec_b) for r in approx.itertuples()}
    assert a <= e, a - e  # verification guarantees precision
    assert e, "baseline produced no pairs; recall check vacuous"
    recall = len(a & e) / len(e)
    assert recall >= 0.85, recall
    # verified cosines must equal the exact baseline's where present
    em = {(r.vec_a, r.vec_b): r.cosine for r in exact.itertuples()}
    for r in approx.itertuples():
        assert em[(r.vec_a, r.vec_b)] == r.cosine


def test_knn_ivf_recall(ray_session):
    """IVF ANN: scores exact where pairs overlap; recall vs the
    brute-force result must be meaningful with nprobe=4 of 16 lists."""
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    sf = "/root/testdata/sf0.01"
    exact = QUERIES["knn_cosine_topk"](sf)
    approx = QUERIES["knn_ivf_topk"](sf)
    e = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    a = {(r.query_id, r.neighbor_id) for r in approx.itertuples()}
    recall = len(e & a) / len(e)
    assert recall >= 0.3, recall
    em = {(r.query_id, r.neighbor_id): r.score for r in exact.itertuples()}
    for r in approx.itertuples():
        if (r.query_id, r.neighbor_id) in em:
            assert em[(r.query_id, r.neighbor_id)] == r.score
    # determinism
    again = QUERIES["knn_ivf_topk"](sf)
    assert approx.equals(again)


def test_video_frame_sample_stage(ray_session):
    """Frame-sampling stage: deterministic fake backend, per-video
    temporal features, payload dropped from the output."""
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    from wine_label_ocr_ray.stages.multimodal import (
        DeterministicFakeBackend, VideoFrameSampleStage)
    import pyarrow as pa

    stage = VideoFrameSampleStage(n_frames=3)
    t = pa.table({"media_ref": ["a", "b"],
                  "payload": [b"video-bytes-1", b"video-bytes-2"]})
    out = stage(t)
    assert "payload" not in out.schema.names
    assert out["n_frames"].to_pylist() == [3, 3]
    fm = out["frame_means"].to_pylist()
    assert len(fm[0]) == 3 and fm[0] != fm[1]  # payload-dependent
    # deterministic across instances
    out2 = VideoFrameSampleStage(n_frames=3)(t)
    assert out.equals(out2)
    # temporal delta consistent with the frame means
    import numpy as np
    expect = round(float(np.abs(np.diff(fm[0])).mean()), 4)
    assert out["temporal_delta"].to_pylist()[0] == expect
    # real-backend stub still raises (env-inherent)
    from wine_label_ocr_ray.stages.multimodal import DecodeBackend
    try:
        DecodeBackend().sample_frames(b"x", 2)
        raise AssertionError("expected NotImplementedError")
    except NotImplementedError:
        pass
    # end-to-end query over the derived corpus
    out = QUERIES["media_frame_stats"]("/root/testdata/sf0.001")
    assert out.n_videos.iloc[0] > 0
    assert out.n_frames.iloc[0] == 4
