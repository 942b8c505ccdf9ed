"""Checkpoint/resume: kill after k partitions, restart, assert the
final table equals a clean run with no duplicated or recomputed
partitions (SURVEY.md section 5.2); one pipeline execution per run."""

import glob
import os

import pyarrow.dataset as pads
import pytest

from wine_label_ocr_ray.stages.checkpoint import (committed_partitions,
                                                  run_checkpointed)
from wine_label_ocr_ray.synth import generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt") / "corpus")
    # 4 shards so the fail-after-2 test is meaningful
    generate_corpus(out, num_docs=400, seed=7, num_shards=4)
    return out


def _read_sorted(out_dir):
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    t = pads.dataset(files).to_table()
    return t.sort_by("doc_id")


def test_crash_then_resume_equals_clean_run(ray_session, corpus, tmp_path):
    crash_dir = str(tmp_path / "crash_out")
    clean_dir = str(tmp_path / "clean_out")

    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(corpus, crash_dir, fail_after=2)
    committed = committed_partitions(crash_dir)
    assert len(committed) == 2

    # record commit mtimes to prove the resume does not recompute them
    mtimes = {name: os.path.getmtime(
        os.path.join(crash_dir, "_manifests", f"{name}.json"))
        for name in committed}

    summary = run_checkpointed(corpus, crash_dir)
    assert summary["executed"] == 2 and summary["skipped"] == 2
    for name, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(
            crash_dir, "_manifests", f"{name}.json")) == mt

    clean = run_checkpointed(corpus, clean_dir)
    assert clean["executed"] == 4 and clean["skipped"] == 0

    t_resumed = _read_sorted(crash_dir)
    t_clean = _read_sorted(clean_dir)
    assert t_resumed.num_rows == t_clean.num_rows == 400
    assert t_resumed.equals(t_clean)


def test_manifest_metrics(ray_session, corpus, tmp_path):
    out = str(tmp_path / "m_out")
    summary = run_checkpointed(corpus, out)
    m = summary["metrics"]
    assert m["rows"] == 400
    assert 0 < m["valid"] <= 400
    assert m["vintage_found"] > 100
    assert m["maker_found"] > 100
    for manifest in committed_partitions(out).values():
        assert manifest["lineage"]["config_hash"]
        assert manifest["metrics"]["rows"] > 0
        assert 0.0 <= manifest["metrics"]["mean_ocr_conf"] <= 1.0


def test_lineage_mismatch_recomputes(ray_session, corpus, tmp_path):
    """Changing a semantic config knob invalidates committed
    partitions (config hash is part of lineage)."""
    from wine_label_ocr_ray.config import PipelineConfig
    out = str(tmp_path / "l_out")
    run_checkpointed(corpus, out)
    summary = run_checkpointed(corpus, out,
                               PipelineConfig(confidence_threshold=0.5))
    assert summary["executed"] == 4 and summary["skipped"] == 0


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ckpt_small") / "corpus")
    generate_corpus(out, num_docs=80, seed=11, num_shards=2)
    return out


def test_resume_survives_deleted_input_shard(ray_session, tmp_path):
    """A manifest listing a since-deleted input shard must be treated
    as a lineage mismatch (partition re-executes), not crash the
    resume scan with FileNotFoundError."""
    corpus2 = str(tmp_path / "corpus2")
    generate_corpus(corpus2, num_docs=80, seed=13, num_shards=2)
    out = str(tmp_path / "del_out")
    run_checkpointed(corpus2, out)

    # regenerate the corpus under new shard names: old manifests now
    # reference files that no longer exist
    import shutil
    shutil.rmtree(corpus2)
    generate_corpus(corpus2, num_docs=80, seed=13, num_shards=1)
    summary = run_checkpointed(corpus2, out)  # must not raise
    assert summary["executed"] == 1 and summary["skipped"] == 0
    assert _read_sorted(out).num_rows == 80


def test_config_hash_default_backcompat():
    """Manifests written before the engines/sweep_max_variants lineage
    keys existed must keep matching under a default config: the hash
    of a default PipelineConfig omits the new keys entirely."""
    import hashlib
    import json
    from dataclasses import asdict
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.checkpoint import (_SEMANTIC_KEYS,
                                                      _config_hash)
    cfg = PipelineConfig()
    d = asdict(cfg)
    legacy = hashlib.sha1(json.dumps(
        {k: d[k] for k in _SEMANTIC_KEYS}, sort_keys=True,
        default=str).encode()).hexdigest()[:12]
    assert _config_hash(cfg) == legacy
    # non-default engine/sweep DO change the hash
    assert _config_hash(PipelineConfig(sweep_max_variants=10)) != legacy
    assert _config_hash(PipelineConfig(engines="other")) != legacy
    # so does every other semantic key
    changed = {"confidence_threshold": 0.5, "box_pad": 0.1,
               "min_blob_area": 31.0, "crop_label": True,
               "skip_alignment": False}
    assert set(changed) == set(_SEMANTIC_KEYS)
    for k, v in changed.items():
        assert _config_hash(PipelineConfig(**{k: v})) != legacy, k
    # pool, batch and debug settings do not
    for k, v in {"media_batch_size": 16, "media_concurrency": 3,
                 "debug_out": "debug"}.items():
        assert _config_hash(PipelineConfig(**{k: v})) == legacy, k


def test_schema_fingerprint_change_forces_reexecution(ray_session, corpus,
                                                      tmp_path):
    """VERDICT r4 item 3 + ADVICE r4: a partition committed under a
    DIFFERENT record schema (e.g. the pre-r5 names-only fingerprint,
    or any type-only change) must re-execute on resume instead of
    mixing incompatible partitions."""
    import json

    out = str(tmp_path / "schema_out")
    run_checkpointed(corpus, out)
    manifests = sorted(glob.glob(os.path.join(out, "_manifests", "*.json")))
    assert manifests
    # simulate one partition committed under the old names-only schema
    with open(manifests[0]) as f:
        m = json.load(f)
    assert ":" in m["lineage"]["schema"]  # fingerprint carries types
    m["lineage"]["schema"] = "|".join(
        part.split(":", 1)[0] for part in m["lineage"]["schema"].split("|"))
    with open(manifests[0], "w") as f:
        json.dump(m, f)

    summary = run_checkpointed(corpus, out)
    assert summary["executed"] == 1 and summary["skipped"] == 3


def test_pre_schema_manifest_rejected():
    """A manifest from before schema tracking (no 'schema' key) can no
    longer match: the record schema has changed since that era (typed
    raw/blob), so those partitions must re-execute, not mix."""
    import os
    import tempfile

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.checkpoint import (_lineage,
                                                      _lineage_matches)
    cfg = PipelineConfig()
    with tempfile.NamedTemporaryFile(suffix=".parquet", delete=False) as f:
        f.write(b"x" * 10)
        path = f.name
    try:
        lin = _lineage(path, cfg)
        assert _lineage_matches(path, cfg, lin)
        legacy = {k: v for k, v in lin.items() if k != "schema"}
        assert not _lineage_matches(path, cfg, legacy)
    finally:
        os.unlink(path)


class _BuildRecorder:
    """Records every Dataset ``build_extract_pipeline`` returns, also
    the one ``run_checkpointed`` builds internally."""

    def __init__(self, monkeypatch):
        from wine_label_ocr_ray.pipelines import extract
        self.datasets = []
        build = extract.build_extract_pipeline

        def record(*args, **kwargs):
            ds = build(*args, **kwargs)
            self.datasets.append(ds)
            return ds
        monkeypatch.setattr(extract, "build_extract_pipeline", record)

    def take(self):
        out, self.datasets = self.datasets, []
        return out


def _operator_names(ds):
    def walk(summary):
        for parent in summary.parents:
            yield from walk(parent)
        yield from summary.operators_stats
    return [op.operator_name for op in walk(ds._get_stats_summary())]


def test_one_execution_per_call(ray_session, corpus, tmp_path,
                                monkeypatch):
    """The crashed run and its resume each run exactly one pipeline
    execution, and the stats of that execution sit on the Dataset
    ``build_extract_pipeline`` returned."""
    rec = _BuildRecorder(monkeypatch)
    out = str(tmp_path / "one_out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(corpus, out, fail_after=2)
    crashed = rec.take()
    summary = run_checkpointed(corpus, out)
    resumed = rec.take()
    assert summary["executed"] == 2 and summary["skipped"] == 2
    assert len(crashed) == 1 and len(resumed) == 1
    for ds in crashed + resumed:
        assert any("MediaExtract" in n for n in _operator_names(ds))
    assert run_checkpointed(corpus, out)["executed"] == 0
    assert rec.take() == []  # nothing left to run: no execution
    assert _read_sorted(out).num_rows == 400


def test_zero_row_shard_commits_without_batch(ray_session, small_corpus,
                                              tmp_path, monkeypatch):
    """A shard without documents commits before the execution starts:
    with ``fail_after=1`` the crash comes before any pipeline is built."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.schema import DOC_SCHEMA

    corpus2 = str(tmp_path / "corpus")
    shutil.copytree(small_corpus, corpus2)
    pq.write_table(pa.Table.from_pylist([], schema=DOC_SCHEMA),
                   os.path.join(corpus2, "documents", "part-9999.parquet"))
    rec = _BuildRecorder(monkeypatch)
    out = str(tmp_path / "z_out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(corpus2, out, fail_after=1)
    assert rec.take() == []
    assert set(committed_partitions(out)) == {"part-9999"}
    assert committed_partitions(out)["part-9999"]["metrics"]["rows"] == 0

    summary = run_checkpointed(corpus2, out)
    assert summary["executed"] == 2 and summary["skipped"] == 1
    assert len(rec.take()) == 1
    assert summary["metrics"]["rows"] == _read_sorted(out).num_rows == 80


def test_checkpointed_reads_the_shards_the_pipeline_reads(
        ray_session, small_corpus, tmp_path):
    """A shard in a subdirectory of ``documents/`` is read, and a
    parquet file whose name starts with ``_`` is not, by the
    checkpointed run as by the plain pipeline: both give the same
    records."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
    from wine_label_ocr_ray.schema import RECORD_SCHEMA

    corpus2 = str(tmp_path / "corpus")
    shutil.copytree(small_corpus, corpus2)
    docs = os.path.join(corpus2, "documents")
    os.makedirs(os.path.join(docs, "sub"))
    os.rename(os.path.join(docs, "part-0001.parquet"),
              os.path.join(docs, "sub", "part-0001.parquet"))
    side = pq.read_table(os.path.join(docs, "part-0000.parquet")).slice(0, 5)
    side = side.set_column(0, "doc_id", pa.array(
        [f"meta-{i}" for i in range(side.num_rows)]))
    pq.write_table(side, os.path.join(docs, "_meta.parquet"))

    out = str(tmp_path / "out")
    summary = run_checkpointed(corpus2, out)
    assert summary["executed"] == 2
    plain = pa.Table.from_pylist(build_extract_pipeline(corpus2).take_all(),
                                 schema=RECORD_SCHEMA).sort_by("doc_id")
    assert plain.num_rows == 80
    assert _read_sorted(out).to_pylist() == plain.to_pylist()


def test_shards_sharing_a_stem_are_refused(small_corpus, tmp_path):
    """Partitions are named by shard stem: two shards with one stem
    raise before anything is written."""
    import shutil

    corpus2 = str(tmp_path / "corpus")
    shutil.copytree(small_corpus, corpus2)
    docs = os.path.join(corpus2, "documents")
    os.makedirs(os.path.join(docs, "sub"))
    shutil.copy(os.path.join(docs, "part-0001.parquet"),
                os.path.join(docs, "sub", "part-0001.parquet"))
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="part-0001") as err:
        run_checkpointed(corpus2, out)
    assert os.path.join("sub", "part-0001.parquet") in str(err.value)
    assert not os.path.exists(out)


def test_shard_split_across_blocks_commits_once(ray_session, tmp_path):
    """100 documents in shards of 5, 15 and 80 read as 3 planned blocks:
    the reader groups the first two shards into one task (each cut goes
    to the nearest shard boundary) and Ray splits each task's block in
    two, so shard 1 is split across the first block (with all of shard
    0) and the second. Whichever task arrives first, a crash after the
    first commit falls before shard 1's second half: it is not
    committed, and the resume commits it exactly once, equal to a
    clean run."""
    import pyarrow.parquet as pq

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.sources.documents import (DocumentShards,
                                                      document_files)

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=100, seed=11, num_shards=1)
    docs = os.path.join(corpus, "documents")
    table = pq.read_table(os.path.join(docs, "part-0000.parquet"))
    for k, (a, b) in enumerate(((0, 5), (5, 20), (20, 100))):
        pq.write_table(table.slice(a, b - a),
                       os.path.join(docs, f"part-{k:04d}.parquet"))
    shards = document_files(corpus)
    assert [t.metadata.input_files for t in
            DocumentShards(shards).get_read_tasks(3)] == \
        [shards[:2], shards[2:]]
    # one actor, ceil(100 / 34) = 3 blocks
    cfg = PipelineConfig(media_concurrency=1, media_batch_size=34)

    clean_dir = str(tmp_path / "clean")
    clean = run_checkpointed(corpus, clean_dir, cfg)
    assert clean["executed"] == 3 and clean["skipped"] == 0

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_checkpointed(corpus, out, cfg, fail_after=1)
    committed = set(committed_partitions(out))
    assert len(committed) == 1 and "part-0001" not in committed
    summary = run_checkpointed(corpus, out, cfg)
    assert summary["executed"] == 2 and summary["skipped"] == 1
    assert summary["metrics"] == clean["metrics"]
    resumed = _read_sorted(out)
    assert resumed.equals(_read_sorted(clean_dir))
    assert len(set(resumed.column("doc_id").to_pylist())) == \
        resumed.num_rows == 100


def test_missing_corpus_leaves_the_output_alone(ray_session, small_corpus,
                                                tmp_path):
    """A corpus path that does not exist (mistyped, or not mounted)
    raises ``FileNotFoundError`` before the run touches its output:
    every committed partition and manifest stays in place."""
    out = str(tmp_path / "out")
    assert run_checkpointed(small_corpus, out)["executed"] == 2

    def tree():
        return sorted(os.path.relpath(os.path.join(d, n), out)
                      for d, _, names in os.walk(out) for n in names)

    before = tree()
    with pytest.raises(FileNotFoundError):
        run_checkpointed(str(tmp_path / "missing"), out)
    assert tree() == before
    assert set(committed_partitions(out)) == {"part-0000", "part-0001"}
