"""End-to-end flagship pipeline vs the pure-Python oracle: per-row
span-sequence equality (kind, text, media_ref, order) + record-field
equality (the BASELINE.json north-rule invariant)."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

import pytest

from wine_label_ocr_ray.oracle import oracle_records
from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
from wine_label_ocr_ray.synth import generate_corpus

RECORD_FIELDS = ("custom_id", "maker_name", "maker_norm", "vintage",
                 "barcode", "key", "record_id", "valid", "mean_ocr_conf",
                 "raw")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus") / "c200")
    generate_corpus(out, num_docs=200, seed=42)
    return out


@pytest.fixture(scope="module")
def pipeline_records(ray_session, corpus):
    return build_extract_pipeline(corpus).take_all()


@pytest.fixture(scope="module")
def expected(corpus):
    return oracle_records(corpus)


def test_all_docs_present(pipeline_records, expected):
    assert len(pipeline_records) == 200
    assert {r["doc_id"] for r in pipeline_records} == set(expected)


def test_span_sequence_equality(pipeline_records, expected):
    for r in pipeline_records:
        got = [(s["kind"], s["text"], s["media_ref"], s["order"])
               for s in r["spans"]]
        want = [tuple(s) for s in expected[r["doc_id"]]["spans"]]
        assert got == want, f"span mismatch for {r['doc_id']}"


def test_record_fields_equal(pipeline_records, expected):
    for r in pipeline_records:
        o = expected[r["doc_id"]]
        for f in RECORD_FIELDS:
            assert r[f] == o[f], f"{r['doc_id']}.{f}: {r[f]!r} != {o[f]!r}"


def test_blob_fingerprints_equal(pipeline_records, expected):
    n_with_blob = 0
    for r in pipeline_records:
        o = expected[r["doc_id"]]
        assert r["blob"]["blob_fingerprint"] == o["blob"]["blob_fingerprint"]
        assert r["blob"]["blob_count"] == o["blob"]["blob_count"]
        if o["blob"]["roi_shape"] != [0, 0]:
            n_with_blob += 1
    assert n_with_blob > 50  # corpus actually exercises the media leg


def test_plan_has_no_all_to_all_operator(ray_session, corpus):
    """Each batch holds whole documents, so the flagship plan needs no
    exchange: no Sort, Aggregate or Repartition operator."""
    def names(op):
        yield op.name
        for dep in op.input_dependencies:
            yield from names(dep)
    ops = list(names(build_extract_pipeline(corpus)._logical_plan.dag))
    assert any("MediaExtract" in n for n in ops), ops
    assert not [n for n in ops
                if n.split("(")[0] in ("Sort", "Aggregate", "Repartition")]


def test_plan_is_one_actor_operator_from_documents_to_records(
        ray_session, corpus, tmp_path):
    """The read feeds one actor operator that turns each batch of at
    most ``media_batch_size`` documents into records; with
    ``debug_out`` the sink reads those records. No other map operator
    runs, so no span row crosses an operator boundary."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    from wine_label_ocr_ray.config import PipelineConfig

    def chain(op):
        names = [op.name]
        while op.input_dependencies:
            (op,) = op.input_dependencies
            names.insert(0, op.name)
        return names
    ds = build_extract_pipeline(corpus, PipelineConfig(media_batch_size=300))
    assert chain(ds._logical_plan.dag) == [
        "ReadParquet", "MapBatches(DocMediaExtract)"]
    # the read is planned (200 docs in one round of this session's
    # 2-actor pool), and each planned block is one batch
    assert ds._logical_plan.dag._batch_size is None
    physical = chain(get_execution_plan(ds._logical_plan).dag)
    maps = [m for name in physical for m in name.split("->")
            if m.startswith("MapBatches")]
    assert maps == ["MapBatches(DocMediaExtract)"], physical

    ds = build_extract_pipeline(corpus, PipelineConfig(
        debug_out=str(tmp_path / "dbg")))
    assert chain(ds._logical_plan.dag) == [
        "ReadParquet", "MapBatches(DocMediaExtract)",
        "MapBatches(DebugImageSink)"]


def test_read_blocks_align_with_media_batches(ray_session, corpus,
                                              tmp_path):
    """The read plans blocks of at most about ``media_batch_size``
    documents in whole rounds of the media pool, and each block is one
    actor batch, passed without a copy to a free actor. For one actor
    the 200-doc corpus is one block and one call; for this session's
    default pool of two it is two 100-doc blocks. A block of four
    shards is still one call (the read keeps its own task: fused into
    the actor's operator it would call the actor once per shard). Tiny
    batches on a multi-shard corpus are planned too: each shard is one
    read task, split by Ray into one-doc blocks."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.sources.documents import document_files
    from wine_label_ocr_ray.state.engines import (SyntheticBarcodeEngine,
                                                  SyntheticDetectEngine,
                                                  SyntheticOcrEngine)

    def read_of(ds):
        op = get_execution_plan(ds._logical_plan).dag
        while op.input_dependencies[0].input_dependencies:
            (op,) = op.input_dependencies
        return op

    def plan(ds):
        media = ds._logical_plan.dag
        return media._batch_size, media.input_dependencies[0]._parallelism

    assert PipelineConfig().media_batch_size == 4096
    ds = build_extract_pipeline(corpus, PipelineConfig(media_concurrency=1))
    assert plan(ds) == (None, 1)
    assert ds._logical_plan.dag._zero_copy_batch
    # whole-batch blocks go to whichever actor is free, one at a time
    assert ds.context.max_tasks_in_flight_per_actor == 1
    assert read_of(ds).name == "ReadParquet"
    assert len(ds.take_all()) == 200
    assert "ReadParquet: 1 tasks executed, 1 blocks produced" in ds.stats()

    ds = build_extract_pipeline(corpus)
    assert plan(ds) == (None, 2)
    assert read_of(ds).name == "ReadParquet->SplitBlocks(2)"
    assert len(ds.take_all()) == 200
    assert "MapBatches(DocMediaExtract): 2 tasks executed" in ds.stats()

    shards4 = str(tmp_path / "shards4")
    generate_corpus(shards4, num_docs=400, seed=5, num_shards=4)
    log = str(tmp_path / "detect_batch_calls")

    # defined inside the test so cloudpickle ships them by value; one
    # actor call of 400 docs is one media pass, so one detect_batch
    class Detect(SyntheticDetectEngine):
        def detect_batch(self, headers):
            with open(log, "a") as f:
                f.write(f"{len(headers)}\n")
            return super().detect_batch(headers)

    def logged_engines(confidence_threshold: float = 0.01):
        return (Detect(confidence_threshold), SyntheticOcrEngine(),
                SyntheticBarcodeEngine())

    ds = build_extract_pipeline(shards4, PipelineConfig(
        media_concurrency=1, engines=logged_engines))
    assert plan(ds) == (None, 1)
    assert len(ds.take_all()) == 400
    with open(log) as f:
        assert len(f.read().split()) == 1
    # 2 actors x ceil(400 / (2 x 16)) rounds = 26 blocks of <= ~16 docs
    assert plan(build_extract_pipeline(
        shards4, PipelineConfig(media_batch_size=16))) == (None, 26)
    # one-doc batches: each 100-doc shard split into 100 one-doc blocks
    ds = build_extract_pipeline(shards4, PipelineConfig(media_batch_size=1))
    assert plan(ds) == (None, 400)
    assert read_of(ds).name == "ReadParquet->SplitBlocks(100)"
    # a single parquet file plans as the corpus does
    one = document_files(shards4)[0]
    assert plan(build_extract_pipeline(
        one, PipelineConfig(media_concurrency=1))) == (None, 1)


def test_planned_read_groups_whole_shards(ray_session, tmp_path):
    """100 documents in shards of 33, 33 and 34. Asked for 2 blocks,
    the read groups the first two shards (the cut goes to the shard
    boundary nearest 50); asked for 3, each shard is a task; asked for
    6, each shard is a task and Ray splits its block in two. Every
    shard is read by one task, ``path`` names each row's own shard as
    ``document_files`` lists it, and each planned block is one actor
    call."""
    import pyarrow.parquet as pq
    import ray

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.sources.documents import (DocumentShards,
                                                      document_files)

    corpus = str(tmp_path / "uneven")
    generate_corpus(corpus, num_docs=100, seed=11, num_shards=3)
    files = document_files(corpus)
    shard_of = {d: f for f in files
                for d in pq.read_table(f, columns=["doc_id"])
                .column("doc_id").to_pylist()}
    assert [pq.read_metadata(f).num_rows for f in files] == [33, 33, 34]

    source = DocumentShards(files, include_paths=True)
    for blocks, groups, sizes, name in (
            (2, [files[:2], files[2:]], [34, 66], "ReadParquet"),
            (3, [[f] for f in files], [33, 33, 34], "ReadParquet"),
            (6, [[f] for f in files], [16, 17, 17, 16, 17, 17],
             "ReadParquet->SplitBlocks(2)")):
        assert [t.metadata.input_files
                for t in source.get_read_tasks(blocks)] == groups
        ds = ray.data.read_datasource(source, override_num_blocks=blocks)
        got = [ray.get(ref) for bundle in ds.iter_internal_ref_bundles()
               for ref in bundle.block_refs]
        assert sorted(b.num_rows for b in got) == sorted(sizes)
        rows = [r for b in got for r in b.select(["doc_id", "path"])
                .to_pylist()]
        assert len(rows) == 100
        assert {r["doc_id"]: r["path"] for r in rows} == shard_of
        assert f"{name}: {len(groups)} tasks executed, {len(sizes)} " \
            "blocks produced" in ds.stats()

    ds = build_extract_pipeline(corpus, PipelineConfig(
        media_concurrency=1, media_batch_size=40), doc_files=files)
    recs = ds.take_all()
    assert all(r["path"] == shard_of[r["doc_id"]] for r in recs)
    assert len(recs) == len(oracle_records(corpus))
    stats = ds.stats()
    assert "ReadParquet: 3 tasks executed, 3 blocks produced" in stats
    assert "MapBatches(DocMediaExtract): 3 tasks executed" in stats


def test_killed_media_actor_costs_nothing(ray_session, corpus, expected,
                                          tmp_path):
    """The media actor's process exits in its 2nd ``detect_batch`` call,
    once: Ray Data restarts the actor and reruns its batch, and every
    doc still makes exactly one record, equal to the oracle's. The
    actor dies seconds after it started, when Ray no longer holds
    creation arguments it did not inline; a restart that cannot start
    fails the test at the timeout instead of hanging the session."""
    import threading
    import time

    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.state.engines import (SyntheticBarcodeEngine,
                                                  SyntheticDetectEngine,
                                                  SyntheticOcrEngine)

    marker = str(tmp_path / "killed")

    # defined inside the test so cloudpickle ships them by value, with
    # the engine classes they use: the actor imports nothing by name
    class Detect(SyntheticDetectEngine):
        calls = 0

        def detect_batch(self, headers):
            self.calls += 1
            if self.calls == 2 and not os.path.exists(marker):
                time.sleep(2)
                open(marker, "w").close()
                os._exit(1)
            return super().detect_batch(headers)

    def dying_engines(confidence_threshold: float = 0.01):
        return (Detect(confidence_threshold), SyntheticOcrEngine(),
                SyntheticBarcodeEngine())

    ds = build_extract_pipeline(corpus, PipelineConfig(
        engines=dying_engines, media_batch_size=16))
    recs = []
    run = threading.Thread(target=lambda: recs.extend(ds.take_all()),
                           daemon=True)
    run.start()
    run.join(timeout=300)
    assert not run.is_alive(), "the restarted actor never started"
    assert os.path.exists(marker)
    assert sorted(r["doc_id"] for r in recs) == sorted(expected)
    for r in recs:
        o = expected[r["doc_id"]]
        assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]] == [tuple(s) for s in o["spans"]]
        for f in RECORD_FIELDS:
            assert r[f] == o[f], f"{r['doc_id']}.{f}"
        assert r["blob"] == o["blob"], r["doc_id"]


# Driver for test_flagship_with_package_shipped_by_value_only: the repo
# root reaches the driver through sys.path alone, so the Ray workers
# get the package only as the by-value pickles of _rayprep.
_BY_VALUE_DRIVER = """
import sys
root, ray_tmp, corpus, out = sys.argv[1:]
sys.path.insert(0, root)
import ray
from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
ray.init(address="local", num_cpus=2, object_store_memory=128 << 20,
         include_dashboard=False, logging_level="ERROR",
         log_to_driver=False, _temp_dir=ray_tmp)
try:
    build_extract_pipeline(corpus).write_parquet(out)
finally:
    ray.shutdown()
"""

# Driver for test_driver_imports_no_dataset_module: builds and runs the
# flagship and a checkpointed run, then prints what it has imported.
_LEAN_DRIVER = """
import sys
root, ray_tmp, corpus, out = sys.argv[1:]
sys.path.insert(0, root)
import ray
from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
from wine_label_ocr_ray.stages.checkpoint import run_checkpointed
ray.init(address="local", num_cpus=2, object_store_memory=128 << 20,
         include_dashboard=False, logging_level="ERROR",
         log_to_driver=False, _temp_dir=ray_tmp)
try:
    records = len(build_extract_pipeline(corpus).take_all())
    executed = run_checkpointed(corpus, out)["executed"]
finally:
    ray.shutdown()
print("records", records, "executed", executed)
print("pyarrow.dataset", "pyarrow.dataset" in sys.modules)
"""


def _run_driver(script: str, tmp_path, *args: str) -> str:
    """Runs ``script`` as a fresh driver in a directory outside the
    checkout, with ``PYTHONPATH`` cleared: its argv is the repository
    root, a short Ray temp dir, then ``args``. Returns its output."""
    work = tmp_path / "cwd"
    work.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    ray_tmp = tempfile.mkdtemp(prefix="wlor-")  # short: socket path cap
    proc = subprocess.Popen(
        [sys.executable, "-c", script, root, ray_tmp, *args],
        cwd=str(work), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=300)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(ray_tmp, ignore_errors=True)
    log = log.decode(errors="replace")
    errors = [line for line in log.splitlines() if "Error" in line]
    assert proc.returncode == 0, "\n".join(errors[-10:])
    return log


def test_flagship_with_batch_only_engines(ray_session, corpus, expected):
    """Engines whose scalar methods raise: the media stage calls only
    ``detect_batch``, ``ocr_boxes``, ``ocr_sweeps`` and ``scan_batch``,
    so every record still equals the oracle's."""
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.state.engines import (SyntheticBarcodeEngine,
                                                  SyntheticDetectEngine,
                                                  SyntheticOcrEngine)

    # defined inside the test so cloudpickle ships it by value, with the
    # engine classes it uses: the actor imports nothing by name
    def batch_only_engines(confidence_threshold: float = 0.01):
        def scalar(*args, **kwargs):
            raise AssertionError("scalar engine method called")

        class Detect(SyntheticDetectEngine):
            detect = scalar

        class Ocr(SyntheticOcrEngine):
            ocr_box = ocr_full = ocr_sweep = scalar

        class Barcode(SyntheticBarcodeEngine):
            scan = scalar

        return Detect(confidence_threshold), Ocr(), Barcode()

    recs = build_extract_pipeline(
        corpus, PipelineConfig(engines=batch_only_engines)).take_all()
    assert sorted(r["doc_id"] for r in recs) == sorted(expected)
    for r in recs:
        o = expected[r["doc_id"]]
        assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]] == [tuple(s) for s in o["spans"]]
        for f in RECORD_FIELDS:
            assert r[f] == o[f], f"{r['doc_id']}.{f}"
        assert r["blob"] == o["blob"], r["doc_id"]


def test_flagship_with_package_shipped_by_value_only(tmp_path):
    """The flagship in a fresh 2-CPU session whose driver runs outside
    the checkout: a stage that imports from the package at call time
    (e.g. a function-level relative import) fails on the workers here,
    though in-process tests pass. Records must equal the oracle's."""
    import pyarrow.parquet as pq

    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=40, seed=17)
    out = str(tmp_path / "records")
    _run_driver(_BY_VALUE_DRIVER, tmp_path, corpus, out)
    records = pq.read_table(out).to_pylist()
    expected = oracle_records(corpus)
    assert sorted(r["doc_id"] for r in records) == sorted(expected)
    for r in records:
        o = expected[r["doc_id"]]
        assert [(s["kind"], s["text"], s["media_ref"], s["order"])
                for s in r["spans"]] == [tuple(s) for s in o["spans"]]
        for f in RECORD_FIELDS:
            assert r[f] == o[f], (r["doc_id"], f)
        assert r["blob"]["blob_fingerprint"] == \
            o["blob"]["blob_fingerprint"]


def test_driver_imports_no_dataset_module(tmp_path):
    """A fresh 2-CPU driver that builds and runs the flagship and a
    checkpointed run never imports ``pyarrow.dataset``: the shards are
    listed with ``os.walk`` and read by the planned reader, not by
    Ray's parquet read (the module costs the driver ~3 MB)."""
    corpus = str(tmp_path / "corpus")
    generate_corpus(corpus, num_docs=40, seed=17, num_shards=2)
    log = _run_driver(_LEAN_DRIVER, tmp_path, corpus,
                      str(tmp_path / "ckpt")).splitlines()
    assert "records 40 executed 2" in log
    assert "pyarrow.dataset False" in log


def test_package_ships_by_value_outside_the_source_tree(corpus, tmp_path):
    """Ray-free: ``DocRecords`` pickled after ``ensure_serializable``
    loads in an interpreter that cannot import the package (started
    outside the checkout, ``PYTHONPATH`` cleared) and turns a batch of
    documents into the same records as in this process. On Ray the
    workers share the tests' cwd, the checkout, so they would import a
    module that by-value registration missed by name."""
    import pyarrow.parquet as pq
    import ray.cloudpickle as cp

    from wine_label_ocr_ray._rayprep import ensure_serializable
    from wine_label_ocr_ray.pipelines.extract import DocRecords
    from wine_label_ocr_ray.sources.documents import document_files

    ensure_serializable()
    docs = pq.read_table(document_files(corpus)[0]).slice(0, 20)
    media = os.path.join(corpus, "media")
    (tmp_path / "cls.pkl").write_bytes(cp.dumps(DocRecords))
    pq.write_table(docs, str(tmp_path / "docs.parquet"))
    script = (
        "import pickle, sys\n"
        "import pyarrow.parquet as pq\n"
        "try:\n"
        "    import wine_label_ocr_ray\n"
        "    sys.exit('the package imports by name')\n"
        "except ImportError:\n"
        "    pass\n"
        "cls = pickle.loads(open('cls.pkl', 'rb').read())\n"
        "pq.write_table(cls(sys.argv[1])(pq.read_table('docs.parquet')),"
        " 'records.parquet')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", script, media],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = pq.read_table(str(tmp_path / "records.parquet"))
    assert got.num_rows > 0
    assert got.equals(DocRecords(media)(docs))

def test_extraction_hit_rates(pipeline_records):
    """The corpus must exercise every path: vintages found, makers
    found, some docs with neither (invalid), barcodes present."""
    vintages = sum(1 for r in pipeline_records if r["vintage"] is not None)
    makers = sum(1 for r in pipeline_records if r["maker_name"])
    barcodes = sum(1 for r in pipeline_records if r["barcode"])
    invalid = sum(1 for r in pipeline_records if not r["valid"])
    assert vintages > 80
    assert makers > 80
    assert barcodes > 10
    assert invalid > 0


def test_autosize_pool_never_reserves_whole_cluster():
    """Regression: a pool holding every cluster CPU starves the
    upstream read task and deadlocks the stream (seen at 2 cpus)."""
    from wine_label_ocr_ray.pipelines.extract import autosize_pool
    for total in range(2, 65):
        size = autosize_pool(total)
        assert 1 <= size <= total - 1, (total, size)
    assert autosize_pool(2) == 1      # the observed deadlock shape
    assert autosize_pool(4) == 2      # unchanged from the old rule
    assert autosize_pool(32) == 16    # unchanged at full width
    # a degenerate session where ANY pool would hold every CPU must
    # raise, not return the deadlock shape the max(1, ...) floor
    # used to produce (1 actor on a 1-cpu session)
    import pytest
    with pytest.raises(ValueError):
        autosize_pool(1)
