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
    """The read feeds one actor operator that turns each batch of
    ``media_batch_size`` documents into records; with ``debug_out`` the
    sink reads those records. No other map operator runs, so no span
    row crosses an operator boundary."""
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
    assert ds._logical_plan.dag._batch_size == 300
    physical = chain(get_execution_plan(ds._logical_plan).dag)
    maps = [m for name in physical for m in name.split("->")
            if m.startswith("MapBatches")]
    assert maps == ["MapBatches(DocMediaExtract)"], physical

    ds = build_extract_pipeline(corpus, PipelineConfig(
        debug_out=str(tmp_path / "dbg")))
    assert chain(ds._logical_plan.dag) == [
        "ReadParquet", "MapBatches(DocMediaExtract)",
        "MapBatches(DebugImageSink)"]


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
root, corpus, ray_tmp, out = sys.argv[1:]
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


def test_flagship_with_batch_only_engines(ray_session, corpus, expected):
    """Engines whose scalar methods raise: the media stage calls only
    ``detect_batch``, ``ocr_boxes``, ``ocr_sweeps`` and ``scan_batch``,
    so every record still equals the oracle's."""
    from wine_label_ocr_ray.config import PipelineConfig

    # defined inside the test so cloudpickle ships it by value
    def batch_only_engines(confidence_threshold: float = 0.01):
        from wine_label_ocr_ray.state.engines import (
            SyntheticBarcodeEngine, SyntheticDetectEngine,
            SyntheticOcrEngine)

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
    work = tmp_path / "cwd"
    work.mkdir()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    ray_tmp = tempfile.mkdtemp(prefix="wlor-")  # short: socket path cap
    proc = subprocess.Popen(
        [sys.executable, "-c", _BY_VALUE_DRIVER, root, corpus, ray_tmp,
         out], cwd=str(work), env=env, stdout=subprocess.PIPE,
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
    errors = [line for line in log.decode(errors="replace").splitlines()
              if "Error" in line]
    assert proc.returncode == 0, "\n".join(errors[-10:])
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
    # fractional actors: 0.5-cpu actors on 2 cpus leave a read slot
    assert autosize_pool(2, 0.5) == 2
    # multi-cpu actors never round down into a whole-cluster pool
    for total in range(3, 65):
        size = autosize_pool(total, 2.0)
        assert 1 <= size and size * 2.0 <= total - 1, (total, size)
    # degenerate sessions where ANY pool would hold every CPU must
    # raise, not return the deadlock shape the max(1, ...) floor
    # used to produce (1 actor on a 1-cpu session, one 2-cpu actor
    # on a 2-cpu session)
    import pytest
    with pytest.raises(ValueError):
        autosize_pool(1)
    with pytest.raises(ValueError):
        autosize_pool(2, 2.0)
