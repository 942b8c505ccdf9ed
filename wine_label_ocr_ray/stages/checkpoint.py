"""Checkpointed, resumable pipeline runs (north-rule requirement).

The reference's only durability is append-only JSONL with no
idempotence (``hybrid.py:270-271``, ``scan_and_store.py:108-119`` —
re-running re-appends). Here a run is ONE streaming execution of the
flagship plan over every uncommitted input document shard. Each record
carries its source shard; the calling process streams a shard's
records into a temp dir and commits the shard atomically (temp dir +
rename) together with a manifest carrying lineage (input file, size,
config hash) and extraction metrics (row/valid/vintage/maker/barcode
counts, mean OCR confidence) as soon as all of its records have
arrived. A restarted
run lists the committed manifests, verifies lineage, and skips those
shards — so a crash mid-run costs only the shards still open.

Layout:
    out_dir/part=<name>/*.parquet       (atomic: renamed from _tmp.<name>)
    out_dir/_manifests/<name>.json      (atomic: os.replace from .tmp)
where <name> is the shard stem. The shards are the parquet files the
plain pipeline reads (``sources/documents.py::document_files``), and a
run refuses two that share a stem.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
from dataclasses import asdict
from typing import Dict, Optional

import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import PipelineConfig
from ..schema import RECORD_SCHEMA
from ..sources.documents import document_files


# only SEMANTIC knobs enter lineage — changing pool sizes, batch
# sizes or debug output must not invalidate partitions
_SEMANTIC_KEYS = ("confidence_threshold", "box_pad", "min_blob_area",
                  "crop_label", "skip_alignment")


def _engine_id(eng) -> str:
    return eng if isinstance(eng, str) else \
        f"{getattr(eng, '__module__', '?')}.{getattr(eng, '__qualname__', repr(eng))}"


def _config_hash(cfg: PipelineConfig) -> str:
    """Hash of the ``_SEMANTIC_KEYS``, always present, plus
    ``engines`` and ``sweep_max_variants``, each only when it differs
    from its dataclass default (read from PipelineConfig, not
    hardcoded): manifests written before those two keys existed keep
    hashing identically under a default config."""
    from dataclasses import fields
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    d = asdict(cfg)
    payload = {k: d[k] for k in _SEMANTIC_KEYS}
    eng_id = _engine_id(cfg.engines)
    if eng_id != _engine_id(defaults["engines"]):
        payload["engines"] = eng_id
    if cfg.sweep_max_variants != defaults["sweep_max_variants"]:
        payload["sweep_max_variants"] = cfg.sweep_max_variants
    return hashlib.sha1(json.dumps(payload, sort_keys=True,
                                   default=str).encode()).hexdigest()[:12]


def _lineage(doc_file: str, cfg: PipelineConfig) -> Dict:
    st = os.stat(doc_file)
    return {"config_hash": _config_hash(cfg),
            # output-schema fingerprint (names AND types): a resumed run
            # must not mix partitions committed under a different record
            # schema with fresh ones (readers would null-fill the union)
            "schema": "|".join(f"{f.name}:{f.type}"
                               for f in RECORD_SCHEMA),
            "input_file": doc_file, "input_bytes": st.st_size,
            "input_mtime_ns": st.st_mtime_ns}


def _lineage_matches(doc_file: str, cfg: PipelineConfig,
                     prior_lineage: Dict) -> bool:
    """True iff the committed lineage still describes this shard.
    ANY failure to recompute lineage (shard deleted/renamed →
    FileNotFoundError, manifest missing input_file → TypeError) means
    the manifest no longer matches reality — treat as a mismatch and
    re-execute, never crash the resume scan. A manifest from before
    schema tracking has no "schema" key, so it never matches: its
    record schema is an older one."""
    try:
        return prior_lineage == _lineage(doc_file, cfg)
    except (FileNotFoundError, OSError, TypeError, KeyError, ValueError):
        return False


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def committed_partitions(out_dir: str) -> Dict[str, Dict]:
    """shard-name -> manifest for every committed partition. A
    truncated/unparseable manifest (crash mid-write on a filesystem
    without atomic rename) is treated as UNCOMMITTED — the partition
    just re-executes instead of the whole resume breaking."""
    out = {}
    for path in glob.glob(os.path.join(out_dir, "_manifests", "*.json")):
        try:
            with open(path) as f:
                out[_stem(path)] = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
    return out


def _fold(metrics: Dict, records) -> None:
    """Adds one record batch to a shard's running manifest metrics
    (the blob column is read through its ``blob_count`` field only)."""
    n = records.num_rows
    conf = records.column("mean_ocr_conf")
    metrics["rows"] += n
    metrics["valid"] += pc.sum(records.column("valid")).as_py() or 0
    metrics["vintage_found"] += n - records.column("vintage").null_count
    metrics["maker_found"] += n - records.column("maker_name").null_count
    metrics["barcode_found"] += n - records.column("barcode").null_count
    metrics["blob_nonempty"] += pc.sum(pc.greater(pc.struct_field(
        records.column("blob"), "blob_count"), 0)).as_py() or 0
    metrics["conf_sum"] += pc.sum(conf).as_py() or 0.0
    metrics["conf_n"] += len(conf) - conf.null_count


def run_checkpointed(corpus_dir: str, out_dir: str,
                     cfg: Optional[PipelineConfig] = None, *,
                     fail_after: Optional[int] = None) -> Dict:
    """Run the flagship pipeline as ONE streaming execution over every
    shard not yet committed with matching lineage. A shard commits once
    it has as many records as its parquet footer has documents; docs
    without spans make no record, so shards still short commit when the
    stream ends. ``fail_after=k`` injects a crash after k commits (for
    resume tests).

    Returns {"partitions": committed units, "executed": n,
             "skipped": n, "metrics": aggregated}.
    """
    from ..pipelines.extract import build_extract_pipeline

    cfg = cfg or PipelineConfig()
    # the shards the plain pipeline reads; each partition is named by
    # its shard's stem, so two shards must not share one
    shards = document_files(corpus_dir) or []
    by_stem: Dict[str, str] = {}
    for shard in shards:
        other = by_stem.setdefault(_stem(shard), shard)
        if other != shard:
            raise ValueError(f"shards {other} and {shard} share the "
                             f"partition name {_stem(shard)!r}")
    os.makedirs(os.path.join(out_dir, "_manifests"), exist_ok=True)
    # clear stale in-flight temp dirs from a previous crashed run
    for stale in glob.glob(os.path.join(out_dir, "_tmp.*")):
        shutil.rmtree(stale, ignore_errors=True)
    committed = committed_partitions(out_dir)

    # keep every committed shard whose lineage still matches
    totals = {"rows": 0, "valid": 0, "vintage_found": 0, "maker_found": 0,
              "barcode_found": 0, "blob_nonempty": 0}
    done = set()
    skipped = executed = 0
    for name, prior in committed.items():
        lin = prior.get("lineage")
        shard = lin.get("input_file") if isinstance(lin, dict) else None
        if shard in shards and _lineage_matches(shard, cfg, lin):
            done.add(shard)
            skipped += 1
            for k in totals:
                totals[k] += prior["metrics"][k]
            continue
        # purge every other partition: its shard is being re-executed
        # (lineage mismatch) or references inputs no longer in the
        # corpus (orphan); left behind, readers globbing part=*/ would
        # see its stale rows alongside the fresh ones
        shutil.rmtree(os.path.join(out_dir, f"part={name}"),
                      ignore_errors=True)
        try:
            os.remove(os.path.join(out_dir, "_manifests", f"{name}.json"))
        except OSError:
            pass

    # each footer is read once: it counts the shard's documents here
    # and plans the read
    footers = {s: pq.read_metadata(s) for s in shards if s not in done}
    pending = {s: {"left": m.num_rows, "writer": None,
                   "lineage": _lineage(s, cfg),
                   "metrics": dict(dict.fromkeys(totals, 0),
                                   conf_sum=0.0, conf_n=0)}
               for s, m in footers.items()}

    def write(shard: str, records) -> None:
        st = pending[shard]
        if st["writer"] is None:
            tmp_dir = os.path.join(out_dir, f"_tmp.{_stem(shard)}")
            os.makedirs(tmp_dir, exist_ok=True)
            st["writer"] = pq.ParquetWriter(
                os.path.join(tmp_dir, "part-0.parquet"), RECORD_SCHEMA)
        st["writer"].write_table(records)
        _fold(st["metrics"], records)
        st["left"] -= records.num_rows

    def commit(shard: str) -> None:
        """Close the shard's file in _tmp.<name>, rename that dir to
        part=<name>, then write the manifest to a temp file and
        os.replace it into _manifests/ (both steps atomic; a crash
        between them re-executes the shard, which is idempotent)."""
        nonlocal executed
        if pending[shard]["writer"] is None:
            write(shard, RECORD_SCHEMA.empty_table())
        st = pending.pop(shard)
        st["writer"].close()
        metrics = st["metrics"]
        conf_sum, conf_n = metrics.pop("conf_sum"), metrics.pop("conf_n")
        metrics["mean_ocr_conf"] = conf_sum / conf_n if conf_n else 0.0
        name = _stem(shard)
        final_dir = os.path.join(out_dir, f"part={name}")
        shutil.rmtree(final_dir, ignore_errors=True)
        os.rename(os.path.join(out_dir, f"_tmp.{name}"), final_dir)
        manifest = os.path.join(out_dir, "_manifests", f"{name}.json")
        with open(manifest + ".tmp", "w") as f:
            json.dump({"lineage": st["lineage"], "metrics": metrics,
                       "partition": f"part={name}"}, f)
        os.replace(manifest + ".tmp", manifest)
        executed += 1
        for k in totals:
            totals[k] += metrics[k]
        if fail_after is not None and executed >= fail_after:
            raise RuntimeError(
                f"injected failure after {executed} partitions")

    batches = None
    try:
        for shard in [s for s, st in pending.items() if st["left"] == 0]:
            commit(shard)
        if pending:
            records = build_extract_pipeline(
                corpus_dir, cfg, doc_files=list(pending),
                footers=[footers[s] for s in pending])
            batches = iter(records.iter_batches(batch_size=None,
                                                batch_format="pyarrow"))
        for batch in batches or ():
            path = batch.column("path")
            for shard in pc.unique(path).to_pylist():
                write(shard, batch.filter(pc.equal(path, shard))
                      .drop_columns(["path"]))
                if pending[shard]["left"] <= 0:
                    commit(shard)
        for shard in list(pending):
            commit(shard)
    finally:
        # close the stream so an abandoned execution releases its actor
        # pool before the next run starts
        if batches is not None:
            batches.close()
        for st in pending.values():
            if st["writer"] is not None:
                st["writer"].close()

    return {"partitions": skipped + executed, "executed": executed,
            "skipped": skipped, "metrics": totals}
