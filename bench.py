#!/usr/bin/env python
"""Benchmark harness. Each mode prints one JSON line.

``python bench.py``: the flagship (detect + OCR + span reassembly over
the deterministic interleaved corpus of $WLOR_BENCH_DOCS docs, default
150,000) in a fresh Ray session of $RAY_GRAFT_CPUS CPUs (default 32):
a warm-up run over 1/8 of the shards, then the best of two timed runs,
with per-operator wall/CPU seconds and output rows from Ray Data's
structured stats; ``media_cpu_ms_per_doc`` is the one actor operator's
CPU per doc, which covers the text leg, the media leg and assembly.
Then, in a second fresh session, the sf-dir corpus derivation and the
``BENCH_QUERIES`` over the sf0.1 test data or $GRAFT_SF_DIR;
WLOR_BENCH_QUERIES=skip leaves both out.

``python bench.py --checkpointed``: one checkpointed flagship run (one
streaming execution, per-shard commits) over 20,000 docs in 8 shards.

``python bench.py --scaling``: N-vs-4N throughput scaling on one host,
hi = the CPUs this process may use, lo = hi // 4 (at least 4). Each leg
is a fresh interpreter timing one flagship run of SCALING_DOCS docs,
with the same media-pool fraction at both widths. The lo leg is pinned
to its cores and pure-ALU spinners keep the other cores busy, so both
legs run at the all-core clock, as every node of an N- or 4N-node
cluster would. One warm-up leg per width is discarded, then lo and hi
legs alternate. A trial is valid when each delivered-cores probe around
it (before, between and after its legs) reads >= PROBE_MIN_FRAC * hi;
efficiency = (T_lo / T_hi) / (hi / lo) over the valid trials' medians.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

BENCH_QUERIES = [
    "q1_pricing_summary", "q3_shipping_priority", "q5_region_revenue",
    "events_hourly", "events_sessionize", "doc_stats", "dedup_exact",
    "minhash_lsh_pairs", "knn_cosine_topk",
]

CKPT_DOCS = 20_000
CKPT_SHARDS = 8

# the settings of the criterion-grade runs in BASELINE.md (8v32 at
# 600k docs: 0.81; 4v16: 0.955)
SCALING_DOCS = 600_000
SCALING_WARMUP_DOCS = 40_000
SCALING_TRIALS = 5
SCALING_MAX_ATTEMPTS = 2 * SCALING_TRIALS
SCALING_POOL_FRACTION = 0.75
PROBE_MIN_FRAC = 0.85

# one scaling leg: python -c _LEG <repo> <cpus> <docs>
_LEG = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench; "
        "print(json.dumps(bench.run_flagship(*map(int, sys.argv[2:]), "
        "runs=1, pool_fraction=bench.SCALING_POOL_FRACTION)))")
_SPINNER = "x = 0\nwhile True:\n    for i in range(100000): x += i * i\n"


def _init_ray(num_cpus: int):
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray
    from ray.data import DataContext
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    return ray


def stage_stats(ds) -> dict:
    """{"op<i> <name>": {wall_total_s, cpu_total_s, output_rows}} from
    Ray Data's structured stats, parents first (a written Dataset keeps
    them on ``_write_ds``); the index keeps same-named operators apart."""
    if getattr(ds, "_write_ds", None) is not None:
        ds = ds._write_ds

    def walk(summary):
        for parent in summary.parents:
            yield from walk(parent)
        yield from summary.operators_stats

    return {f"op{i} {op.operator_name}": {
                "wall_total_s": round((op.wall_time or {}).get("sum", 0.0), 2),
                "cpu_total_s": round((op.cpu_time or {}).get("sum", 0.0), 2),
                "output_rows": int((op.output_num_rows or {}).get("sum", 0))}
            for i, op in enumerate(walk(ds._get_stats_summary()))}


def run_flagship(num_cpus: int, docs: int, runs: int = 2,
                 pool_fraction: float = None) -> dict:
    """The best of ``runs`` timed flagship runs in a fresh Ray session.
    The media pool is ``num_cpus - 2`` actors, or ``pool_fraction`` of
    the CPUs (the scaling legs: the same fraction at both widths), and
    leaves one CPU for the read stage, which a full pool starves."""
    if num_cpus < 2:
        raise SystemExit("bench needs num_cpus >= 2: a pool and a read slot")
    ray = _init_ray(num_cpus)
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.pipelines.extract import build_extract_pipeline
    from wine_label_ocr_ray.synth import generate_corpus

    # corpus generation is setup, cached across runs
    corpus = f"/tmp/wlor_bench_corpus_{docs}"
    generate_corpus(corpus, num_docs=docs, seed=42, use_ray=True)
    pool = max(2, int(num_cpus * pool_fraction)) if pool_fraction \
        else max(2, num_cpus - 2)
    pool = min(pool, num_cpus - 1)
    cfg = PipelineConfig(override_num_blocks=max(16, 4 * num_cpus),
                         media_concurrency=pool)

    # warm-up: read every corpus byte once, then run over 1/8 of the
    # shards to start the worker and actor processes
    for f in glob.glob(os.path.join(corpus, "*", "*.parquet")):
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass
    out_dir = f"/dev/shm/wlor_bench_out_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    shards = sorted(glob.glob(os.path.join(corpus, "documents", "*.parquet")))
    build_extract_pipeline(corpus, cfg, doc_files=shards[:max(
        1, len(shards) // 8)]).write_parquet(out_dir)

    # a single run swings ~25% with page-cache and writeback state;
    # the best of the runs is the steady-state number
    best, stats = float("inf"), {}
    for _ in range(runs):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        ds = build_extract_pipeline(corpus, cfg)
        ds.write_parquet(out_dir)
        el = time.time() - t0
        if el < best:
            best, stats = el, stage_stats(ds)
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()
    media_cpu = sum(v["cpu_total_s"] for k, v in stats.items()
                    if "MediaExtract" in k)
    return {
        "metric": "flagship_extract_sec",
        "value": round(best, 3),
        "unit": "sec",
        "queries": {},
        "num_cpus": num_cpus,
        "bench_docs": docs,
        "docs_per_sec": round(docs / best, 1),
        "stage_stats": stats,
        "stage_cpu_total_s": round(sum(
            v["cpu_total_s"] for v in stats.values()), 2),
        "stage_wall_total_s": round(sum(
            v["wall_total_s"] for v in stats.values()), 2),
        # per doc, not per output row: the actor's text, media and
        # assembly cost
        "media_cpu_ms_per_doc": round(1e3 * media_cpu / docs, 3),
        "media_pool": pool,
    }


def run_queries(num_cpus: int, sf_dir: str) -> dict:
    """The sf-dir corpus derivation (fresh, not a cache hit) and the
    ``BENCH_QUERIES`` timings, in a fresh Ray session: one that has
    pushed GBs through plasma serves later shuffles slower."""
    ray = _init_ray(num_cpus)
    import ray.data as rd
    from wine_label_ocr_ray.pipelines.queries import QUERIES
    from wine_label_ocr_ray.synth import derive_corpus_from_documents

    derive_dir = "/tmp/wlor_bench_derive"
    shutil.rmtree(derive_dir, ignore_errors=True)
    t0 = time.time()
    derive_corpus_from_documents(
        os.path.join(sf_dir, "documents.parquet"), derive_dir, seed=42)
    derive_sec = round(time.time() - t0, 3)
    shutil.rmtree(derive_dir, ignore_errors=True)

    # start the task workers and the join's aggregator actors before
    # timing, or the first query and the first join absorb the ramp
    rd.range(num_cpus * 4, override_num_blocks=num_cpus) \
        .map_batches(lambda b: b).materialize()
    rd.range(64, override_num_blocks=2) \
        .join(rd.range(64, override_num_blocks=2), join_type="inner",
              num_partitions=16, on=("id",)).materialize()
    qtimes = {}
    for name in BENCH_QUERIES:
        t0 = time.time()
        out = QUERIES[name](sf_dir)
        if hasattr(out, "to_pandas"):
            out.to_pandas()
        qtimes[name] = round(time.time() - t0, 3)
    ray.shutdown()
    return {"queries": qtimes, "corpus_derive_sec": derive_sec}


def run_bench() -> dict:
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    result = run_flagship(num_cpus,
                          int(os.environ.get("WLOR_BENCH_DOCS", "150000")))
    result.update(sf=sf_dir, corpus_derive_sec=None)
    if os.environ.get("WLOR_BENCH_QUERIES") != "skip":
        result.update(run_queries(num_cpus, sf_dir))
    return result


def run_checkpointed_bench() -> dict:
    """One checkpointed flagship run: the shape a large run uses (one
    streaming execution, per-shard atomic commits, resume scan)."""
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ray = _init_ray(num_cpus)
    from wine_label_ocr_ray.config import PipelineConfig
    from wine_label_ocr_ray.stages.checkpoint import run_checkpointed
    from wine_label_ocr_ray.synth import generate_corpus
    corpus = f"/tmp/wlor_ckpt_corpus_{CKPT_DOCS}_{CKPT_SHARDS}"
    generate_corpus(corpus, num_docs=CKPT_DOCS, seed=42,
                    num_shards=CKPT_SHARDS, use_ray=True)
    cfg = PipelineConfig(override_num_blocks=max(16, 4 * num_cpus),
                         media_concurrency=max(2, num_cpus - 2))
    out_dir = "/dev/shm/wlor_ckpt_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    res = run_checkpointed(corpus, out_dir, cfg)
    el = time.time() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    ray.shutdown()
    return {"metric": "checkpointed_flagship_sec", "unit": "sec",
            "docs": CKPT_DOCS, "shards": CKPT_SHARDS, "num_cpus": num_cpus,
            "sec": round(el, 3), "docs_per_sec": round(CKPT_DOCS / el, 1),
            "commits": res["executed"], "rows": res["metrics"]["rows"]}


def delivered_cores(procs: int, wall: float = 1.0) -> float:
    """CPU seconds per wall second the kernel gives ``procs`` ALU
    spinners: co-tenant load lowers it, the all-core clock does not."""
    import multiprocessing as mp
    with mp.get_context("spawn").Pool(procs) as p:
        return round(sum(p.map(_spin, [wall] * procs)) / wall, 1)


def _spin(wall: float) -> float:
    t0 = time.time()
    c0 = time.process_time()
    x = 0
    while time.time() - t0 < wall:
        for i in range(20000):
            x += i * i
    return time.process_time() - c0


def run_scaling() -> dict:
    cores = sorted(os.sched_getaffinity(0))
    hi = len(cores)
    lo = hi // 4
    if lo < 4:
        raise SystemExit(f"--scaling needs >= 16 usable CPUs, this "
                         f"process may use {hi}")

    def leg(ncpu: int, docs: int) -> dict:
        cmd = [sys.executable, "-c", _LEG, REPO, str(ncpu), str(docs)]
        if ncpu < hi:
            cmd = ["taskset", "-c", ",".join(map(str, cores[:ncpu]))] + cmd
        spinners = []
        try:
            # spawned inside the try, so a failed spawn still kills
            # the spinners already running
            for c in cores[ncpu:]:
                spinners.append(subprocess.Popen(
                    ["taskset", "-c", str(c), sys.executable, "-c",
                     _SPINNER], stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL))
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 check=True).stdout
        finally:
            for s in spinners:
                s.kill()
            for s in spinners:
                s.wait()
        return json.loads(out.strip().splitlines()[-1])

    def valid(probes):
        return [i for i, trio in enumerate(probes)
                if min(trio) >= PROBE_MIN_FRAC * hi]

    for width in (lo, hi):
        leg(width, SCALING_WARMUP_DOCS)
    legs = {lo: [], hi: []}
    probes = []
    post = None
    for _ in range(SCALING_MAX_ATTEMPTS):
        # nothing runs between a trial's last probe and the next
        # trial's first leg, so the one doubles as the other
        pre = post if post is not None else delivered_cores(hi)
        legs[lo].append(leg(lo, SCALING_DOCS))
        mid = delivered_cores(hi)
        legs[hi].append(leg(hi, SCALING_DOCS))
        post = delivered_cores(hi)
        probes.append((pre, mid, post))
        if len(valid(probes)) >= SCALING_TRIALS:
            break

    secs_lo = [r["value"] for r in legs[lo]]
    secs_hi = [r["value"] for r in legs[hi]]
    ratio = hi / lo
    vidx = valid(probes)
    all_invalid = not vidx
    if all_invalid:
        # say so, rather than crash or pass all samples off as valid
        vidx = list(range(len(secs_lo)))
    t_lo = median([secs_lo[i] for i in vidx])
    t_hi = median([secs_hi[i] for i in vidx])
    return {
        "metric": "scaling_efficiency",
        "value": round((t_lo / t_hi) / ratio, 3),
        "unit": "ratio",
        "trials": len(vidx),
        "attempts": len(secs_lo),
        "cpus_lo": lo, "cpus_hi": hi,
        "sec_lo": t_lo, "sec_hi": t_hi,
        "sec_lo_samples": secs_lo, "sec_hi_samples": secs_hi,
        "probe_samples": probes,
        "probe_min_frac": PROBE_MIN_FRAC,
        "valid_trials": vidx,
        "all_trials_invalid": all_invalid,
        "eff_samples": [round((a / b) / ratio, 3)
                        for a, b in zip(secs_lo, secs_hi)],
        # each lo leg over its own adjacent hi leg: clock drift
        # between trials cancels
        "value_per_trial_median": None if all_invalid else round(median(
            [(secs_lo[i] / secs_hi[i]) / ratio for i in vidx]), 3),
        "docs_per_sec_lo": round(SCALING_DOCS / t_lo, 1),
        "docs_per_sec_hi": round(SCALING_DOCS / t_hi, 1),
        "bench_docs": SCALING_DOCS,
        "warmup_docs": SCALING_WARMUP_DOCS,
        "media_pool_lo": legs[lo][-1].get("media_pool"),
        "media_pool_hi": legs[hi][-1].get("media_pool"),
    }


if __name__ == "__main__":
    if "--checkpointed" in sys.argv:
        print(json.dumps(run_checkpointed_bench()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
