"""Benchmark of the flagship extraction pipeline
(``pipelines.extract.build_extract_pipeline``) and its checkpointed
form (``stages.checkpoint.run_checkpointed``).

Run from the root of a source checkout::

    python3 perfbench/run.py --workload mixed_media --seed 1 \\
        --seconds 8 --trace 0

Workloads (``corpus.WORKLOADS``): ``mixed_media``, ``text_heavy``,
``crash_resume``. Each is a closed loop: one process submits
one job at a time to its own 2-CPU local Ray session, started in a
fresh subprocess with a hard timeout. Every job's records are checked
against ``oracle.oracle_records``; on ``crash_resume`` every document
must also be committed exactly once.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: Ray Data operator stats of the timed loop plus an
off-Ray single-process replay with per-layer timers (``replay.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
workload's measured input mix and the failure counts.

Corpora and oracle digests are cached per (workload, seed) under
``.perfbench_work/`` in the checkout. Exit code 2 means the checkout
holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List

import corpus as C
from session import SESSION_CPUS

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = "wine_label_ocr_ray"
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 2
SESSION_TIMEOUT_S = 120
REPLAY_TIMEOUT_S = 120
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# ~65 bytes below its temp dir
MAX_RAY_TMP_LEN = 40

# replay span -> what its self time is divided by
REPLAY_LAYERS = {
    "read": "doc", "explode_spans": "doc", "extract_text_spans": "doc",
    "media_fetch": "doc", "decode_payload": "media", "detect": "media",
    "ocr_box": "box", "ocr_sweep": "media", "barcode_scan": "media",
    "create_text_mask": "image", "extract_smart_blobs": "image",
    "blob_fingerprint": "image", "add_bucket": "doc",
    "group_by_bucket": "doc", "assemble_bucket": "doc",
}
OPS = ("read", "media", "bucket", "sort", "assemble_write")


def _reap_group(pgid: int) -> None:
    """Kills what is left of a process group and waits until no member
    remains (Ray's raylet, GCS and workers share the session's group)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        alive = False
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                alive = True
                break
        if not alive:
            return
        time.sleep(0.1)


def _run_child(script: str, spec: Dict, work: str, tag: str,
               timeout_s: float) -> Dict:
    """Runs ``script`` with ``spec`` in its own session and process
    group, cwd ``work``; returns its JSON result or raises with the tail
    of its log."""
    spec = dict(spec, result=os.path.join(work, f"{tag}.result.json"))
    spec_path = os.path.join(work, f"{tag}.spec.json")
    log_path = os.path.join(work, f"{tag}.log")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), spec_path],
            cwd=work, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _reap_group(proc.pid)
            proc.wait()
    if code != 0:
        with open(log_path, errors="replace") as f:
            tail = "".join(f.readlines()[-40:])
        raise RuntimeError(f"{script} ({tag}) "
                           + ("timed out" if code is None
                              else f"exited with {code}")
                           + f"; end of its log:\n{tail}")
    with open(spec["result"]) as f:
        return json.load(f)


def _ray_tmp(work: str) -> str:
    path = os.path.join(work, "ray")
    if len(path) > MAX_RAY_TMP_LEN:
        path = tempfile.mkdtemp(prefix="pb-ray-")
    os.makedirs(path, exist_ok=True)
    return path


def _remove_stale_runs(work_root: str) -> None:
    """Removes the work dirs of earlier runs that were killed."""
    if not os.path.isdir(work_root):
        return
    for name in os.listdir(work_root):
        if name.startswith("run-") and name[4:].isdigit() \
                and not os.path.exists(f"/proc/{name[4:]}"):
            shutil.rmtree(os.path.join(work_root, name), ignore_errors=True)


def _add_check(totals: Dict, res: Dict) -> None:
    for k, v in res.items():
        totals[k] = totals.get(k, 0) + v


def _check_jobs(jobs: List[Dict], meta: Dict, fail_after) -> Dict:
    """Checks every job's committed records against the oracle; on a
    crash/resume job also that the crash and the resume committed the
    expected partitions (``protocol_errors``)."""
    totals = {"attempted": 0, "failed": 0, "protocol_errors": 0}
    pattern = "part=*/*.parquet" if fail_after else "*.parquet"
    for job in jobs:
        _add_check(totals, C.check_output_dir(job["out_dir"], pattern,
                                              meta["oracle"]))
        if fail_after:
            shards = meta["mix"]["shards"]
            ok = (job["crashed"] and job["committed_at_crash"] == fail_after
                  and job["resume_skipped"] == fail_after
                  and job["resume_executed"] == shards - fail_after)
            totals["protocol_errors"] += 0 if ok else 1
    return totals


def _ray_layer_metrics(jobs: List[Dict], meta: Dict, fail_after) -> Dict:
    out: Dict[str, float] = {}
    for op in OPS:
        for stat in ("cpu_s", "wall_s"):
            out[f"op.{op}.{stat}"] = median(
                [j["ops"].get(op, {}).get(stat, 0.0) for j in jobs])
    out["shuffle.bytes"] = median(
        [j["ops"].get("sort", {}).get("out_bytes", 0.0) for j in jobs])
    out["non_compute.frac"] = median(
        [(j["wall_s"] - sum(o["cpu_s"] for o in j["ops"].values())
          / SESSION_CPUS) / j["wall_s"] for j in jobs])
    if not fail_after:
        out.update({f"checkpoint.{name}": 0.0 for name in (
            "executions", "s_per_execution", "scan_ms", "reexecuted_frac",
            "resume_s")})
        return out
    shards = meta["mix"]["shards"]
    out.update({
        "checkpoint.executions": median(j["executions"] for j in jobs),
        "checkpoint.s_per_execution": median(
            j["wall_s"] / j["executions"] for j in jobs),
        "checkpoint.scan_ms": median(j["scan_s"] * 1e3 for j in jobs),
        # shards executed beyond one pass over the corpus
        "checkpoint.reexecuted_frac": median(
            (j["committed_at_crash"] + j["resume_executed"] - shards) / shards
            for j in jobs),
        "checkpoint.resume_s": median(j["resume_s"] for j in jobs),
    })
    return out


def _replay_metrics(rep: Dict, meta: Dict) -> Dict:
    """Layer metrics of the replay. Tracer totals and call counts sum
    over the timed passes; the counters describe one pass."""
    passes = len(rep["traced_wall_s"])
    docs = meta["mix"]["docs"]
    cnt = rep["counters"]
    calls, incl, self_ns = rep["calls"], rep["incl_ns"], rep["self_ns"]
    per = {"doc": docs * passes, "media": max(cnt["media"] * passes, 1),
           "box": max(calls.get("ocr_box", 0), 1),
           "image": max(calls.get("create_text_mask", 0), 1)}
    out: Dict[str, float] = {}
    for span, unit in REPLAY_LAYERS.items():
        out[f"{span}.us_per_{unit}"] = self_ns.get(span, 0) / 1e3 / per[unit]
    out["blob_analyze.us_per_media"] = \
        incl.get("blob_analyze", 0) / 1e3 / per["media"]
    out["blob_analyze.self_us_per_media"] = \
        self_ns.get("blob_analyze", 0) / 1e3 / per["media"]
    out["extract_media_fields.self_us_per_media"] = \
        self_ns.get("extract_media_fields", 0) / 1e3 / per["media"]
    out["media_extract.self_us_per_doc"] = \
        self_ns.get("media_extract", 0) / 1e3 / per["doc"]
    out["media_fetch.bytes_per_doc"] = meta["mix"]["media_bytes_per_doc"]
    out["text_year.hit_frac"] = \
        cnt["text_years"] / max(cnt["text_candidates"], 1)
    sweeps = calls.get("ocr_sweep", 0) / passes
    out["sweep.frac"] = sweeps / max(cnt["media"], 1)
    out["sweep.hit_frac"] = cnt["fallback_hits"] / max(sweeps, 1)
    out["blob.survivor_frac"] = cnt["blobs_kept"] / max(cnt["components"], 1)
    traced_ns = sum(rep["traced_wall_s"]) * 1e9
    plain_s = median(rep["plain_wall_s"])
    out["replay.docs_per_s"] = docs / plain_s
    out["replay.media_share"] = incl.get("media_extract", 0) / traced_ns
    out["replay.uncovered_frac"] = (traced_ns - rep["top_ns"]) / traced_ns
    out["replay.trace_overhead_frac"] = \
        median(rep["traced_wall_s"]) / plain_s - 1.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(C.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE, "__init__.py")):
        print(f"no {PACKAGE} package under {root}: run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, root)

    work_root = os.path.join(root, WORK_DIR)
    _remove_stale_runs(work_root)
    t_prepare = time.perf_counter()
    meta = C.prepare(os.path.join(work_root, "cache"), args.workload,
                     args.seed)
    prepare_s = time.perf_counter() - t_prepare
    fail_after = C.WORKLOADS[args.workload].get("fail_after")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = _ray_tmp(work)
    try:
        spec = {"root": root, "corpus": meta["corpus"],
                "warmup": meta["warmup"], "ray_tmp": ray_tmp,
                "seconds": args.seconds, "fail_after": fail_after}
        # a --trace 0 run also sets up in sessions that only set up, so
        # setup_s is a median; the last session runs the timed loop
        modes = ["setup"] * (0 if args.trace else SETUP_REPEATS - 1)
        sessions = []
        for i, mode in enumerate(modes + ["loop"]):
            timeout_s = SESSION_TIMEOUT_S + (args.seconds if mode == "loop"
                                             else 0)
            sessions.append(_run_child(
                "session.py",
                dict(spec, mode=mode, out=os.path.join(work, f"s{i}")),
                work, f"s{i}", timeout_s))
        setups = [s["setup_s"] for s in sessions]
        jobs = sessions[-1]["jobs"]
        check = _check_jobs(jobs, meta, fail_after)
        for i in range(len(sessions)):
            _add_check(check, C.check_output_dir(
                os.path.join(work, f"s{i}", "warmup"), "*.parquet",
                meta["warmup_oracle"]))

        docs = meta["mix"]["docs"]
        if args.trace:
            rep = _run_child("replay.py",
                             {"root": root, "corpus": meta["corpus"],
                              "warmup": meta["warmup"]},
                             work, "replay", REPLAY_TIMEOUT_S)
            for digests in rep["digests"]:
                _add_check(check, C.check_records(digests.items(),
                                                  meta["oracle"]))
            metrics = _ray_layer_metrics(jobs, meta, fail_after)
            metrics.update(_replay_metrics(rep, meta))
            units = {k: _unit(k) for k in metrics}
        else:
            metrics = {
                "docs_per_s": median([docs / j["wall_s"] for j in jobs]),
                "cpu_ms_per_doc": median(
                    [sum(o["cpu_s"] for o in j["ops"].values()) * 1e3 / docs
                     for j in jobs]),
                "setup_s": median(setups),
                "driver_peak_rss_mb": sessions[-1]["peak_rss_mb"],
            }
            units = {"docs_per_s": "1/s", "cpu_ms_per_doc": "ms",
                     "setup_s": "s", "driver_peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not ray_tmp.startswith(work):
            shutil.rmtree(ray_tmp, ignore_errors=True)

    correct = check["failed"] == 0 and check["protocol_errors"] == 0
    info = {"workload": args.workload, "seed": args.seed, "mix": meta["mix"],
            "job_wall_s": [j["wall_s"] for j in jobs], "failed_docs_frac": {
                "value": check["failed"] / check["attempted"],
                "unit": "fraction"},
            "checks": check, "setup_s_samples": setups,
            "prepare_s": prepare_s,
            "host_steal_frac": sessions[-1]["steal_frac"]}
    if fail_after:
        info["resume_s"] = {"value": median([j["resume_s"] for j in jobs]),
                            "unit": "s"}
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("docs_per_s"):
        return "1/s"
    if "us_per_" in name:
        return "us"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s_per_execution"):
        return "s"
    if name.endswith(".executions"):
        return "count"
    return "fraction"


if __name__ == "__main__":
    sys.exit(main())
