"""One Ray session driving the flagship pipeline in a closed loop.

Started by ``run.py`` as its own process, with a working directory
outside the source tree so the package reaches Ray workers only by
value (``_rayprep``), never by a lucky import from the cwd::

    python3 session.py <spec.json>

The spec names the source root, the corpora, the Ray temp dir and the
mode. ``setup`` mode starts a session, runs the warm-up execution and
stops. ``loop`` mode then keeps submitting one job at a time until
``seconds`` have passed. A job is one pipeline execution written to
parquet; on a ``fail_after`` workload it is a checkpointed run that
crashes after that many commits, followed by the resume. The result,
including Ray Data's per-operator stats of every execution, is written
to the spec's ``result`` path as JSON. Output records are checked by
the parent process, so no oracle state sits in this process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, List

SESSION_CPUS = 2
OBJECT_STORE_BYTES = 256 * 1024 * 1024
SCAN_REPEATS = 5


def _op_key(name: str) -> str:
    if name.startswith("ReadParquet"):
        return "read"
    if "MediaExtract" in name:
        return "media"
    if name.startswith("Sort"):
        return "sort"
    if "assemble_bucket" in name or "Write" in name:
        return "assemble_write"
    if "<lambda>" in name:
        return "bucket"
    return "other"


def _walk(summary):
    for parent in summary.parents:
        yield from _walk(parent)
    yield from summary.operators_stats


def operator_stats(datasets) -> Dict[str, Dict[str, float]]:
    """Per-operator CPU s, task wall s and output bytes summed over the
    executions, from Ray Data's structured stats (a written Dataset
    keeps them on the Dataset its write executed)."""
    ops: Dict[str, Dict[str, float]] = {}
    for ds in datasets:
        if getattr(ds, "_write_ds", None) is not None:
            ds = ds._write_ds
        for op in _walk(ds._get_stats_summary()):
            agg = ops.setdefault(_op_key(op.operator_name),
                                 {"cpu_s": 0.0, "wall_s": 0.0,
                                  "out_bytes": 0.0})
            agg["cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
            agg["wall_s"] += (op.wall_time or {}).get("sum", 0.0)
            if op.operator_name == "SortMap":
                agg["out_bytes"] += (op.output_size_bytes or {}).get(
                    "sum", 0.0)
    return ops


class DatasetRecorder:
    """Keeps every Dataset ``build_extract_pipeline`` returns, including
    the ones the checkpointed runner builds internally, so their stats
    can be read once the job's timer has stopped."""

    def __init__(self, extract_module):
        self._module = extract_module
        self._build = extract_module.build_extract_pipeline
        self.datasets: List = []
        extract_module.build_extract_pipeline = self._record

    def _record(self, *args, **kwargs):
        ds = self._build(*args, **kwargs)
        self.datasets.append(ds)
        return ds

    def take(self) -> List:
        out, self.datasets = self.datasets, []
        return out

    def close(self) -> None:
        self._module.build_extract_pipeline = self._build


def _plain_job(extract, corpus: str, out_dir: str) -> Dict:
    t0 = time.perf_counter()
    extract.build_extract_pipeline(corpus).write_parquet(out_dir)
    return {"wall_s": time.perf_counter() - t0}


def _crash_resume_job(checkpoint, corpus: str, out_dir: str,
                      fail_after: int) -> Dict:
    t0 = time.perf_counter()
    crashed = False
    try:
        checkpoint.run_checkpointed(corpus, out_dir, fail_after=fail_after)
    except RuntimeError as e:
        crashed = "injected failure" in str(e)
    crash_s = time.perf_counter() - t0
    scans = []
    for _ in range(SCAN_REPEATS):
        s0 = time.perf_counter()
        committed = checkpoint.committed_partitions(out_dir)
        scans.append(time.perf_counter() - s0)
    t1 = time.perf_counter()
    summary = checkpoint.run_checkpointed(corpus, out_dir)
    resume_s = time.perf_counter() - t1
    return {"wall_s": crash_s + resume_s, "resume_s": resume_s,
            "crashed": crashed, "committed_at_crash": len(committed),
            "scan_s": statistics.median(scans),
            "resume_executed": summary["executed"],
            "resume_skipped": summary["skipped"]}


def _cpu_jiffies():
    """(all CPU time, stolen CPU time) of the host so far, in jiffies."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def _peak_rss_reset() -> None:
    """Restarts the kernel's peak-RSS count (VmHWM) so the peak covers
    the timed loop only; where that is refused it covers the session."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["root"])
    import ray
    from ray.data import DataContext

    from wine_label_ocr_ray.pipelines import extract
    from wine_label_ocr_ray.stages import checkpoint

    recorder = DatasetRecorder(extract)
    out: Dict = {"jobs": []}
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=SESSION_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=spec["ray_tmp"])
    try:
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        _plain_job(extract, spec["warmup"],
                   os.path.join(spec["out"], "warmup"))
        out["setup_s"] = time.perf_counter() - t0
        recorder.take()
        if spec["mode"] == "loop":
            _peak_rss_reset()
            total0, steal0 = _cpu_jiffies()
            start = time.perf_counter()
            while not out["jobs"] or \
                    time.perf_counter() - start < spec["seconds"]:
                job_dir = os.path.join(spec["out"],
                                       f"job-{len(out['jobs']):03d}")
                if spec.get("fail_after"):
                    job = _crash_resume_job(checkpoint, spec["corpus"],
                                            job_dir, spec["fail_after"])
                else:
                    job = _plain_job(extract, spec["corpus"], job_dir)
                datasets = recorder.take()
                job.update(out_dir=job_dir, executions=len(datasets),
                           ops=operator_stats(datasets))
                out["jobs"].append(job)
            out["peak_rss_mb"] = _peak_rss_mb()
            total1, steal1 = _cpu_jiffies()
            # share of CPU time the hypervisor gave to other guests during
            # the loop: a stamp that explains host-made slow runs
            out["steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    finally:
        recorder.close()
        ray.shutdown()
    with open(spec["result"], "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main(sys.argv[1])
