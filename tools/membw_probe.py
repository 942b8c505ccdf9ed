"""Quantify the single-host memory-bandwidth ceiling behind the 8v32
scaling criterion.

Runs a STREAM-add kernel (a = b + c over arrays far larger than LLC,
temp-free so counted bytes equal bus traffic modulo write-allocate)
in P pinned processes for each width P in 1,4,8,16,32 (override with
MEMBW_WIDTHS) and reports aggregate moved bytes/sec. On a real N-vs-4N-NODE cluster, DRAM
channels scale with cores; on this one host they do not, so
(BW_32/BW_8)/4 is the hard 8v32 efficiency ceiling for any
memory-bound stage — measured, not argued. A pure-ALU control
(cache-resident multiply-add) runs the same protocol to show the
ceiling is specific to memory traffic.

Usage: python tools/membw_probe.py  (prints one JSON line)
"""
import json
import multiprocessing as mp
import os
import time

import numpy as np

N = 8_000_000          # 64 MB per float64 array; 3 arrays = 192 MB/proc
MEASURE_S = 3.0
WARMUP_S = 1.0
BYTES_PER_ITER = 4 * N * 8   # read b, read c, write a + write-allocate a


def _stream_add(core, ready, start_evt, out):
    os.sched_setaffinity(0, {core})
    b = np.random.rand(N)
    c = np.random.rand(N)
    a = np.empty_like(b)
    np.add(b, c, out=a)         # touch every page before signalling
    ready.put(core)
    start_evt.wait()
    t_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < t_end:
        np.add(b, c, out=a)
    iters = 0
    t0 = time.perf_counter()
    t_end = t0 + MEASURE_S
    while time.perf_counter() < t_end:
        np.add(b, c, out=a)
        iters += 1
    out.put(iters * BYTES_PER_ITER / (time.perf_counter() - t0))


def _alu(core, ready, start_evt, out):
    os.sched_setaffinity(0, {core})
    x = np.random.rand(4096)   # L1/L2-resident: no DRAM traffic
    x = x * 1.000001 + 1e-9
    ready.put(core)
    start_evt.wait()
    t_end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < t_end:
        x = x * 1.000001 + 1e-9
    iters = 0
    t0 = time.perf_counter()
    t_end = t0 + MEASURE_S
    while time.perf_counter() < t_end:
        x = x * 1.000001 + 1e-9
        iters += 1
    out.put(iters * 2 * 4096 / (time.perf_counter() - t0))  # flops/s


def run_width(kernel, p):
    ctx = mp.get_context("spawn")
    start_evt = ctx.Event()
    ready = ctx.Queue()
    out = ctx.Queue()
    procs = [ctx.Process(target=kernel, args=(i, ready, start_evt, out))
             for i in range(p)]
    for pr in procs:
        pr.start()
    for _ in procs:              # barrier: every child imported numpy,
        ready.get()              # allocated and touched its pages
    start_evt.set()
    vals = [out.get() for _ in procs]
    for pr in procs:
        pr.join()
    return sum(vals)


def main():
    widths = [int(w) for w in os.environ.get(
        "MEMBW_WIDTHS", "1,4,8,16,32").split(",")]
    res = {"metric": "membw_ceiling", "unit": "GB/s",
           "array_mb_per_proc": round(3 * N * 8 / 2**20)}
    for p in widths:
        res[f"stream_add_gbps_{p}"] = round(run_width(_stream_add, p) / 1e9, 2)
    for p in widths:
        if p > 1:
            res[f"alu_gflops_{p}"] = round(run_width(_alu, p) / 1e9, 2)
    for lo_w, hi_w in ((4, 16), (8, 32)):
        if lo_w in widths and hi_w in widths:
            res[f"stream_{lo_w}v{hi_w}_ceiling"] = round(
                (res[f"stream_add_gbps_{hi_w}"]
                 / res[f"stream_add_gbps_{lo_w}"]) / 4, 3)
            res[f"alu_{lo_w}v{hi_w}_ceiling"] = round(
                (res[f"alu_gflops_{hi_w}"]
                 / res[f"alu_gflops_{lo_w}"]) / 4, 3)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
