"""Scaling-harness logic tests (no subprocesses): bracketing canary
gate with post-as-next-pre reuse, median efficiency, the
all-trials-invalid flag, and the append-not-truncate BASELINE
recorder."""

import importlib.util
import json
import os

import pytest


@pytest.fixture()
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_under_test",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "REPO", str(tmp_path))
    return mod


class _FakeProc:
    def __init__(self, val):
        self.stdout = json.dumps({
            "metric": "flagship_extract_sec", "value": val,
            "unit": "sec", "queries": {}, "sf": "x",
            "num_cpus": 0, "bench_docs": 300000,
            "docs_per_sec": 300000 / val}) + "\n"


def test_scaling_gate_brackets_and_appends(bench, tmp_path, monkeypatch):
    # with post-reused-as-next-pre, n attempts consume n+1 canaries.
    # attempt 1's post of 30 invalidates attempt 1 AND (as attempt 2's
    # pre) attempt 2 — load present at that boundary taints both.
    canary_seq = iter([12.0, 12.1, 30.0, 12.4, 12.5])
    monkeypatch.setattr(bench, "run_canary", lambda: next(canary_seq))
    # neutral capacity probes: this test exercises the CANARY
    # leg of the gate (the probe leg has its own test below)
    monkeypatch.setattr(bench, "capacity_probe",
                        lambda procs: {"delivered_cores": float(procs),
                                       "throughput_cores": float(procs),
                                       "steal_cores": 0.0})

    legs = iter([400.0, 125.0,    # attempt 0: eff 0.8   (valid)
                 400.0, 390.0,    # attempt 1: poisoned  (post 30)
                 410.0, 380.0,    # attempt 2: poisoned  (pre 30)
                 400.0, 115.0])   # attempt 3: eff ~0.87 (valid)
    calls = []

    def fake_run(cmd, **kw):
        calls.append(kw.get("env", {}).get("WLOR_BENCH_CANARY"))
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("WLOR_SCALING_TRIALS", "2")
    monkeypatch.setenv("WLOR_SCALING_MAX_ATTEMPTS", "4")
    monkeypatch.setenv("WLOR_SCALING_LO", "8")
    monkeypatch.setenv("WLOR_SCALING_HI", "32")

    result = bench.run_scaling()
    assert result["valid_trials"] == [0, 3]
    assert result["trials"] == 2
    assert not result["all_trials_invalid"]
    # medians over valid trials: T8=400, T32=(125+115)/2=120 -> 0.833
    assert result["value"] == pytest.approx(0.833, abs=0.001)
    # drift-robust estimator: median of the VALID trials' own ratios
    # (0.8 and ~0.870), not a ratio of cross-trial leg medians
    assert result["value_per_trial_median"] == pytest.approx(
        0.835, abs=0.001)
    # every scaling subprocess must disable nested canary stamps
    assert all(c == "0" for c in calls)
    assert result["canary_samples"] == [
        (12.0, 12.1), (12.1, 30.0), (30.0, 12.4), (12.4, 12.5)]
    # recorder appended a labeled section and preserved prior content
    p = tmp_path / "BASELINE.md"
    prior = "# BASELINE\n\nold table stays\n"
    p.write_text(prior + "\n## Measured results (bench.py --scaling)\n"
                 "\n### old run\n| keep | me |\n")
    bench._record_baseline(result)
    text = p.read_text()
    assert "old table stays" in text
    assert "### old run" in text          # NOT truncated
    assert "### 8v32 @300000 run" in text  # new section appended
    assert "BRACKETING" in text and "VALID set" in text
    assert "drift-robust median of valid per-trial efficiencies" in text


def test_parse_stage_stats_taskpool_and_alltoall(bench):
    """The attribution parser must read both operator shapes the
    flagship emits: task-pool ops ("N tasks executed") and all-to-all
    ops (Sort) whose header has no task count and whose map/reduce
    sub-stage blocks are tab-indented — their compute SUMS, their
    output_rows is the final (reduce) block's."""
    stats = (
        "Operator 1 ReadParquet->MapBatches(f): 8 tasks executed, "
        "8 blocks produced in 0.13s\n"
        "* Remote wall time: 1ms min, 2ms max, 1.5ms mean, 1.5s total\n"
        "* Remote cpu time: 1ms min, 2ms max, 1.5ms mean, 800ms total\n"
        "* Output num rows per block: 10 min, 20 max, 15 mean, 120 total\n"
        "Operator 2 Sort: executed in 2.26s\n"
        "\t* Remote wall time: 1ms min, 2ms max, 2ms mean, 19.25ms total\n"
        "\t* Remote cpu time: 1ms min, 2ms max, 2ms mean, 1.1s total\n"
        "\t* Output num rows per block: 1 min, 2 max, 1 mean, 120 total\n"
        "\t* Remote wall time: 1ms min, 5ms max, 2ms mean, 15.52ms total\n"
        "\t* Remote cpu time: 1ms min, 5ms max, 2ms mean, 900ms total\n"
        "\t* Output num rows per block: 1 min, 3 max, 1 mean, 115 total\n"
        "Dataset throughput:\n\t* Ray Data throughput: 1 rows/s\n")
    parsed = bench._parse_stage_stats(stats)
    assert parsed["op1 ReadParquet->MapBatches(f)"] == {
        "duration_s": 0.13, "wall_total_s": 1.5, "cpu_total_s": 0.8,
        "output_rows": 120}
    assert parsed["op2 Sort"]["duration_s"] == 2.26
    assert parsed["op2 Sort"]["cpu_total_s"] == pytest.approx(2.0)
    assert parsed["op2 Sort"]["wall_total_s"] == pytest.approx(0.03,
                                                               abs=0.01)
    assert parsed["op2 Sort"]["output_rows"] == 115


def test_scaling_probe_gate_excludes_constant_load(bench, tmp_path,
                                                   monkeypatch):
    """The canary-blind spot (BASELINE.md Run C/D): CONSTANT co-tenant
    load slows canaries and legs proportionally, so the canary gate
    passes while the machine delivers far fewer cores. The leg-adjacent
    DELIVERED-core probe must catch it: a trial whose worst probe is
    below 0.85 * hi delivered cores is invalid even with quiet
    canaries. (Delivered = scheduled cpu-sec/wall-sec — immune to the
    all-core DVFS curve that made the old throughput probe read ~16-22
    on a provably idle 32-core host and the gate unpassable.)"""
    canary_seq = iter([12.0, 12.1, 12.2])
    monkeypatch.setattr(bench, "run_canary", lambda: next(canary_seq))
    # attempt 0: probes (32, 18, 31) -> min 18 < 27.2 -> INVALID
    # attempt 1: probes (31, 30, 32) -> valid        (pre = prior post)
    probe_seq = iter([32.0, 18.0, 31.0, 30.0, 32.0])

    def _cap(procs):
        d = next(probe_seq)
        # throughput deliberately BELOW the gate threshold on the valid
        # window (the idle-host DVFS signature): the gate must ignore it
        return {"delivered_cores": d,
                "throughput_cores": round(d * 0.7, 1),
                "steal_cores": 0.0}

    monkeypatch.setattr(bench, "capacity_probe", _cap)
    legs = iter([400.0, 250.0,     # attempt 0: constant-load window
                 400.0, 125.0])    # attempt 1: quiet -> eff 0.8
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda cmd, **kw: _FakeProc(next(legs)))
    monkeypatch.setenv("WLOR_SCALING_TRIALS", "1")
    monkeypatch.setenv("WLOR_SCALING_MAX_ATTEMPTS", "2")
    monkeypatch.setenv("WLOR_SCALING_LO", "8")
    monkeypatch.setenv("WLOR_SCALING_HI", "32")
    result = bench.run_scaling()
    assert result["valid_trials"] == [1]
    assert [tuple(d["delivered_cores"] for d in trio)
            for trio in result["probe_samples"]] == [
                (32.0, 18.0, 31.0), (31.0, 30.0, 32.0)]
    assert result["value"] == pytest.approx(0.8, abs=0.001)
    bench._record_baseline(result)
    text = (tmp_path / "BASELINE.md").read_text()
    assert "capacity probes" in text and "DELIVERED" in text


def test_scaling_equalize_pins_lo_and_spins_rest(bench, tmp_path,
                                                 monkeypatch):
    """WLOR_SCALING_EQUALIZE=1: the lo leg is taskset-pinned to cores
    [0..lo) with one ALU spinner per remaining core (so both legs run
    at the chip's all-core clock — the single-host emulation of the
    cluster criterion); the hi (full-width) leg is neither pinned nor
    spun; every spinner is killed after the leg."""
    monkeypatch.setattr(bench, "run_canary", lambda: 12.0)
    monkeypatch.setattr(bench, "capacity_probe",
                        lambda procs: {"delivered_cores": float(procs),
                                       "throughput_cores": float(procs),
                                       "steal_cores": 0.0})
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 32)

    spawned = []

    class _FakeSpin:
        def __init__(self, cmd, **kw):
            self.cmd = cmd
            self.killed = False
            spawned.append(self)

        def kill(self):
            self.killed = True

        def wait(self):
            assert self.killed

    run_cmds = []
    legs = iter([400.0, 125.0])

    def fake_run(cmd, **kw):
        run_cmds.append(cmd)
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "Popen", _FakeSpin)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("WLOR_SCALING_EQUALIZE", "1")
    monkeypatch.setenv("WLOR_SCALING_TRIALS", "1")
    monkeypatch.setenv("WLOR_SCALING_MAX_ATTEMPTS", "1")
    monkeypatch.setenv("WLOR_SCALING_LO", "8")
    monkeypatch.setenv("WLOR_SCALING_HI", "32")
    result = bench.run_scaling()
    # lo leg pinned to cores 0-7
    assert run_cmds[0][:3] == ["taskset", "-c",
                               ",".join(str(c) for c in range(8))]
    # hi leg at full width: bare python, no taskset
    assert run_cmds[1][0] == bench.sys.executable
    # 24 spinners, one per non-leg core, all killed
    assert len(spawned) == 24
    assert {s.cmd[2] for s in spawned} == {str(c) for c in range(8, 32)}
    assert all(s.killed for s in spawned)
    assert result["equalized"] is True
    bench._record_baseline(result)
    assert "FREQUENCY-EQUALIZED" in (tmp_path / "BASELINE.md").read_text()


def test_scaling_warmup_legs_discarded(bench, tmp_path, monkeypatch):
    """WLOR_SCALING_WARMUP=<docs>: one discarded leg per width runs
    BEFORE trial 0 (steady-state criterion — the first equalized 8v32
    showed the hi leg's cold-start costs 0.976 -> 0.614 of one trial's
    efficiency); warmup legs carry the warmup doc count, are absent
    from the samples, and the recorder labels the run."""
    monkeypatch.setattr(bench, "run_canary", lambda: 12.0)
    monkeypatch.setattr(bench, "capacity_probe",
                        lambda procs: {"delivered_cores": float(procs),
                                       "throughput_cores": float(procs),
                                       "steal_cores": 0.0})
    calls = []
    legs = iter([5.0, 2.0,       # warmup pair (discarded)
                 400.0, 125.0])  # trial 0: eff 0.8

    def fake_run(cmd, env=None, **kw):
        calls.append(env["WLOR_BENCH_DOCS"])
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setenv("WLOR_SCALING_WARMUP", "50000")
    monkeypatch.setenv("WLOR_SCALING_TRIALS", "1")
    monkeypatch.setenv("WLOR_SCALING_MAX_ATTEMPTS", "1")
    monkeypatch.setenv("WLOR_SCALING_LO", "8")
    monkeypatch.setenv("WLOR_SCALING_HI", "32")
    result = bench.run_scaling()
    assert calls == ["50000", "50000", "300000", "300000"]
    assert result["sec_lo_samples"] == [400.0]
    assert result["sec_hi_samples"] == [125.0]
    assert result["value"] == pytest.approx(0.8, abs=0.001)
    assert result["warmup_docs"] == 50000
    bench._record_baseline(result)
    assert ("discarded 50000-doc warmup leg"
            in (tmp_path / "BASELINE.md").read_text())


def test_scaling_all_trials_invalid_flagged(bench, tmp_path,
                                            monkeypatch):
    """If every attempt fails the canary gate, the harness falls back
    to all-sample medians, flags the result invalid, and the recorder
    says so instead of printing a false VALID-set note."""
    canary_seq = iter([12.0, 40.0, 41.0])
    monkeypatch.setattr(bench, "run_canary", lambda: next(canary_seq))
    monkeypatch.setattr(bench, "capacity_probe",
                        lambda procs: {"delivered_cores": float(procs),
                                       "throughput_cores": float(procs),
                                       "steal_cores": 0.0})
    legs = iter([400.0, 200.0, 420.0, 210.0])
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda cmd, **kw: _FakeProc(next(legs)))
    monkeypatch.setenv("WLOR_SCALING_TRIALS", "2")
    monkeypatch.setenv("WLOR_SCALING_MAX_ATTEMPTS", "2")
    monkeypatch.setenv("WLOR_SCALING_LO", "8")
    monkeypatch.setenv("WLOR_SCALING_HI", "32")
    result = bench.run_scaling()
    assert result["all_trials_invalid"]
    assert result["trials"] == 2          # fell back to all samples
    assert result["value"] == pytest.approx((410 / 205) / 4, abs=0.001)
    # no valid trial: the per-trial median is withheld, not labelled
    # as a median over valid trials
    assert result["value_per_trial_median"] is None
    bench._record_baseline(result)
    text = (tmp_path / "BASELINE.md").read_text()
    assert "EVERY trial FAILED" in text
    assert "NOT a valid measurement" in text