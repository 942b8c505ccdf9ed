"""Scaling-harness logic tests (no subprocesses): the delivered-cores
probe gate with post-as-next-pre reuse, the lo leg's pinning and
spinners, the discarded warm-up legs, median efficiency, the
all-trials-invalid flag, the host-derived levels, and the reader of
Ray Data's structured stats."""

import importlib.util
import json
import os
from types import SimpleNamespace

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


class _FakeSpin:
    spawned: list = []

    def __init__(self, cmd, **kw):
        self.cmd = cmd
        self.killed = False
        _FakeSpin.spawned.append(self)

    def kill(self):
        self.killed = True

    def wait(self):
        assert self.killed


@pytest.fixture()
def host32(bench, monkeypatch):
    """A 32-CPU host: no real spinner is started, and the harness runs
    the given number of trials and attempts."""
    monkeypatch.setattr(bench.os, "sched_getaffinity",
                        lambda pid: set(range(32)))
    _FakeSpin.spawned = []
    monkeypatch.setattr(bench.subprocess, "Popen", _FakeSpin)

    def configure(trials, attempts):
        monkeypatch.setattr(bench, "SCALING_TRIALS", trials)
        monkeypatch.setattr(bench, "SCALING_MAX_ATTEMPTS", attempts)
    return configure


def test_scaling_probe_gate_excludes_constant_load(bench, host32,
                                                   monkeypatch):
    """Constant co-tenant load slows both legs alike, so only a
    leg-adjacent DELIVERED-core probe shows it: a trial whose worst
    probe is below 0.85 * hi delivered cores is invalid. (Delivered =
    scheduled cpu-sec/wall-sec, immune to the all-core DVFS curve that
    made a throughput probe read ~16-22 on an idle 32-core host.)"""
    host32(trials=1, attempts=2)
    # attempt 0: probes (32, 18, 31) -> min 18 < 27.2 -> INVALID
    # attempt 1: probes (31, 30, 32) -> valid        (pre = prior post)
    probe_seq = iter([32.0, 18.0, 31.0, 30.0, 32.0])
    monkeypatch.setattr(bench, "delivered_cores",
                        lambda procs: next(probe_seq))
    legs = iter([5.0, 2.0,         # warm-up pair (discarded)
                 400.0, 250.0,     # attempt 0: constant-load window
                 400.0, 125.0])    # attempt 1: quiet -> eff 0.8
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda cmd, **kw: _FakeProc(next(legs)))
    result = bench.run_scaling()
    assert result["valid_trials"] == [1]
    assert result["probe_samples"] == [(32.0, 18.0, 31.0),
                                       (31.0, 30.0, 32.0)]
    assert result["value"] == pytest.approx(0.8, abs=0.001)


def test_scaling_equalize_pins_lo_and_spins_rest(bench, host32,
                                                 monkeypatch):
    """The lo leg is taskset-pinned to cores [0..lo) with one ALU
    spinner per remaining core (so both legs run at the chip's
    all-core clock — the single-host emulation of the cluster
    criterion); the hi (full-width) leg is neither pinned nor spun;
    every spinner is killed after the leg."""
    host32(trials=1, attempts=1)
    monkeypatch.setattr(bench, "delivered_cores", lambda procs: 32.0)
    run_cmds = []
    legs = iter([5.0, 2.0, 400.0, 125.0])

    def fake_run(cmd, **kw):
        run_cmds.append(cmd)
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    result = bench.run_scaling()
    assert (result["cpus_lo"], result["cpus_hi"]) == (8, 32)
    # lo legs (warm-up and timed) pinned to cores 0-7
    for cmd in (run_cmds[0], run_cmds[2]):
        assert cmd[:3] == ["taskset", "-c",
                           ",".join(str(c) for c in range(8))]
    # hi legs at full width: bare python, no taskset
    assert run_cmds[1][0] == bench.sys.executable
    assert run_cmds[3][0] == bench.sys.executable
    # 24 spinners per lo leg, one per non-leg core, all killed
    spawned = _FakeSpin.spawned
    assert len(spawned) == 2 * 24
    assert {s.cmd[2] for s in spawned} == {str(c) for c in range(8, 32)}
    assert all(s.killed for s in spawned)


def test_scaling_warmup_legs_discarded(bench, host32, monkeypatch):
    """One discarded leg per width runs BEFORE trial 0 (steady-state
    criterion — the first equalized 8v32 showed the hi leg's cold
    start costs 0.976 -> 0.614 of one trial's efficiency); warm-up legs
    carry the warm-up doc count and are absent from the samples."""
    host32(trials=1, attempts=1)
    monkeypatch.setattr(bench, "SCALING_WARMUP_DOCS", 50000)
    monkeypatch.setattr(bench, "SCALING_DOCS", 300000)
    monkeypatch.setattr(bench, "delivered_cores", lambda procs: 32.0)
    calls = []
    legs = iter([5.0, 2.0,       # warmup pair (discarded)
                 400.0, 125.0])  # trial 0: eff 0.8

    def fake_run(cmd, **kw):
        calls.append(cmd[-1])
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    result = bench.run_scaling()
    assert calls == ["50000", "50000", "300000", "300000"]
    assert result["sec_lo_samples"] == [400.0]
    assert result["sec_hi_samples"] == [125.0]
    assert result["value"] == pytest.approx(0.8, abs=0.001)
    assert result["warmup_docs"] == 50000


def test_scaling_all_trials_invalid_flagged(bench, host32,
                                            monkeypatch):
    """If every attempt fails the probe gate, the harness falls back to
    all-sample medians and flags the result invalid."""
    host32(trials=2, attempts=2)
    monkeypatch.setattr(bench, "delivered_cores", lambda procs: 20.0)
    legs = iter([5.0, 2.0, 400.0, 200.0, 420.0, 210.0])
    monkeypatch.setattr(bench.subprocess, "run",
                        lambda cmd, **kw: _FakeProc(next(legs)))
    result = bench.run_scaling()
    assert result["all_trials_invalid"]
    assert result["trials"] == 2          # fell back to all samples
    assert result["value"] == pytest.approx((410 / 205) / 4, abs=0.001)
    # no valid trial: the per-trial median is withheld, not labelled
    # as a median over valid trials
    assert result["value_per_trial_median"] is None


def test_scaling_levels_from_host(bench, monkeypatch):
    """hi = the CPUs this process may use, lo = hi // 4; the lo leg is
    pinned to the first lo of those CPUs, whatever their numbers; a
    host too small for a lo of 4 is refused before anything runs."""
    cores = [2, 3, 5, 7] + list(range(16, 28))
    monkeypatch.setattr(bench.os, "sched_getaffinity",
                        lambda pid: set(cores))
    _FakeSpin.spawned = []
    monkeypatch.setattr(bench.subprocess, "Popen", _FakeSpin)
    monkeypatch.setattr(bench, "SCALING_TRIALS", 1)
    monkeypatch.setattr(bench, "SCALING_MAX_ATTEMPTS", 1)
    monkeypatch.setattr(bench, "delivered_cores", lambda procs: 16.0)
    run_cmds = []
    legs = iter([5.0, 2.0, 400.0, 100.0])

    def fake_run(cmd, **kw):
        run_cmds.append(cmd)
        return _FakeProc(next(legs))

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    result = bench.run_scaling()
    assert (result["cpus_lo"], result["cpus_hi"]) == (4, 16)
    assert run_cmds[2][:3] == ["taskset", "-c", "2,3,5,7"]
    assert run_cmds[2][-2:] == ["4", str(bench.SCALING_DOCS)]
    assert run_cmds[3][-2:] == ["16", str(bench.SCALING_DOCS)]
    assert {s.cmd[2] for s in _FakeSpin.spawned} == {
        str(c) for c in range(16, 28)}
    assert result["value"] == pytest.approx(1.0)

    monkeypatch.setattr(bench.os, "sched_getaffinity",
                        lambda pid: set(range(12)))
    monkeypatch.setattr(bench.subprocess, "run", None)
    with pytest.raises(SystemExit, match=">= 16 usable CPUs"):
        bench.run_scaling()


def _op(name, cpu, wall, rows):
    return SimpleNamespace(
        operator_name=name,
        cpu_time=None if cpu is None else {"sum": cpu},
        wall_time={"sum": wall}, output_num_rows={"sum": rows})


def test_stage_stats_reads_structured_summary(bench):
    """The reader walks the summary tree parents first, keeps two
    operators with the same name apart by their index, and reads a
    written Dataset's stats from the Dataset its write executed."""
    read = SimpleNamespace(parents=[], operators_stats=[
        _op("ReadParquet", 0.4, 0.5, 120)])
    maps = SimpleNamespace(parents=[read], operators_stats=[
        _op("MapBatches(f)", 1.234, 1.5, 120),
        _op("MapBatches(f)", 2.0, 2.5, 115),
        _op("Write", None, 0.25, 115)])
    executed = SimpleNamespace(_get_stats_summary=lambda: maps)

    def unexecuted():
        raise AssertionError("stats read from the lazy Dataset")

    written = SimpleNamespace(_write_ds=executed,
                              _get_stats_summary=unexecuted)
    expected = {
        "op0 ReadParquet": {"wall_total_s": 0.5, "cpu_total_s": 0.4,
                            "output_rows": 120},
        "op1 MapBatches(f)": {"wall_total_s": 1.5, "cpu_total_s": 1.23,
                              "output_rows": 120},
        "op2 MapBatches(f)": {"wall_total_s": 2.5, "cpu_total_s": 2.0,
                              "output_rows": 115},
        "op3 Write": {"wall_total_s": 0.25, "cpu_total_s": 0.0,
                      "output_rows": 115},
    }
    assert bench.stage_stats(written) == expected
    # a Dataset that was not written is read directly
    assert bench.stage_stats(executed) == expected
