"""Tests of the benchmark itself: statistics, metric names, tracing, checks.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import stats
from workloads import WORKLOADS, Invocation, mc_invocation

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SIGMA = 3e-11
PERIOD = 5e-5


# ---------------------------------------------------------------- statistics

def test_median_of_odd_and_even_samples():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_use_the_exclusive_method():
    assert stats.quartiles(range(1, 10)) == (2.5, 5.0, 7.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_tail_percentile_needs_ten_samples_above_it():
    assert stats.tail_percentile(range(10)) is None
    assert stats.tail_percentile(range(11)) == (pytest.approx(100 / 11), 0.0)
    # 100 samples: the 90th has exactly ten above it.
    assert stats.tail_percentile(range(100, 0, -1)) == (90.0, 90.0)
    described = stats.describe(range(1, 31))
    assert described["n"] == 30 and described["tail_value"] == 20


# -------------------------------------------------------------- metric names

def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_name_is_well_formed():
    bench = _benchmark_json()
    listed = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    listed += [w["name"] for w in bench["workloads"]]
    ours = list(run.END_TO_END) + list(run.PER_LAYER) + list(WORKLOADS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in listed + ours)
    assert len(listed) == len(set(listed)) and len(ours) == len(set(ours))


def test_benchmark_json_matches_the_runner():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    # BENCHMARK.json lists a subset; `--workload all` runs every workload.
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def _span(sid, name, start, end, parent=None, extra=False, attrs=None, counts=None):
    return {"id": sid, "name": name, "parent": parent, "extra": extra, "start": start,
            "end": end, "cpu0": start, "cpu1": end, "rss_hwm_mb": 100.0,
            "attrs": attrs or {}, "counts": counts or {}}


def test_layer_metrics_and_runner_cover_every_per_layer_metric():
    measured = set(spans.layer_metrics([_span(1, "cli.main", 0.0, 1.0)]))
    from_runner = {"setup.interpreter_s", "setup.import_numpy_s", "setup.import_scipy_signal_s",
                   "setup.import_ghostcomb_s", "cli.simulate_s", "cli.fit_s", "cli.curve_s",
                   "trace.overhead_s"}
    assert measured | from_runner == set(run.PER_LAYER)
    assert not measured & from_runner


# ------------------------------------------------------------------- tracing

def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        _span(1, "correlation.curve", 0.0, 10.0),
        _span(2, "correlation.g2_mc_envelope", 1.0, 4.0, parent=1),
        _span(3, "correlation.g2_mc_envelope", 3.0, 6.0, parent=1),  # overlaps: other thread
        _span(4, "correlation.g2_mc_envelope", 8.0, 9.0, parent=1),
    ]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)


def test_mc_speedup_compares_the_threads1_rerun_with_the_workload_run():
    curve = {"method": "mc"}
    spans_ = [
        _span(1, "correlation.curve", 0.0, 2.0, attrs=curve),
        _span(2, "correlation.g2_mc_envelope", 0.0, 2.0, parent=1, counts={"samples": 10}),
        _span(3, "correlation.curve", 5.0, 8.0, extra=True, attrs=curve),
        _span(4, "correlation.g2_mc_envelope", 5.0, 8.0, parent=3, extra=True,
              counts={"samples": 10}),
    ]
    m = spans.layer_metrics(spans_)
    assert m["correlation.mc_s"] == 2.0
    assert m["correlation.mc_samples"] == 10
    assert m["parallel.mc_speedup"] == 1.5
    assert m["correlation.mc_ns_per_sample"] == pytest.approx(3e8)


def test_tracer_parents_worker_thread_spans_to_the_open_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()

    def work(_):
        with tracer.span("child"):
            pass

    with tracer.span("parent") as parent:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    children = [s for s in tracer.spans if s["name"] == "child"]
    assert len(children) == 4
    assert all(s["parent"] == parent["id"] for s in children)


# -------------------------------------------------------------------- checks

def _write_fit(out: Path, offset: float, name: str = "results.json") -> None:
    fit = {"offset_est_s": offset, "offset_stderr_s": SIGMA, "offset_period_s": PERIOD,
           "nu_b_est_hz": 2e4}
    out.mkdir(parents=True, exist_ok=True)
    payload = {"fit": fit} if name == "results.json" else fit
    (out / name).write_text(json.dumps(payload))


def test_offset_within_five_sigma_passes_and_wraps_by_the_period(tmp_path):
    _write_fit(tmp_path / "sim", checks.TRUE_OFFSET_S + 2 * SIGMA - PERIOD)
    _write_fit(tmp_path / "fit", checks.TRUE_OFFSET_S + 2 * SIGMA - PERIOD, "fit.json")
    assert checks.check_simulate(tmp_path / "sim") == []
    assert checks.check_fit(tmp_path / "fit", tmp_path / "sim") == []


def test_offset_shifted_by_ten_sigma_is_flagged(tmp_path):
    shifted = checks.TRUE_OFFSET_S + 10 * SIGMA
    _write_fit(tmp_path / "sim", shifted)
    _write_fit(tmp_path / "fit", shifted, "fit.json")
    assert "+10.00 sigma" in checks.check_simulate(tmp_path / "sim")[0]
    assert "+10.00 sigma" in checks.check_fit(tmp_path / "fit", tmp_path / "sim")[0]


def test_fit_disagreeing_with_the_simulate_run_is_flagged(tmp_path):
    _write_fit(tmp_path / "sim", checks.TRUE_OFFSET_S)
    _write_fit(tmp_path / "fit", checks.TRUE_OFFSET_S + SIGMA, "fit.json")
    assert "disagrees" in checks.check_fit(tmp_path / "fit", tmp_path / "sim")[0]


def _invocation(out: Path, outputs=("histogram.csv",)) -> Invocation:
    return Invocation("simulate", ("simulate",), out, outputs, lambda: [])


def test_one_flipped_histogram_byte_fails_the_determinism_check(tmp_path):
    out = tmp_path / "sim"
    out.mkdir()
    path = out / "histogram.csv"
    path.write_bytes(b"tau_bin_center_s,count\n-1.0e-04,17\n")
    (out / "manifest.json").write_text('{"wall_clock_utc": "a"}')
    ledger = run.Ledger()
    ledger.settle(_invocation(out), 0)
    (out / "manifest.json").write_text('{"wall_clock_utc": "b"}')  # excluded
    ledger.settle(_invocation(out), 0)
    assert (ledger.attempted, ledger.failed) == (2, 0)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    ledger.settle(_invocation(out), 0)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert "histogram.csv differs" in ledger.problems[0]


def test_nonzero_exit_and_missing_outputs_fail_the_operation(tmp_path):
    (tmp_path / "histogram.csv").write_text("x\n")
    ledger = run.Ledger()
    ledger.settle(_invocation(tmp_path), 1)
    ledger.settle(_invocation(tmp_path, ("histogram.csv", "results.json")), 0)
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert "exit code 1" in ledger.problems[0]
    assert "missing results.json" in ledger.problems[1]


def test_method_comparison_flags_an_error_above_the_bound(tmp_path):
    rows = ["tau_s,g2_closed,g2_direct,g2_fock,rel_err_direct,rel_err_fock",
            "0.0,1.0,1.0,1.0,0.0,5.0e-07", "1.0e-6,0.5,0.5,0.5,0.0,2.0e-06"]
    (tmp_path / "curve_comparison.csv").write_text("\n".join(rows) + "\n")
    problems = checks.check_method_comparison(tmp_path, ("direct", "fock"))
    assert len(problems) == 1 and "rel_err_fock" in problems[0]


def _write_curve(path: Path, taus, values) -> None:
    lines = ["tau_s,g2"] + [f"{t:.11e},{v:.11e}" for t, v in zip(taus, values)]
    path.write_text("\n".join(lines) + "\n")


def test_curve_check_flags_a_row_off_the_reference(tmp_path):
    n, args = 2001, (1000, 2e4, 200.0, -1.25e-4, 1.25e-4)
    taus = np.linspace(args[3], args[4], n)
    values = checks.g2_reference(taus, *args[:3])
    _write_curve(tmp_path / "curve.csv", taus, values)
    assert checks.check_curve_dense(tmp_path, 7, *args, n) == []
    values[n // 2] -= 1e-5  # the central peak is always among the sampled rows
    _write_curve(tmp_path / "curve.csv", taus, values)
    assert "deviates" in checks.check_curve_dense(tmp_path, 7, *args, n)[0]


def test_mc_check_flags_a_point_beyond_four_standard_errors(tmp_path):
    args = (1000, 2e4, 200.0, -1.25e-4, 1.25e-4, 11)
    taus = np.linspace(args[3], args[4], args[5])
    values = checks.g2_reference(taus, *args[:3])
    errors = np.full(args[5], 0.01)
    _write_curve(tmp_path / "curve.csv", taus, values + 0.03)
    _write_curve(tmp_path / "curve_mc_stderr.csv", taus, errors)
    assert checks.check_mc(tmp_path, *args) == []
    values[3] += 0.08
    _write_curve(tmp_path / "curve.csv", taus, values)
    assert len(checks.check_mc(tmp_path, *args)) == 1


def test_reference_agrees_with_the_program_closed_form():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from ghostcomb import ModeLattice, g2_closed
    finally:
        sys.path.remove(str(ROOT / "src"))
    taus = np.linspace(-1.25e-4, 1.25e-4, 200001)
    for n_modes, delta_nu in ((100000, 200.0), (1000, 0.0), (4, 0.0)):
        lattice = ModeLattice(n_modes=n_modes, nu_b=2e4, nu_s0=2.82e14, delta_nu=delta_nu)
        expected = np.asarray(g2_closed(lattice, taus))
        found = checks.g2_reference(taus, n_modes, 2e4, delta_nu)
        assert np.max(np.abs(found - expected)) < 1e-9


# ------------------------------------------------- launcher, end to end, small

def test_launcher_runs_the_cli_and_reports_its_setup(tmp_path):
    ledger = run.Ledger()
    good = mc_invocation(3, tmp_path / "mc", threads=1)
    small = Invocation(good.label, (*good.argv, "--set", "mc_realizations=50"), good.out,
                       good.outputs, lambda: [])
    sample = run.spawn(small, tmp_path)
    ledger.settle(small, sample["code"])
    assert (ledger.attempted, ledger.failed) == (1, 0)
    assert 0 < sample["setup_s"] < sample["wall_s"]

    bad = Invocation("bad", ("curve", "--set", "n_modes=0", "--out", str(tmp_path / "bad")),
                     tmp_path / "bad", (), lambda: [])
    ledger.settle(bad, run.spawn(bad, tmp_path)["code"])
    assert (ledger.attempted, ledger.failed) == (2, 1)
