"""End-to-end tests of the command-line interface."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ghostcomb import cli, detection
from ghostcomb import io as gio
from ghostcomb.cli import _applicable_methods, main
from ghostcomb.config import RunConfig, load_config
from ghostcomb.correlation import g2_closed
from ghostcomb.io import (
    EventStreamFile,
    read_curve_csv,
    read_histogram,
    read_json,
    write_json,
)

SIM_ARGS = [
    "--set", "n_modes=10",
    "--set", "pair_rate_hz=0.05",
    "--set", "duration_s=2e5",
    "--set", "bin_width_s=2e-7",
]


RANGE_KEYS = ["tau_min_s", "tau_max_s", "r1_m", "r2_m", "c_mps"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurveCommand:
    def test_closed_curve(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "curve", "--out", str(tmp_path),
            "--set", "n_modes=100", "--set", "n_points=2001",
        )
        assert code == 0, err
        assert out.startswith("curve")
        taus, values = read_curve_csv(tmp_path / "curve.csv")
        assert taus.size == 2001
        assert values.max() == pytest.approx(1.0, rel=1e-9)
        summary = read_json(tmp_path / "curve_summary.json")
        assert summary["comb_peak_width_s"] == pytest.approx(5e-7, rel=1e-12)
        assert summary["normalization"] == "peak"
        assert len(summary["comb_peak_positions_s"]) == 5
        assert summary["envelope_first_zero_s"] is None
        assert (tmp_path / "manifest.json").exists()

    def test_all_methods_comparison(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path),
            "--method", "all",
            "--set", "n_modes=3", "--set", "n_points=201",
            "--set", "oracle_alpha=0.01",
        )
        assert code == 0, err
        text = (tmp_path / "curve_comparison.csv").read_text()
        header = text.splitlines()[0].split(",")
        assert header == [
            "tau_s", "g2_closed", "g2_direct", "g2_fock",
            "rel_err_direct", "rel_err_fock",
        ]
        data = np.loadtxt(tmp_path / "curve_comparison.csv", delimiter=",", skiprows=1)
        assert data[:, 4].max() < 1e-9
        assert data[:, 5].max() < 1e-6

    def test_all_methods_compare_mc_on_the_closed_scale(self, tmp_path, capsys):
        """rel_err_mc is the mc error even on a grid that misses the peaks."""
        overrides = {"n_modes": 64, "delta_nu_hz": 200.0, "n_points": 10}
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path), "--method", "all",
            "--seed", "3", "--set", "mc_realizations=400",
            *[a for k, v in overrides.items() for a in ("--set", f"{k}={v}")],
        )
        assert code == 0, err
        header = (tmp_path / "curve_comparison.csv").read_text().splitlines()[0]
        assert header == "tau_s,g2_closed,g2_mc,rel_err_mc"
        data = np.loadtxt(tmp_path / "curve_comparison.csv", delimiter=",", skiprows=1)
        _, stderrs = read_curve_csv(tmp_path / "curve_mc_stderr.csv")
        cfg = load_config(None, overrides)
        closed = g2_closed(cfg.lattice(), data[:, 0] - cfg.geometry().retarded_offset)
        # An even grid skips tau = 0: the peak-normalized column is not
        # the closed form's own scale there.
        assert closed.max() < 0.5 and data[:, 1].max() == 1.0
        assert data[:, 3] == pytest.approx(np.abs(data[:, 2] - closed), abs=1e-11)
        assert np.all(data[:, 3] <= 4.0 * stderrs)

    def test_all_methods_include_fock_at_four_modes(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path), "--method", "all",
            "--set", "n_modes=4", "--set", "n_points=11",
        )
        assert code == 0, err
        path = tmp_path / "curve_comparison.csv"
        header = path.read_text().splitlines()[0].split(",")
        assert "g2_fock" in header
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data[:, header.index("rel_err_fock")].max() <= 1e-6

    @pytest.mark.parametrize(
        "overrides, has_fock",
        [
            ({"n_modes": 4, "oracle_cutoff": 4}, True),
            ({"n_modes": 4, "oracle_cutoff": 6}, True),
            ({"n_modes": 1000, "n_points": 200001}, False),  # over the work cap
            ({"n_modes": 2001, "n_points": 100001}, False),  # over it by n_modes
            ({"n_modes": 3, "delta_nu_hz": 200.0}, False),  # oracle needs zero linewidth
            ({"n_modes": 5, "oracle_cutoff": 1}, True),
            ({}, True),  # the default lattice of 1000 modes
            ({"n_modes": 1000001, "n_points": 2}, False),  # over the mode cap
        ],
    )
    def test_applicable_methods_offer_fock_only_when_it_runs(self, overrides, has_fock):
        methods = _applicable_methods(load_config(None, overrides))
        assert ("fock" in methods) == has_fock
        # direct and fock are the two mode sums and share the work rule.
        assert ("direct" in methods) == has_fock

    @pytest.mark.parametrize(
        "overrides, has_mc",
        [
            ({"n_modes": 1000, "delta_nu_hz": 200.0, "n_points": 11}, True),  # 2.2e7
            ({"n_modes": 1000, "delta_nu_hz": 200.0, "n_points": 500}, True),  # 1e9
            ({"n_modes": 1000, "delta_nu_hz": 200.0, "n_points": 501}, False),
            ({"delta_nu_hz": 200.0}, False),  # the defaults: 2.0e11 samples
        ],
    )
    def test_applicable_methods_offer_mc_only_within_its_work_cap(self, overrides, has_mc):
        methods = _applicable_methods(load_config(None, overrides))
        assert methods == (["closed", "mc"] if has_mc else ["closed"])

    def test_mc_work_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path), "--method", "mc", "--seed", "1",
            "--set", "delta_nu_hz=200",
        )
        assert code == 1
        assert "2.00e+11 samples" in err
        assert "reduce n_points, mc_realizations or n_modes" in err
        assert not (tmp_path / "curve.csv").exists()

    def test_mc_curve_writes_stderr(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path),
            "--method", "mc", "--seed", "7",
            "--set", "n_modes=16", "--set", "delta_nu_hz=200",
            "--set", "n_points=5", "--set", "mc_realizations=200",
        )
        assert code == 0, err
        assert (tmp_path / "curve_mc_stderr.csv").exists()
        summary = read_json(tmp_path / "curve_summary.json")
        assert summary["mc"] == {"seed": 7, "n_realizations": 200}
        assert summary["envelope_first_zero_s"] == pytest.approx(5e-3)

    def test_mc_curve_is_literal_within_four_stderrs(self, tmp_path, capsys):
        """The mc curve and its stderrs sit on g2_closed's scale, unfitted.

        Seeds 1-21 were fixed before the test was first run.
        """
        cfg = load_config(None, {"n_modes": 64, "delta_nu_hz": 200.0})
        misses = []
        for seed in range(1, 22):
            out = tmp_path / str(seed)
            code, _, err = run(
                capsys, "curve", "--out", str(out), "--method", "mc",
                "--seed", str(seed),
                "--set", "n_modes=64", "--set", "delta_nu_hz=200",
                "--set", "n_points=11", "--set", "mc_realizations=2000",
            )
            assert code == 0, err
            assert read_json(out / "curve_summary.json")["normalization"] == "raw"
            taus, values = read_curve_csv(out / "curve.csv")
            _, stderrs = read_curve_csv(out / "curve_mc_stderr.csv")
            closed = g2_closed(cfg.lattice(), taus - cfg.geometry().retarded_offset)
            z = np.abs(values - closed) / stderrs
            misses += [(seed, float(t), float(x)) for t, x in zip(taus, z) if x > 4.0]
        assert not misses, misses

    def test_direct_work_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path),
            "--method", "direct", "--set", "n_points=300001",
        )
        assert code == 1
        assert "reduce n_points" in err

    def test_fock_work_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path),
            "--method", "fock", "--set", "n_points=300001",
        )
        assert code == 1
        assert "reduce n_points or n_modes" in err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("method", ["fock", "direct"])
    def test_mode_count_cap(self, method, tmp_path, capsys):
        # 2 points pass the work cap, but the mode-long rows would not
        # fit in memory: 1e8 modes would take about 30 GB.
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path), "--method", method,
            "--set", "n_modes=1000001", "--set", "n_points=2",
        )
        assert code == 1
        assert "n_modes=1000001" in err and "reduce n_modes" in err
        assert not (tmp_path / "curve.csv").exists()

    def test_peak_list_at_the_defaults(self):
        peaks, truncated = cli._peak_list(load_config())
        assert peaks == [n / 20e3 for n in range(-2, 3)]
        assert not truncated

    def test_peak_list_is_capped_without_listing_every_order(self):
        # +-25 s holds 1e6 comb orders; listing them all traced 40 MB.
        # +-1e15 s holds 4e19, more than len() of their range can count;
        # load refuses it (a tooth is finer than a float step of the
        # delay there), so the helper is driven with the config unchecked.
        for span, first in ((25.0, -500_000), (1e15, -2 * 10**19)):
            cfg = RunConfig(tau_min_s=-span, tau_max_s=span)
            tracemalloc.start()
            try:
                peaks, truncated = cli._peak_list(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
            assert truncated
            assert peaks == [float(n) / 20e3 for n in range(first, first + 1001)]


class TestSimulateCommand:
    def test_end_to_end(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--seed", "11", *SIM_ARGS
        )
        assert code == 0, err
        assert out.startswith("simulate")
        results = read_json(tmp_path / "results.json")
        assert results["contrast"] > 0.9
        assert results["fit"]["nu_b_est_hz"] == pytest.approx(20e3, rel=2e-3)
        fit = results["fit"]
        assert set(fit) == {
            "nu_b_est_hz", "nu_b_stderr_hz", "offset_est_s", "offset_stderr_s",
            "offset_period_s", "deviance_per_dof",
        }
        assert abs(fit["offset_est_s"]) < 3 * fit["offset_stderr_s"]
        assert results["geometry_offset_s"] == 0.0
        hist = read_histogram(
            tmp_path / "histogram.csv", tmp_path / "histogram_meta.json"
        )
        assert hist.total_pairs == results["total_pairs_in_range"]
        s1 = EventStreamFile(tmp_path / "stream_d1.bin")
        assert len(s1) == results["n_events_d1"]
        assert s1.detector_id == 1

    def test_holds_one_stream_at_a_time(self, tmp_path):
        # 5e5 events per detector, three quarters of them accidentals,
        # so the pair sampler's arrays stay small beside one stream.
        cfg = load_config(None, {
            "n_modes": 10, "pair_rate_hz": 4000.0, "accidental_rate_hz": 12000.0,
            "duration_s": 31.25, "bin_width_s": 2e-7, "out_dir": str(tmp_path),
        })
        tracemalloc.start()
        try:
            cli.cmd_simulate(cfg, cli.RunDir(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stream_bytes = max((tmp_path / f"stream_d{i}.bin").stat().st_size for i in (1, 2))
        assert stream_bytes > 3.5e6
        # The slack covers the tally's blocks (about 5 MB). Holding both
        # streams through the tally peaked at 18.6 MB here.
        assert peak < 1.3 * stream_bytes + 6e6

    def test_holds_no_stream_whole(self, tmp_path):
        # The sim-dense run: 4.1e6 events per detector, 32.8 MB a stream.
        # Holding detector 2 through the tally traced 37.8 MB here; the
        # slab writer, the two-file tally and the row-group writers
        # trace about 6.6 MB.
        cfg = load_config(None, {
            "r1_m": 3.0, "pair_rate_hz": 400.0, "duration_s": 250.0,
            "accidental_rate_hz": 16000.0, "jitter_sigma_s": 2e-9, "seed": 3,
            "out_dir": str(tmp_path),
        })
        tracemalloc.start()
        try:
            cli.cmd_simulate(cfg, cli.RunDir(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stream_bytes = (tmp_path / "stream_d2.bin").stat().st_size
        assert stream_bytes > 32e6
        assert peak < 0.4 * stream_bytes

    def test_failure_leaves_no_stream_files(self, tmp_path, capsys):
        # Too few pairs for a contrast: the run fails after both streams
        # are written.
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--seed", "11",
            "--set", "pair_rate_hz=2", "--set", "duration_s=200",
            "--set", "accidental_rate_hz=1",
        )
        assert code == 1
        assert "histogram has 353 counts" in err
        assert not list(tmp_path.glob("stream_d*.bin"))
        # The accidentals' scratch files have no name in the directory.
        assert not list(tmp_path.iterdir())

    def test_accidentals_lower_contrast(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        noisy = tmp_path / "noisy"
        run(capsys, "simulate", "--out", str(clean), "--seed", "11", *SIM_ARGS)
        run(
            capsys, "simulate", "--out", str(noisy), "--seed", "11", *SIM_ARGS,
            "--set", "accidental_rate_hz=0.5",
        )
        c_clean = read_json(clean / "results.json")["contrast"]
        c_noisy = read_json(noisy / "results.json")["contrast"]
        assert c_noisy < c_clean
        n1 = read_json(noisy / "results.json")["n_events_d1"]
        assert n1 > read_json(clean / "results.json")["n_events_d1"]


class TestFitCommand:
    def test_matches_simulate_fit(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        code, _, err = run(
            capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS
        )
        assert code == 0, err
        fit_dir = tmp_path / "fit"
        code, out, err = run(
            capsys, "fit", str(sim / "histogram.csv"), "--out", str(fit_dir)
        )
        assert code == 0, err
        assert out.startswith("fit")
        fit = read_json(fit_dir / "fit.json")
        expected = read_json(sim / "results.json")["fit"]
        assert fit == expected

    def test_fit_never_sees_the_offset(self, tmp_path, capsys):
        # r1, r2 and c in the sidecar give the true offset (r1 - r2) / c;
        # the estimate must come out the same without them.
        sim = tmp_path / "sim"
        code, _, err = run(
            capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS,
            "--set", "r1_m=300",
        )
        assert code == 0, err
        sidecar = read_json(sim / "histogram_meta.json")
        for key in ("r1", "r2", "c"):
            del sidecar["metadata"][key]
        blind = tmp_path / "blind_meta.json"
        write_json(blind, sidecar)
        for name, meta in (("full", sim / "histogram_meta.json"), ("blind", blind)):
            code, _, err = run(
                capsys, "fit", str(sim / "histogram.csv"),
                "--meta", str(meta), "--out", str(tmp_path / name),
            )
            assert code == 0, err
        full = (tmp_path / "full" / "fit.json").read_bytes()
        assert (tmp_path / "blind" / "fit.json").read_bytes() == full

    def test_fit_without_run_record_takes_the_comb_from_config(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        code, _, err = run(
            capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS
        )
        assert code == 0, err
        sidecar = read_json(sim / "histogram_meta.json")
        sidecar["metadata"] = {}
        bare = tmp_path / "bare_meta.json"
        write_json(bare, sidecar)
        for name, meta, sets in (
            ("record", sim / "histogram_meta.json", []),
            ("config", bare, ["--set", "n_modes=10"]),
        ):
            code, _, err = run(
                capsys, "fit", str(sim / "histogram.csv"), "--meta", str(meta),
                "--out", str(tmp_path / name), *sets,
            )
            assert code == 0, err
        record = (tmp_path / "record" / "fit.json").read_bytes()
        assert (tmp_path / "config" / "fit.json").read_bytes() == record

    @pytest.mark.parametrize(
        "field, value, key",
        [("n_modes", 2.5, "n_modes"), ("n_modes", True, "n_modes"),
         ("nu_b", "abc", "nu_b_hz"), (None, [1, 2], "metadata"),
         ("n_modes", 1, "n_modes"), ("n_modes", 100000, "bin_width_s"),
         ("nu_b", 10**400, "nu_b_hz")],
        ids=["fractional-modes", "bool-modes", "text-spacing", "record-not-an-object",
             "one-mode", "comb-finer-than-bins", "spacing-past-float-range"],
    )
    def test_bad_run_record_is_refused_by_sidecar_and_key(
        self, tmp_path, capsys, field, value, key
    ):
        # int(2.5) once fitted a 2-mode comb to a 10-mode histogram.
        sim = tmp_path / "sim"
        code, _, err = run(capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS)
        assert code == 0, err
        sidecar = read_json(sim / "histogram_meta.json")
        if field is None:
            sidecar["metadata"] = value
        else:
            sidecar["metadata"][field] = value
        bad = tmp_path / "bad_meta.json"
        write_json(bad, sidecar)
        code, _, err = run(
            capsys, "fit", str(sim / "histogram.csv"), "--meta", str(bad),
            "--out", str(tmp_path / "fit"),
        )
        assert code == 1
        assert str(bad) in err and key in err
        assert not (tmp_path / "fit" / "fit.json").exists()

    def test_explicit_meta_path(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run(capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS)
        renamed = tmp_path / "meta.json"
        renamed.write_bytes((sim / "histogram_meta.json").read_bytes())
        code, _, err = run(
            capsys, "fit", str(sim / "histogram.csv"),
            "--meta", str(renamed), "--out", str(tmp_path / "fit2"),
        )
        assert code == 0, err

    def test_rows_off_the_sidecar_grid_are_refused(self, tmp_path, capsys):
        # Three zero-count rows gone, two trailing and one interior: the
        # fit would shift the offset by the interior one's bin.
        sim = tmp_path / "sim"
        code, _, err = run(capsys, "simulate", "--out", str(sim), "--seed", "19", *SIM_ARGS)
        assert code == 0, err
        csv = sim / "histogram.csv"
        lines = csv.read_text().splitlines()
        zeros = [i for i, line in enumerate(lines[1:-2], 1) if line.endswith(",0")]
        assert lines[-1].endswith(",0") and lines[-2].endswith(",0") and zeros
        del lines[-2:]
        del lines[zeros[len(zeros) // 2]]
        csv.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "fit", str(csv), "--out", str(tmp_path / "fit"))
        assert code == 1
        assert str(csv) in err and str(sim / "histogram_meta.json") in err
        assert not (tmp_path / "fit" / "fit.json").exists()

    def test_missing_histogram(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
        )
        assert code == 1
        assert "error:" in err


class TestOracleCommand:
    def test_reports(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "oracle_n_points=101",
        )
        assert code == 0, err
        data = np.loadtxt(
            tmp_path / "oracle_comparison.csv", delimiter=",", skiprows=1
        )
        assert data[:, 3].max() < 1e-6
        report = read_json(tmp_path / "fidelity_report.json")
        assert report["interaction_count_n"] == 50
        assert report["fidelity"] == pytest.approx(0.01026468, rel=1e-4)
        assert report["alpha_matched"] == pytest.approx(7.0215543, rel=1e-6)
        assert report["coherent_truncation_deficit"] <= 1e-9

    def test_four_pairs(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "oracle_pairs=4", "--set", "oracle_n_points=101",
        )
        assert code == 0, err
        data = np.loadtxt(
            tmp_path / "oracle_comparison.csv", delimiter=",", skiprows=1
        )
        assert data[:, 3].max() <= 1e-6

    def test_thousand_pairs(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "oracle", "--out", str(tmp_path), "--set", "oracle_pairs=1000",
        )
        assert code == 0, err
        data = np.loadtxt(
            tmp_path / "oracle_comparison.csv", delimiter=",", skiprows=1
        )
        assert data.shape == (401, 4)
        assert data[:, 3].max() <= 1e-6
        assert "pairs=1000" in out

    def test_work_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "oracle_pairs=100000", "--set", "oracle_n_points=2001",
        )
        assert code == 1
        assert "reduce oracle_n_points or oracle_pairs" in err

    def test_pair_count_cap(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "oracle_pairs=1000001", "--set", "oracle_n_points=2",
        )
        assert code == 1
        assert "oracle_pairs=1000001" in err and "reduce oracle_pairs" in err
        assert not (tmp_path / "oracle_comparison.csv").exists()

    def test_fidelity_pair_it_cannot_build_is_refused_at_load(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "fidelity_n=200", "--set", "fidelity_cutoff=10",
        )
        assert code == 1
        assert "fidelity_n=200" in err and "fidelity_cutoff=10" in err
        assert not (tmp_path / "oracle_comparison.csv").exists()

    def test_fidelity_state_past_the_squared_norm_range(self, tmp_path, capsys):
        # 100! squared passes the double range; the report stays finite.
        code, _, err = run(
            capsys, "oracle", "--out", str(tmp_path),
            "--set", "fidelity_n=100", "--set", "fidelity_cutoff=250",
            "--set", "oracle_n_points=11",
        )
        assert code == 0, err
        report = read_json(tmp_path / "fidelity_report.json")
        assert report["mean_pair_number"] == pytest.approx(99.3022, rel=1e-5)
        assert 0.0 < report["fidelity"] < 1.0


class TestErrorHandling:
    def test_unknown_set_key(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "curve", "--out", str(tmp_path), "--set", "banana=1"
        )
        assert code == 1
        assert "banana" in err

    def test_carrier_frequency_is_an_unknown_key(self, tmp_path, capsys):
        # The carrier cancels in g2, so no key sets it.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nu_s0_hz = 1\n")
        for argv in (["--set", "nu_s0_hz=1"], ["--config", str(cfg)]):
            code, _, err = run(capsys, "curve", "--out", str(tmp_path / "out"), *argv)
            assert code == 1
            assert "unknown config key: 'nu_s0_hz'" in err
            assert not (tmp_path / "out").exists()

    def test_invalid_config_value(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--set", "pair_rate_hz=0"
        )
        assert code == 1
        assert "pair_rate_hz" in err

    def test_bin_count_cap_is_checked_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the bin count")

        monkeypatch.setattr(cli, "sample_pairs", no_sampling)
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--set", "bin_width_s=1e-15"
        )
        assert code == 1
        assert "bin_width_s" in err and "histogram bins" in err

    @pytest.mark.parametrize(
        "sets, key",
        [
            (["bin_width_s=1e-8"], "bin_width_s"),
            (["n_modes=1"], "n_modes"),
            (["tau_min_s=-2e-5", "tau_max_s=2e-5"], "tau_min_s"),
        ],
        ids=["coarse", "one-mode", "short-range"],
    )
    def test_fit_refusals_are_checked_before_sampling(
        self, tmp_path, capsys, monkeypatch, sets, key
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the fit's binning")

        monkeypatch.setattr(cli, "sample_pairs", no_sampling)
        argv = [arg for value in sets for arg in ("--set", value)]
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path), *argv)
        assert code == 1
        assert key in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, sets, key",
        [
            ("curve", ["nu_b_hz=2.8611174857570283e+307", "n_points=5", "n_modes=4"],
             "nu_b_hz"),
            ("oracle", ["nu_b_hz=2.8611174857570283e+307"], "nu_b_hz"),
            ("curve", ["tau_min_s=-1e308", "tau_max_s=1e308", "n_points=3"], "tau_min_s"),
            # The comb phase at the range ends is finite; only the span is not.
            ("curve", ["nu_b_hz=0.01", "tau_min_s=-1e308", "tau_max_s=1e308", "n_points=3"],
             "tau_max_s"),
            ("curve", ["r1_m=1e300", "c_mps=1e-10", "n_points=3"], "r1_m"),
            # 1 / nu_b_hz is inf: oracle's range and the tooth width.
            ("oracle", ["nu_b_hz=1e-320"], "nu_b_hz"),
            ("curve", ["nu_b_hz=1e-320", "n_points=3"], "nu_b_hz"),
            # 1 / delta_nu_hz is inf: the envelope's first zero and width.
            ("curve", ["delta_nu_hz=1e-320", "n_points=3"], "delta_nu_hz"),
            # The mc epoch window 100 / delta_nu_hz overflows.
            ("curve", ["delta_nu_hz=1e-307", "n_modes=4", "n_points=3", "mc_realizations=3",
                       "method=mc"], "delta_nu_hz"),
            # The jitter overflows a timestamp, which np.mod turned into NaN.
            # The refusal names the sum of both keys it is formed from.
            ("simulate", [*SIM_ARGS[1::2], "jitter_sigma_s=1.7976931348623157e308"],
             "duration_s + 10 jitter_sigma_s"),
        ],
        ids=["curve-comb-phase", "oracle-comb-phase", "delay-span", "span-only", "path-offset",
             "oracle-period", "curve-period", "envelope-width", "mc-window", "jitter"],
    )
    def test_non_finite_delay_or_comb_phase_is_refused_at_load(
        self, tmp_path, capsys, command, sets, key
    ):
        argv = [arg for value in sets for arg in ("--set", value)]
        code, _, err = run(capsys, command, "--out", str(tmp_path), *argv)
        assert code == 1
        assert key in err and "finite" in err
        assert not list(tmp_path.iterdir())

    def test_too_few_counts_for_a_contrast_names_the_keys(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), *SIM_ARGS, "--set", "pair_rate_hz=0.001"
        )
        assert code == 1
        assert "histogram has 214 counts" in err
        for key in ("pair_rate_hz", "duration_s", "tau_min_s", "tau_max_s"):
            assert key in err
        assert not list(tmp_path.iterdir())
        # Here the pairs spread far past the range, so only a narrower
        # spread helps, and the advice names the key that sets it.
        for key, value in (("jitter_sigma_s", "1"), ("window_periods", "1e6")):
            code, _, err = run(
                capsys, "simulate", "--out", str(tmp_path), *SIM_ARGS, "--set", f"{key}={value}"
            )
            assert code == 1
            assert "histogram has 0 counts" in err and key in err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("accidentals", ["0", "100"], ids=["pairs-only", "accidentals"])
    def test_sampling_window_outside_the_range_is_refused_before_sampling(
        self, tmp_path, capsys, accidentals
    ):
        # The comb lies 3.3e6 s from the range. Without accidentals the
        # run failed on 0 counts, advising a higher pair rate; with them
        # it fitted a range that holds no comb and exited 0.
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), *SIM_ARGS,
            "--set", "r1_m=1e15", "--set", f"accidental_rate_hz={accidentals}",
        )
        assert code == 1
        for key in ("r1_m", "r2_m", "c_mps", "window_periods", "tau_min_s", "tau_max_s"):
            assert key in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, sets, keys",
        [
            ("curve", ["tau_min_s=-1e15", "tau_max_s=1e15"], RANGE_KEYS),
            ("curve", ["r1_m=1e15"], RANGE_KEYS),
            ("curve", ["n_modes=100000", "nu_b_hz=1e12"], RANGE_KEYS),
            # The pair sampler forms delays in periods; past about 1.3e154
            # periods its proposal density overflowed and it never returned.
            ("simulate", ["window_periods=1e300"], ["window_periods"]),
            ("simulate", ["n_modes=1000", "window_periods=1e13"], ["window_periods"]),
        ],
        ids=["wide-range", "far-offset", "fine-teeth", "huge-window", "wide-window"],
    )
    def test_tooth_finer_than_the_delay_resolution_is_refused_at_load(
        self, tmp_path, capsys, command, sets, keys
    ):
        argv = [arg for value in sets + ["n_points=3"] for arg in ("--set", value)]
        code, _, err = run(capsys, command, "--out", str(tmp_path), *argv)
        assert code == 1
        for key in ("n_modes", "nu_b_hz", *keys):
            assert key in err
        assert not list(tmp_path.iterdir())

    def test_config_file_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_modes = 100\nn_points = 501\n")
        code, _, err = run(
            capsys, "curve", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == 0, err
        taus, _ = read_curve_csv(tmp_path / "curve.csv")
        assert taus.size == 501


# Small runs of each command that writes files from its config alone.
SMALL_RUNS = {
    "curve": ["curve", "--set", "n_modes=100", "--set", "n_points=11"],
    "curve-all": ["curve", "--method", "all", "--set", "n_modes=4", "--set", "n_points=11"],
    "curve-all-mc": ["curve", "--method", "all", "--seed", "1", "--set", "n_modes=16",
                     "--set", "delta_nu_hz=200", "--set", "n_points=5",
                     "--set", "mc_realizations=200"],
    "oracle": ["oracle", "--set", "oracle_n_points=11"],
    "simulate": ["simulate", "--seed", "11", *SIM_ARGS],
}


def written(root):
    return sorted(p.name for p in root.iterdir() if p.name != "manifest.json")


class TestRunDirectory:
    """A run that exits 0 lists in its manifest exactly the files it
    wrote; a run that fails, however late, leaves none of them."""

    @pytest.mark.parametrize(
        "name, outputs",
        [
            ("curve", ["curve.csv", "curve_summary.json"]),
            ("curve-all", ["curve.csv", "curve_comparison.csv", "curve_summary.json"]),
            ("curve-all-mc", ["curve.csv", "curve_comparison.csv", "curve_mc_stderr.csv",
                              "curve_summary.json"]),
            ("oracle", ["fidelity_report.json", "oracle_comparison.csv"]),
            ("simulate", ["histogram.csv", "histogram_meta.json", "results.json",
                          "stream_d1.bin", "stream_d2.bin"]),
        ],
    )
    def test_manifest_lists_every_file_written(self, tmp_path, capsys, name, outputs):
        code, _, err = run(capsys, *SMALL_RUNS[name], "--out", str(tmp_path))
        assert code == 0, err
        assert read_json(tmp_path / "manifest.json")["outputs"] == written(tmp_path) == outputs

    def test_fit_manifest_lists_every_file_written(self, tmp_path, capsys):
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        code, _, err = run(capsys, *SMALL_RUNS["simulate"], "--out", str(sim))
        assert code == 0, err
        code, _, err = run(capsys, "fit", str(sim / "histogram.csv"), "--out", str(fit))
        assert code == 0, err
        assert read_json(fit / "manifest.json")["outputs"] == written(fit) == ["fit.json"]

    @pytest.mark.parametrize(
        "name, target",
        [("curve-all", "_peak_list"), ("curve-all-mc", "_peak_list"),
         ("oracle", "fidelity_report")],
    )
    def test_late_failure_leaves_no_file(self, tmp_path, capsys, monkeypatch, name, target):
        # Each target runs after the command has written a data file.
        def fail(*args, **kwargs):
            raise ValueError("late failure")

        monkeypatch.setattr(cli, target, fail)
        code, _, err = run(capsys, *SMALL_RUNS[name], "--out", str(tmp_path))
        assert code == 1
        assert "late failure" in err
        assert not list(tmp_path.iterdir())

    def test_fit_failure_after_writing_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        code, _, err = run(capsys, *SMALL_RUNS["simulate"], "--out", str(sim))
        assert code == 0, err
        write_json = gio.write_json

        def write_then_fail(path, payload):
            write_json(path, payload)
            raise OSError("disk full")

        monkeypatch.setattr(gio, "write_json", write_then_fail)
        code, _, err = run(capsys, "fit", str(sim / "histogram.csv"), "--out", str(fit))
        assert code == 1
        assert "disk full" in err
        assert not list(fit.iterdir())

    @pytest.mark.parametrize("name", ["curve-all", "oracle", "simulate"])
    def test_interrupt_leaves_no_file(self, tmp_path, monkeypatch, name):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_write_manifest", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main([*SMALL_RUNS[name], "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())


def output_numbers(root):
    """Every number in every file of a run directory, as float arrays."""
    for path in root.iterdir():
        if path.suffix == ".csv":
            yield np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        elif path.suffix == ".bin":
            yield from EventStreamFile(path).chunks(1 << 20)
        else:
            yield np.array(list(json_numbers(read_json(path))), dtype=float)


def json_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from json_numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


FLOAT_KEYS = sorted(k for k, v in RunConfig().as_dict().items() if isinstance(v, float))
EXTREME_TEXTS = [
    "0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e-15", "1e15", "-1e15",
    "1e300", "-1e300", "1.7976931348623157e308", "-1.7976931348623157e308",
]
GATE_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_in_fresh_dir(capsys, tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("run")
    code, _, err = run(capsys, *argv, "--out", str(out))
    return out, code, err


class TestExtremeValues:
    """Every float key at extreme values, in small runs of each command."""

    @GATE_SETTINGS
    @given(
        name=st.sampled_from(["curve-all", "curve-all-mc", "oracle"]),
        key=st.sampled_from(FLOAT_KEYS),
        text=st.one_of(st.sampled_from(EXTREME_TEXTS), st.floats(allow_nan=False).map(repr)),
    )
    def test_curve_and_oracle_are_finite_or_refused_by_key(
        self, capsys, tmp_path_factory, name, key, text
    ):
        argv = [*SMALL_RUNS[name], "--set", "mc_realizations=3", "--set", f"{key}={text}"]
        out, code, err = run_in_fresh_dir(capsys, tmp_path_factory, argv)
        if code == 0:
            assert all(np.isfinite(a).all() for a in output_numbers(out))
        else:
            assert code == 1 and key in err, err
            assert not list(out.iterdir())

    @GATE_SETTINGS
    @given(key=st.sampled_from(FLOAT_KEYS), text=st.sampled_from(EXTREME_TEXTS))
    def test_simulate_is_finite_or_leaves_no_file(self, capsys, tmp_path_factory, key, text):
        # Some of simulate's refusals come from the data and name no key
        # (too few counts for a contrast, a fit that does not converge).
        argv = [*SMALL_RUNS["simulate"], "--set", f"{key}={text}"]
        out, code, err = run_in_fresh_dir(capsys, tmp_path_factory, argv)
        if code == 0:
            assert all(np.isfinite(a).all() for a in output_numbers(out))
        else:
            assert code == 1 and err.startswith("error: "), err
            assert not list(out.iterdir())


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, ghostcomb, ghostcomb.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_starts_no_blas_threads(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, ghostcomb.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    threads, value = done.stdout.split()
    assert value == expected
    if preset is None:
        assert threads == "1"


class TestDeterminism:
    @staticmethod
    def tree_bytes(root):
        return {
            p.name: p.read_bytes()
            for p in sorted(root.iterdir())
            if p.name != "manifest.json"  # manifest carries wall-clock time
        }

    def test_simulate_bytes_stable_across_threads(self, tmp_path, capsys):
        outs = []
        for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / name
            code, _, err = run(
                capsys, "simulate", "--out", str(out), "--seed", "3",
                "--threads", threads, *SIM_ARGS,
            )
            assert code == 0, err
            outs.append(self.tree_bytes(out))
        assert outs[0] == outs[1] == outs[2]

    def test_mc_curve_bytes_stable_across_threads(self, tmp_path, capsys):
        outs = []
        for name, threads in (("a", "1"), ("b", "4"), ("c", "0")):
            out = tmp_path / name
            code, _, err = run(
                capsys, "curve", "--out", str(out), "--method", "mc",
                "--seed", "5", "--threads", threads,
                "--set", "n_modes=16", "--set", "delta_nu_hz=200",
                "--set", "n_points=5", "--set", "mc_realizations=600",
            )
            assert code == 0, err
            outs.append(self.tree_bytes(out))
        assert outs[0] == outs[1] == outs[2]

    # SHA-256 of one dense run with accidentals (sim-dense rates over
    # 20 s: 3.3e5 events per detector, about 4 tallied pairs per event).
    # stream_d2.bin was written by the code before streams were sorted
    # in place and the tally was budgeted; stream_d1.bin, histogram.csv
    # and results.json were re-taken when the exact rejection sampler
    # replaced the tabulated delay CDF (detector 2's times do not depend
    # on the delays). Pins the bytes, not just run-to-run agreement.
    GOLDEN_SIMULATE = {
        "stream_d1.bin": "a497ef2822f1271b632712fc3da9c6e37affb665a08c55961674189d63ced97e",
        "stream_d2.bin": "c529e7dc9136e9d74d060dce0811029e70ed4a8e0c3a5aac94a7d5d78f010e94",
        "histogram.csv": "df3ede6f2ef6181cb78bdf485adb2c59c668e5f605f8c1fde13e25b8d27ed3be",
        "results.json": "a413b2bb5736f72a07aae9dc451c6a017d69bb29e9a7986e1da7db719fb3cedc",
    }

    def test_simulate_bytes_match_golden_digests_in_small_slabs(
        self, tmp_path, capsys, monkeypatch
    ):
        # The default slab holds a whole 3.3e5-event stream; at 4096
        # events each stream is sorted in about 80 slabs.
        monkeypatch.setattr(detection, "_SLAB", 1 << 12)
        self.test_simulate_bytes_match_golden_digests(tmp_path, capsys)

    def test_simulate_bytes_match_golden_digests(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--seed", "11", "--threads", "1",
            "--set", "r1_m=3.0", "--set", "pair_rate_hz=400", "--set", "duration_s=20",
            "--set", "accidental_rate_hz=16000", "--set", "jitter_sigma_s=2e-9",
        )
        assert code == 0, err
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.GOLDEN_SIMULATE
        }
        assert digests == self.GOLDEN_SIMULATE

    @staticmethod
    def digests(root, names):
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}

    # The sidecar of the GOLDEN_SIMULATE run, and fit.json from `fit`
    # on its histogram. The sidecar was re-taken when the run record
    # lost the carrier frequency nu_s0.
    GOLDEN_FIT = {
        "histogram_meta.json": "804393faf75043c2086ef61555a52a0388c4d55b682415f47a1c3a43c4b7c94d",
        "fit.json": "cd7f312487a3b81c05b2077e2eda0b0a514c40b7686294b37f047074166b59c4",
    }

    def test_sidecar_and_fit_match_golden_digests(self, tmp_path, capsys):
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        code, _, err = run(
            capsys, "simulate", "--out", str(sim), "--seed", "11", "--threads", "1",
            "--set", "r1_m=3.0", "--set", "pair_rate_hz=400", "--set", "duration_s=20",
            "--set", "accidental_rate_hz=16000", "--set", "jitter_sigma_s=2e-9",
        )
        assert code == 0, err
        code, _, err = run(capsys, "fit", str(sim / "histogram.csv"), "--out", str(fit))
        assert code == 0, err
        digests = self.digests(sim, ["histogram_meta.json"]) | self.digests(fit, ["fit.json"])
        assert digests == self.GOLDEN_FIT
        # Older sidecars still carry the carrier frequency, and fit the same.
        sidecar = read_json(sim / "histogram_meta.json")
        sidecar["metadata"]["nu_s0"] = 2.82e14
        write_json(sim / "histogram_meta.json", sidecar)
        code, _, err = run(capsys, "fit", str(sim / "histogram.csv"), "--out", str(tmp_path))
        assert code == 0, err
        assert self.digests(tmp_path, ["fit.json"]) == {"fit.json": self.GOLDEN_FIT["fit.json"]}

    # SHA-256 of a run with no accidentals and no jitter (SIM_ARGS,
    # seed 3): the streams are the pair streams alone, written straight
    # from sample_pairs, and every event pairs in range.
    GOLDEN_PAIRS_ONLY = {
        "stream_d1.bin": "38c99e8ca155dcd022329e84319f0e0a1d3ca78f14891fa508fe14d6857b7bec",
        "stream_d2.bin": "cef0dda89dd521dda9cfa9b2e05520afe4cf2b9607dd403e12dc39924a811464",
        "histogram.csv": "25934d293e7bf16a864013765a494a90c586024ed8391d84fade0a85bbdd268d",
        "histogram_meta.json": "8d7b3ef161f4a1881e870b74638e29f1772f207261d00d08690cf72313530528",
        "results.json": "eac9f7c7208424829a13c197193cf8d27b92f2426f99e9830c3558fdfd9c07dd",
    }

    def test_pairs_only_simulate_matches_golden_digests(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--out", str(tmp_path), "--seed", "3", *SIM_ARGS
        )
        assert code == 0, err
        assert self.digests(tmp_path, self.GOLDEN_PAIRS_ONLY) == self.GOLDEN_PAIRS_ONLY

    # The curve comparison at N = 4 (direct, fock), the mc comparison
    # path (delta_nu > 0) and the oracle at the defaults. curve-all's
    # comparison and summary were re-taken when the direct sum dropped
    # its unit-modulus carrier factor (rel_err_direct moved in the last
    # bit) and the summary's lattice block lost nu_s0_hz.
    GOLDEN_COMMANDS = {
        "curve-all": (
            ["curve", "--method", "all", "--set", "n_modes=4", "--set", "oracle_cutoff=4",
             "--set", "n_points=2001"],
            {
                "curve.csv": "7d5ea4d514466bf9662c8d6edc587e79f504cfa90987e1a4daf608bb89f3dcef",
                "curve_comparison.csv":
                    "b05c58fc444f888c24e88e4537e35eaea24ddf04ce3af86b8918b09f8d652191",
                "curve_summary.json":
                    "e4a976d499c26eb13db63df390ef61f46a71cb9b3fbfc8bfaea336edb661d176",
            },
        ),
        "curve-all-mc": (
            ["curve", "--method", "all", "--set", "delta_nu_hz=200", "--set", "n_modes=16",
             "--set", "n_points=5", "--set", "mc_realizations=200"],
            {
                "curve_comparison.csv":
                    "3630ec0909641dfba85f4124476935df1c882a29e3319bcfaa6f4b8807ed9b94",
                "curve_mc_stderr.csv":
                    "9529a33340ae4f350d4d5299ea54252f95add91818b02236f4e1ae2ae1ff4e9f",
            },
        ),
        "oracle": (
            ["oracle"],
            {
                "oracle_comparison.csv":
                    "036b42bdbd53f96ae5f46bc54f3fe2c34ed6ed1dd92aac30f6b1da1ac3b28552",
                "fidelity_report.json":
                    "7b5f2a28b563df91c34fc2f5b509d9acfcfc038ec07ffcebf89028a27879fdc0",
            },
        ),
    }

    @pytest.mark.parametrize("name", GOLDEN_COMMANDS)
    def test_command_bytes_match_golden_digests(self, tmp_path, capsys, name):
        argv, golden = self.GOLDEN_COMMANDS[name]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0, err
        assert self.digests(tmp_path, golden) == golden

    def test_seed_changes_outputs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", "--out", str(a), "--seed", "1", *SIM_ARGS)
        run(capsys, "simulate", "--out", str(b), "--seed", "2", *SIM_ARGS)
        assert (a / "histogram.csv").read_bytes() != (b / "histogram.csv").read_bytes()
