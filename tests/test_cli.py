"""End-to-end tests of the command-line interface."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ghostcomb import cli, detection
from ghostcomb.cli import _applicable_methods, main
from ghostcomb.config import load_config
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
        # +-1e15 s holds 4e19, more than len() of their range can count.
        for span, first in ((25.0, -500_000), (1e15, -2 * 10**19)):
            cfg = load_config(overrides={"tau_min_s": -span, "tau_max_s": span})
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
            assert cli.cmd_simulate(cfg, tmp_path) == 0
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
        # slab writer and the two-file tally trace about 7 MB.
        cfg = load_config(None, {
            "r1_m": 3.0, "pair_rate_hz": 400.0, "duration_s": 250.0,
            "accidental_rate_hz": 16000.0, "jitter_sigma_s": 2e-9, "seed": 3,
            "out_dir": str(tmp_path),
        })
        tracemalloc.start()
        try:
            assert cli.cmd_simulate(cfg, tmp_path) == 0
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

    def test_config_file_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_modes = 100\nn_points = 501\n")
        code, _, err = run(
            capsys, "curve", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == 0, err
        taus, _ = read_curve_csv(tmp_path / "curve.csv")
        assert taus.size == 501


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
    # on its histogram.
    GOLDEN_FIT = {
        "histogram_meta.json": "97922b42808c6f7c24ec4cf597cab71ed2e860a2db67f1bca0f13f9cf2417ddb",
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

    # The curve comparison at N = 4 (direct, fock), the mc comparison
    # path (delta_nu > 0) and the oracle at the defaults.
    GOLDEN_COMMANDS = {
        "curve-all": (
            ["curve", "--method", "all", "--set", "n_modes=4", "--set", "oracle_cutoff=4",
             "--set", "n_points=2001"],
            {
                "curve.csv": "7d5ea4d514466bf9662c8d6edc587e79f504cfa90987e1a4daf608bb89f3dcef",
                "curve_comparison.csv":
                    "7243b801ff88fdf47db6c31090427cdfb82ad5b5202ccf05b7c44d48955ed489",
                "curve_summary.json":
                    "037ad17ba08e1d3b91a38f8d389d58dad0d9e8cc7e6e23e988b8f6666cc30efa",
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
