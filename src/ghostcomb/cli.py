"""Command-line entry point for reproducible simulation runs.

Four subcommands cover the workflow: `curve` evaluates correlation
curves (analytic, direct, Monte Carlo, Fock oracle, or all applicable
and cross-compared), `simulate` runs the two-detector coincidence
experiment end to end, `oracle` emits the Fock-space cross-check and
state-construction diagnostics, and `fit` recovers comb parameters from
a previously written histogram. A run that succeeds echoes its effective
configuration, seed, library versions and output names into a manifest,
from which it can be reproduced exactly; one that fails removes what it
wrote. The thread count never affects output bytes.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import io as gio
from .config import _METHODS, RunConfig, check_value, load_config, parse_overrides
from .correlation import (
    comb_peak_orders,
    comb_peak_positions,
    comb_peak_width,
    curve,
    envelope_first_zero,
    envelope_fwhm,
    g2_closed,
)
from .detection import (
    StreamWithSingles,
    build_histogram,
    contrast,
    histogram_grid,
    sample_pairs,
    window_range_error,
)
from .fock import fidelity_report
from .lattice import DetectorGeometry
from .seeding import LABEL_ACCIDENTAL_DET1, LABEL_ACCIDENTAL_DET2
from .timing import CombFit, comb_fit_error, fit_comb

# Largest points * modes product accepted for a sum over the modes at
# every point (the direct and fock methods); beyond this the cost stops
# being desk-scale.
_MODE_SUM_CAP = 2 * 10**8
# Most modes in such a sum: a fock curve holds a few mode-long rows and
# peaks at about 313 MB at 1e6 modes, whatever the number of points.
_MODE_SUM_MAX_MODES = 10**6
# Most points * realizations * modes samples an mc curve may draw: at
# the measured 55 ns per sample on one core, about a minute, as for the
# mode sums.
_MC_SAMPLE_CAP = 10**9


class RunDir:
    """A run's output directory: `out / name` records each name, which `main`
    lists in the manifest if the command succeeds and removes if it fails."""

    def __init__(self, root: Path):
        self.root = root
        self.names: list[str] = []

    def __truediv__(self, name: str) -> Path:
        self.names.append(name)
        return self.root / name


def _write_manifest(out: Path, cfg: RunConfig, command: str, outputs: list[str]) -> None:
    gio.write_json(
        out / "manifest.json",
        {
            "command": command,
            "config": cfg.as_dict(),
            "seed": cfg.seed,
            "versions": {
                "python": ".".join(map(str, sys.version_info[:3])),
                "numpy": np.__version__,
                "ghostcomb": __version__,
            },
            "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
            "outputs": sorted(outputs),
        },
    )


def _peak_list(cfg: RunConfig) -> tuple[list[float], bool]:
    """Comb peak centers inside the configured delay range, capped."""
    lattice = cfg.lattice()
    geom = cfg.geometry()
    orders = comb_peak_orders(lattice, geom, cfg.tau_min_s, cfg.tau_max_s)
    # A range slices without listing the orders it leaves out.
    peaks = comb_peak_positions(lattice, geom, orders[:1001])
    return [float(p) for p in peaks], len(orders[:1002]) > 1001


def _mode_sum_error(
    n_points: int,
    n_modes: int,
    points_key: str = "n_points",
    modes_key: str = "n_modes",
) -> str | None:
    """Why a mode sum at every point of a grid is refused, or None.

    The one work and memory rule for the direct and fock methods; the
    keys name the config keys that set the two sizes.
    """
    if n_modes > _MODE_SUM_MAX_MODES:
        return (
            f"{modes_key}={n_modes} exceeds the {_MODE_SUM_MAX_MODES} modes "
            f"a mode sum may hold; reduce {modes_key}"
        )
    work = n_points * n_modes
    if work > _MODE_SUM_CAP:
        return (
            f"a mode sum over this grid would take {work:.2e} terms; "
            f"reduce {points_key} or {modes_key}"
        )
    return None


def _method_error(cfg: RunConfig, method: str) -> str | None:
    """Why a curve by this method is refused under the work rules, or None."""
    if method in ("direct", "fock"):
        return _mode_sum_error(cfg.n_points, cfg.n_modes)
    if method == "mc":
        work = cfg.n_points * cfg.mc_realizations * cfg.n_modes
        if work > _MC_SAMPLE_CAP:
            return (
                f"an mc curve over this grid would draw {work:.2e} samples; "
                f"reduce n_points, mc_realizations or n_modes"
            )
    return None


def _applicable_methods(cfg: RunConfig) -> list[str]:
    offered = ["closed", "mc"] if cfg.delta_nu_hz > 0.0 else ["closed", "direct", "fock"]
    return [m for m in offered if _method_error(cfg, m) is None]


def cmd_curve(cfg: RunConfig, out: RunDir) -> None:
    lattice = cfg.lattice()
    geom = cfg.geometry()
    if cfg.method == "all":
        methods = _applicable_methods(cfg)
    else:
        methods = [cfg.method]
        if error := _method_error(cfg, cfg.method):
            raise ValueError(error)
    curves = {}
    for m in methods:
        curves[m] = curve(
            lattice,
            geom,
            cfg.tau_min_s,
            cfg.tau_max_s,
            cfg.n_points,
            m,
            n_realizations=cfg.mc_realizations,
            seed=cfg.seed,
            threads=cfg.threads,
            alpha=cfg.oracle_alpha,
            cutoff=cfg.oracle_cutoff,
        )
    primary_name = "closed" if cfg.method == "all" else cfg.method
    primary = curves[primary_name]

    gio.write_columns_csv(out / "curve.csv", ["tau_s", "g2"], [primary.taus, primary.values])
    if "mc" in curves and curves["mc"].stderrs is not None:
        gio.write_columns_csv(
            out / "curve_mc_stderr.csv",
            ["tau_s", "stderr"],
            [curves["mc"].taus, curves["mc"].stderrs],
        )
    if cfg.method == "all":
        header = ["tau_s"] + [f"g2_{m}" for m in methods]
        columns = [primary.taus] + [curves[m].values for m in methods]
        # Each deviation is taken against the closed form on the other
        # curve's scale, so it is relative to a unit peak; a pointwise
        # ratio would blow up at the comb's exact zeros. mc is raw (the
        # closed form's own peak-1 scale), the others peak-normalized,
        # and the two differ on a grid that misses the comb peaks.
        for m in methods:
            if m == "closed":
                continue
            base = curves["closed"].values
            if curves[m].normalization == "raw":
                base = g2_closed(lattice, curves[m].taus - geom.retarded_offset)
            header.append(f"rel_err_{m}")
            columns.append(np.abs(curves[m].values - base))
        gio.write_columns_csv(out / "curve_comparison.csv", header, columns)

    peaks, truncated = _peak_list(cfg)
    summary = {
        "lattice": {key: getattr(cfg, key) for key in ("n_modes", "nu_b_hz", "delta_nu_hz")},
        "geometry": {"r1_m": cfg.r1_m, "r2_m": cfg.r2_m, "c_mps": cfg.c_mps},
        "method": cfg.method,
        "normalization": primary.normalization,
        "n_points": cfg.n_points,
        "tau_min_s": cfg.tau_min_s,
        "tau_max_s": cfg.tau_max_s,
        "comb_peak_positions_s": peaks,
        "peak_list_truncated": truncated,
        "comb_peak_width_s": comb_peak_width(lattice) if cfg.n_modes >= 2 else None,
        "envelope_first_zero_s": envelope_first_zero(lattice)
        if cfg.delta_nu_hz > 0
        else None,
        "envelope_fwhm_s": envelope_fwhm(lattice) if cfg.delta_nu_hz > 0 else None,
    }
    if "mc" in curves:
        summary["mc"] = {"seed": cfg.seed, "n_realizations": cfg.mc_realizations}
    gio.write_json(out / "curve_summary.json", summary)
    print(
        f"curve method={cfg.method} points={cfg.n_points} "
        f"peak_width={comb_peak_width(lattice) if cfg.n_modes >= 2 else float('nan'):.3e} s"
    )


def _fit_dict(fit: CombFit) -> dict:
    """The comb fit as written to results.json and fit.json."""
    return {
        "nu_b_est_hz": fit.nu_b_est,
        "nu_b_stderr_hz": fit.nu_b_stderr,
        "offset_est_s": fit.offset_est,
        "offset_stderr_s": fit.offset_stderr,
        "offset_period_s": fit.offset_period,
        "deviance_per_dof": fit.deviance_per_dof,
    }


def cmd_simulate(cfg: RunConfig, out: RunDir) -> None:
    # Refuse a histogram, or a fit of it, that would fail, before any work.
    span = (cfg.tau_min_s, cfg.tau_max_s)
    histogram_grid(cfg.bin_width_s, *span)
    if error := comb_fit_error(cfg.n_modes, cfg.nu_b_hz, cfg.bin_width_s, *span):
        raise ValueError(error)
    lattice = cfg.lattice()
    geom = cfg.geometry()
    if error := window_range_error(
        geom, cfg.nu_b_hz, cfg.window_periods, cfg.jitter_sigma_s, *span
    ):
        raise ValueError(error)
    s1, s2 = sample_pairs(
        lattice,
        geom,
        cfg.pair_rate_hz,
        cfg.duration_s,
        cfg.jitter_sigma_s,
        cfg.seed,
        window_periods=cfg.window_periods,
    )
    metadata = {
        "n_modes": cfg.n_modes,
        "nu_b": cfg.nu_b_hz,
        "delta_nu": cfg.delta_nu_hz,
        "r1": cfg.r1_m,
        "r2": cfg.r2_m,
        "c": cfg.c_mps,
        "pair_rate_hz": cfg.pair_rate_hz,
        "duration_s": cfg.duration_s,
        "jitter_sigma_s": cfg.jitter_sigma_s,
        "accidental_rate_hz": cfg.accidental_rate_hz,
        "seed": cfg.seed,
    }
    # No detector stream is held whole: the accidentals are sorted into
    # each stream a slab at a time as it is written, through a scratch
    # file in the output directory, and the tally reads both streams
    # back from their files in chunks.
    streams = [out / "stream_d1.bin", out / "stream_d2.bin"]
    labels = [LABEL_ACCIDENTAL_DET1, LABEL_ACCIDENTAL_DET2]
    n_events = []
    for path, stream, label in zip(streams, (s1, s2), labels):
        if cfg.accidental_rate_hz > 0:
            stream = StreamWithSingles(stream, cfg.accidental_rate_hz, cfg.seed, label, out.root)
        gio.write_event_stream(path, stream)
        n_events.append(len(stream))
    del s1, s2, stream
    d1, d2 = (gio.EventStreamFile(path) for path in streams)
    hist = build_histogram(d1, d2, cfg.bin_width_s, cfg.tau_min_s, cfg.tau_max_s, metadata)
    contrast_value = contrast(hist, lattice, geom)
    fit = fit_comb(hist, cfg.n_modes, cfg.nu_b_hz)

    gio.write_histogram(out / "histogram.csv", out / "histogram_meta.json", hist)
    results = {
        "contrast": contrast_value,
        "n_events_d1": n_events[0],
        "n_events_d2": n_events[1],
        "total_pairs_in_range": hist.total_pairs,
        "geometry_offset_s": geom.retarded_offset,
        "fit": _fit_dict(fit),
    }
    gio.write_json(out / "results.json", results)
    print(
        f"simulate contrast={contrast_value:.4f} "
        f"nu_b_est={fit.nu_b_est:.6f} Hz "
        f"offset_est={fit.offset_est:.6e} s +/- {fit.offset_stderr:.2e} s"
    )


def cmd_oracle(cfg: RunConfig, out: RunDir) -> None:
    if error := _mode_sum_error(
        cfg.oracle_n_points, cfg.oracle_pairs, "oracle_n_points", "oracle_pairs"
    ):
        raise ValueError(error)
    lattice = cfg.oracle_lattice()
    half = 0.5 / lattice.nu_b
    fock, closed = (
        curve(
            lattice,
            DetectorGeometry(r1=0.0, r2=0.0),
            -half,
            half,
            cfg.oracle_n_points,
            method,
            alpha=cfg.oracle_alpha,
            cutoff=cfg.oracle_cutoff,
        )
        for method in ("fock", "closed")
    )
    # Deviation relative to the unit peak of the normalized curves.
    rel_err = np.abs(fock.values - closed.values)
    gio.write_columns_csv(
        out / "oracle_comparison.csv",
        ["tau_s", "g2_oracle", "g2_closed", "rel_err"],
        [fock.taus, fock.values, closed.values, rel_err],
    )

    report = fidelity_report(cfg.fidelity_n, cfg.fidelity_cutoff)
    gio.write_json(out / "fidelity_report.json", report)
    print(
        f"oracle pairs={cfg.oracle_pairs} max_rel_err={rel_err.max():.3e} "
        f"fidelity(n={cfg.fidelity_n})={report['fidelity']:.6f}"
    )


def cmd_fit(cfg: RunConfig, out: RunDir, hist_path: str, meta_path: str | None) -> None:
    """Fit the comb to a histogram and write fit.json.

    The comb (n_modes, nu_b) comes from the sidecar's run record when it
    names both, as `simulate` writes it, else from the config. The
    record's values pass the config's rules for n_modes and nu_b_hz and
    fit_comb's rules for the comb against the histogram's grid, or are
    refused by sidecar and key. The geometry is never read.
    """
    csv_path = Path(hist_path)
    if meta_path is None:
        meta = csv_path.with_name(csv_path.name.removesuffix(".csv") + "_meta.json")
    else:
        meta = Path(meta_path)
    hist = gio.read_histogram(csv_path, meta)
    record = hist.metadata
    if "n_modes" in record and "nu_b" in record:
        where = f"{meta}: run record "
        check_value("n_modes", record["n_modes"], where)
        check_value("nu_b_hz", record["nu_b"], where)
        n_modes, nu_b = int(record["n_modes"]), float(record["nu_b"])
        if error := comb_fit_error(n_modes, nu_b, hist.bin_width, hist.tau_min, hist.tau_max):
            raise ValueError(where + error)
    else:
        n_modes, nu_b = cfg.n_modes, cfg.nu_b_hz
    fit = fit_comb(hist, n_modes, nu_b)
    gio.write_json(out / "fit.json", _fit_dict(fit))
    print(
        f"fit nu_b_est={fit.nu_b_est:.6f} Hz "
        f"offset_est={fit.offset_est:.6e} s +/- {fit.offset_stderr:.2e} s "
        f"deviance/dof={fit.deviance_per_dof:.3f}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostcomb",
        description="Simulate and analyze two-beam correlation combs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument("--out", dest="out_dir", help="output directory (overrides config)")
        p.add_argument("--threads", type=int, help="worker threads, 0 = auto")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            metavar="KEY=VALUE",
            help="override any config key; repeatable",
        )

    p_curve = sub.add_parser("curve", help="evaluate a correlation curve")
    common(p_curve)
    p_curve.add_argument(
        "--method",
        choices=_METHODS,
        help="evaluation method (overrides config)",
    )

    p_sim = sub.add_parser("simulate", help="run the coincidence experiment")
    common(p_sim)

    p_orc = sub.add_parser("oracle", help="Fock-space cross-checks")
    common(p_orc)

    p_fit = sub.add_parser("fit", help="fit comb parameters to a histogram")
    common(p_fit)
    p_fit.add_argument("histogram", help="path to a histogram CSV")
    p_fit.add_argument(
        "--meta", help="metadata JSON (default: <histogram>_meta.json)"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = parse_overrides(args.sets)
        # Dedicated flags are stored under their config keys.
        for key in ("seed", "out_dir", "threads", "method"):
            if getattr(args, key, None) is not None:
                overrides[key] = getattr(args, key)
        cfg = load_config(args.config, overrides)
        out = RunDir(Path(cfg.out_dir))
        out.root.mkdir(parents=True, exist_ok=True)
        try:
            if args.command == "curve":
                cmd_curve(cfg, out)
            elif args.command == "simulate":
                cmd_simulate(cfg, out)
            elif args.command == "oracle":
                cmd_oracle(cfg, out)
            else:
                cmd_fit(cfg, out, args.histogram, args.meta)
            _write_manifest(out.root, cfg, args.command, out.names)
        except BaseException:
            for name in out.names:
                (out.root / name).unlink(missing_ok=True)
            raise
    except Exception as exc:  # surface a clean one-line failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
