"""Correlation-comb simulator for pairwise frequency-matched multimode beams.

The package models N longitudinal mode pairs on a frequency lattice whose
signal/idler members sum to a fixed pump frequency. The second-order
correlation of the two beams forms a periodic comb in the retarded delay
tau = (t1 - t2) - (r1 - r2)/c; the comb is evaluated analytically, by direct
mode summation, by truncated-Fock-space operator algebra, and by Monte-Carlo
photodetection, and is used to recover time offsets between the detectors.
"""

import os

# The program makes no multi-threaded BLAS call, so OpenBLAS need not
# start its idle thread pool when numpy loads; a value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .lattice import DetectorGeometry, ModeLattice
from .correlation import (
    CorrelationCurve,
    beat_phase,
    comb_peak_orders,
    comb_peak_positions,
    comb_peak_width,
    curve,
    dirichlet_kernel,
    envelope_fwhm,
    envelope_first_zero,
    g2_closed,
    g2_mc_envelope,
    psi_direct,
)
from .fock import (
    entangled_coherent_pairs,
    fidelity_report,
    oracle_g2,
    phase_scrambled_curve,
)
from .detection import (
    CoincidenceHistogram,
    EventStream,
    build_histogram,
    contrast,
    sample_pairs,
)
from .timing import CombFit, fit_comb
from .config import RunConfig, load_config
from .seeding import derive_rng

__version__ = "0.1.0"

__all__ = [
    "CoincidenceHistogram",
    "CombFit",
    "CorrelationCurve",
    "DetectorGeometry",
    "EventStream",
    "ModeLattice",
    "RunConfig",
    "beat_phase",
    "build_histogram",
    "comb_peak_orders",
    "comb_peak_positions",
    "comb_peak_width",
    "contrast",
    "curve",
    "derive_rng",
    "dirichlet_kernel",
    "entangled_coherent_pairs",
    "envelope_first_zero",
    "envelope_fwhm",
    "fidelity_report",
    "fit_comb",
    "g2_closed",
    "g2_mc_envelope",
    "load_config",
    "oracle_g2",
    "phase_scrambled_curve",
    "psi_direct",
    "sample_pairs",
]
