"""Deterministic RNG derivation.

Every stochastic routine in this package draws from a generator derived
from a single master seed plus a small integer label that names the
random stream. Two routines never share a label, so adding draws to one
stream cannot shift the values produced by another. The Monte Carlo
envelope appends its delay's bits and a chunk index, so no value depends
on the thread that draws it.
"""

from __future__ import annotations

import numpy as np

# Stream labels. Append new labels; never renumber existing ones, or
# previously recorded runs stop being reproducible.
LABEL_SINGLES_DET1 = 1  # reserved: its last user is gone
LABEL_SINGLES_DET2 = 2  # reserved: its last user is gone
LABEL_PAIR_COUNT = 3
LABEL_PAIR_DELAY = 4
LABEL_PAIR_PLACEMENT = 5
LABEL_JITTER_DET1 = 6
LABEL_JITTER_DET2 = 7
LABEL_MC_ENVELOPE = 8
LABEL_PHASE_SCRAMBLE = 9  # reserved: its last user is gone
LABEL_ACCIDENTAL_DET1 = 10
LABEL_ACCIDENTAL_DET2 = 11


def derive_rng(seed: int, label: int, *extra: int) -> np.random.Generator:
    """Return a Generator for the stream named by label (and extras).

    The same (seed, label, extra) tuple always yields the same stream.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError("seed must be an integer")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = (int(seed), int(label)) + tuple(int(e) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(entropy))
