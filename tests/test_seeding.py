"""Tests for the RNG stream labels."""

import re
from pathlib import Path

from ghostcomb import seeding

SRC = Path(seeding.__file__).resolve().parent

# Every label a release has used, with its value. Labels are append-only:
# recorded runs reproduce only while each keeps its value.
FROZEN = {
    "LABEL_SINGLES_DET1": 1,
    "LABEL_SINGLES_DET2": 2,
    "LABEL_PAIR_COUNT": 3,
    "LABEL_PAIR_DELAY": 4,
    "LABEL_PAIR_PLACEMENT": 5,
    "LABEL_JITTER_DET1": 6,
    "LABEL_JITTER_DET2": 7,
    "LABEL_MC_ENVELOPE": 8,
    "LABEL_PHASE_SCRAMBLE": 9,
    "LABEL_ACCIDENTAL_DET1": 10,
    "LABEL_ACCIDENTAL_DET2": 11,
}


def labels() -> dict:
    return {k: v for k, v in vars(seeding).items() if k.startswith("LABEL_")}


def test_labels_keep_their_values():
    current = labels()
    assert {k: current.get(k) for k in FROZEN} == FROZEN
    # A new label takes a value no frozen one ever had.
    assert all(current[k] > max(FROZEN.values()) for k in current.keys() - FROZEN.keys())


def test_label_values_are_distinct():
    values = list(labels().values())
    assert len(values) == len(set(values))


def test_reserved_labels_have_no_user():
    source = (SRC / "seeding.py").read_text()
    reserved = re.findall(r"^(LABEL_\w+) = \d+  # reserved", source, re.M)
    assert {"LABEL_PHASE_SCRAMBLE", "LABEL_SINGLES_DET1", "LABEL_SINGLES_DET2"} <= set(reserved)
    for path in SRC.glob("*.py"):
        if path.name != "seeding.py":
            text = path.read_text()
            assert not [name for name in reserved if name in text], path.name
