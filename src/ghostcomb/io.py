"""File formats: curve/histogram CSV, JSON summaries, binary streams.

All text outputs are deterministic byte-for-byte given identical data:
CSV floats use fixed 12-significant-digit scientific notation, and
JSON is emitted with sorted keys and fixed indentation. Event streams use a compact binary
record: a 16-byte little-endian header (magic "GCEV", u16 version,
u16 detector_id, u64 count) followed by count float64 timestamps,
read back in chunks by EventStreamFile, the one reader of that format.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .config import check_value
from .detection import CoincidenceHistogram, histogram_grid

_MAGIC = b"GCEV"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")


# Rows per "%"-format call: bounds the text and the Python floats held
# at once to a few hundred kB, whatever the block a writer hands over.
_ROWS_PER_BLOCK = 1 << 12
# Events per write of a GCEV body; the bytes do not depend on it.
_EVENTS_PER_WRITE = 1 << 20


def _write_rows(path, header: list[str], row_format: str, blocks) -> None:
    """Write a CSV header, then one row_format line per row of each block.

    A block is a sequence of equal-length columns. It is cut into groups
    of at most _ROWS_PER_BLOCK rows, and each group is one "%"-format
    over its values flattened row by row, which gives the same bytes as
    formatting every value with an f-string, at a fraction of the cost.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            width = len(columns)
            for start in range(0, len(columns[0]), _ROWS_PER_BLOCK):
                group = [c[start : start + _ROWS_PER_BLOCK] for c in columns]
                n_rows = len(group[0])
                flat = [None] * (width * n_rows)
                for j, column in enumerate(group):
                    flat[j::width] = column.tolist()
                fh.write(row_format * n_rows % tuple(flat))


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def write_columns_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned finite columns under the header names; refuse a non-finite value."""
    if len(header) != len(columns):
        raise ValueError("one header name per column required")
    columns = [np.asarray(c, dtype=float) for c in columns]
    for name, column in zip(header, columns):
        if not np.isfinite(column).all():
            raise ValueError(f"{path}: column {name!r} holds a value that is not finite")
    if any(len(c) != len(columns[0]) for c in columns):
        raise ValueError("columns must have equal length")
    row_format = ",".join(["%.11e"] * len(columns)) + "\n"
    _write_rows(path, header, row_format, [columns] if columns else [])


def write_histogram(path_csv, path_meta, hist: CoincidenceHistogram) -> None:
    """Write histogram counts as CSV plus a JSON metadata sidecar.

    The rows are written a block of bins at a time (see
    CoincidenceHistogram.blocks), so no array of the bin count is formed.
    """
    _write_rows(path_csv, ["tau_bin_center_s", "count"], "%.11e,%d\n", hist.blocks())
    meta = {
        "bin_width_s": hist.bin_width,
        "tau_min_s": hist.tau_min,
        "tau_max_s": hist.tau_max,
        "total_pairs": hist.total_pairs,
        "metadata": hist.metadata,
    }
    write_json(path_meta, meta)


def read_histogram(path_csv, path_meta) -> CoincidenceHistogram:
    """Rebuild a histogram from its CSV and metadata sidecar.

    The sidecar is read first; its grid is histogram_grid's, so a broken
    or over-cap grid is refused before the CSV is opened, and at most one
    row past the grid is read. Of the CSV only the counts are read (its
    bin centres are rounded to 12 digits), straight into int64, so they
    are held once. numpy releases that parse "2.5" as an integer through
    a float only warn and truncate, so that DeprecationWarning is made an
    error here, whatever the caller's warning filters. The files may come
    from outside the program, so a sidecar that is not an object or lacks
    a key, a grid value its config key would refuse, a total_pairs that
    is not a non-negative integer, a metadata that is not an object, a
    row count off the grid, a negative count and a total_pairs other
    than the counts' sum are refused, each naming its file.
    """
    meta = json.loads(Path(path_meta).read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{path_meta}: sidecar must be a JSON object")
    grid_keys = ("bin_width_s", "tau_min_s", "tau_max_s")
    for key in (*grid_keys, "total_pairs"):
        if key not in meta:
            raise ValueError(f"{path_meta}: sidecar lacks {key!r}")
    if not isinstance(meta.get("metadata", {}), dict):
        raise ValueError(f"{path_meta}: 'metadata' must be an object")
    for key in grid_keys:
        check_value(key, meta[key], f"{path_meta}: ")
    total = meta["total_pairs"]
    if not isinstance(total, int) or isinstance(total, bool) or total < 0:
        raise ValueError(f"{path_meta}: total_pairs must be a non-negative integer, got {total!r}")
    grid = [float(meta[key]) for key in grid_keys]
    n_bins = histogram_grid(*grid)[0]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            counts = np.loadtxt(
                path_csv, delimiter=",", skiprows=1, usecols=1, ndmin=1, dtype=np.int64,
                max_rows=n_bins + 1,
            )
    except (ValueError, DeprecationWarning) as err:
        raise ValueError(f"{path_csv}: histogram counts must be integers: {err}") from None
    if counts.size != n_bins:
        raise ValueError(
            f"{path_csv} has {counts.size} rows, but its sidecar {path_meta} "
            f"gives a grid of {n_bins} bins"
        )
    try:
        hist = CoincidenceHistogram(*grid, counts, dict(meta.get("metadata", {})))
    except ValueError as err:
        raise ValueError(f"{path_csv}: {err}") from None
    if hist.total_pairs != total:
        raise ValueError(
            f"{path_csv}: counts sum to {hist.total_pairs}, but its sidecar "
            f"{path_meta} gives total_pairs={total}"
        )
    return hist


def write_event_stream(path, stream) -> None:
    """Write a stream as the binary GCEV record.

    stream is anything with detector_id, len() and chunks(size): an
    EventStream, or a detection.StreamWithSingles that sorts its
    timestamps a slab at a time. They are written a chunk at a time,
    each straight from its buffer, which a contiguous little-endian
    float64 array needs no copy for.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, stream.detector_id, len(stream)))
        for chunk in stream.chunks(_EVENTS_PER_WRITE):
            fh.write(np.ascontiguousarray(chunk, dtype="<f8"))


class EventStreamFile:
    """A GCEV record on disk, the one reader of that format.

    Opening it checks the header, version and size and holds no
    timestamps; chunks(size) reads them in order, so build_histogram can
    sweep a stream that is never held whole. The record carries no
    duration (it lives in the run manifest).
    """

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            head = fh.read(_HEADER.size)
            size = os.fstat(fh.fileno()).st_size
        if len(head) < _HEADER.size:
            raise ValueError(f"{self.path}: truncated stream header")
        magic, version, self.detector_id, self.count = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{self.path}: not an event-stream file")
        if version != _VERSION:
            raise ValueError(f"{self.path}: unsupported stream version {version}")
        expected = _HEADER.size + 8 * self.count
        if size != expected:
            raise ValueError(f"{self.path}: expected {expected} bytes, found {size}")

    def __len__(self) -> int:
        return self.count

    def chunks(self, size: int):
        """The timestamps in consecutive chunks of at most size events.

        Each chunk is checked to be non-negative and non-decreasing from
        the one before (a NaN fails), since the sweep needs sorted input.
        """
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            lowest = 0.0
            for start in range(0, self.count, size):
                n = min(size, self.count - start)
                chunk = np.fromfile(fh, dtype="<f8", count=n)
                if chunk.size < n:
                    raise ValueError(f"{self.path}: truncated stream body")
                if not (chunk[0] >= lowest and np.all(chunk[1:] >= chunk[:-1])):
                    raise ValueError(
                        f"{self.path}: timestamps must be non-negative and non-decreasing"
                    )
                lowest = chunk[-1]
                yield chunk


def write_json(path, payload: dict) -> None:
    """Write JSON with sorted keys so equal payloads give equal bytes.

    NaN and infinities are refused, since JSON has no such values.
    """
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
