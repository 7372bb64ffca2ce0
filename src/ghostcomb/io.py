"""File formats: curve/histogram CSV, JSON summaries, binary streams.

All text outputs are deterministic byte-for-byte given identical data:
CSV floats use fixed 12-significant-digit scientific notation, and
JSON is emitted with sorted keys and fixed indentation. Event streams use a compact binary
record: a 16-byte little-endian header (magic "GCEV", u16 version,
u16 detector_id, u64 count) followed by count float64 timestamps,
read back whole (read_event_stream) or in chunks (EventStreamFile).
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .detection import CoincidenceHistogram, EventStream

_MAGIC = b"GCEV"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")


# Rows per "%"-format call: bounds the text held in memory at once.
_ROWS_PER_BLOCK = 1 << 16


def _write_rows(path, header: list[str], row_format: str, blocks) -> None:
    """Write a CSV header, then one row_format line per row of each block.

    A block is a sequence of equal-length columns. It is one "%"-format
    over its values flattened row by row, which gives the same bytes as
    formatting every value with an f-string, at a fraction of the cost.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            width, n_rows = len(columns), len(columns[0])
            flat = [None] * (width * n_rows)
            for j, column in enumerate(columns):
                flat[j::width] = column.tolist()
            fh.write(row_format * n_rows % tuple(flat))


def _row_blocks(columns: list[np.ndarray]):
    """Equal-length columns, cut into blocks of _ROWS_PER_BLOCK rows."""
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns must have equal length")
    return (
        [c[start : start + _ROWS_PER_BLOCK] for c in columns]
        for start in range(0, n_rows, _ROWS_PER_BLOCK)
    )


def write_curve_csv(path, taus, values) -> None:
    """Write a correlation curve as rows of "tau_s,g2"."""
    columns = [np.asarray(taus, dtype=float), np.asarray(values, dtype=float)]
    _write_rows(path, ["tau_s", "g2"], "%.11e,%.11e\n", _row_blocks(columns))


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def write_columns_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned numeric columns under the given header names."""
    if len(header) != len(columns):
        raise ValueError("one header name per column required")
    columns = [np.asarray(c, dtype=float) for c in columns]
    row_format = ",".join(["%.11e"] * len(columns)) + "\n"
    _write_rows(path, header, row_format, _row_blocks(columns))


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
        "total_pairs": int(hist.total_pairs),
        "metadata": hist.metadata,
    }
    write_json(path_meta, meta)


def read_histogram(path_csv, path_meta) -> CoincidenceHistogram:
    """Rebuild a histogram from its CSV and metadata sidecar.

    Counts are authoritative from the CSV, whose count column alone is
    read; binning comes from the sidecar because bin centers in the CSV
    are rounded to 12 digits.
    """
    counts = np.loadtxt(path_csv, delimiter=",", skiprows=1, usecols=1, ndmin=1)
    if np.any(counts != np.round(counts)):
        raise ValueError("histogram counts must be integers")
    meta = json.loads(Path(path_meta).read_text())
    return CoincidenceHistogram(
        bin_width=float(meta["bin_width_s"]),
        tau_min=float(meta["tau_min_s"]),
        tau_max=float(meta["tau_max_s"]),
        counts=counts.astype(np.int64),
        total_pairs=int(meta["total_pairs"]),
        metadata=dict(meta.get("metadata", {})),
    )


def write_event_stream(path, stream: EventStream) -> None:
    """Write a stream as the binary GCEV record.

    The timestamps go out straight from their buffer, which a
    contiguous little-endian float64 array needs no copy for.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, stream.detector_id, len(stream)))
        fh.write(np.ascontiguousarray(stream.timestamps, dtype="<f8"))


def _read_stream_header(fh, path) -> tuple[int, int]:
    """Check a GCEV header and the file's size; return (detector_id, count)."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ValueError(f"{path}: truncated stream header")
    magic, version, detector_id, count = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ValueError(f"{path}: not an event-stream file")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported stream version {version}")
    expected = _HEADER.size + 8 * count
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {size}")
    return detector_id, count


def read_event_stream(path, duration: float | None = None, rate: float = 0.0) -> EventStream:
    """Read a binary GCEV record back into an EventStream.

    The timestamps are read straight into their final array, so the
    stream is held once. The binary record does not carry duration or
    rate (they live in the run manifest); pass them in, or the duration
    defaults to just past the final timestamp.
    """
    with open(path, "rb") as fh:
        detector_id, count = _read_stream_header(fh, path)
        times = np.fromfile(fh, dtype="<f8", count=count)
    if duration is None:
        duration = float(np.nextafter(times[-1], np.inf)) if times.size else 0.0
    return EventStream(detector_id, times, duration, rate, None)


class EventStreamFile:
    """A GCEV record on disk, read back a chunk at a time.

    Opening it checks the header, version and size as read_event_stream
    does and holds no timestamps; chunks(size) reads them in order, so
    build_histogram can sweep a stream that is never held whole.
    """

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            self.detector_id, self.count = _read_stream_header(fh, self.path)

    def __len__(self) -> int:
        return self.count

    def chunks(self, size: int):
        """The timestamps in consecutive chunks of at most size events.

        Each chunk is checked to be non-negative and strictly increasing
        from the one before (a NaN fails), since the sweep needs sorted
        input.
        """
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size)
            lowest = 0.0
            for start in range(0, self.count, size):
                n = min(size, self.count - start)
                chunk = np.fromfile(fh, dtype="<f8", count=n)
                if chunk.size < n:
                    raise ValueError(f"{self.path}: truncated stream body")
                if not (chunk[0] >= lowest and np.all(chunk[1:] > chunk[:-1])):
                    raise ValueError(
                        f"{self.path}: timestamps must be non-negative and strictly increasing"
                    )
                lowest = np.nextafter(chunk[-1], np.inf)
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
