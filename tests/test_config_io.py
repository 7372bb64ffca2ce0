"""Tests for config parsing and on-disk formats."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ghostcomb import RunConfig, load_config
from ghostcomb import detection
from ghostcomb import io as gio
from ghostcomb.config import parse_overrides
from ghostcomb.detection import CoincidenceHistogram, EventStream
from ghostcomb.io import (
    EventStreamFile,
    read_curve_csv,
    read_event_stream,
    read_histogram,
    read_json,
    write_columns_csv,
    write_curve_csv,
    write_event_stream,
    write_histogram,
    write_json,
)


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg == RunConfig()
        assert cfg.lattice().n_modes == 1000
        assert cfg.geometry().r1 == 0.0
        assert cfg.oracle_lattice().n_modes == cfg.oracle_pairs

    def test_as_dict_roundtrip(self):
        cfg = RunConfig(n_modes=7, seed=9)
        assert RunConfig(**cfg.as_dict()) == cfg

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "n_modes = 50   # trailing comment\n"
            "nu_b_hz = 1e4\n"
            "method = direct\n"
            "seed = 7\n"
        )
        cfg = load_config(path)
        assert cfg.n_modes == 50
        assert cfg.nu_b_hz == 1e4
        assert cfg.method == "direct"
        assert cfg.seed == 7
        assert cfg.n_points == RunConfig().n_points  # untouched default

    def test_integer_in_scientific_notation(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_modes = 1e3\n")
        assert load_config(path).n_modes == 1000

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_modes = 50\nnu_bee_hz = 1e4\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2.*nu_bee_hz"):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match=r"run\.cfg:1"):
            load_config(path)

    def test_non_integer_rejected_for_int_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_modes = 2.5\n")
        with pytest.raises(ValueError, match="integer"):
            load_config(path)

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_modes = 50\n")
        cfg = load_config(path, overrides={"n_modes": 60, "method": "direct"})
        assert cfg.n_modes == 60
        assert cfg.method == "direct"

    def test_parse_overrides(self):
        out = parse_overrides(
            ["n_modes=25", "nu_b_hz = 2e4", "method=mc", "seed=9007199254740993"]
        )
        # An integer above 2**53 is kept exact, not rounded through float.
        assert out == {
            "n_modes": 25, "nu_b_hz": 2e4, "method": "mc", "seed": 9007199254740993
        }
        assert parse_overrides(None) == {}
        with pytest.raises(ValueError, match="key=value"):
            parse_overrides(["n_modes"])
        with pytest.raises(ValueError, match="unknown config key"):
            parse_overrides(["banana=1"])

    @pytest.mark.parametrize(
        "key,value",
        [
            ("method", "nonsense"),
            ("tau_min_s", 1.0),
            ("n_points", 1),
            ("mc_realizations", 1),
            ("mc_realizations", 10**6 + 1),
            ("pair_rate_hz", 0.0),
            ("duration_s", 0.0),
            ("jitter_sigma_s", -1e-9),
            ("window_periods", 0.0),
            ("accidental_rate_hz", -1.0),
            ("bin_width_s", 0.0),
            ("contrast_floor", 0),
            ("oracle_pairs", 0),
            ("oracle_alpha", 0.0),
            ("oracle_cutoff", -1),
            ("oracle_cutoff", 13),
            ("oracle_n_points", 1),
            ("oracle_n_points", 10**7 + 1),
            ("n_points", 10**7 + 1),
            ("seed", -1),
            ("threads", -1),
            ("threads", 1025),
            ("n_modes", 0),
            ("accidental_rate_hz", 1e5),
            ("pair_rate_hz", 1e3),
            ("duration_s", 1e8),
            ("fidelity_n", -1),
            ("fidelity_cutoff", -3),
            ("fidelity_cutoff", 10**4 + 1),
            ("fidelity_n", 10**6),
            ("nu_b_hz", -1.0),
            ("delta_nu_hz", RunConfig().nu_b_hz),
            ("r1_m", -1.0),
            ("r2_m", -1.0),
            ("c_mps", 0.0),
            ("nu_s0_hz", 0.0),
            ("n_modes", 2.5),
            ("n_modes", 2**27),
        ],
    )
    def test_validation_rejects(self, key, value):
        with pytest.raises(ValueError, match=key):
            load_config(overrides={key: value})

    def test_fidelity_pair_is_refused_unless_oracle_can_build_it(self):
        # n!/(n-10)! fits a double at n = 1e6 and n = 200, but the matched
        # coherent state needs far more than 10 levels; n!/(n-120)!
        # overflows a double.
        for n, cutoff in [(10**6, 10), (200, 10), (10**6, 120)]:
            with pytest.raises(ValueError, match=r"fidelity_n\b.*fidelity_cutoff\b"):
                load_config(overrides={"fidelity_n": n, "fidelity_cutoff": cutoff})
        for n, cutoff in [(50, 120), (10**6, 0), (0, 10), (100, 400)]:
            cfg = load_config(overrides={"fidelity_n": n, "fidelity_cutoff": cutoff})
            assert (cfg.fidelity_n, cfg.fidelity_cutoff) == (n, cutoff)

    @settings(max_examples=400, deadline=None)
    @given(
        key=st.sampled_from(sorted(RunConfig().as_dict())),
        text=st.one_of(
            st.sampled_from(
                ["nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-1e-300", "1e-320",
                 "2.5", "-2.5", "0.5", "1e300", "-1e300", "1e400", "10" * 20, "1e19",
                 "", "abc", "1,5"]
            ),
            st.floats().map(repr),
            st.integers(min_value=-(10**30), max_value=10**30).map(str),
        ),
    )
    def test_any_set_value_is_accepted_or_refused_by_key(self, key, text):
        try:
            cfg = load_config(overrides=parse_overrides([f"{key}={text}"]))
        except ValueError as exc:
            assert key in str(exc)
        else:
            # What load accepts, the library accepts.
            cfg.lattice()
            cfg.geometry()
            cfg.oracle_lattice()

    @pytest.mark.parametrize(
        "key,text",
        [
            ("jitter_sigma_s", "nan"),
            ("delta_nu_hz", "nan"),
            ("pair_rate_hz", "nan"),
            ("duration_s", "inf"),
            ("r1_m", "inf"),
            ("c_mps", "-inf"),
            ("n_points", "nan"),
            ("n_points", "inf"),
        ],
    )
    def test_non_finite_value_names_the_key(self, key, text):
        with pytest.raises(ValueError, match=key):
            load_config(overrides=parse_overrides([f"{key}={text}"]))


class TestCurveCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "curve.csv"
        rng = np.random.default_rng(1)
        taus = np.sort(rng.uniform(-1e-4, 1e-4, 64))
        values = rng.uniform(0, 1, 64)
        write_curve_csv(path, taus, values)
        t, v = read_curve_csv(path)
        assert np.allclose(t, taus, rtol=1e-10, atol=0)
        assert np.allclose(v, values, rtol=1e-10, atol=1e-300)
        assert path.read_text().splitlines()[0] == "tau_s,g2"

    def test_columns_csv(self, tmp_path):
        path = tmp_path / "cols.csv"
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        write_columns_csv(path, ["x", "y"], [a, b])
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 3
        with pytest.raises(ValueError):
            write_columns_csv(path, ["x"], [a, b])


# Test-side reference: every value formatted on its own by an f-string.
def reference_rows(header, columns, formats):
    lines = [",".join(header)]
    lines.extend(
        ",".join(f"{x:{fmt}}" for x, fmt in zip(row, formats)) for row in zip(*columns)
    )
    return ("\n".join(lines) + "\n").encode()


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2e-310, 1e300, -1e300, 1.0, -2.5e-7]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))
WRITER_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestWriterBytes:
    """The block "%"-format writers give the bytes of per-value f-strings.

    The block sizes are cut to 3 rows so that block boundaries are crossed.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(gio, "_ROWS_PER_BLOCK", 3)
        monkeypatch.setattr(detection, "_BIN_BLOCK", 3)

    @WRITER_SETTINGS
    @given(st.lists(st.tuples(FLOATS, FLOATS), max_size=12))
    @example([])
    @example([(-0.0, 5e-324)])
    @example([(1e300, -1e300), (-5e-324, 2.2e-310)])
    def test_curve_csv(self, tmp_path, rows):
        taus, values = [r[0] for r in rows], [r[1] for r in rows]
        path = tmp_path / "curve.csv"
        write_curve_csv(path, taus, values)
        expected = reference_rows(["tau_s", "g2"], [taus, values], [".11e"] * 2)
        assert path.read_bytes() == expected

    @WRITER_SETTINGS
    @given(st.integers(1, 4).flatmap(
        lambda w: st.lists(st.lists(FLOATS, min_size=w, max_size=w), max_size=12)
        .map(lambda rows: (w, rows))
    ))
    @example((2, []))
    @example((3, [[-0.0, 5e-324, -1e300]]))
    def test_columns_csv(self, tmp_path, case):
        width, rows = case
        header = [f"c{j}" for j in range(width)]
        columns = [[r[j] for r in rows] for j in range(width)]
        path = tmp_path / "cols.csv"
        write_columns_csv(path, header, columns)
        assert path.read_bytes() == reference_rows(header, columns, [".11e"] * width)

    @WRITER_SETTINGS
    @given(
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e300, 1e300)),
        st.one_of(st.sampled_from([5e-324, 2.2e-310, 1e-9, 1e300]),
                  st.floats(5e-324, 1e300)),
        st.lists(st.integers(0, 2**40), max_size=12),
    )
    @example(-0.0, 5e-324, [])
    @example(-1e300, 1e300, [7])
    def test_histogram(self, tmp_path, tau_min, bin_width, counts):
        tau_max = float(np.nextafter(tau_min, np.inf))
        hist = CoincidenceHistogram(
            bin_width, tau_min, tau_max, np.array(counts, dtype=np.int64), sum(counts)
        )
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        # Bin i's documented centre.
        centres = tau_min + (np.arange(len(counts)) + 0.5) * bin_width
        expected = reference_rows(
            ["tau_bin_center_s", "count"], [centres, hist.counts], [".11e", ""]
        )
        assert csv.read_bytes() == expected

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_curve_csv(tmp_path / "c.csv", [1.0, 2.0], [1.0])


class TestHistogramFiles:
    def make_hist(self):
        counts = np.array([0, 3, 17, 2, 0, 1], dtype=np.int64)
        return CoincidenceHistogram(
            1e-6, -3e-6, 3e-6, counts, int(counts.sum()),
            {"n_modes": 10, "nu_b": 20e3, "note": "test"},
        )

    def test_roundtrip(self, tmp_path):
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        back = read_histogram(csv, meta)
        assert np.array_equal(back.counts, hist.counts)
        assert back.bin_width == hist.bin_width
        assert back.tau_min == hist.tau_min
        assert back.tau_max == hist.tau_max
        assert back.total_pairs == hist.total_pairs
        assert back.metadata == hist.metadata

    def test_non_integer_counts_rejected(self, tmp_path):
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2.5"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="integer"):
            read_histogram(csv, meta)

    def test_writer_holds_no_array_of_the_bin_count(self, tmp_path, monkeypatch):
        # The histogram's rows are written in its own bin blocks.
        monkeypatch.setattr(detection, "_BIN_BLOCK", 1024)
        counts = np.random.default_rng(3).poisson(5.0, 200_000)
        hist = CoincidenceHistogram(5e-11, -5e-6, 5e-6, counts, int(counts.sum()))
        tracemalloc.start()
        try:
            write_histogram(tmp_path / "h.csv", tmp_path / "h_meta.json", hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every bin centre at once takes counts.nbytes.
        assert peak < counts.nbytes / 4
        back = read_histogram(tmp_path / "h.csv", tmp_path / "h_meta.json")
        assert np.array_equal(back.counts, counts)


class TestEventStreamFiles:
    def make_stream(self):
        return EventStream(2, np.array([0.125, 0.5, 0.7500000001]), 1.0, 3.0, 4)

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "s.bin"
        stream = self.make_stream()
        write_event_stream(path, stream)
        back = read_event_stream(path, duration=stream.duration, rate=stream.rate)
        assert np.array_equal(back.timestamps, stream.timestamps)
        assert back.detector_id == 2
        assert back.duration == 1.0
        assert back.rate == 3.0

    def test_default_duration_just_covers_last_event(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        back = read_event_stream(path)
        assert back.duration == np.nextafter(0.7500000001, np.inf)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, EventStream(1, np.empty(0), 0.0, 1.0))
        back = read_event_stream(path)
        assert len(back) == 0
        assert back.duration == 0.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not an event-stream"):
            read_event_stream(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            read_event_stream(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match="bytes"):
            read_event_stream(path)

    def test_one_nan_event_is_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        head = struct.pack("<4sHHQ", b"GCEV", 1, 1, 1)
        path.write_bytes(head + np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="within"):
            read_event_stream(path)
        with pytest.raises(ValueError, match="within"):
            read_event_stream(path, duration=1.0)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"GC")
        with pytest.raises(ValueError, match="truncated"):
            read_event_stream(path)

    def test_nan_duration_is_refused(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, EventStream(1, np.empty(0), 0.0, 1.0))
        with pytest.raises(ValueError, match="duration"):
            read_event_stream(path, duration=np.nan)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda blob: b"NOPE" + blob[4:], "not an event-stream"),
            (lambda blob: blob[:4] + bytes([99]) + blob[5:], "version"),
            (lambda blob: blob[:-5], "bytes"),
            (lambda blob: blob[:2], "truncated"),
        ],
        ids=["bad-magic", "bad-version", "truncated-body", "truncated-header"],
    )
    def test_chunked_reader_makes_the_same_checks(self, tmp_path, corrupt, message):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        path.write_bytes(corrupt(path.read_bytes()))
        for reader in (read_event_stream, EventStreamFile):
            with pytest.raises(ValueError, match=message):
                reader(path)

    @pytest.mark.parametrize("size", [1, 2, 3, 10])
    def test_chunked_reader_yields_the_stream_in_order(self, tmp_path, size):
        path = tmp_path / "s.bin"
        stream = self.make_stream()
        write_event_stream(path, stream)
        back = EventStreamFile(path)
        assert (len(back), back.detector_id) == (3, 2)
        chunks = list(back.chunks(size))
        assert [c.size for c in chunks] == [len(c) for c in stream.chunks(size)]
        assert np.concatenate(chunks).tobytes() == stream.timestamps.tobytes()

    @pytest.mark.parametrize(
        "body", [[0.5, 0.25, 0.75], [0.25, 0.25, 0.5], [-0.5, 0.25, 0.5], [0.25, np.nan, 0.5]],
        ids=["unsorted", "repeated", "negative", "nan"],
    )
    def test_chunked_reader_refuses_an_unsorted_body(self, tmp_path, body):
        # One event per chunk, so only the check across chunks sees it.
        path = tmp_path / "s.bin"
        head = struct.pack("<4sHHQ", b"GCEV", 1, 1, len(body))
        path.write_bytes(head + np.array(body, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="strictly increasing"):
            list(EventStreamFile(path).chunks(1))

    @pytest.mark.parametrize(
        "timestamps",
        [np.empty(0), np.array([0.25]), np.linspace(0.0, 0.9, 10)[::3]],
        ids=["empty", "one-event", "strided-view"],
    )
    def test_bytes_match_header_plus_copied_body(self, tmp_path, timestamps):
        stream = EventStream(2, timestamps, 1.0, 1.0)
        path = tmp_path / "s.bin"
        write_event_stream(path, stream)
        header = struct.pack("<4sHHQ", b"GCEV", 1, 2, timestamps.size)
        assert path.read_bytes() == header + timestamps.astype("<f8").tobytes()

    def test_writes_without_copying_the_stream(self, tmp_path):
        stream = EventStream(1, np.arange(1_000_000) * 1e-6, 1.0, 1e6)
        tracemalloc.start()
        try:
            write_event_stream(tmp_path / "s.bin", stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the stream itself is 8 MB
        assert (tmp_path / "s.bin").stat().st_size == 16 + 8 * len(stream)

    def test_reads_the_stream_once(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, EventStream(1, np.arange(1_000_000) * 1e-6, 1.0, 1e6))
        tracemalloc.start()
        try:
            back = read_event_stream(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * back.timestamps.nbytes
        assert np.array_equal(back.timestamps, np.arange(1_000_000) * 1e-6)


class TestJson:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"zeta": 1, "alpha": {"y": 2.5, "x": [1, 2]}}
        write_json(a, payload)
        write_json(b, {"alpha": {"x": [1, 2], "y": 2.5}, "zeta": 1})
        assert a.read_bytes() == b.read_bytes()
        assert read_json(a) == payload

    def test_non_finite_values_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "nan.json", {"x": float("nan")})
