"""Tests for config parsing and on-disk formats."""

import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ghostcomb import RunConfig, load_config
from ghostcomb import detection
from ghostcomb import io as gio
from ghostcomb.config import parse_overrides
from ghostcomb.detection import CoincidenceHistogram, EventStream, build_histogram
from ghostcomb.fock import entangled_coherent_pairs
from ghostcomb.io import (
    EventStreamFile,
    read_curve_csv,
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
            ("mc_realizations", 2),
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
            ("oracle_cutoff", 0),
            ("oracle_alpha", 1e30),
            ("oracle_alpha", 1e-100),
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
    # The oracle check once formed the phase 2 pi nu_b 0, which overflows.
    @example(key="nu_b_hz", text="2.8611174857570283e+307")
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
            entangled_coherent_pairs([cfg.oracle_alpha], cfg.oracle_cutoff)

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
            bin_width, tau_min, tau_max, np.array(counts, dtype=np.int64)
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
            1e-6, -3e-6, 3e-6, counts,
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

    @pytest.mark.parametrize("row", [3, 5], ids=["interior", "trailing"])
    def test_rows_off_the_sidecar_grid_are_refused(self, tmp_path, row):
        # A missing zero-count row leaves the sum alone but shifts every
        # later bin onto the wrong delay.
        counts = np.array([0, 3, 17, 0, 2, 0], dtype=np.int64)
        hist = CoincidenceHistogram(1e-6, -3e-6, 3e-6, counts)
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        lines = csv.read_text().splitlines()
        del lines[1 + row]
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="5 rows.*grid of 6 bins") as refused:
            read_histogram(csv, meta)
        assert str(csv) in str(refused.value) and str(meta) in str(refused.value)

    def test_half_bin_range_round_trips(self, tmp_path):
        # (tau_max - tau_min) / bin_width is exactly 2**19 + 0.5: within one
        # part in 1e6 of 2**19 bins, so the writer keeps tau_max, and the
        # reader must find the same 2**19 bins.
        bin_width = 2.0**-30
        tau_max = (2**19 + 0.5) * bin_width / 2
        s = EventStream(1, np.array([1.0]), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hist = build_histogram(s, s, bin_width, -tau_max, tau_max)
        assert (hist.counts.size, hist.tau_max) == (2**19, tau_max)
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        back = read_histogram(csv, meta)
        assert np.array_equal(back.counts, hist.counts)
        assert (back.bin_width, back.tau_min, back.tau_max) == (bin_width, -tau_max, tau_max)

    def test_sidecar_grid_over_the_cap_is_refused_before_the_csv(self, tmp_path):
        meta = tmp_path / "h_meta.json"
        write_json(
            meta,
            {"bin_width_s": 1e-15, "tau_min_s": -1.25e-4, "tau_max_s": 1.25e-4,
             "total_pairs": 0},
        )
        with pytest.raises(ValueError, match="bin_width_s.*at most 10000000"):
            read_histogram(tmp_path / "absent.csv", meta)

    def test_rows_past_the_grid_are_refused_unread(self, tmp_path):
        # Only one row past the sidecar's grid is read: the malformed
        # rows after it never reach the parser.
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        with open(csv, "a") as fh:
            fh.write("3.5e-06,0\n" + "x,not a count\n" * 3)
        with pytest.raises(ValueError, match="7 rows.*grid of 6 bins"):
            read_histogram(csv, meta)

    @pytest.mark.parametrize("key", ["bin_width_s", "tau_min_s", "tau_max_s", "total_pairs"])
    def test_sidecar_without_a_key_is_refused(self, tmp_path, key):
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        sidecar = read_json(meta)
        del sidecar[key]
        write_json(meta, sidecar)
        with pytest.raises(ValueError, match=f"lacks '{key}'"):
            read_histogram(csv, meta)

    def test_sidecar_total_pairs_off_the_counts_is_refused(self, tmp_path):
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        sidecar = read_json(meta)
        sidecar["total_pairs"] += 1
        write_json(meta, sidecar)
        with pytest.raises(ValueError, match="sum to 23.*total_pairs=24"):
            read_histogram(csv, meta)

    @pytest.mark.parametrize(
        "key, value, message",
        [("bin_width_s", True, "bin_width_s must be of type float"),
         ("tau_min_s", "abc", "tau_min_s must be of type float"),
         ("tau_max_s", float("nan"), "tau_max_s must be finite"),
         ("tau_min_s", 10**400, "tau_min_s must be finite"),
         ("total_pairs", 23.9, "total_pairs must be a non-negative integer"),
         ("total_pairs", True, "total_pairs must be a non-negative integer"),
         ("total_pairs", -1, "total_pairs must be a non-negative integer")],
        ids=["bool-width", "text-start", "nan-end", "huge-int-start", "fractional-total",
             "bool-total", "negative-total"],
    )
    def test_sidecar_value_of_the_wrong_type_is_refused(self, tmp_path, key, value, message):
        # int() once truncated a total_pairs of 23.9 to the counts' sum.
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        sidecar = read_json(meta)
        sidecar[key] = value
        meta.write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=message) as refused:
            read_histogram(csv, meta)
        assert str(refused.value).startswith(f"{meta}: ")

    def test_sidecar_that_is_not_an_object_is_refused(self, tmp_path):
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        meta.write_text("123\n")
        with pytest.raises(ValueError, match="sidecar must be a JSON object") as refused:
            read_histogram(csv, meta)
        assert str(meta) in str(refused.value)

    def test_negative_count_names_the_csv(self, tmp_path):
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, self.make_hist())
        sidecar = read_json(meta)
        sidecar["total_pairs"] -= 1
        write_json(meta, sidecar)
        lines = csv.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",-1"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-negative") as refused:
            read_histogram(csv, meta)
        assert str(refused.value).startswith(f"{csv}: ")

    def test_non_integer_counts_rejected(self, tmp_path):
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2.5"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="integer"):
            read_histogram(csv, meta)

    def test_non_integer_count_names_its_row(self, tmp_path):
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        lines = csv.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + ",3.0"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="integers.*'3.0'.*row 3"):
            read_histogram(csv, meta)

    @pytest.mark.parametrize("count", ["2.5", "3.0"])
    def test_non_integer_counts_rejected_with_warnings_ignored(self, tmp_path, count):
        # The refusal must not hang on the caller's warning filters.
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + count
        csv.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="integers"):
                read_histogram(csv, meta)

    def test_float_parse_warning_is_refused(self, tmp_path, monkeypatch):
        # numpy releases that parse an integer through a float warn with a
        # DeprecationWarning and truncate; the reader must refuse instead.
        hist = self.make_hist()
        csv, meta = tmp_path / "h.csv", tmp_path / "h_meta.json"
        write_histogram(csv, meta, hist)

        def warn_and_truncate(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return hist.counts.copy()

        monkeypatch.setattr(gio.np, "loadtxt", warn_and_truncate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="integers.*via a float"):
                read_histogram(csv, meta)

    def test_reader_holds_the_counts_once(self, tmp_path):
        # The count column is parsed straight into int64. A float column
        # beside its rounded copy, then an int64 cast, peaked at 2.1x.
        counts = np.random.default_rng(4).poisson(5.0, 1_500_000)
        hist = CoincidenceHistogram(1e-9, -1e-3, 5e-4, counts)
        write_histogram(tmp_path / "h.csv", tmp_path / "h_meta.json", hist)
        tracemalloc.start()
        try:
            back = read_histogram(tmp_path / "h.csv", tmp_path / "h_meta.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.counts, counts)
        assert peak < 1.25 * back.counts.nbytes

    def test_writer_holds_no_array_of_the_bin_count(self, tmp_path, monkeypatch):
        # The histogram's rows are written in its own bin blocks.
        monkeypatch.setattr(detection, "_BIN_BLOCK", 1024)
        counts = np.random.default_rng(3).poisson(5.0, 200_000)
        hist = CoincidenceHistogram(5e-11, -5e-6, 5e-6, counts)
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
        return EventStream(2, np.array([0.125, 0.5, 0.7500000001]), 1.0)

    @staticmethod
    def read(path):
        """The stream's timestamps, read back through its chunks."""
        return np.concatenate([np.empty(0), *EventStreamFile(path).chunks(2)])

    def test_roundtrip_is_exact(self, tmp_path):
        path = tmp_path / "s.bin"
        stream = self.make_stream()
        write_event_stream(path, stream)
        assert np.array_equal(self.read(path), stream.timestamps)
        assert EventStreamFile(path).detector_id == 2

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, EventStream(1, np.empty(0), 0.0))
        assert len(EventStreamFile(path)) == 0
        assert self.read(path).size == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not an event-stream"):
            EventStreamFile(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            EventStreamFile(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError, match="bytes"):
            EventStreamFile(path)

    def test_one_nan_event_is_rejected(self, tmp_path):
        path = tmp_path / "s.bin"
        head = struct.pack("<4sHHQ", b"GCEV", 1, 1, 1)
        path.write_bytes(head + np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="non-negative"):
            self.read(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"GC")
        with pytest.raises(ValueError, match="truncated"):
            EventStreamFile(path)

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
        # Each refusal comes at open, before any chunk is read, and names the file.
        path = tmp_path / "s.bin"
        write_event_stream(path, self.make_stream())
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ValueError, match=message) as refused:
            EventStreamFile(path)
        assert str(path) in str(refused.value)

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
        "body",
        [[0.5, 0.25, 0.75], [0.25, 0.25, 0.125], [-0.5, 0.25, 0.5], [0.25, np.nan, 0.5]],
        ids=["unsorted", "unsorted-after-repeat", "negative", "nan"],
    )
    def test_chunked_reader_refuses_an_unsorted_body(self, tmp_path, body):
        # One event per chunk, so only the check across chunks sees it.
        path = tmp_path / "s.bin"
        head = struct.pack("<4sHHQ", b"GCEV", 1, 1, len(body))
        path.write_bytes(head + np.array(body, dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="non-negative and non-decreasing"):
            list(EventStreamFile(path).chunks(1))

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_chunked_reader_accepts_a_repeated_timestamp(self, tmp_path, size):
        # Uniform doubles repeat in a long stream; the sweep needs them
        # sorted, not distinct, within a chunk and across chunks alike.
        path = tmp_path / "s.bin"
        body = np.array([0.25, 0.25, 0.5], dtype="<f8")
        path.write_bytes(struct.pack("<4sHHQ", b"GCEV", 1, 1, body.size) + body.tobytes())
        chunks = list(EventStreamFile(path).chunks(size))
        assert np.concatenate(chunks).tobytes() == body.tobytes()

    @pytest.mark.parametrize(
        "timestamps",
        [np.empty(0), np.array([0.25]), np.linspace(0.0, 0.9, 10)[::3]],
        ids=["empty", "one-event", "strided-view"],
    )
    def test_bytes_match_header_plus_copied_body(self, tmp_path, timestamps):
        stream = EventStream(2, timestamps, 1.0)
        path = tmp_path / "s.bin"
        write_event_stream(path, stream)
        header = struct.pack("<4sHHQ", b"GCEV", 1, 2, timestamps.size)
        assert path.read_bytes() == header + timestamps.astype("<f8").tobytes()

    def test_writes_without_copying_the_stream(self, tmp_path):
        stream = EventStream(1, np.arange(1_000_000) * 1e-6, 1.0)
        tracemalloc.start()
        try:
            write_event_stream(tmp_path / "s.bin", stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the stream itself is 8 MB
        assert (tmp_path / "s.bin").stat().st_size == 16 + 8 * len(stream)

    def test_reads_the_stream_once(self, tmp_path):
        # Each event is read once, into a chunk; no chunk is held past the next.
        path = tmp_path / "s.bin"
        write_event_stream(path, EventStream(1, np.arange(1_000_000) * 1e-6, 1.0))
        size, count, total = 1 << 16, 0, 0.0
        tracemalloc.start()
        try:
            for chunk in EventStreamFile(path).chunks(size):
                count, total = count + chunk.size, total + chunk.sum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * size  # the stream itself is 8 MB
        assert count == 1_000_000
        assert total == pytest.approx(np.sum(np.arange(1_000_000) * 1e-6))


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
