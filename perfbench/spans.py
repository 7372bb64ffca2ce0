"""Outside-in tracing: spans recorded around the program's public functions.

`instrument(tracer)` swaps benchmark-owned wrappers in for the functions
that `ghostcomb.cli`, `ghostcomb.correlation` and `ghostcomb.io` call,
so the program itself carries no tracing code. Each span records its
name, start, end, parent, process CPU time, counts, and the process's
RSS high-water mark when it ends. Spans stay in memory until the traced
run ends. `layer_metrics` turns a span list into the per-layer metrics,
using self times: a span's duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; safe to use from worker threads.

    A span opened in a worker thread with nothing open in that thread is
    parented to the innermost span open in the thread that created the
    tracer, which is the span that handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.extra = False
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._owner_stack if threading.get_ident() == self._owner else []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        record = {
            "id": next(self._ids), "name": name, "parent": parent, "extra": self.extra,
            "attrs": attrs, "counts": {},
        }
        stack.append(record["id"])
        record["cpu0"] = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu1"] = time.process_time()
            stack.pop()
            record["rss_hwm_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.spans.append(record)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _curve_attrs(args, kwargs):
    return {"method": kwargs.get("method", args[5] if len(args) > 5 else "closed")}


# (module, attribute, span name, attrs(args, kwargs), counts(result, args, kwargs))
_FUNCTIONS = [
    ("ghostcomb.cli", "load_config", "config.load_config", None, None),
    ("ghostcomb.cli", "curve", "correlation.curve", _curve_attrs, None),
    ("ghostcomb.correlation", "g2_closed", "correlation.g2_closed", None,
     lambda r, a, k: {"points": int(getattr(r, "size", 1))}),
    ("ghostcomb.correlation", "psi_direct", "correlation.psi_direct", None,
     lambda r, a, k: {"terms": a[0].n_modes}),
    ("ghostcomb.correlation", "g2_mc_envelope", "correlation.g2_mc_envelope", None,
     lambda r, a, k: {"samples": int(a[2]) * a[0].n_modes}),
    ("ghostcomb.cli", "sample_pairs", "detection.sample_pairs", None,
     lambda r, a, k: {"pairs": len(r[0])}),
    ("ghostcomb.cli", "sample_singles", "detection.sample_singles", None,
     lambda r, a, k: {"events": len(r)}),
    ("ghostcomb.cli", "merge_streams", "detection.merge_streams", None,
     lambda r, a, k: {"events": len(r)}),
    ("ghostcomb.cli", "build_histogram", "detection.build_histogram", None,
     lambda r, a, k: {"events": len(a[0]) + len(a[1]), "tallied_pairs": int(r.total_pairs)}),
    ("ghostcomb.cli", "contrast", "detection.contrast", None, None),
    ("ghostcomb.cli", "detect_peaks", "timing.detect_peaks", None,
     lambda r, a, k: {"peaks": len(r)}),
    ("ghostcomb.cli", "fit_comb", "timing.fit_comb", None,
     lambda r, a, k: {"offset_stderr_s": float(r.offset_stderr)}),
    ("ghostcomb.io", "write_curve_csv", "io.write_curve_csv", None,
     lambda r, a, k: {"bytes": _size(a[0]), "rows": len(a[1])}),
    ("ghostcomb.io", "write_columns_csv", "io.write_columns_csv", None,
     lambda r, a, k: {"bytes": _size(a[0]), "rows": len(a[2][0]) if a[2] else 0}),
    # The metadata sidecar is written through write_json and counted there.
    ("ghostcomb.io", "write_histogram", "io.write_histogram", None,
     lambda r, a, k: {"bytes": _size(a[0]), "rows": len(a[2].counts)}),
    ("ghostcomb.io", "write_event_stream", "io.write_event_stream", None,
     lambda r, a, k: {"bytes": _size(a[0])}),
    ("ghostcomb.io", "write_json", "io.write_json", None,
     lambda r, a, k: {"bytes": _size(a[0])}),
    ("ghostcomb.io", "read_histogram", "io.read_histogram", None,
     lambda r, a, k: {"rows": len(r.counts)}),
]


def _wrap(tracer: Tracer, fn, name, attrs, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, **(attrs(args, kwargs) if attrs else {})) as record:
            result = fn(*args, **kwargs)
        if counts:
            record["counts"].update(counts(result, args, kwargs))
        return result

    return traced


def _traced_oracle(tracer: Tracer, base):
    class TracedFockOracle(base):
        def __init__(self, lattice, state, *args, **kwargs):
            with tracer.span("fock.oracle_build") as record:
                super().__init__(lattice, state, *args, **kwargs)
            record["counts"]["basis_states"] = (state.cutoff + 1) ** (2 * state.pair_count)

        def g2(self, tau1, tau2):
            with tracer.span("fock.oracle_eval"):
                return super().g2(tau1, tau2)

    return TracedFockOracle


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    A function that no longer exists where it is expected is reported on
    stderr and left out; its layer then reads zero.
    """
    saved = []
    targets = [(m, a, functools.partial(_wrap, tracer, name=n, attrs=at, counts=c))
               for m, a, n, at, c in _FUNCTIONS]
    targets.append(("ghostcomb.fock", "FockOracle", functools.partial(_traced_oracle, tracer)))
    try:
        for module_name, attr, make in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: {module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    result = {}
    for s in spans:
        covered, hi = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, end = max(c["start"], hi), min(c["end"], s["end"])
            if end > lo:
                covered += end - lo
                hi = end
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def self_time_table(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name, for the spans of the workload itself."""
    own = self_times(spans)
    table = defaultdict(float)
    for s in spans:
        if not s["extra"]:
            table[s["name"]] += own[s["id"]]
    return dict(sorted(table.items()))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Spans flagged `extra` come from the threads-1 rerun of the mc curve
    and feed only `correlation.mc_ns_per_sample` and `parallel.mc_speedup`.
    """
    own = self_times(spans)
    main = [s for s in spans if not s["extra"]]
    extra = [s for s in spans if s["extra"]]

    def self_s(name, group=main):
        return sum(own[s["id"]] for s in group if s["name"] == name)

    def count(name, key, group=main):
        return sum(s["counts"].get(key, 0) for s in group if s["name"] == name)

    def hwm(name):
        return max((s["rss_hwm_mb"] for s in main if s["name"] == name), default=0.0)

    def mc_curves(group):
        return [s for s in group
                if s["name"] == "correlation.curve" and s["attrs"].get("method") == "mc"]

    mc_wall = sum(s["end"] - s["start"] for s in mc_curves(main))
    mc_cpu = sum(s["cpu1"] - s["cpu0"] for s in mc_curves(main))
    mc_wall_1 = sum(s["end"] - s["start"] for s in mc_curves(extra))
    samples_1 = count("correlation.g2_mc_envelope", "samples", extra)
    tallied = count("detection.build_histogram", "tallied_pairs")
    writers = ("io.write_curve_csv", "io.write_columns_csv", "io.write_histogram",
               "io.write_event_stream", "io.write_json")
    write_s = sum(self_s(w) for w in writers)
    bytes_written = sum(count(w, "bytes") for w in writers)
    fits = [s for s in main if s["name"] == "timing.fit_comb"]

    return {
        "cli.self_s": self_s("cli.main"),
        "config.load_config_s": self_s("config.load_config"),
        "correlation.g2_closed_s": self_s("correlation.g2_closed"),
        "correlation.closed_points": count("correlation.g2_closed", "points"),
        "correlation.direct_s": self_s("correlation.psi_direct"),
        "correlation.direct_terms": count("correlation.psi_direct", "terms"),
        "correlation.mc_s": mc_wall,
        "correlation.mc_samples": count("correlation.g2_mc_envelope", "samples"),
        "correlation.mc_ns_per_sample": mc_wall_1 * 1e9 / samples_1 if samples_1 else 0.0,
        "parallel.mc_cpu_util": mc_cpu / mc_wall if mc_wall else 0.0,
        "parallel.mc_speedup": mc_wall_1 / mc_wall if mc_wall and mc_wall_1 else 0.0,
        "fock.oracle_build_s": self_s("fock.oracle_build"),
        "fock.oracle_eval_s": self_s("fock.oracle_eval"),
        "fock.basis_states": max(
            (s["counts"]["basis_states"] for s in main if s["name"] == "fock.oracle_build"),
            default=0),
        "fock.rss_hwm_mb": hwm("fock.oracle_build"),
        "detection.sample_pairs_s": self_s("detection.sample_pairs"),
        "detection.pairs": count("detection.sample_pairs", "pairs"),
        "detection.sample_singles_s": self_s("detection.sample_singles"),
        "detection.merge_streams_s": self_s("detection.merge_streams"),
        "detection.events": count("detection.build_histogram", "events"),
        "detection.build_histogram_s": self_s("detection.build_histogram"),
        "detection.tallied_pairs": tallied,
        "detection.ns_per_tallied_pair":
            self_s("detection.build_histogram") * 1e9 / tallied if tallied else 0.0,
        "detection.rss_hwm_mb": hwm("detection.build_histogram"),
        "detection.contrast_s": self_s("detection.contrast"),
        "timing.detect_peaks_s": self_s("timing.detect_peaks"),
        "timing.peaks": count("timing.detect_peaks", "peaks"),
        "timing.fit_comb_s": self_s("timing.fit_comb"),
        "timing.offset_stderr_s": fits[-1]["counts"]["offset_stderr_s"] if fits else 0.0,
        "io.write_curve_csv_s": self_s("io.write_curve_csv"),
        "io.write_columns_csv_s": self_s("io.write_columns_csv"),
        "io.write_histogram_s": self_s("io.write_histogram"),
        "io.write_event_stream_s": self_s("io.write_event_stream"),
        "io.write_json_s": self_s("io.write_json"),
        "io.read_histogram_s": self_s("io.read_histogram"),
        "io.bytes_written": bytes_written,
        "io.rows_written": sum(count(w, "rows") for w in writers),
        "io.write_mb_per_s": bytes_written / 1e6 / write_s if write_s else 0.0,
    }
