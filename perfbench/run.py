"""ghostcomb benchmark: real CLI invocations, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in
turn. With `--trace 0` the workload's invocations run as subprocesses,
one after another, for about S seconds: an untimed warm-up round, then
timed rounds (at least two), and the end-to-end metrics are medians over
the timed rounds. With `--trace 1` one
traced round gives the per-layer metrics instead (see README.md). Every
output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Run it from the root of
a checkout: it imports ghostcomb from ./src and writes only under
./.perfbench.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import spans
import stats
from workloads import WORKLOADS, Invocation, Workload, mc_invocation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUTPUT_ROOT = ROOT / ".perfbench"

MIN_ROUNDS = 2
PROBES = 3
CHILD_TIMEOUT_S = 60.0
# No new round starts after this, whatever --seconds says, so a run
# ends well inside three minutes even on a slow machine.
ROUND_DEADLINE_S = 100.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.interpreter_s": "s",
    "setup.import_numpy_s": "s",
    "setup.import_scipy_signal_s": "s",
    "setup.import_ghostcomb_s": "s",
    "cli.simulate_s": "s",
    "cli.fit_s": "s",
    "cli.curve_s": "s",
    "cli.self_s": "s",
    "config.load_config_s": "s",
    "correlation.g2_closed_s": "s",
    "correlation.closed_points": "count",
    "correlation.direct_s": "s",
    "correlation.direct_terms": "count",
    "correlation.mc_s": "s",
    "correlation.mc_samples": "count",
    "correlation.mc_ns_per_sample": "ns",
    "parallel.mc_cpu_util": "ratio",
    "parallel.mc_speedup": "ratio",
    "fock.oracle_build_s": "s",
    "fock.oracle_eval_s": "s",
    "fock.basis_states": "count",
    "fock.rss_hwm_mb": "MB",
    "detection.sample_pairs_s": "s",
    "detection.pairs": "count",
    "detection.sample_singles_s": "s",
    "detection.merge_streams_s": "s",
    "detection.events": "count",
    "detection.build_histogram_s": "s",
    "detection.tallied_pairs": "count",
    "detection.ns_per_tallied_pair": "ns",
    "detection.rss_hwm_mb": "MB",
    "detection.contrast_s": "s",
    "timing.detect_peaks_s": "s",
    "timing.peaks": "count",
    "timing.fit_comb_s": "s",
    "timing.offset_stderr_s": "s",
    "io.write_curve_csv_s": "s",
    "io.write_columns_csv_s": "s",
    "io.write_histogram_s": "s",
    "io.write_event_stream_s": "s",
    "io.write_json_s": "s",
    "io.read_histogram_s": "s",
    "io.bytes_written": "B",
    "io.rows_written": "count",
    "io.write_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}

LOAD_SHAPE = "closed loop, one client, invocations run one at a time with no overlap"


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc, killing it after timeout; returns (exit code, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _clear(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Ledger:
    """Counts operations and their failures; owns the determinism check.

    An operation is one invocation. It fails on a non-zero exit, a
    missing output, a failed output check, or output bytes that differ
    from an earlier run of the same seed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # First digest seen per (invocation label, file name).
        self.digests: dict[tuple[str, str], str] = {}

    def settle(self, inv: Invocation, code: int) -> None:
        problems = [] if code == 0 else [f"exit code {code}"]
        missing = [f for f in inv.outputs if not (inv.out / f).is_file()]
        if missing:
            problems.append(f"missing {', '.join(missing)}")
        if not problems:
            try:
                problems += inv.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"output check raised {exc!r}")
            for name, digest in checks.digests(inv.out).items():
                if self.digests.setdefault((inv.label, name), digest) != digest:
                    problems.append(f"{name} differs from an earlier run of the same seed")
        self.fail_or_pass(inv.label, problems)

    def fail_or_pass(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def spawn(inv: Invocation, logs: Path) -> dict:
    """Run one invocation in a fresh interpreter through the launcher."""
    stamp = logs / f"{inv.label}.stamp"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "launch", str(stamp), "--", *inv.argv]
    with open(logs / f"{inv.label}.log", "wb") as log:
        spawned = _now_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        code, usage = _wait(proc, CHILD_TIMEOUT_S)
        exited = _now_ns()
    wall = (exited - spawned) / 1e9
    setup = (int(stamp.read_text()) - spawned) / 1e9 if stamp.is_file() else wall
    return {
        "label": inv.label, "command": inv.argv[0], "code": code, "wall_s": wall,
        "setup_s": setup, "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def run_round(workload: Workload, seed: int, base: Path, ledger: Ledger) -> dict:
    """One pass over the workload's invocations, each in its own process."""
    invocations = workload.build(seed, _clear(base))
    samples = [spawn(inv, base) for inv in invocations]
    for inv, sample in zip(invocations, samples):
        ledger.settle(inv, sample["code"])
    wall = sum(s["wall_s"] for s in samples)
    setup = sum(s["setup_s"] for s in samples)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "run_s": wall - setup,
        "cpu_s": sum(s["cpu_s"] for s in samples),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "offset_stderr_s": _offset_stderr(invocations),
        "invocations": samples,
    }


def _offset_stderr(invocations: list[Invocation]) -> float | None:
    for inv in invocations:
        path = inv.out / "fit.json"
        if path.is_file():
            return float(checks.read_json(path)["offset_stderr_s"])
    return None


def _steal_s() -> float | None:
    """Time the hypervisor kept this VM's CPUs from running, summed over CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, ledger: Ledger):
    """A checked but untimed warm-up round, then timed rounds until `seconds` is spent.

    The warm-up fills the page cache with the interpreter, numpy and
    scipy, which a user running the CLI repeatedly has warm too.
    """
    start = time.perf_counter()
    warmup = run_round(workload, seed, work / "round", ledger)
    rounds = []
    while True:
        began, steal = time.perf_counter(), _steal_s()
        rounds.append(run_round(workload, seed, work / "round", ledger))
        took = time.perf_counter() - began
        if steal is not None:
            rounds[-1]["host_steal_s"] = _steal_s() - steal
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + took > min(seconds, ROUND_DEADLINE_S):
            break
    metrics = {name: stats.median(r[name] for r in rounds) for name in END_TO_END}
    return metrics, {"warmup": warmup, "rounds": rounds}


def probe(work: Path, ledger: Ledger) -> dict | None:
    """Time interpreter start and each import in a fresh interpreter."""
    stamp = work / "probe.json"
    stamp.unlink(missing_ok=True)
    with open(work / "probe.log", "wb") as log:
        spawned = _now_ns()
        proc = subprocess.Popen([sys.executable, str(CHILD), "probe", str(stamp)], cwd=ROOT,
                                env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        code, _ = _wait(proc, CHILD_TIMEOUT_S)
    problems = [] if code == 0 and stamp.is_file() else [f"probe exit code {code}"]
    if not problems:
        d = json.loads(stamp.read_text())
        if not Path(d["ghostcomb_file"]).resolve().is_relative_to(ROOT / "src"):
            problems.append(f"imported ghostcomb from {d['ghostcomb_file']}")
    ledger.fail_or_pass("probe", problems)
    if problems:
        return None
    return {
        "setup.interpreter_s": (d["started"] - spawned) / 1e9,
        "setup.import_numpy_s": (d["numpy"] - d["started"]) / 1e9,
        "setup.import_scipy_signal_s": (d["scipy_signal"] - d["numpy"]) / 1e9,
        "setup.import_ghostcomb_s": (d["ghostcomb"] - d["scipy_signal"]) / 1e9,
    }


def run_in_process(workload: Workload, seed: int, base: Path, ledger: Ledger,
                   trace: bool) -> dict:
    """All invocations in one fresh interpreter; traced runs add the mc rerun.

    The traced run repeats the mc curve at --threads 1, flagged extra: it
    gives the speed-up of the thread pool and checks that the thread count
    does not change the output bytes.
    """
    invocations = workload.build(seed, _clear(base))
    plan = [{"label": i.label, "argv": list(i.argv), "extra": False} for i in invocations]
    if trace and any(i.label == "curve-mc" for i in invocations):
        rerun = mc_invocation(seed, base / "curve-mc-threads1", threads=1)
        invocations.append(rerun)
        plan.append({"label": rerun.label, "argv": list(rerun.argv), "extra": True})
    plan_path, result_path = base / "plan.json", base / "result.json"
    plan_path.write_text(json.dumps(plan))
    with open(base / "inproc.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), "inproc", str(plan_path), str(result_path),
             "1" if trace else "0"],
            cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        code, _ = _wait(proc, CHILD_TIMEOUT_S)
    if code != 0 or not result_path.is_file():
        for inv in invocations:
            ledger.settle(inv, code or 1)
        return {"wall_s": 0.0, "spans": []}
    result = json.loads(result_path.read_text())
    for inv, inv_code in zip(invocations, result["codes"]):
        ledger.settle(inv, inv_code)
    own = [w for w, item in zip(result["walls"], plan) if not item["extra"]]
    return {"wall_s": sum(own), "spans": result["spans"]}


def traced_run(workload: Workload, seed: int, work: Path, ledger: Ledger):
    probes = [p for p in (probe(work, ledger) for _ in range(PROBES)) if p]
    untraced_round = run_round(workload, seed, work / "round", ledger)
    untraced = run_in_process(workload, seed, work / "inproc-untraced", ledger, trace=False)
    traced = run_in_process(workload, seed, work / "inproc-traced", ledger, trace=True)

    metrics = spans.layer_metrics(traced["spans"])
    for name in ("setup.interpreter_s", "setup.import_numpy_s",
                 "setup.import_scipy_signal_s", "setup.import_ghostcomb_s"):
        metrics[name] = stats.median(p[name] for p in probes) if probes else 0.0
    for command in ("simulate", "fit", "curve"):
        metrics[f"cli.{command}_s"] = sum(
            s["wall_s"] for s in untraced_round["invocations"] if s["command"] == command)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    detail = {
        "probes": probes,
        "untraced_round": untraced_round,
        "in_process_wall_s": {"untraced": untraced["wall_s"], "traced": traced["wall_s"]},
        "self_times_s": spans.self_time_table(traced["spans"]),
        "spans": traced["spans"],
    }
    return metrics, detail


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    version = re.search(r'__version__\s*=\s*"([^"]+)"',
                        (ROOT / "src" / "ghostcomb" / "__init__.py").read_text())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "ghostcomb": version.group(1) if version else "unknown",
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "seed": seed,
        "load": LOAD_SHAPE,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    work = _clear(OUTPUT_ROOT / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    ledger = Ledger()
    try:
        if trace:
            metrics, detail = traced_run(workload, seed, work, ledger)
        else:
            metrics, detail = timed_run(workload, seed, seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, detail, ledger


def summary_lines(name: str, trace: bool, metrics: dict, detail: dict, ledger: Ledger):
    yield f"== {name} ({'traced run' if trace else LOAD_SHAPE})"
    if trace:
        for metric, unit in PER_LAYER.items():
            yield f"  {metric:<32} {metrics[metric]:14.6g} {unit}"
        yield "  self times (s):"
        for span, seconds in detail["self_times_s"].items():
            yield f"    {span:<30} {seconds:10.4f}"
    else:
        for metric, unit in END_TO_END.items():
            d = stats.describe(r[metric] for r in detail["rounds"])
            tail = (f", p{d['tail_percentile']:.1f} {d['tail_value']:.4f}"
                    if "tail_value" in d else "")
            yield (f"  {metric:<16} {metrics[metric]:12.4f} {unit:<5} median of n={d['n']} "
                   f"rounds (q1 {d['q1']:.4f}, q3 {d['q3']:.4f}{tail})")
        stderr = detail["rounds"][-1]["offset_stderr_s"]
        if stderr is None:
            yield f"  {'offset_stderr_s':<16} {'n/a':>12} s     no fit in this workload"
        else:
            yield (f"  {'offset_stderr_s':<16} {stderr:12.4e} s     fit's 1-sigma offset "
                   "uncertainty (deterministic per seed)")
    error_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    yield (f"  {'error_rate':<16} {error_rate:12.4f} ratio {ledger.failed} failed of "
           f"{ledger.attempted} operations")
    for problem in ledger.problems:
        yield f"  FAILED {problem}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ghostcomb" / "cli.py").is_file():
        print(f"perfbench: no ghostcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    # Byte-compile once, untimed: an installed package ships compiled.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    units = PER_LAYER if trace else END_TO_END
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results_dir = OUTPUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        metrics, detail, ledger = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        for line in summary_lines(name, trace, metrics, detail, ledger):
            print(line)
        record = {"workload": name, "trace": trace, "env": env, "metrics": metrics,
                  "attempted": ledger.attempted, "failed": ledger.failed,
                  "problems": ledger.problems, **detail}
        (results_dir / f"{name}-seed{args.seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        out["attempted"] += ledger.attempted
        out["failed"] += ledger.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            out["metrics"][prefix + metric] = {"value": metrics[metric], "unit": unit}
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
