"""Child-process entry points; run.py starts every child through this file.

    child.py launch STAMP -- ARGV...   import ghostcomb.cli, write the time the
                                       import returned to STAMP, run main(ARGV)
    child.py probe STAMP               import numpy, scipy.signal and
                                       ghostcomb.cli in turn, stamping each
    child.py inproc PLAN RESULT TRACE  run a list of invocations in this one
                                       process, traced when TRACE is 1

Stamps are CLOCK_MONOTONIC nanoseconds, the clock the parent reads when
it spawns the child. Only sys and time are imported before the first
stamp, so the interpreter start-up the parent sees is not inflated by
the benchmark's own imports.
"""

import sys
import time

STARTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def launch(stamp: str, argv: list[str]) -> int:
    import ghostcomb.cli

    imported = _now_ns()
    with open(stamp, "w") as fh:
        fh.write(str(imported))
    return ghostcomb.cli.main(argv)


def probe(stamp: str) -> int:
    started = STARTED_NS
    import numpy  # noqa: F401

    numpy_done = _now_ns()
    import scipy.signal  # noqa: F401

    scipy_done = _now_ns()
    import ghostcomb.cli

    ghostcomb_done = _now_ns()
    import json

    with open(stamp, "w") as fh:
        json.dump({
            "started": started, "numpy": numpy_done, "scipy_signal": scipy_done,
            "ghostcomb": ghostcomb_done, "ghostcomb_file": ghostcomb.cli.__file__,
        }, fh)
    return 0


def inproc(plan_path: str, result_path: str, trace: bool) -> int:
    import json
    from contextlib import nullcontext

    import ghostcomb.cli

    import spans

    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = spans.Tracer()
    walls, codes = [], []
    with spans.instrument(tracer) if trace else nullcontext():
        for item in plan:
            tracer.extra = item["extra"]
            start = time.perf_counter()
            if trace:
                with tracer.span("cli.main", label=item["label"]):
                    code = ghostcomb.cli.main(item["argv"])
            else:
                code = ghostcomb.cli.main(item["argv"])
            walls.append(time.perf_counter() - start)
            codes.append(code)
    with open(result_path, "w") as fh:
        json.dump({"walls": walls, "codes": codes, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "launch":
        sys.exit(launch(sys.argv[2], sys.argv[4:]))
    if mode == "probe":
        sys.exit(probe(sys.argv[2]))
    if mode == "inproc":
        sys.exit(inproc(sys.argv[2], sys.argv[3], sys.argv[4] == "1"))
    sys.exit(f"unknown mode {mode!r}")
