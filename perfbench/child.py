"""Runs one workload in a fresh process: set-up, then timed passes.

Started by run.py.  It imports ``argshift`` from the checkout's ``src``,
generates the workload's inputs from the seed, and then runs the
workload's commands through ``argshift.cli.main`` back to back on one
thread, one pass after another, as a closed loop with a single client.
A pass starts only while it is expected to end within the measuring
window; the first always runs.  Every command has a time budget; one
that runs over it is stopped and counted as failed.

A fixed reference computation runs before every command and after the
last one.  Each command's time is also given as a multiple of the mean
of the two reference times around it, which takes out most of the
slowdown other tenants of a shared host cause: both slow down alike.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Any

import workloads


class OverBudget(BaseException):
    """Raised by the alarm when a command exceeds its time budget."""


def _alarm(signum: int, frame: Any) -> None:
    raise OverBudget()


def reference() -> float:
    """Time a fixed pure-Python computation: rational arithmetic on a dict
    with tuple keys, the operations the program spends its time on.  It
    uses no argshift code, so a change to the program leaves it alone."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    one = Fraction(1)
    t0 = time.perf_counter()
    for i in range(3000):
        k = ((i * 7919) % 6, i % 5, i % 7)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 13 + 1, i % 7 + 1) * acc.get(
            (k[1], k[0], 0), one)
    return time.perf_counter() - t0


def run_command(cli: Any, cmd: workloads.Command) -> dict:
    """Run one command in-process; time it and check it against the oracle."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cmd.budget_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(cmd.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        error = f"over its {cmd.budget_s:g} s budget"
    except Exception as exc:   # a crash is a failed command, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    report = None
    if error is None:
        try:
            report = json.loads(out.getvalue()) if out.getvalue() else None
        except json.JSONDecodeError as exc:
            error = f"unparsable report: {exc}"
    if error is None:
        error = cmd.check(code, report)
        if error and err.getvalue():
            error += f" (stderr: {err.getvalue().strip()[:200]})"
    return {"label": cmd.label, "seconds": seconds, "error": error, "report": report}


def report_counters(report: dict | None, acc: dict[str, float]) -> None:
    """Add the counters a report already carries: stage timings and sizes."""
    if not report:
        return
    if "stage_order" in report:
        for stage in report["stage_order"]:
            acc[f"cli.stage.{stage}_s"] += report["timings"].get(stage, 0.0)
    v = report.get("verdicts", {})
    plane = v.get("regular-plane", {})
    for cert in (v.get("codim2"), v.get("plane"), plane.get("certificate")):
        if isinstance(cert, dict):
            acc["regcert.minors_checked"] += cert.get("minors_checked", 0)
    acc["regcert.plane_attempts"] += (plane.get("attempts_used", 0)
                                      + v.get("codim2", {}).get("planes_tried", 0))
    acc["mfshift.pairs_checked"] += v.get("commutative", {}).get("pairs_checked", 0)


def run_pass(cli: Any, commands: list[workloads.Command], tracer: Any) -> dict:
    if tracer is not None:
        tracer.reset()
    results, counters = [], defaultdict(float)
    t0 = time.monotonic()
    ref = reference()
    for cmd in commands:
        res = run_command(cli, cmd)
        report_counters(res.pop("report"), counters)
        before, ref = ref, reference()
        res["ref_s"] = (before + ref) / 2
        results.append(res)
    return {"wall_s": sum(r["seconds"] for r in results),
            "elapsed_s": time.monotonic() - t0, "commands": results,
            "counters": dict(counters),
            "trace": tracer.snapshot() if tracer is not None else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/argshift")
    ap.add_argument("--workdir", required=True, help="directory for generated inputs")
    ap.add_argument("--workload", required=True, choices=workloads.COMMAND_SETS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    try:
        import argshift.cli as cli
    except ImportError as exc:
        print(f"error: cannot import argshift from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: argshift was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    commands = workloads.build(args.workload, args.seed, args.workdir)
    out: dict[str, Any] = {"setup_end": time.monotonic()}
    if tracer is not None:
        out["setup_trace"] = tracer.snapshot()
    if not args.setup_only:
        signal.signal(signal.SIGALRM, _alarm)
        deadline = out["setup_end"] + args.seconds
        passes = [run_pass(cli, commands, tracer)]
        while time.monotonic() + statistics.median(p["elapsed_s"] for p in passes) <= deadline:
            passes.append(run_pass(cli, commands, tracer))
        out["passes"] = passes
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
