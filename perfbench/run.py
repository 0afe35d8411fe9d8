"""The argshift benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each run starts fresh child
processes (child.py), one after the other: with ``--trace 0``, two
that only set up, one that sets up and runs the workload, and two more
that only set up; with ``--trace 1``, only the one that runs the
workload, with the tracer installed.  Nothing runs concurrently.

Set-up covers the interpreter start, ``import argshift``, generating
every input from the seed through the library, validating it and
writing it as JSON; ``setup_s`` is the median over the five children.
A pass is the workload's whole command sequence, and every pass does
the same work.  Other tenants of a shared host slow the same code by up
to 1.7x for seconds to minutes at a time, so raw times spread from run
to run by 0.10-0.57 of their median whatever statistic is taken.  The child therefore times a
fixed pure-Python reference computation before every command and after
the last, and ``wall_ref`` is the command sequence's time in reference
units: the sum over commands of the median, over passes, of the
command's time divided by the mean of the two reference times around
it.  The reference uses no argshift code, so only the program's own
work moves it.  Raw times stay in the record line: per-command medians
and minima, the median and fastest pass, and ``wall_s``, the sum over
commands of each one's fastest time.  ``peak_rss_mb`` is the peak
resident set of the workload's child.

A command fails when its outcome differs from the verdict oracle, when
it raises, or when it runs over its time budget; ``failed`` out of
``attempted`` is the failed fraction, and the run is correct only when
nothing failed.

The metric names and units come from BENCHMARK.json: ``end_to_end``
with ``--trace 0`` and ``per_layer`` with ``--trace 1``.  The line
before the last holds the run's full record (per-command times,
failures and, when traced, every per-function statistic); the last line
is the result object.  Generated inputs live in ``.bench_work`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# the whole run, set-up children included, must end within 180 s
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def _child(args: argparse.Namespace, workdir: str, deadline: float,
           setup_only: bool = False) -> tuple[dict, float]:
    """Run one child; return its result and the monotonic time it started."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workdir", workdir, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace"] if args.trace else []
    cmd += ["--setup-only"] if setup_only else []
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child ran past the {RUN_LIMIT_S:g} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), started


def _setup_only(args: argparse.Namespace, workdir: str, deadline: float) -> float:
    res, started = _child(args, workdir, deadline, setup_only=True)
    return res["setup_end"] - started


def _flatten(p: dict) -> dict[str, float]:
    """Every per-layer statistic of one traced pass, by metric name."""
    trace = p["trace"]
    out: dict[str, float] = {}
    for fn, st in trace["functions"].items():
        for stat, value in st.items():
            out[f"{fn}.{stat}"] = value
    wall = p["wall_s"]
    for layer, t in trace["layers"].items():
        out[f"layer.{layer}.self_s"] = t
        out[f"layer.{layer}.share"] = t / wall
    c = dict(trace["counters"])
    minors, nonzero = c.pop("regcert.minors"), c.pop("regcert.nonzero_minors")
    out["regcert.nonzero_minor_frac"] = nonzero / minors if minors else 0.0
    out.update(c)
    for name, value in p["counters"].items():
        out[name] = value
        if name.startswith("cli.stage."):
            out[name[:-2] + "_frac"] = value / wall
    out["trace.wall_s"] = wall
    return out


def _per_layer(result: dict) -> dict[str, float]:
    """Median over passes of every statistic, plus the traced set-up."""
    flat = [_flatten(p) for p in result["passes"]]
    names = set().union(*flat)
    table = {n: statistics.median(f.get(n, 0.0) for f in flat) for n in names}
    setup = result["setup_trace"]
    for fn, st in setup["functions"].items():
        for stat, value in st.items():
            table[f"setup.{fn}.{stat}"] = value
    return dict(sorted(table.items()))


def _git_rev() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def measure(args: argparse.Namespace, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # set-ups that only set up run half before and half after the
        # workload, so that they sample the host over the whole run
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_setup_only(args, workdir, deadline) for _ in range(extra // 2)]
        result, started = _child(args, workdir, deadline)
        setups.append(result["setup_end"] - started)
        setups += [_setup_only(args, workdir, deadline) for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # another run may share it
            os.rmdir(os.path.dirname(workdir))

    passes = result["passes"]
    commands = [c for p in passes for c in p["commands"]]
    failures = [f"{c['label']}: {c['error']}" for c in commands if c["error"]]
    per_cmd: dict[str, list[float]] = defaultdict(list)
    per_cmd_ref: dict[str, list[float]] = defaultdict(list)
    for c in commands:
        per_cmd[c["label"]].append(c["seconds"])
        per_cmd_ref[c["label"]].append(c["seconds"] / c["ref_s"])
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": _git_rev(), "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "command_s": {k: statistics.median(v) for k, v in per_cmd.items()},
        "command_min_s": {k: min(v) for k, v in per_cmd.items()},
        "command_ref": {k: statistics.median(v) for k, v in per_cmd_ref.items()},
        "reference_s": statistics.median(c["ref_s"] for c in commands),
        "median_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "fastest_pass_wall_s": min(p["wall_s"] for p in passes),
        "setup_s": setups, "failed_frac": len(failures) / len(commands),
        "failures": failures}
    record["wall_s"] = sum(record["command_min_s"].values())
    record["wall_ref"] = sum(record["command_ref"].values())
    if args.trace:
        table = _per_layer(result)
        record["per_layer"] = table
        wanted = spec["per_layer"]
    else:
        table = {"wall_ref": record["wall_ref"],
                 "peak_rss_mb": result["peak_rss_mb"],
                 "setup_s": statistics.median(setups)}
        record["peak_rss_mb"] = result["peak_rss_mb"]
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in table]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run cannot measure: {missing}")
    final = {"correct": not failures, "attempted": len(commands), "failed": len(failures),
             "metrics": {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                         for m in wanted}}
    return record, final


def main() -> int:
    ap = argparse.ArgumentParser(description="argshift benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        record, final = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
