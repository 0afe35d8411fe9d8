"""Checks that the benchmark measures what it claims.

    python3 perfbench/selfcheck.py [--record perfbench/records/BENCH_1.json]

1. An altered expected verdict makes the command, and so the failed
   fraction, fail.
2. A command forced over its time budget is stopped and counted failed.
3. Two traced runs of every workload give identical counters.
4. The committed record has the shape of the ROADMAP baseline, which
   was measured by hand before the benchmark existed.  The whole sl4
   pipeline takes 11-33 s: the baseline is 19.2 s, and per-core speed
   on a shared host swings by up to 1.7x.  At least 80% of it is the
   ``commutative`` stage.  takiff(sl3,1) peaks near 700 MB and spends
   most of its time in the regcert stages ``codim2`` and
   ``regular-plane``.  poisson is the dominant layer of
   classical-ladder.  On nonreductive-ladder, the regcert certificates
   with the determinants and gcds they call take most of the time.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import record  # noqa: E402
import workloads  # noqa: E402

# counters are deterministic: a traced rerun must repeat them exactly
COUNTER_SUFFIXES = (".calls", ".cells", ".order_sum", ".term_pairs", "_bits",
                    ".minors_checked", ".plane_attempts", ".pairs_checked",
                    ".nonzero_minor_frac")


def check_oracle_and_budget(workdir: str) -> list[str]:
    import argshift.cli as cli
    signal.signal(signal.SIGALRM, child._alarm)
    cmds = {c.label: c for c in workloads.build("classical-ladder", 0, workdir)}
    sl2, sl3 = cmds["pipeline.sl2"], cmds["pipeline.sl3"]
    problems = []
    if child.run_pass(cli, [sl2], None)["commands"][0]["error"] is not None:
        problems.append("oracle: the unaltered sl2 pipeline failed")
    wrong = dataclasses.replace(sl2, fields=[("verdicts.estimate-index.ind", 2)])
    res = child.run_pass(cli, [sl2, wrong], None)
    failed = sum(c["error"] is not None for c in res["commands"])
    if failed != 1:
        problems.append(f"oracle: an altered verdict gave {failed} failures, expected 1")
    tight = dataclasses.replace(sl3, budget_s=0.01)
    err = child.run_command(cli, tight)["error"]
    if not err or "budget" not in err:
        problems.append(f"budget: a command over budget reported {err!r}")
    return problems


def _traced_counters(workload: str) -> dict:
    table = record.run(workload, seed=0, seconds=1, trace=1)[0]["per_layer"]
    return {k: v for k, v in table.items() if k.endswith(COUNTER_SUFFIXES)}


def check_counters_repeat() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        first, second = _traced_counters(workload), _traced_counters(workload)
        diff = sorted(k for k in first if first[k] != second.get(k))
        if diff or not first:
            problems.append(f"counters: {workload} differs in {diff[:5]}")
    return problems


def check_record(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    problems = []
    cl, nr = rec["workloads"]["classical-ladder"], rec["workloads"]["nonreductive-ladder"]
    sl4, takiff = rec["roadmap_baseline"]["sl4"], rec["roadmap_baseline"]["takiff"]
    if not 11 <= sl4["seconds"] <= 33:
        problems.append(f"record: sl4 pipeline took {sl4['seconds']:.1f} s")
    if sl4["stage_s"]["cli.stage.commutative_s"] < 0.8 * sl4["seconds"]:
        problems.append("record: commutative stage is under 80% of the sl4 pipeline")
    if not 550 <= takiff["peak_rss_mb"] <= 850:
        problems.append(f"record: takiff peak RSS {takiff['peak_rss_mb']:.0f} MB")
    regcert = sum(takiff["stage_s"].get(f"cli.stage.{st}_s", 0.0)
                  for st in ("codim2", "regular-plane"))
    if regcert < 0.5 * takiff["seconds"]:
        problems.append(f"record: regcert stages are {regcert:.1f} of "
                        f"{takiff['seconds']:.1f} s of the takiff pipeline")
    if sl4["error"] or takiff["error"]:
        problems.append(f"record: baseline failed: {sl4['error'] or takiff['error']}")
    if cl["dominant_layer"] != "poisson":
        problems.append(f"record: classical-ladder is dominated by {cl['dominant_layer']}")
    if nr["certificate_share"] < 0.5:
        problems.append("record: regcert certificates are "
                        f"{nr['certificate_share']:.2f} of nonreductive-ladder")
    for name, w in rec["workloads"].items():
        if not w["correct"] or w["failed"]:
            problems.append(f"record: {name} has failed commands")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", default=os.path.join(HERE, "records", "BENCH_1.json"))
    args = ap.parse_args()
    workdir = os.path.join(ROOT, ".bench_work", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = check_oracle_and_budget(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    problems += check_record(args.record)
    problems += check_counters_repeat()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
