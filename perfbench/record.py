"""Write a benchmark record: every workload, untraced and traced.

    python3 perfbench/record.py --out perfbench/records/BENCH_<n>.json [--seed 0]

For each workload it makes three pairs of runs of run.py, one untraced
and one traced, alternating which goes first, all with the same seed
and the run length from BENCHMARK.json.  It keeps the medians of the
end-to-end metrics, per-command times and per-layer statistics, the
tracing overhead (traced over untraced ``wall_ref``), each layer's
share of the traced pass time with the dominant layer, the share of the
plane certificates with everything they call, and the Python version,
git revision and ``nproc``.

It also runs, once each in a fresh child, the two commands behind the
ROADMAP baseline that are too long for a workload's pass: the sl4
pipeline and the takiff(sl3,1) pipeline.  It keeps their time, peak RSS
and per-stage times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PAIRS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of run.py: its record line and its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _medians(tables: list[dict]) -> dict:
    return {k: statistics.median(t.get(k, 0.0) for t in tables)
            for k in sorted(set().union(*tables))}


def record_workload(workload: str, seed: int, seconds: int) -> dict:
    runs: dict[int, list[tuple[dict, dict]]] = {0: [], 1: []}
    for i in range(PAIRS):
        for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[trace].append(run(workload, seed, seconds, trace))
    plain, traced = runs[0], runs[1]
    e2e = _medians([{k: v["value"] for k, v in res["metrics"].items()} for _, res in plain])
    table = _medians([rec["per_layer"] for rec, _ in traced])
    shares = {layer: table[f"layer.{layer}.share"] for layer in LAYERS}
    dominant = max(shares, key=shares.get)
    return {
        "correct": all(res["correct"] for _, res in plain + traced),
        "attempted": sum(res["attempted"] for _, res in plain + traced),
        "failed": sum(res["failed"] for _, res in plain + traced),
        "end_to_end": e2e,
        "untraced_wall_ref": [res["metrics"]["wall_ref"]["value"] for _, res in plain],
        "untraced_wall_s": [rec["wall_s"] for rec, _ in plain],
        "untraced_median_pass_s": [rec["median_pass_wall_s"] for rec, _ in plain],
        "traced_median_pass_s": [rec["per_layer"]["trace.wall_s"] for rec, _ in traced],
        "trace_overhead": statistics.median(rec["wall_ref"] for rec, _ in traced)
        / e2e["wall_ref"],
        "command_s": _medians([rec["command_s"] for rec, _ in plain]),
        "command_min_s": _medians([rec["command_min_s"] for rec, _ in plain]),
        "traced_command_s": _medians([rec["command_s"] for rec, _ in traced]),
        "dominant_layer": dominant, "dominant_share": shares[dominant],
        # regcert's certificates with the determinants and gcds they call
        "certificate_share": (table["regcert.certify_codim2.incl_s"]
                              + table["regcert.certify_regular_plane.incl_s"])
        / table["trace.wall_s"],
        "layer_share": shares,
        "per_layer": {k: v for k, v in table.items() if v},
        "python": plain[0][0]["python"], "nproc": plain[0][0]["nproc"],
        "git_rev": plain[0][0]["git_rev"],
    }


def roadmap_baseline(name: str, seed: int) -> dict:
    """One untraced pass of a baseline command in a fresh child."""
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
             "--workdir", workdir, "--workload", name, "--seed", str(seed),
             "--seconds", "0"], cwd=ROOT, capture_output=True, text=True, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (cmd,) = result["passes"][0]["commands"]
    return {"label": cmd["label"], "seconds": cmd["seconds"], "error": cmd["error"],
            "peak_rss_mb": result["peak_rss_mb"],
            "stage_s": {k: v for k, v in result["passes"][0]["counters"].items()
                        if k.startswith("cli.stage.")}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out: dict = {"seed": args.seed, "run_seconds": seconds, "pairs": PAIRS,
                 "workloads": {}}
    for workload in WORKLOADS:
        rec = record_workload(workload, args.seed, seconds)
        for key in ("python", "nproc", "git_rev"):
            out[key] = rec.pop(key)
        out["workloads"][workload] = rec
        print(f"{workload}: wall_ref {rec['end_to_end']['wall_ref']:.2f}, "
              f"trace overhead {rec['trace_overhead']:.3f}, "
              f"{rec['dominant_layer']} {rec['dominant_share']:.2f}", file=sys.stderr)
    out["roadmap_baseline"] = {key: roadmap_baseline(f"roadmap-baseline-{key}", args.seed)
                               for key in ("sl4", "takiff")}
    with contextlib.suppress(OSError):   # emptied by roadmap_baseline
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
