"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --workloads parabolic,cli --seeds 1-10 --trace 0 --out bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one after another, from the
repository root.  For each end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median next to the metric's bound in ``BENCHMARK.json``; a
``!`` marks a spread above a third of the bound.  ``--out`` merges the runs
into a JSON file under ``<workload>."trace<0|1>:<seeds>"``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def seeds_from(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    merged = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            runs.append(run_one(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr)
        names = list(runs[0]["metrics"])
        summary = {n: summarise([r["metrics"][n]["value"] for r in runs]) for n in names}
        print(f"\n{workload} (trace {args.trace}, {len(runs)} seeds)")
        for n, s in summary.items():
            bound = bounds.get(n)
            flag = "!" if bound is not None and n != "setup_s" and s["spread"] > bound / 3 else " "
            tail = f"  spread {s['spread']:.4f}  bound {bound}" if bound is not None else ""
            print(f"{flag} {n:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}{tail}")
        merged.setdefault(workload, {})[f"trace{args.trace}:{args.seeds}"] = {
            "seeds": seeds_from(args.seeds),
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": summary,
            "records": [r["record"] for r in runs],
        }
        if args.out:
            args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
