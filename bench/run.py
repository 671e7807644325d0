"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ``src/``; a
directory without it is refused with exit code 2.  BLAS and OpenMP are
pinned to one thread, here and in every child process.  The load is a
closed loop with one client: each operation starts when the previous one
has ended.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
harness self-check, then a fixed number of rounds untraced and the same
rounds traced, and reports the per-layer metrics; spans are written to
``bench/out/trace-<workload>-<seed>.jsonl``.  The last line of standard
output is the result object; the line before it is the full record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# numpy reads the thread settings when it is first imported
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, snapshot  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Five rounds of cli.  With fewer, op_tail_s (ten samples above it) would
# fall on a different kind of operation from one run to the next.
MIN_SAMPLES = 40
HARD_LIMIT_S = 120.0
SETUP_REPEATS = 5
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import hurwitz_kepler.cli as c; "
    "c.build_gamma_set(); print(time.perf_counter() - t)"
)
# parabolic_joint_solve on Grid(n=1500) at the seed commit: (fd_eigensolve
# calls, tridiagonal solves) for the Coulomb ground state and for c1=1, c2=2
REFERENCE_COUNTS = {"coulomb": (28, 58), "c12": (30, 88)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> tuple:
    """Median wall time of a fresh interpreter importing the CLI, and median import time.

    The median also discards a cold first launch, such as the one that
    compiles bytecode in a fresh checkout.
    """
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT, capture_output=True, text=True, check=True
        )
        walls.append(time.perf_counter() - t0)
        imports.append(float(out.stdout))
    return statistics.median(walls), statistics.median(imports)


def execute(op, tracer=None) -> tuple:
    """Run one operation; return (latency, deviation, failure message or None)."""
    if tracer is not None:
        tracer.begin_op(op.name)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = op.run()
    except Exception:
        dt = time.perf_counter() - t0
        traceback.print_exc()
        return dt, 1.0, f"{op.name}: raised"
    dt = time.perf_counter() - t0
    try:
        err = float(op.check(result))
    except Exception as exc:
        traceback.print_exc()
        return dt, 1.0, f"{op.name}: {exc}"
    if not err <= op.tol:  # also catches NaN
        return dt, 1.0 if err != err else err, f"{op.name}: deviation {err:.3g} > {op.tol:g}"
    return dt, err, None


class Tally:
    def __init__(self):
        self.lat, self.errs, self.failures, self.kinds = [], [], [], {}

    def add(self, name: str, outcome: tuple):
        dt, err, failure = outcome
        self.lat.append(dt)
        self.errs.append(err)
        self.kinds.setdefault(name, []).append((dt, err))
        if failure:
            self.failures.append(failure)

    @property
    def attempted(self):
        return len(self.lat)


def tail(lat: list) -> tuple:
    """Latency with exactly 10 samples above it, its percentile and the sample count."""
    xs = sorted(lat)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float) -> tuple:
    """Whole rounds until ``seconds`` have passed and MIN_SAMPLES operations are done."""
    rng = np.random.default_rng(seed)
    tally = Tally()
    round_times = []
    start = time.perf_counter()
    while True:
        n0 = tally.attempted
        for op in wl.round(rng):
            tally.add(op.name, execute(op))
        round_times.append(sum(tally.lat[n0:]))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S:
            break
        if tally.attempted >= MIN_SAMPLES and elapsed + 0.5 * statistics.median(round_times) >= seconds:
            break
    return tally, round_times, time.perf_counter() - start


def end_to_end(wl, tally: Tally, setup_s: float) -> dict:
    ok = tally.attempted - len(tally.failures)
    tail_s, _, _ = tail(tally.lat)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(tally.lat), "1/s"),
        "op_p50_s": (statistics.median(tally.lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "max_rel_err": (max(tally.errs), "1"),
        "ok_frac": (ok / tally.attempted, "1"),
        "peak_rss_mb": (peak_rss_mb(children=wl.name == "cli"), "MB"),
    }


def self_check() -> dict:
    """Count solves of two reference joint searches twice; check the wrappers come off."""
    from workloads import Grid, MiczParams, micz_energy, numeric, sho_model

    cases = {
        "coulomb": (MiczParams(Z=1.0), (-0.045, -0.024), micz_energy(1.0, 0.0, 0.0, 0)),
        "c12": (MiczParams(Z=1.0, c1=1.0, c2=2.0), (-0.05, -0.015), micz_energy(1.0, 1.0, 2.0, 0)),
    }
    before = snapshot()
    passes, errors = [], []
    for _ in range(2):
        counts = {}
        for label, (micz, bracket, exact) in cases.items():
            tracer = Tracer()
            with tracer:
                state = numeric.parabolic_joint_solve(sho_model(), micz, Grid(n=1500), bracket=bracket)
            counts[label] = (tracer.count("numeric.fd_eigensolve"), tracer.count("numeric.tridiag"))
            errors.append(abs(state.E - exact) / abs(exact))
        passes.append(counts)
    return {
        "counts": passes[0],
        "repeats": passes[0] == passes[1],
        "restored": snapshot() == before,
        "matches_reference": passes[0] == REFERENCE_COUNTS,
        "max_rel_err": max(errors),
    }


def traced(wl, seed: int, import_s: float) -> tuple:
    """Untraced then traced pass over the same fixed rounds; per-layer metrics."""

    def ops():
        rng = np.random.default_rng(seed)
        return [op for _ in range(wl.trace_rounds) for op in wl.round(rng, in_process=True)]

    plain = Tally()
    for op in ops():
        plain.add(op.name, execute(op))
    tally = Tally()
    tracer = Tracer()
    pending = ops()
    with tracer:
        for op in pending:
            tally.add(op.name, execute(op, tracer))
    overhead = sum(tally.lat) - sum(plain.lat)

    fd, tri = "numeric.fd_eigensolve", "numeric.tridiag"
    solves, kept = tracer.count(tri), tracer.work(fd)
    m = {
        "numeric.tridiag.solves": (solves, "count"),
        "numeric.tridiag.s": (tracer.total(tri), "s"),
        "numeric.tridiag.rows": (tracer.work(tri), "count"),
        "numeric.extend.retries": (solves - kept, "count"),
        "numeric.tridiag.useful_ratio": (kept / solves if solves else 1.0, "1"),
        "numeric.joint.calls": (tracer.count("numeric.joint"), "count"),
        "numeric.joint.s": (tracer.total("numeric.joint"), "s"),
        "numeric.joint.energy_evals": (tracer.child_count("numeric.joint", fd) // 2, "count"),
        "numeric.fd_eigensolve.calls": (tracer.count(fd), "count"),
        "numeric.fd_eigensolve.s": (tracer.total(fd), "s"),
        "numeric.fd_eigensolve.self_s": (tracer.self_time(fd), "s"),
        "numeric.spherical.s": (tracer.total("numeric.spherical"), "s"),
        "numeric.build.s": (tracer.total("numeric.build"), "s"),
        "cli.import_s": (import_s, "s"),
    }
    for sub in ("transform", "spectrum", "qes", "duality"):
        m[f"cli.{sub}.wall_s"] = (tracer.total("cli.main", op_prefix=f"cli.{sub}"), "s")
    m.update(
        {
            "cli.serialize.s": (tracer.total("cli.serialize"), "s"),
            "cli.serialize.bytes": (tracer.work("cli.serialize"), "B"),
            "algebra.batch.s": (tracer.total("algebra.batch"), "s"),
            "algebra.batch.pairs": (tracer.work("algebra.batch"), "count"),
            "algebra.forward.s": (tracer.total("algebra.forward"), "s"),
            "coords.roundtrip.s": (tracer.total("coords.roundtrip"), "s"),
            "coords.points": (tracer.work("coords.roundtrip"), "count"),
            "potentials.W.s": (tracer.total("potentials.W"), "s"),
            "potentials.W.points": (tracer.work("potentials.W"), "count"),
            "analytic.qes_solve.s": (tracer.total("analytic.qes_solve"), "s"),
            "analytic.closed_form.s": (tracer.total("analytic.closed_form"), "s"),
            "trace.overhead_s": (overhead, "s"),
        }
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-{seed}.jsonl")
    return tally, m, {"untraced_s": sum(plain.lat), "traced_s": sum(tally.lat), "overhead_s": overhead}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("library", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hurwitz_kepler" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    setup_s, import_s = measure_setup(env)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, work, env)
        wl.warmup()
        record = {}
        if args.trace:
            check = self_check()
            tally, metrics, record["tracing"] = traced(wl, args.seed, import_s)
            record["self_check"] = check
            failure = None
            if not (check["repeats"] and check["restored"]):
                failure = "self-check: counts did not repeat or wrappers were not restored"
            elif not check["max_rel_err"] <= 1e-5:
                failure = f"self-check: deviation {check['max_rel_err']:.3g} > 1e-05"
            tally.add("self-check", (0.0, check["max_rel_err"], failure))
            for label, (calls, solves) in check["counts"].items():
                metrics[f"selfcheck.{label}.calls"] = (calls, "count")
                metrics[f"selfcheck.{label}.solves"] = (solves, "count")
        else:
            tally, record["round_s"], record["measured_s"] = measure(wl, args.seed, args.seconds)
            metrics = end_to_end(wl, tally, setup_s)
            _, pct, n = tail(tally.lat)
            record["op_tail"] = {"percentile": pct, "samples": n}
            record["fail_frac"] = len(tally.failures) / tally.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "blas_threads": int(BLAS_THREADS),
            "failures": tally.failures[:20],
            "ops": {
                k: {"n": len(v), "p50_s": statistics.median(d for d, _ in v), "max_rel_err": max(e for _, e in v)}
                for k, v in sorted(tally.kinds.items())
            },
        }
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    if "fail_frac" in record:
        print(f"{'fail_frac':32s} {record['fail_frac']:.6g} 1")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
