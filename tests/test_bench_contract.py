"""What the benchmark under ``bench/`` binds in the package.

The benchmark runs from its own checkout and reaches the package by module
and function name, so a rename or a dropped keyword breaks it without
failing any other test.  These tests read ``bench/`` and change nothing
there: they resolve every traced target, run the benchmark's start-up
snippet in a fresh interpreter and run one round of each workload through
the benchmark's own checks.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hurwitz_kepler import numeric
from hurwitz_kepler.potentials import MiczParams, Potential8D

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The bench modules ``run``, ``tracing`` and ``workloads``, imported as the bench imports them."""
    with pytest.MonkeyPatch.context() as mp, mock.patch.dict(os.environ):
        # run.py pins the BLAS thread count in os.environ when imported, and
        # no bytecode is written under bench/
        mp.syspath_prepend(str(BENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        yield {name: importlib.import_module(name) for name in ("run", "tracing", "workloads")}


def test_traced_targets_resolve(bench):
    for module, name, _ in bench["tracing"].TARGETS:
        assert callable(getattr(importlib.import_module(f"hurwitz_kepler.{module}"), name)), (module, name)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("osc8", {"potential": Potential8D("sho", omega=1.0)}),
        ("theta", {"micz": MiczParams(Z=1.0, c1=1.0, c2=2.0)}),
        ("coul9", {"Z": 1.0, "lam": 0.0, "rmax": 260.0}),
    ],
)
def test_bench_problem_kinds_build(kind, params):
    assert isinstance(numeric.build_radial_problem(kind, **params), numeric.RadialProblem)


def test_import_snippet_runs_in_a_fresh_interpreter(bench):
    # the setup metric imports the CLI and calls cli.build_gamma_set
    run = bench["run"]
    out = subprocess.run(
        [sys.executable, "-c", run.IMPORT_SNIPPET],
        env=run.child_env(),
        cwd=run.ROOT,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) > 0.0


@pytest.mark.parametrize("workload", ["library", "cli"])
def test_one_round_passes_the_bench_checks(bench, tmp_path, workload):
    run, workloads = bench["run"], bench["workloads"]
    wl = workloads.make(workload, tmp_path, run.child_env())
    ops = wl.round(np.random.default_rng(1), in_process=True)
    failures = [failure for _, _, failure in map(run.execute, ops) if failure]
    assert ops and failures == []
