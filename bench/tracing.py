"""Spans around calls into the package, recorded from outside.

:class:`Tracer` replaces selected public functions with timing wrappers in
every ``hurwitz_kepler`` module namespace that bound them (``cli`` imported
its solvers with ``from .numeric import ...``; ``parabolic_joint_solve``
looks ``fd_eigensolve`` up as a module global; ``numeric.eigh_tridiagonal``
is the scipy kernel boundary) and puts the originals back on exit.  No file
under ``src/`` is changed.

A span is ``(name, start, end, parent, op, size)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the operation id set by the harness and
``size`` a work count taken from the arguments (matrix order, pairs, points,
bytes written).  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

# (module, function, span name).  Every module that bound the same object
# gets the wrapper, whatever name it uses for it.
TARGETS = (
    ("numeric", "eigh_tridiagonal", "numeric.tridiag"),
    ("numeric", "fd_eigensolve", "numeric.fd_eigensolve"),
    ("numeric", "parabolic_joint_solve", "numeric.joint"),
    ("numeric", "spherical_micz_energies", "numeric.spherical"),
    ("numeric", "build_radial_problem", "numeric.build"),
    ("numeric", "qes_verification_problem", "numeric.build"),
    ("algebra", "hurwitz_forward_batch", "algebra.batch"),
    ("algebra", "hurwitz_forward", "algebra.forward"),
    ("coords", "hyperspherical_to_cartesian8", "coords.roundtrip"),
    ("coords", "spherical9_to_cartesian", "coords.roundtrip"),
    ("coords", "parabolic_to_cartesian9", "coords.roundtrip"),
    ("coords", "cartesian9_to_parabolic", "coords.roundtrip"),
    ("potentials", "spherical_W", "potentials.W"),
    ("potentials", "parabolic_W", "potentials.W"),
    ("analytic", "qes_solve", "analytic.qes_solve"),
    ("analytic", "singular_oscillator_energy", "analytic.closed_form"),
    ("analytic", "radial_wavefunction", "analytic.closed_form"),
    ("analytic", "effective_lprime", "analytic.closed_form"),
    ("analytic", "dual_map", "analytic.closed_form"),
    ("cli", "write_json", "cli.serialize"),
    ("cli", "write_csv", "cli.serialize"),
    ("cli", "main", "cli.main"),
)

PACKAGE = "hurwitz_kepler"


def _size(span_name: str, args, kwargs) -> int:
    """Work count of one call, read from its arguments or from the file it wrote.

    numeric.tridiag: matrix order; numeric.fd_eigensolve: solves it keeps
    (fine and coarse grid with Richardson, else fine only); algebra.batch:
    pairs; algebra.forward and coords.roundtrip: one point per call;
    potentials.W: points evaluated; cli.serialize: bytes written.
    """
    if span_name == "numeric.tridiag":
        return len(args[0])
    if span_name == "numeric.fd_eigensolve":
        richardson = kwargs.get("richardson", args[3] if len(args) > 3 else True)
        return 2 if richardson else 1
    if span_name == "algebra.batch":
        return int(np.atleast_2d(args[0]).shape[0])
    if span_name in ("algebra.forward", "coords.roundtrip"):
        return 1
    if span_name == "potentials.W":
        points = [np.asarray(a) for a in args if isinstance(a, (float, int, np.ndarray))]
        return int(np.broadcast(*points).size) if points else 0
    if span_name == "cli.serialize":
        return os.path.getsize(args[0])
    return 0


class Tracer:
    """Context manager that records spans around the package's public calls."""

    def __init__(self):
        self.spans: list = []
        self.op_names: list = []
        self._stack: list = []
        self._patched: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, span_name: str, returns_evaluators: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            op = len(self.op_names) - 1
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, op, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            spans[idx][5] = _size(span_name, args, kwargs)
            if returns_evaluators:
                result = tuple(self._wrap(f, "potentials.W") for f in result)
            return result

        return wrapper

    def begin_op(self, name: str) -> None:
        """Tag the spans that follow with a new operation id named ``name``."""
        self.op_names.append(name)

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for mod_name, fn_name, span_name in TARGETS:
            home = modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, span_name, returns_evaluators=fn_name == "parabolic_W")
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    # -- analysis ---------------------------------------------------------

    def _top_level(self, names) -> list:
        """Spans named in ``names`` whose enclosing spans are not."""
        names = set(names)
        spans = self.spans
        out = []
        for s in spans:
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(s)
        return out

    def total(self, *names, op_prefix: str = "") -> float:
        """Wall time covered by the named spans, nested ones counted once.

        With ``op_prefix``, only spans of operations whose name starts with it.
        """
        ops = self.op_names
        return sum(
            s[2] - s[1]
            for s in self._top_level(names)
            if not op_prefix or (s[4] >= 0 and ops[s[4]].startswith(op_prefix))
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def work(self, name: str) -> int:
        return sum(s[5] for s in self.spans if s[0] == name)

    def child_count(self, parent: str, child: str) -> int:
        """Number of ``child`` spans directly enclosed by a ``parent`` span."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their children cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op", "size")
        with open(path, "w") as fh:
            for s in self.spans:
                rec = dict(zip(fields, s))
                rec["op_name"] = self.op_names[s[4]] if s[4] >= 0 else None
                fh.write(json.dumps(rec) + "\n")


def snapshot() -> dict:
    """Identity of every callable attribute of every loaded package module."""
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
        for attr, value in vars(mod).items()
        if callable(value)
    }
