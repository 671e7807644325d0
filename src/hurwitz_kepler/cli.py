"""Command-line front end: JSON run configs, machine-readable outputs.

Subcommands: ``transform`` (bilinear map sweeps), ``spectrum`` (analytic
vs numerical eigenvalues), ``qes`` (quasi-exactly-solvable
blocks) and ``duality`` (three-way oscillator / spherical / parabolic
agreement).  Each takes a config path, ``--tol`` and ``--out``; ``qes``
adds ``--verify`` and ``duality`` adds ``--no-verify``.  Each accepts
exactly the config keys its handler reads; any other flag or key exits 2.
Exit codes are a stable contract, listed in :mod:`hurwitz_kepler.errors`.
Numeric fields are serialized with 17 significant digits and every JSON
document carries ``schema_version``; a float table is streamed to its CSV
file in row blocks, byte-identical to ``%.17g`` in every cell.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
# build_gamma_set stays bound here: bench/run.py times `import cli; cli.build_gamma_set()`
from .algebra import build_gamma_set, hurwitz_forward_batch  # noqa: F401
from .analytic import (
    QesPrimedParams,
    QuantumNumbers,
    dual_map,
    effective_lprime,
    qes_map_sub2,
    qes_map_super2,
    qes_solve,
    singular_oscillator_energy,
)
from .errors import (
    AccuracyError,
    BracketError,
    ConfigError,
    QesClosureError,
    QesPreconditionError,
    SeparabilityError,
    check_keys,
    float_key,
    int_key,
)
from .numeric import (
    Grid,
    build_radial_problem,
    fd_eigensolve,
    parabolic_joint_solve,
    qes_verification_problem,
    spherical_micz_energies,
)
from .potentials import (
    MiczParams,
    OscillatorModel,
    Potential8D,
    micz_from_dict,
    model_from_dict,
    potential_from_dict,
    require_spherically_separable,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization: 17 significant digits everywhere


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        if not math.isfinite(v):
            raise ValueError("cannot serialize non-finite float")
        return format(float(v), ".17g")
    raise TypeError(f"unsupported scalar {type(v)!r}")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1).lstrip()}' for k, v in obj.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [_to_json(v, indent + 1) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    if obj is None:
        return pad + "null"
    return pad + _fmt(obj)


def write_json(path: Path, obj: dict) -> None:
    path.write_text(_to_json(obj) + "\n")


CSV_BLOCK_ROWS = 256  # rows of a float table that write_csv formats at a time

# %.17g prints |x| in [1e-4, 1e17) in fixed notation.  The vectorized
# writer takes the cells in [1e-4, 1e16), whose decimal exponent e runs
# over E_MIN..E_MAX, and leaves every other cell (zeros, the scientific
# ones and [1e16, 1e17)) to _fmt.
_E_MIN, _E_MAX = -4, 15
_CELL = 25  # the longest %.17g text, 24 bytes as in -2.2250738585072014e-308, and a separator
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# byte offsets in a cell's 24-byte source: "0.-", the 17 digits, separator, NUL
_ZERO, _POINT, _MINUS, _DIGIT, _SEP, _NUL = 0, 1, 2, 3, 20, 21


@functools.cache
def _fixed17_tables() -> tuple:
    """Lookup tables of :func:`_format_block`, built on its first call.

    ``layout[k]`` lists the source byte of each of a cell's 25 output
    bytes for the key k = (sign, e, index of the last nonzero digit): the
    cell's text, NUL up to the last byte, and its separator there.
    """
    lead = np.array([b"0.-%d" % d for d in range(10)], dtype="S4").view(np.uint32)
    digits4 = np.array([b"%04d" % g for g in range(10000)], dtype="S4").view(np.uint32)
    zeros4 = np.array([4 - len((b"%04d" % g).rstrip(b"0")) for g in range(10000)])
    digit = list(range(_DIGIT, _DIGIT + 17))
    layout = np.full((2, _E_MAX - _E_MIN + 1, 17, _CELL), _NUL, dtype=np.intp)
    for sign in range(2):
        for e in range(_E_MIN, _E_MAX + 1):
            for last in range(17):
                text = [_MINUS] * sign
                if e >= 0:  # e + 1 integer digits; a point only before a nonzero digit
                    text += digit[: e + 1]
                    if last > e:
                        text += [_POINT] + digit[e + 1 : last + 1]
                else:
                    text += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digit[: last + 1]
                layout[sign, e - _E_MIN, last, : len(text)] = text
    layout[..., -1] = _SEP
    # 10**(16 - e) for e = E_MIN - 1 .. E_MAX + 1 (a first guess of e may be
    # one off), each exact in binary64, split into halves of 26 bits
    scale = np.array([10.0 ** (16 - e) for e in range(_E_MIN - 1, _E_MAX + 2)])
    scale_hi = _SPLIT * scale - (_SPLIT * scale - scale)
    return lead, digits4, zeros4, layout.reshape(-1, _CELL), scale_hi, scale - scale_hi


def _two_product(a: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray) -> tuple:
    """Dekker's error-free product: ``hi + lo == a * (b_hi + b_lo)`` exactly."""
    b = b_hi + b_lo
    hi = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _digits17(a: np.ndarray, scale_hi: np.ndarray, scale_lo: np.ndarray) -> tuple:
    """The 17 significant digits of each ``a`` in [1e-4, 1e16), as %.17g rounds them.

    Returns the digits as an int64 N in [1e16, 1e17) and the decimal
    exponent e, so that ``a`` prints as N * 10**(e - 16).  The product of
    ``a`` and the exact double 10**(16 - e) is ``hi + lo`` with no error;
    ``hi`` is then an even integer at least 2**53, so ``hi + rint(lo)``
    rounds half to even, as dtoa does.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    i = e - (_E_MIN - 1)
    hi, lo = _two_product(a, scale_hi[i], scale_lo[i])
    # the exact product must lie in [1e16, 1e17); log10 may have put e one off
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.intp) - low[fix]
        i = e[fix] - (_E_MIN - 1)
        hi[fix], lo[fix] = _two_product(a[fix], scale_hi[i], scale_lo[i])
    # N < 1e17: the double below a power of ten in range is further from it
    # than the half unit 5e-18 relative that 17 digits can round away
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _format_block(block: np.ndarray, seps: np.ndarray) -> bytes:
    """The CSV text of the finite float rows ``block``, each cell as ``%.17g``.

    ``seps`` holds each column's separator byte (``,`` and, last, a
    newline).  Cells in [1e-4, 1e16) are formatted with whole-array
    operations; the rest go through :func:`_fmt`, once per distinct value.
    """
    lead, digits4, zeros4, layout, scale_hi, scale_lo = _fixed17_tables()
    flat = block.ravel()
    a = np.abs(flat)
    fast = (a >= 1e-4) & (a < 1e16)
    slow = np.flatnonzero(~fast)
    if slow.size:
        a[slow] = 1.0
    N, e = _digits17(a, scale_hi, scale_lo)

    # the digits as d0 and four groups of four, split in int32 where they fit
    top = N // 10**8
    bottom = (N - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 10**8
    g12 = top - d0 * 10**8
    g1 = g12 // 10**4
    g3 = bottom // 10**4
    groups = (g1, g12 - g1 * 10**4, g3, bottom - g3 * 10**4)
    # each cell's source: "0.-" and d0, the groups, then its separator and NUL
    src = np.empty((flat.size, 6), np.uint32)
    src[:, 0] = lead[d0]
    for w, g in enumerate(groups, 1):
        src[:, w] = digits4[g]
    src.reshape(block.shape + (6,))[:, :, 5] = seps

    # index of the last nonzero digit: digits 4w-3..4w make group w, and
    # last == 4w only where group w + 1 and every group after it are zero
    last = 16 - zeros4[groups[3]]
    for w in (3, 2, 1):
        z = np.flatnonzero(last == 4 * w)
        if not z.size:
            break
        last[z] = 4 * w - zeros4[groups[w - 1][z]]
    key = (np.signbit(flat) * (_E_MAX - _E_MIN + 1) + (e - _E_MIN)) * 17 + last
    key[slow] = 0
    index = layout.take(key, axis=0)
    index += np.arange(0, src.nbytes, src[0].nbytes)[:, None]  # each cell's source
    out = src.view(np.uint8).ravel().take(index)
    if slow.size:
        bits, inverse = np.unique(flat[slow].view(np.int64), return_inverse=True)
        text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=f"S{_CELL - 1}")
        out[slow, :-1] = text.view(np.uint8).reshape(-1, _CELL - 1)[inverse]
    return out.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: list, rows) -> None:
    """Write ``rows`` under ``header``.

    A float array is checked finite before the file is opened, then
    streamed in blocks of :data:`CSV_BLOCK_ROWS` rows, each formatted by
    :func:`_format_block`; the file is byte-identical to one ``%.17g``
    template per row (the same text as :func:`_fmt`).  A list of mixed rows
    is written one value at a time through :func:`_fmt`.
    """
    if isinstance(rows, np.ndarray):
        rows = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(rows).all():
            raise ValueError("cannot serialize non-finite float")
        seps = np.full(rows.shape[1], ord(","), np.uint32)
        seps[-1:] = ord("\n")
        with open(path, "wb") as f:
            f.write((",".join(header) + "\n").encode())
            for start in range(0, rows.shape[0], CSV_BLOCK_ROWS):
                f.write(_format_block(rows[start : start + CSV_BLOCK_ROWS], seps))
        return
    lines = [",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows]
    path.write_text("\n".join([",".join(header)] + lines) + "\n")


def _load_config(path: str, allowed: set, required: set = frozenset()) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return check_keys(cfg, allowed, required)


def _grid_from(cfg: dict, default_n: int) -> Grid:
    """The ``grid`` block as a Grid: its one key ``n`` caps the basis of every solve.

    It is checked here, whether or not the run goes on to solve.
    """
    g = check_keys(cfg.get("grid", {}), {"n"}, what="grid block")
    return Grid(n=int_key(g, "n", default_n, what="grid block"))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# transform


def _octet(cfg: dict, key: str) -> np.ndarray:
    """``cfg[key]`` as a (1, 8) array; it must be a list of 8 JSON numbers, never coerced."""
    vec = cfg[key]
    if not (
        isinstance(vec, list)
        and len(vec) == 8
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
        and all(abs(x) <= sys.float_info.max for x in vec if isinstance(x, int))
    ):
        raise ConfigError(f"config key {key!r} must be a list of 8 numbers, got {vec!r}")
    return np.array([vec], dtype=float)


def cmd_transform(args) -> int:
    cfg = _load_config(args.config, {"u", "v", "count", "seed"})
    if "u" in cfg or "v" in cfg:
        check_keys(cfg, {"u", "v"}, {"u", "v"})
        U, V = _octet(cfg, "u"), _octet(cfg, "v")
    else:
        count = int_key(cfg, "count", 1000, minimum=1)
        seed = int_key(cfg, "seed", 0, minimum=0)
        rng = np.random.default_rng(seed)
        U = rng.normal(size=(count, 8))
        V = rng.normal(size=(count, 8))
    X = hurwitz_forward_batch(U, V)
    # |x| = u.u + v.v, checked on X / (u.u + v.v): squaring X or u.u + v.v
    # overflows from about 1.3e154 although the map itself is finite
    s = np.einsum("ns,ns->n", U, U) + np.einsum("ns,ns->n", V, V)
    Y = X / np.where(s > 0.0, s, 1.0)[:, None]
    y2 = np.einsum("nk,nk->n", Y, Y)
    resid = np.where(s > 0.0, np.abs(y2 - 1.0), 0.0)

    header = (
        [f"u{i}" for i in range(1, 9)]
        + [f"v{i}" for i in range(1, 9)]
        + [f"x{i}" for i in range(1, 10)]
        + ["r", "x9", "residual"]
    )
    table = np.column_stack([U, V, X, s * np.sqrt(y2), X[:, 8], resid])
    write_csv(_out_dir(args) / "transform.csv", header, table)
    worst = float(np.max(resid))
    print(f"transform: {U.shape[0]} rows, max residual {worst:.3e}")
    return 0 if worst <= args.tol else 1


# ---------------------------------------------------------------------------
# spectrum


def _check_states(key: str, states: int, grid: Grid) -> None:
    """A solve for ``states`` states, set by config key ``key``, needs grid ``n >= 4 states``."""
    if states > grid.n // 4:
        raise ConfigError(
            f"config key {key!r} asks for {states} states per solve, "
            f"which needs grid block key 'n' >= {4 * states}, got {grid.n}"
        )


def _spectrum_oscillator(cfg: dict) -> tuple:
    pot = potential_from_dict(cfg["potential"])
    if pot.variant != "sho":
        # the closed form below is the sho one; sub2/super2 levels come from qes
        raise ConfigError(
            f"potential key 'variant' must be 'sho' for an oscillator spectrum, "
            f"got {pot.variant!r}"
        )
    n_max = int_key(cfg, "n_max", 2, minimum=0)
    l_max = int_key(cfg, "l_max", 1, minimum=0)
    grid = _grid_from(cfg, 4000)
    _check_states("n_max", n_max + 1, grid)
    # closed forms before the first solve: a complex L' is a config error
    exact = {
        (N, L): singular_oscillator_energy(QuantumNumbers(N=N, L=L), pot.omega, pot.c)
        for L in range(l_max + 1)
        for N in range(n_max + 1)
    }
    rows = []
    worst = 0.0
    for L in range(l_max + 1):
        prob = build_radial_problem("osc8", potential=pot, L=L)
        spec = fd_eigensolve(prob, grid, n_max + 1)
        for N in range(n_max + 1):
            z_exact = exact[N, L]
            z_fd = float(spec.eigenvalues[N])
            dev = abs(z_fd - z_exact) / abs(z_exact)
            worst = max(worst, dev)
            rows.append([N, L, z_exact, z_fd, dev])
    return ["N", "L", "analytic", "fd", "rel_dev"], rows, worst


def _spectrum_micz(cfg: dict) -> tuple:
    micz = micz_from_dict(cfg["micz"])
    if micz.Z <= 0.0:
        raise ConfigError(f"micz block key 'Z' must be positive, got {micz.Z!r}")
    if "model" in cfg:
        model = model_from_dict(cfg["model"])
        require_spherically_separable(model)
        if model.Z != 0.0 and abs(model.Z - micz.Z) > 1e-12 * max(1.0, abs(micz.Z)):
            raise ConfigError("model charge Z1+Z2 disagrees with the micz block Z")
    n_states = int_key(cfg, "n_states", 2, minimum=1)
    grid = _grid_from(cfg, 4000)
    polar = Grid(n=3000)  # the polar solve's cap, not the config's
    if n_states > polar.n // 4:
        raise ConfigError(
            f"config key 'n_states' asks for {n_states} states per solve, "
            f"but the polar solve's fixed grid of n = {polar.n} takes at most {polar.n // 4}"
        )
    _check_states("n_states", n_states, grid)
    # closed-form lambda = n_theta + the regular exponents at the two poles
    poles = effective_lprime(micz.J, 4.0 * micz.c1) + effective_lprime(micz.L, 4.0 * micz.c2)
    # the smallest closed-form |E|, at N = theta_index = n_states - 1, must not underflow
    if micz.Z * micz.Z / (2.0 * (2 * n_states + 0.5 * poles + 2.0) ** 2) < sys.float_info.min:
        raise ConfigError(
            f"micz block key 'Z' must be large enough for normal closed-form E, got {micz.Z!r}"
        )
    states = spherical_micz_energies(
        micz, n_theta=n_states, n_radial=n_states, grid_theta=polar, grid_radial=grid
    )
    rows = []
    worst = 0.0
    for E, itheta, N, lam in states[: n_states * 2]:
        e_closed = -micz.Z**2 / (2.0 * (N + itheta + 0.5 * poles + 4.0) ** 2)
        dev = abs(E - e_closed) / abs(e_closed)
        worst = max(worst, dev)
        rows.append([itheta, N, lam, e_closed, E, dev])
    return ["theta_index", "N", "lambda", "analytic", "fd", "rel_dev"], rows, worst


_SPECTRA = {  # problem -> (solver, keys besides "problem" and "grid", required keys)
    "oscillator": (_spectrum_oscillator, {"potential", "n_max", "l_max"}, {"potential"}),
    "micz": (_spectrum_micz, {"micz", "model", "n_states"}, {"micz"}),
}


def cmd_spectrum(args) -> int:
    every_key = {"problem", "grid"}.union(*(keys for _, keys, _ in _SPECTRA.values()))
    cfg = _load_config(args.config, every_key, {"problem"})
    problem = str(cfg["problem"])
    if problem not in _SPECTRA:
        raise ConfigError("problem must be 'oscillator' or 'micz'")
    solve, keys, required = _SPECTRA[problem]
    check_keys(cfg, keys | {"problem", "grid"}, required, f"{problem} config")
    header, rows, worst = solve(cfg)
    out = _out_dir(args)
    write_csv(out / "spectrum.csv", header, rows)
    write_json(
        out / "spectrum.json",
        {
            "schema_version": SCHEMA_VERSION,
            "problem": problem,
            "columns": header,
            "rows": rows,
            "max_rel_dev": worst,
        },
    )
    for row in rows:
        print("  ".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    print(f"spectrum: {len(rows)} rows, max relative deviation {worst:.3e}")
    return 0 if worst <= args.tol else 1


# ---------------------------------------------------------------------------
# qes


def cmd_qes(args) -> int:
    cfg = _load_config(
        args.config,
        {"family", "a_prime", "b_prime", "c_prime", "N", "dim", "grid"},
        {"family", "a_prime", "b_prime", "N"},
    )
    family = str(cfg["family"]).lower()
    params = QesPrimedParams(
        a_p=float_key(cfg, "a_prime"),
        b_p=float_key(cfg, "b_prime"),
        c_p=float_key(cfg, "c_prime", 0.0),
        N=int_key(cfg, "N", minimum=1),
        dim=int_key(cfg, "dim", 8, minimum=1),
    )
    if family == "sub2":
        pot, d_const = qes_map_sub2(params)
    elif family == "super2":
        pot, d_const = qes_map_super2(params), None
    else:
        raise ConfigError("family must be 'sub2' or 'super2'")
    sol = qes_solve(params, family)

    grid = _grid_from(cfg, 3000)
    if args.verify:
        _check_states("N", len(sol.energies) + 2, grid)
    rows = []
    worst = 0.0
    spectra = {}  # one solve per distinct potential: super2 states share theirs
    for i, energy in enumerate(sol.energies):
        pot_i = pot if sol.charges is None else replace(pot, b=float(sol.charges[i]))
        fd_dev = ""
        if args.verify:
            if pot_i not in spectra:
                prob = qes_verification_problem(pot_i, params.dim)
                spectra[pot_i] = fd_eigensolve(prob, grid, len(sol.energies) + 2)
            spec = spectra[pot_i]
            fd_dev = float(np.min(np.abs(spec.eigenvalues - energy)) / abs(energy))
            worst = max(worst, fd_dev)
        rows.append(
            [
                i,
                energy,
                pot_i.omega,
                pot_i.a,
                pot_i.b,
                pot_i.c,
                " ".join(_fmt(c) for c in sol.polynomials[i]),
                fd_dev,
            ]
        )
    out = _out_dir(args)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "primed": {
            "a_prime": params.a_p,
            "b_prime": params.b_p,
            "c_prime": params.c_p,
            "N": params.N,
            "dim": params.dim,
        },
        "mapped_potential": {
            "omega": pot.omega,
            "a": pot.a,
            "b": pot.b,
            "c": pot.c,
        },
        "energy_offset_d": d_const,
        "energies": list(sol.energies),
        "charges": None if sol.charges is None else list(sol.charges),
        "polynomials": [list(p) for p in sol.polynomials],
        "closure_residual": sol.closure_residual,
        "fd_max_rel_dev": worst if args.verify else None,
    }
    write_json(out / "qes.json", doc)
    write_csv(
        out / "qes.csv",
        ["state", "energy", "omega", "a", "b", "c", "poly_coeffs", "fd_rel_dev"],
        rows,
    )
    for row in rows:
        print("  ".join(str(v) for v in row))
    print(f"qes: {len(rows)} state(s), closure residual {sol.closure_residual:.3e}")
    if args.verify and worst > args.tol:
        return 1
    return 0


# ---------------------------------------------------------------------------
# duality


def _spherical_ground(z: float, c1: float, c2: float, grid: Grid) -> float:
    micz = MiczParams(Z=z, c1=c1, c2=c2)
    states = spherical_micz_energies(
        micz, n_theta=1, n_radial=1, grid_theta=Grid(n=3000), grid_radial=grid
    )
    return states[0][0]


def _duality_case(
    omega: float, c1: float, c2: float, grid: Grid, z_fixed: float, verify: bool
) -> dict:
    # 16-D analytic ground eigenvalue; oscillator-side strengths are 4x the
    # Kepler-side ones (the separated equations carry 8 c where the factor
    # Hamiltonians carry 2 c).
    lp1 = effective_lprime(0, 4.0 * c1)
    lp2 = effective_lprime(0, 4.0 * c2)
    z_osc = omega * (lp1 + 4.0) + omega * (lp2 + 4.0)
    z_charge = 0.5 * z_osc
    e_dual = dual_map(omega, z_charge).E
    case = {
        "c1": c1,
        "c2": c2,
        "Z_oscillator": z_osc,
        "Z_charge": z_charge,
        "E_dual": e_dual,
        "E_spherical": None,
        "E_parabolic": None,
        "dev_spherical": None,
        "dev_parabolic": None,
        "P": None,
        "E_fixed_charge": None,
        "E_parabolic_error": None,
        "parabolic_solves": None,
    }
    if not verify:
        return case

    e_sph = _spherical_ground(z_charge, c1, c2, grid)
    micz = MiczParams(Z=z_charge, c1=c1, c2=c2)
    p = Potential8D("sho", omega=omega)
    model = OscillatorModel(p1=p, p2=p, Z1=0.5 * z_charge, Z2=0.5 * z_charge)
    st = parabolic_joint_solve(
        model, micz, grid, bracket=(1.3 * e_dual, 0.8 * e_dual)
    )
    # The polar equation has no Z in it and the radial basis scales as 1/Z,
    # so the numerical spherical ground energy scales as Z^2 to rounding.
    e_fixed = e_sph * (z_fixed / z_charge) ** 2
    case.update(
        {
            "E_spherical": e_sph,
            "E_parabolic": st.E,
            "dev_spherical": abs(e_sph - e_dual) / abs(e_dual),
            "dev_parabolic": abs(st.E - e_dual) / abs(e_dual),
            "P": st.P,
            "E_fixed_charge": e_fixed,
            "E_parabolic_error": st.E_error,
            "parabolic_solves": st.solves,
        }
    )
    return case


def cmd_duality(args) -> int:
    cfg = _load_config(args.config, {"omega", "omega2", "cases", "grid"}, {"omega"})
    omega = float_key(cfg, "omega")
    omega2 = float_key(cfg, "omega2", omega)
    for key, value in (("omega", omega), ("omega2", omega2)):
        if not 0.0 < value <= math.sqrt(sys.float_info.max):  # or E = -omega^2/2 overflows
            raise ConfigError(
                f"config key {key!r} must be positive and at most sqrt(float max), got {value!r}"
            )
    grid = _grid_from(cfg, 2000)
    cases_cfg = cfg.get("cases", [{"c1": 0.0, "c2": 0.0}])
    if not (isinstance(cases_cfg, list) and cases_cfg):
        raise ConfigError(f"config key 'cases' must be a non-empty list, got {cases_cfg!r}")
    strengths = []  # every case is checked before the first is solved
    for case in cases_cfg:
        check_keys(case, {"c1", "c2"}, what="case")
        pair = tuple(float_key(case, c, 0.0, what="case") for c in ("c1", "c2"))
        for key, value in zip(("c1", "c2"), pair):
            if value < 0.0:
                raise ConfigError(f"case key {key!r} must be nonnegative, got {value!r}")
        strengths.append(pair)
    z_fixed = 4.0 * omega  # coulomb charge of the undressed (c = 0) ground sector
    cases = [_duality_case(omega, c1, c2, grid, z_fixed, args.verify) for c1, c2 in strengths]
    if args.verify:
        base = cases[0]["E_fixed_charge"]
        for c in cases:
            c["micz_shift"] = c["E_fixed_charge"] - base
    e1, e2 = -0.5 * omega**2, -0.5 * omega2**2
    doc = {
        "schema_version": SCHEMA_VERSION,
        "omega": omega,
        "omega2": omega2,
        "E1": e1,
        "E2": e2,
        "dipole_coefficient": 0.5 * (e1 - e2),
        "cases": cases,
    }
    write_json(_out_dir(args) / "duality_report.json", doc)
    if not args.verify:
        print(f"duality: {len(cases)} case(s), analytic only (--no-verify)")
        return 0
    worst = max(max(c["dev_spherical"], c["dev_parabolic"]) for c in cases)
    for c in cases:
        print(
            f"c1={c['c1']:g} c2={c['c2']:g}: E_dual={c['E_dual']:.10g} "
            f"E_sph={c['E_spherical']:.10g} E_par={c['E_parabolic']:.10g}"
        )
    if omega2 != omega:
        print(f"anisotropic cos(theta) dipole coefficient: {0.5 * (e1 - e2):.10g}")
    print(f"duality: {len(cases)} case(s), max deviation {worst:.3e}")
    return 0 if worst <= args.tol else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hurwitz-kepler",
        description="Oscillator-Kepler duality workflows with numerical verification.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, fn, tol in (
        ("transform", cmd_transform, 1e-10),
        ("spectrum", cmd_spectrum, 1e-6),
        ("qes", cmd_qes, 1e-5),
        ("duality", cmd_duality, 1e-5),
    ):
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--tol", type=float, default=tol, help=f"tolerance (default {tol:g})")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=fn)
    parsers["qes"].add_argument("--verify", action="store_true")
    parsers["duality"].add_argument("--no-verify", dest="verify", action="store_false")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SeparabilityError as exc:
        print(f"separability error: {exc} (E1=E2, a=b=0)", file=sys.stderr)
        return 3
    except QesPreconditionError as exc:
        print(f"QES precondition violated: {exc}", file=sys.stderr)
        return 4
    except BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return 5
    except QesClosureError as exc:
        print(f"QES closure failed: {exc}", file=sys.stderr)
        return 6
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        if exc.state is not None:
            print(
                f"  state {exc.state}: error bar {exc.bar:.3g}, size {exc.nodes}, tol {exc.tol:.1g}",
                file=sys.stderr,
            )
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
