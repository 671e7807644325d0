import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import hurwitz_kepler
from hurwitz_kepler import errors
from hurwitz_kepler.algebra import hurwitz_forward_batch
from hurwitz_kepler.cli import CSV_BLOCK_ROWS, _build_parser, main, write_csv


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestTransform:
    def test_single_basis_pair(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"u": [1, 0, 0, 0, 0, 0, 0, 0], "v": [0.0] * 8})
        rc = main(["transform", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "transform.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["x9"]) == 1.0
        assert float(row["residual"]) == 0.0
        assert float(row["r"]) == 1.0

    def test_seeded_sweep(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"count": 1000, "seed": 42})
        rc = main(["transform", cfg, "--out", str(tmp_path)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / "transform.csv")
        assert len(rows) == 1000
        assert all(float(r[-1]) <= 1e-10 for r in rows)

    def test_deterministic(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"count": 50, "seed": 7})
        main(["transform", cfg, "--out", str(tmp_path / "a")])
        main(["transform", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/transform.csv").read_bytes() == (
            tmp_path / "b/transform.csv"
        ).read_bytes()

    def test_malformed_vector(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"u": [1, 0, 0, 0, 0, 0, 0], "v": [0.0] * 8})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"count": 10, "sneed": 1})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 2

    def test_non_finite_input_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "t.json", {"u": [float("nan")] + [0.0] * 7, "v": [1.0] * 8})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "u or v has non-finite entries" in err
        assert "serialize" not in err
        assert not (tmp_path / "transform.csv").exists()

    def test_overflowing_norm_exit_2(self, tmp_path, capsys):
        # finite entries whose u.u overflows: rejected before any arithmetic warns
        cfg = _write(tmp_path, "t.json", {"u": [1e200] + [0.0] * 7, "v": [0.0] * 8})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["transform", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: u or v has non-finite entries, or u.u + v.v overflows\n"
        assert not (tmp_path / "transform.csv").exists()

    def test_large_finite_map_keeps_its_residual(self, tmp_path, capsys):
        # u.u = 1e200 is finite, and so is the map; its square is not
        cfg = _write(tmp_path, "t.json", {"u": [1e100] + [0.0] * 7, "v": [0.0] * 8})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["transform", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = _read_csv(tmp_path / "transform.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["r"]) == 1e200
        assert float(row["residual"]) == 0.0

    @pytest.mark.parametrize(
        "bad", ["1", True, None, [1.0], 10**400], ids=["string", "bool", "null", "list", "huge-int"]
    )
    def test_non_number_entry_exit_2(self, tmp_path, capsys, bad):
        cfg = _write(tmp_path, "t.json", {"u": [1.0] * 8, "v": [0.0] * 7 + [bad]})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 2
        assert "key 'v' must be a list of 8 numbers" in capsys.readouterr().err
        assert not (tmp_path / "transform.csv").exists()


def _transform_table(U, V):
    """The transform.csv values recomputed from the inputs."""
    X = hurwitz_forward_batch(U, V)
    s = np.einsum("ns,ns->n", U, U) + np.einsum("ns,ns->n", V, V)
    Y = X / np.where(s > 0.0, s, 1.0)[:, None]
    y2 = np.einsum("nk,nk->n", Y, Y)
    resid = np.where(s > 0.0, np.abs(y2 - 1.0), 0.0)
    return np.column_stack([U, V, X, s * np.sqrt(y2), X[:, 8], resid])


def _assert_cells_are_17g(path, table):
    _, rows = _read_csv(path)
    assert len(rows) == table.shape[0]
    for row, values in zip(rows, table):
        assert row == [format(float(v), ".17g") for v in values]


class TestTransformFormat:
    def test_seeded_cells(self, tmp_path):
        cfg = _write(tmp_path, "t.json", {"count": 40, "seed": 11})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 0
        rng = np.random.default_rng(11)
        U = rng.normal(size=(40, 8))
        V = rng.normal(size=(40, 8))
        _assert_cells_are_17g(tmp_path / "transform.csv", _transform_table(U, V))

    def test_signed_zero_and_extreme_magnitudes(self, tmp_path):
        u = [-0.0, 1e-30, 1e30, 1.0, 2.0, 3.0, 4.0, 5.0]
        v = [0.0, -1e-30, 3e-31, -1e30, 0.5, 0.0, 0.0, 1e-300]
        cfg = _write(tmp_path, "t.json", {"u": u, "v": v})
        assert main(["transform", cfg, "--out", str(tmp_path)]) == 0
        table = _transform_table(np.array([u]), np.array([v]))
        _assert_cells_are_17g(tmp_path / "transform.csv", table)
        _, rows = _read_csv(tmp_path / "transform.csv")
        assert rows[0][:3] == ["-0", "1.0000000000000001e-30", "1e+30"]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_table_rejected(self, tmp_path, bad):
        table = np.ones((3, 4))
        table[1, 2] = bad
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], table)
        assert not (tmp_path / "t.csv").exists()


def _one_template_per_row(header, table):
    """The CSV text of ``table`` with one ``%.17g`` template per row: the writer's oracle."""
    template = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([",".join(header)] + [template % tuple(row) for row in table.tolist()]) + "\n"


def _ulps(x):
    """``x`` (a decimal string) as the nearest double and its two neighbours."""
    x = float(x)
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestCsvWriter:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        table=arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(table=np.array([[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]]))
    @example(table=np.array([_ulps("1e-4"), _ulps("1e16")]))
    @example(table=np.array([_ulps(f"1e{k}") for k in range(-5, 18)]))
    @example(table=np.array([_ulps(f"-1e{k}") for k in range(-5, 18)]))
    @example(table=np.array([[0.09999999999999999, 9999999999999998.0, 99999999999999999.0]]))
    @example(table=np.array([[2.0**53 + 2.0, 2.0**60 + 2.0**8, 12345678901234567890.0, -(2.0**63)]]))
    def test_cells_are_17g(self, tmp_path, table):
        # every cell is exactly format(v, ".17g"): the vectorized fixed-notation
        # cells, subnormals, the scientific-notation cells and both zeros
        write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(table.shape[1])], table)
        text = (tmp_path / "t.csv").read_text()
        assert text.splitlines()[1:] == [",".join(format(v, ".17g") for v in row) for row in table.tolist()]

    @pytest.mark.parametrize(
        "rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
    )
    def test_block_boundaries(self, tmp_path, rows):
        # fixed and scientific cells, zeros of both signs and integral values
        # past 2**53 on every side of the block edges
        rng = np.random.default_rng(rows)
        table = rng.normal(size=(rows, 5)) * 10.0 ** rng.integers(-7, 19, size=(rows, 5))
        table[rng.random(size=table.shape) < 0.1] = 0.0
        table[rng.random(size=table.shape) < 0.1] = -0.0
        header = ["a", "b", "c", "d", "e"]
        write_csv(tmp_path / "t.csv", header, table)
        assert (tmp_path / "t.csv").read_text() == _one_template_per_row(header, table)
        if rows == 0:
            assert (tmp_path / "t.csv").read_text() == "a,b,c,d,e\n"


class TestSpectrum:
    def test_oscillator_rows(self, tmp_path):
        cfg = _write(
            tmp_path,
            "s.json",
            {
                "problem": "oscillator",
                "potential": {"variant": "sho", "omega": 1.0},
                "n_max": 2,
                "l_max": 1,
                "grid": {"n": 3000},
            },
        )
        rc = main(["spectrum", cfg, "--out", str(tmp_path)])
        assert rc == 0
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 6
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["max_rel_dev"] <= 1e-6

    def test_coulomb_ground_row(self, tmp_path):
        cfg = _write(
            tmp_path,
            "s.json",
            {
                "problem": "micz",
                "micz": {"Z": 1.0},
                "n_states": 1,
                "grid": {"n": 4000},
            },
        )
        rc = main(["spectrum", cfg, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        ground = doc["rows"][0]
        assert ground[4] == pytest.approx(-0.03125, abs=1e-6)

    def test_micz_analytic_column_is_closed_form(self, tmp_path):
        micz = {"Z": 2.0, "c1": 1.0, "c2": 0.5, "J": 1}
        cfg = _write(tmp_path, "s.json", {"problem": "micz", "micz": micz, "n_states": 2})
        assert main(["spectrum", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        # regular exponents at the two poles of the polar equation
        gamma = 0.5 * (-3.0 + np.sqrt((1 + 3.0) ** 2 + 8.0 * 1.0))
        alpha = 0.5 * (-3.0 + np.sqrt((0 + 3.0) ** 2 + 8.0 * 0.5))
        assert len(doc["rows"]) == 4
        for n_theta, N, _, analytic, _, _ in doc["rows"]:
            exact = -(2.0**2) / (2.0 * (N + n_theta + alpha + gamma + 4.0) ** 2)
            assert analytic == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_nonseparable_exit_3(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "s.json",
            {
                "problem": "micz",
                "model": {
                    "p1": {"variant": "sub2", "omega": 1.0},
                    "p2": {"variant": "super2", "omega": 1.0, "b": 0.2},
                    "Z1": 0.5,
                    "Z2": 0.5,
                },
                "micz": {"Z": 1.0},
            },
        )
        assert main(["spectrum", cfg, "--out", str(tmp_path)]) == 3
        assert "E1=E2, a=b=0" in capsys.readouterr().err

    def test_qsq_config_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "s.json", {"problem": "micz", "micz": {"Z": 1.0, "Qsq": 0.5}})
        assert main(["spectrum", cfg, "--out", str(tmp_path)]) == 2
        assert "Qsq" in capsys.readouterr().err


class TestQes:
    def test_super2_baseline(self, tmp_path):
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "super2", "a_prime": 0.05, "b_prime": 1.0, "N": 1},
        )
        rc = main(["qes", cfg, "--out", str(tmp_path), "--verify"])
        assert rc == 0
        doc = json.loads((tmp_path / "qes.json").read_text())
        assert len(doc["energies"]) == 1
        assert doc["energies"][0] == pytest.approx(9.0, rel=1e-10)
        assert doc["fd_max_rel_dev"] <= 1e-5

    def test_l_prime_is_an_unknown_key(self, tmp_path, capsys):
        # l' only enters through Dim = d' + 2 l' - 1, which the config sets as dim
        cfg = _write(tmp_path, "q.json", {**_QES, "l_prime": 0.0})
        out = tmp_path / "out"
        assert main(["qes", cfg, "--out", str(out)]) == 2
        assert "unknown key(s) in config: ['l_prime']" in capsys.readouterr().err
        assert not out.exists()

    def test_super2_precondition_exit_4(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "super2", "a_prime": 0.1, "b_prime": 1.0, "N": 2},
        )
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 4
        assert "b'^2" in capsys.readouterr().err

    def test_super2_underflowing_sextic_exit_4(self, tmp_path, capsys):
        # a' passes the map's a' > 0 check, but a = a'^2 underflows to 0
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "super2", "a_prime": 1e-170, "b_prime": 1.0, "N": 1},
        )
        out = tmp_path / "out"
        assert main(["qes", cfg, "--out", str(out)]) == 4
        assert "positive r^6 coefficient" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    @pytest.mark.parametrize(
        "family, key",
        [("sub2", "a_prime"), ("sub2", "b_prime"), ("super2", "b_prime")],
    )
    def test_primed_value_whose_map_overflows_exit_2(self, tmp_path, capsys, family, key, verify):
        # the maps square a' and b' (d = a'^2 - ..., omega^2 = 2 b'^2, ...)
        cfg = _write(tmp_path, "q.json", {**_QES, "family": family, "a_prime": 0.05, key: 1e300})
        out = tmp_path / "out"
        assert main(["qes", cfg, "--out", str(out)] + verify) == 2
        err = capsys.readouterr().err
        assert f"config error: config key {key!r} must be between -1.34e+146 and 1.34e+146, got 1e+300" in err
        assert not out.exists()

    @pytest.mark.parametrize("family, a_prime", [("super2", 0.05), ("sub2", 1.0)])
    def test_cprime_above_half_dim_exit_6(self, tmp_path, capsys, family, a_prime):
        # c' = 4 > (Dim - 1)/2: the tables do not close for either family
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": family, "a_prime": a_prime, "b_prime": 1.0, "c_prime": 4.0, "N": 2},
        )
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 6
        assert "QES closure failed" in capsys.readouterr().err

    def test_closure_failure_exit_6(self, tmp_path, monkeypatch, capsys):
        import hurwitz_kepler.cli as climod
        from hurwitz_kepler.errors import QesClosureError

        def leak(*a, **k):
            raise QesClosureError("sub2 closure residual 1 exceeds 1e-09")

        monkeypatch.setattr(climod, "qes_solve", leak)
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "super2", "a_prime": 0.05, "b_prime": 1.0, "N": 1},
        )
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 6
        assert "QES closure failed: sub2 closure residual" in capsys.readouterr().err

    def test_sub2_oscillator_reduction(self, tmp_path):
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "sub2", "a_prime": 0.0, "b_prime": 1.0, "N": 1},
        )
        rc = main(["qes", cfg, "--out", str(tmp_path), "--verify"])
        assert rc == 0
        doc = json.loads((tmp_path / "qes.json").read_text())
        assert doc["energies"][0] == pytest.approx(9.0, rel=1e-12)
        assert doc["charges"][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["energy_offset_d"] == pytest.approx(-9.0)

    @pytest.mark.parametrize(
        "family, a_prime, N",
        [("super2", 1e-3, 6), ("sub2", 1.0, 2), ("sub2", 0.0, 1), ("sub2", -0.0, 1)],
    )
    def test_mapped_c_is_unsigned_zero(self, tmp_path, family, a_prime, N):
        # c' = 0 maps to c = c'(c' - Dim + 1) = 0, written 0 and not -0; so
        # does the sub2 b = -a'(Dim - 2c') at a' = 0, and a config's a' = -0
        # is read as 0, so its a' and mapped a = 2 a' b' are written 0
        cfg = _write(tmp_path, "q.json", {"family": family, "a_prime": a_prime, "b_prime": 1.0, "N": N})
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "qes.csv")
        assert [row[header.index("c")] for row in rows] == ["0"] * N
        text = (tmp_path / "qes.json").read_text()
        assert re.search(r'"mapped_potential": \{[^}]*"c": (\S+)\n', text)[1] == "0"
        if a_prime == 0.0:
            assert re.search(r'"mapped_potential": \{[^}]*"b": (\S+),\n', text)[1] == "0"
            assert re.search(r'"mapped_potential": \{[^}]*"a": (\S+),\n', text)[1] == "0"
            assert re.search(r'"primed": \{[^}]*"a_prime": (\S+),\n', text)[1] == "0"

    @pytest.mark.parametrize("family, a_prime, solves", [("super2", 0.05, 1), ("sub2", 0.5, 2)])
    def test_one_verification_solve_per_potential(self, tmp_path, monkeypatch, family, a_prime, solves):
        # super2 states share one potential; each sub2 state has its own charge
        import hurwitz_kepler.cli as climod

        calls = []
        solve = climod.fd_eigensolve

        def count(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(climod, "fd_eigensolve", count)
        cfg = _write(tmp_path, "q.json", {"family": family, "a_prime": a_prime, "b_prime": 1.0, "N": 2})
        assert main(["qes", cfg, "--out", str(tmp_path), "--verify"]) == 0
        assert len(calls) == solves
        doc = json.loads((tmp_path / "qes.json").read_text())
        assert doc["fd_max_rel_dev"] <= 1e-5


class TestDuality:
    def test_three_way_agreement(self, tmp_path):
        cfg = _write(
            tmp_path,
            "d.json",
            {"omega": 0.25, "cases": [{"c1": 0, "c2": 0}, {"c1": 1, "c2": 2}]},
        )
        rc = main(["duality", cfg, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "duality_report.json").read_text())
        assert doc["schema_version"] == 1
        base = doc["cases"][0]
        assert base["E_dual"] == pytest.approx(-1.0 / 32.0)
        assert base["Z_oscillator"] == pytest.approx(2.0)
        assert base["dev_spherical"] <= 1e-5
        assert base["dev_parabolic"] <= 1e-5
        dressed = doc["cases"][1]
        assert dressed["micz_shift"] > 0.0
        assert dressed["dev_parabolic"] <= 1e-5
        for case in doc["cases"]:
            # the parabolic error bar bounds the deviation; both are ground levels
            assert 0.0 < case["E_parabolic_error"] <= 1e-5 * abs(case["E_parabolic"])
            assert abs(case["E_parabolic"] - case["E_dual"]) <= case["E_parabolic_error"]
        # one fixed-energy solve of each charge-free factor, u and v
        assert [case["parabolic_solves"] for case in doc["cases"]] == [2, 2]

    def test_fixed_charge_energy_scales_as_charge_squared(self):
        # the dressed case's fixed-charge energy is its spherical energy at
        # Z = 4 omega, obtained by Z^2 scaling instead of a second solve
        import hurwitz_kepler.cli as climod
        from hurwitz_kepler.numeric import Grid, spherical_micz_energies
        from hurwitz_kepler.potentials import MiczParams

        omega, c1, c2, grid = 0.25, 1.0, 2.0, Grid(n=2000)
        case = climod._duality_case(omega, c1, c2, grid, 4.0 * omega, verify=True)
        scaled = case["E_spherical"] * (4.0 * omega / case["Z_charge"]) ** 2
        assert case["E_fixed_charge"] == pytest.approx(scaled, rel=1e-14, abs=0.0)
        micz = MiczParams(Z=4.0 * omega, c1=c1, c2=c2)
        ((direct, *_),) = spherical_micz_energies(micz, 1, 1, Grid(n=3000), grid)
        assert case["E_fixed_charge"] == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_unverified_report_has_null_search_fields(self, tmp_path):
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        assert main(["duality", cfg, "--out", str(tmp_path), "--no-verify"]) == 0
        (case,) = json.loads((tmp_path / "duality_report.json").read_text())["cases"]
        assert case["E_parabolic_error"] is None
        assert case["parabolic_solves"] is None

    def test_anisotropic_dipole_field(self, tmp_path):
        cfg = _write(tmp_path, "d.json", {"omega": 0.25, "omega2": 0.5})
        rc = main(["duality", cfg, "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "duality_report.json").read_text())
        e1, e2 = -0.5 * 0.25**2, -0.5 * 0.5**2
        assert doc["dipole_coefficient"] == pytest.approx(0.5 * (e1 - e2))


class TestSerialization:
    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        main(["duality", cfg, "--out", str(tmp_path)])
        text = (tmp_path / "duality_report.json").read_text()
        doc = json.loads(text)
        val = doc["cases"][0]["E_spherical"]
        # 17 significant digits: the serialized text reproduces the float
        token = format(float(val), ".17g")
        assert token in text
        assert float(token) == val

    def test_missing_config_file(self, tmp_path):
        assert main(["transform", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


_OSC = {
    "problem": "oscillator",
    "potential": {"variant": "sho", "omega": 1.0},
    "n_max": 0,
    "l_max": 0,
    "grid": {"n": 400},
}
_QES = {"family": "super2", "a_prime": 0.05, "b_prime": 1.0, "N": 1}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag the subcommand does not take
        return exc.code


# the node-placement and domain keys of a finite-difference grid, which no
# basis solve reads
_FD_GRID = {"spacing": "log", "stretch": 300, "rmax": 0.5}
_FD_KEYS = "in grid block: ['rmax', 'spacing', 'stretch']"


@pytest.mark.parametrize(
    "sub, cfg, flags, message",
    [
        ("transform", {"count": 5}, ["--format", "json"], "unrecognized arguments: --format json"),
        ("spectrum", _OSC, ["--seed", "3"], "unrecognized arguments: --seed 3"),
        ("spectrum", _OSC, ["--verify"], "unrecognized arguments: --verify"),
        ("duality", {"omega": 0.25}, ["--format", "csv"], "unrecognized arguments: --format csv"),
        ("spectrum", {**_OSC, "tolerance": 1.0}, [], "in config: ['tolerance']"),
        ("duality", {"omega": 0.25, "tolerance": 1.0}, [], "in config: ['tolerance']"),
        ("duality", {"omega": 0.25, "grid": {"n": 400, "rmax": 50.0}}, [], "in grid block: ['rmax']"),
        ("spectrum", {**_OSC, "micz": {"Z": 1.0}}, [], "in oscillator config: ['micz']"),
        ("transform", {"u": [1.0] + [0.0] * 7, "v": [0.0] * 8, "count": 5}, [], "in config: ['count']"),
        ("spectrum", {**_OSC, "grid": {"n": 400, **_FD_GRID}}, [], _FD_KEYS),
        ("qes", {**_QES, "grid": _FD_GRID}, [], _FD_KEYS),
        ("qes", {**_QES, "grid": _FD_GRID}, ["--verify"], _FD_KEYS),
        ("duality", {"omega": 0.25, "grid": {"n": 400, **_FD_GRID}}, [], _FD_KEYS),
        ("duality", {"omega": 0.25, "grid": {"n": 400, **_FD_GRID}}, ["--no-verify"], _FD_KEYS),
    ],
    ids=[
        "transform-format",
        "spectrum-seed",
        "spectrum-verify",
        "duality-format",
        "spectrum-tolerance-key",
        "duality-tolerance-key",
        "duality-grid-rmax",
        "oscillator-micz-key",
        "transform-uv-and-count",
        "spectrum-grid-fd-keys",
        "qes-grid-fd-keys",
        "qes-verify-grid-fd-keys",
        "duality-grid-fd-keys",
        "duality-no-verify-grid-fd-keys",
    ],
)
def test_unread_input_exit_2(tmp_path, capsys, sub, cfg, flags, message):
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert _exit_code([sub, path, "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_subcommand_flags():
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert flags == {
        "transform": ["--out", "--tol"],
        "spectrum": ["--out", "--tol"],
        "qes": ["--out", "--tol", "--verify"],
        "duality": ["--no-verify", "--out", "--tol"],
    }



@pytest.mark.parametrize(
    "sub, cfg, key",
    [
        ("transform", {"count": 2.7}, "count"),
        ("transform", {"count": True}, "count"),
        ("transform", {"count": 0}, "count"),
        ("transform", {"count": "5"}, "count"),
        ("transform", {"count": 5, "seed": 1.5}, "seed"),
        ("spectrum", {**_OSC, "n_max": 1.9}, "n_max"),
        ("spectrum", {**_OSC, "l_max": False}, "l_max"),
        ("spectrum", {"problem": "micz", "micz": {"Z": 1.0}, "n_states": 1.5}, "n_states"),
        ("spectrum", {**_OSC, "grid": {"n": 400.5}}, "n"),
        ("qes", {**_QES, "N": 1.5}, "N"),
        ("qes", {**_QES, "dim": True}, "dim"),
    ],
    ids=[
        "count-fraction",
        "count-bool",
        "count-zero",
        "count-string",
        "seed-fraction",
        "n_max-fraction",
        "l_max-bool",
        "n_states-fraction",
        "grid-n-fraction",
        "N-fraction",
        "dim-bool",
    ],
)
def test_integer_key_exit_2(tmp_path, capsys, sub, cfg, key):
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main([sub, path, "--out", str(out)]) == 2
    assert f"key {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_count_accepted(tmp_path):
    cfg = _write(tmp_path, "t.json", {"count": 3.0, "seed": 2.0})
    assert main(["transform", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "transform.csv")
    assert len(rows) == 3


_SHO = {"variant": "sho", "omega": 1.0}
_MICZ = {"problem": "micz", "micz": {"Z": 1.0}, "n_states": 1}
_SUPER2 = {"variant": "super2", "omega": 1.0}


@pytest.mark.parametrize(
    "sub, cfg, key",
    [
        ("qes", {**_QES, "a_prime": "0.05"}, "a_prime"),
        ("qes", {**_QES, "b_prime": True}, "b_prime"),
        ("qes", {**_QES, "c_prime": float("nan")}, "c_prime"),
        ("duality", {"omega": "1.0"}, "omega"),
        ("duality", {"omega": 0.25, "omega2": True}, "omega2"),
        ("duality", {"omega": 0.25, "cases": [{"c1": "1"}]}, "c1"),
        ("duality", {"omega": 0.25, "cases": [{"c1": 0, "c2": float("inf")}]}, "c2"),
        ("spectrum", {**_OSC, "potential": {**_SHO, "omega": "1.0"}}, "omega"),
        ("spectrum", {**_OSC, "potential": {**_SHO, "c": 10**400}}, "c"),
        ("spectrum", {**_OSC, "potential": {**_SUPER2, "a": False}}, "a"),
        ("spectrum", {**_OSC, "potential": {**_SUPER2, "b": "0.1"}}, "b"),
        ("spectrum", {**_MICZ, "model": {"p1": _SHO, "p2": _SHO, "Z1": "0.5"}}, "Z1"),
        ("spectrum", {**_MICZ, "model": {"p1": _SHO, "p2": _SHO, "Z2": True}}, "Z2"),
        ("spectrum", {**_MICZ, "model": {"p1": _SHO, "p2": _SHO, "E1": "-0.5"}}, "E1"),
        ("spectrum", {**_MICZ, "model": {"p1": _SHO, "p2": _SHO, "E2": None}}, "E2"),
        ("spectrum", {**_MICZ, "micz": {"Z": "1"}}, "Z"),
        ("spectrum", {**_MICZ, "micz": {"Z": 1.0, "c1": [1.0]}}, "c1"),
        ("spectrum", {**_MICZ, "micz": {"Z": 1.0, "c2": float("-inf")}}, "c2"),
        ("spectrum", {**_MICZ, "micz": {"Z": 1.0, "J": 1.7}}, "J"),
        ("spectrum", {**_MICZ, "micz": {"Z": 1.0, "L": True}}, "L"),
    ],
    ids=[
        "a_prime-string",
        "b_prime-bool",
        "c_prime-nan",
        "omega-string",
        "omega2-bool",
        "case-c1-string",
        "case-c2-inf",
        "potential-omega-string",
        "potential-c-overflow",
        "potential-a-bool",
        "potential-b-string",
        "model-Z1-string",
        "model-Z2-bool",
        "model-E1-string",
        "model-E2-null",
        "micz-Z-string",
        "micz-c1-list",
        "micz-c2-inf",
        "micz-J-fraction",
        "micz-L-bool",
    ],
)
def test_real_key_exit_2(tmp_path, capsys, sub, cfg, key):
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main([sub, path, "--out", str(out)]) == 2
    assert f"key {key!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verify", [[], ["--no-verify"]], ids=["verify", "no-verify"])
@pytest.mark.parametrize("cases", [5, [], {"c1": 1.0}], ids=["number", "empty", "object"])
def test_duality_cases_must_be_a_list_exit_2(tmp_path, capsys, cases, verify):
    path = _write(tmp_path, "d.json", {"omega": 0.25, "cases": cases})
    out = tmp_path / "out"
    assert main(["duality", path, "--out", str(out)] + verify) == 2
    assert "config key 'cases' must be a non-empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verify", [[], ["--no-verify"]], ids=["verify", "no-verify"])
@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"omega": 0.25, "cases": [{"c1": -1}]}, "case key 'c1' must be nonnegative"),
        ({"omega": 0.25, "cases": [{"c1": 1, "c2": -0.5}]}, "case key 'c2' must be nonnegative"),
        ({"omega": 0.25, "omega2": -1}, "config key 'omega2' must be positive"),
        ({"omega": 0.25, "omega2": 0}, "config key 'omega2' must be positive"),
        ({"omega": 0}, "config key 'omega' must be positive"),
        ({"omega": 1e300}, "config key 'omega' must be positive, between 1.22e-73 and 1.16e+73"),
    ],
    ids=["c1-negative", "c2-negative", "omega2-negative", "omega2-zero", "omega-zero", "omega-overflow"],
)
def test_duality_strength_and_frequency_exit_2(tmp_path, capsys, cfg, message, verify):
    path = _write(tmp_path, "d.json", cfg)
    out = tmp_path / "out"
    assert main(["duality", path, "--out", str(out)] + verify) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("Z", [0.0, -1.0])
def test_micz_spectrum_nonpositive_charge_exit_2(tmp_path, capsys, Z):
    path = _write(tmp_path, "m.json", {"problem": "micz", "micz": {"Z": Z}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "micz block key 'Z' must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["J", "L"])
@pytest.mark.parametrize("above", [0, 1], ids=["max", "max+1"])
def test_micz_pole_index_range(tmp_path, key, above):
    # J (J + 6) enters a pole strength as 8 c1 does, so J and L stop at
    # sqrt(STRENGTH_MAX): J = 10^15 exited 1 and 10^16 warned in log1p
    top = math.isqrt(int(errors.STRENGTH_MAX))
    assert top == 67108864
    value = top + above
    path = _write(tmp_path, "m.json", {"problem": "micz", "micz": {"Z": 1.0, key: value}})
    out = tmp_path / "out"
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["spectrum", path, "--out", str(out)])
    if above:
        assert code == 2
        assert f"config error: micz block key {key!r} must be at most 67108864, got {value}" in err.getvalue()
        assert not out.exists()
    else:
        assert code == 0


# Each scale key's range (README): duality's omega and omega2 and the micz Z
# enter their Coulomb pencils squared, a potential's omega enters as
# E = -omega^2/2; the rounding of a pencil squares its entries.
_SCALE_KEYS = {
    "omega": ("duality", lambda v: {"omega": v}, "config key 'omega'", 1.2213e-73, 1.1579e73),
    "omega2": ("duality", lambda v: {"omega": 0.25, "omega2": v}, "config key 'omega2'", 1.2213e-73, 1.1579e73),
    "Z": ("spectrum", lambda v: {"problem": "micz", "micz": {"Z": v}}, "micz block key 'Z'", 1.2213e-73, 1.1579e73),
    "potential omega": (
        "spectrum",
        lambda v: {**_OSC, "potential": {**_SHO, "omega": v}},
        "potential key 'omega'",
        1.4917e-146,
        1.3408e146,
    ),
}


@pytest.mark.parametrize("side", ["low", "high"])
@pytest.mark.parametrize("key", list(_SCALE_KEYS))
def test_scale_key_just_inside_its_range_passes(tmp_path, key, side):
    sub, config, _, lo, hi = _SCALE_KEYS[key]
    value = 1.001 * lo if side == "low" else 0.999 * hi
    path = _write(tmp_path, "c.json", config(value))
    assert main([sub, path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("omega", 0.999 * 1.2213e-73),
        ("omega", 1.001 * 1.1579e73),
        ("omega", 1e77),  # the rounding of its pencils overflowed: "error bar inf"
        ("omega", 1e-160),  # an empty level group: "min() arg is an empty sequence"
        ("omega", 1e-200),  # an underflowed bracket
        ("omega2", 0.999 * 1.2213e-73),
        ("omega2", 1.001 * 1.1579e73),
        ("Z", 0.999 * 1.2213e-73),
        ("Z", 1.001 * 1.1579e73),
        ("Z", 1e154),  # "Eigenvalues did not converge"
        ("Z", 1e300),  # a ZeroDivisionError traceback
        ("potential omega", 0.999 * 1.4917e-146),
        ("potential omega", 1.001 * 1.3408e146),
        ("potential omega", 1e154),  # "error bar inf"
        ("potential omega", 1e300),  # an OverflowError traceback
        ("potential omega", 1e-200),  # E = -omega^2/2 underflowed: every level 99.75% off
    ],
    ids=lambda v: f"{v:.5g}" if isinstance(v, float) else v,
)
def test_scale_key_outside_its_range_exit_2(tmp_path, capsys, key, value):
    sub, config, name, lo, hi = _SCALE_KEYS[key]
    path = _write(tmp_path, "c.json", config(value))
    out = tmp_path / "out"
    assert main([sub, path, "--out", str(out)]) == 2
    assert f"config error: {name} must be positive, between {lo:.3g} and {hi:.3g}, got " in capsys.readouterr().err
    assert not out.exists()


# Each singular strength's range (README): c enters a basis through its pole
# exponent s ~ sqrt(2 c), and from about c = 1e30 the basis tables of
# numeric._basis are no longer finite (log1p divided by zero at c = 1e40, a
# RuntimeWarning and exit 1, not 2)
_STRENGTH_KEYS = {
    "potential c": ("spectrum", lambda v: {**_OSC, "potential": {**_SHO, "c": v}}, "potential key 'c'"),
    "micz c1": ("spectrum", lambda v: {"problem": "micz", "micz": {"Z": 1.0, "c1": v}}, "micz block key 'c1'"),
    "micz c2": ("spectrum", lambda v: {"problem": "micz", "micz": {"Z": 1.0, "c2": v}}, "micz block key 'c2'"),
    "case c1": ("duality", lambda v: {"omega": 1.0, "cases": [{"c1": v}]}, "case key 'c1'"),
    "case c2": ("duality", lambda v: {"omega": 1.0, "cases": [{"c1": 0.5, "c2": v}]}, "case key 'c2'"),
}
_STRENGTHS = [0.0, 5e-324, *(10.0**e for e in range(-300, 301, 10)), errors.STRENGTH_MAX, 10.0 * errors.STRENGTH_MAX]


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(list(_STRENGTH_KEYS)), value=st.sampled_from(_STRENGTHS))
@example(key="potential c", value=1e300)  # exited 1 on the node-count check
@example(key="micz c1", value=1e300)  # exited 1: "Matrix is not positive definite"
@example(key="micz c2", value=1e300)
@example(key="case c1", value=1e300)
@example(key="case c2", value=1e300)
@example(key="potential c", value=10.0 * errors.STRENGTH_MAX)
@example(key="micz c1", value=10.0 * errors.STRENGTH_MAX)
@example(key="micz c2", value=10.0 * errors.STRENGTH_MAX)
@example(key="case c1", value=10.0 * errors.STRENGTH_MAX)
@example(key="case c2", value=10.0 * errors.STRENGTH_MAX)
@example(key="micz c1", value=2e3)  # exited 1 on the fixed-charge radial scale 3/Z
@example(key="micz c1", value=1e6)
@example(key="micz c1", value=1e12)
@example(key="case c1", value=2e3)
@example(key="case c1", value=1e6)
@example(key="case c1", value=1e12)
def test_singular_strength_exits_by_the_contract(key, value):
    # every strength from 0 to 1e300 exits 0 inside its range and 2 above
    # it, with no exception or warning escaping; exit 2 names the key and
    # writes nothing
    sub, config, name = _STRENGTH_KEYS[key]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = _write(Path(tmp), "c.json", config(value)), Path(tmp) / "out"
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([sub, path, "--out", str(out)])
        if value > errors.STRENGTH_MAX:
            assert code == 2
            assert f"config error: {name} must be " in err.getvalue()
            assert not out.exists()
        else:
            assert code == 0


def test_oscillator_spectrum_complex_lprime_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "o.json", {**_OSC, "potential": {**_SHO, "c": -20.0}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "effective angular exponent is complex" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "potential",
    [{"variant": "sub2", "omega": 1.0, "a": 0.3, "b": 0.2}, {**_SUPER2, "a": 0.3, "b": 0.2}],
    ids=["sub2", "super2"],
)
def test_oscillator_spectrum_needs_sho_exit_2(tmp_path, capsys, potential):
    # its closed form is the sho one; the anharmonic levels belong to qes
    path = _write(tmp_path, "o.json", {**_OSC, "potential": potential})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "potential key 'variant' must be 'sho'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, key, states",
    [
        ({**_OSC, "n_max": 10, "grid": {"n": 40}}, "n_max", 11),
        ({**_MICZ, "n_states": 11, "grid": {"n": 40}}, "n_states", 11),
    ],
    ids=["oscillator", "micz"],
)
def test_more_states_than_a_quarter_of_the_grid_exit_2(tmp_path, capsys, cfg, key, states):
    path = _write(tmp_path, "s.json", cfg)
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r} asks for {states} states per solve" in err
    assert f"grid block key 'n' >= {4 * states}, got 40" in err
    assert not out.exists()


def test_micz_states_beyond_a_quarter_of_the_polar_grid_exit_2(tmp_path, capsys):
    # the polar equation is solved on a fixed grid of n = 3000 whatever the
    # config's grid, so 751 states fail there although n = 4000 holds them
    path = _write(tmp_path, "s.json", {**_MICZ, "n_states": 751, "grid": {"n": 4000}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "config key 'n_states' must be at most 750, got 751" in capsys.readouterr().err
    assert not out.exists()


def test_qes_verify_states_beyond_a_quarter_of_the_grid_exit_2(tmp_path, capsys):
    # --verify solves for the N levels of the block and two more
    cfg = {"family": "super2", "a_prime": 0.01, "b_prime": 1.0, "N": 4, "grid": {"n": 16}}
    path = _write(tmp_path, "q.json", cfg)
    out = tmp_path / "out"
    assert main(["qes", path, "--out", str(out), "--verify"]) == 2
    err = capsys.readouterr().err
    assert "config key 'N' asks for 6 states per solve" in err
    assert "grid block key 'n' >= 24, got 16" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (errors.ConfigError, 2, "config error: "),
        (errors.SeparabilityError, 3, "separability error: "),
        (errors.QesPreconditionError, 4, "QES precondition violated: "),
        (errors.BracketError, 5, "bracket error: "),
        (errors.QesClosureError, 6, "QES closure failed: "),
        (errors.AccuracyError, 1, "accuracy error: "),
        (ValueError, 2, "config error: "),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_exit_code_and_stderr_prefix_of_each_error(tmp_path, capsys, monkeypatch, error, code, prefix):
    # main reads each code and label from the error type; a plain
    # ValueError is a rejected value, a config error
    import hurwitz_kepler.cli as climod

    def stub(args):
        raise error("the message")

    monkeypatch.setattr(climod, "cmd_transform", stub)
    assert main(["transform", _write(tmp_path, "t.json", {})]) == code
    assert capsys.readouterr().err == prefix + "the message\n"


def test_lapack_failure_exit_1(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, which would print as a config
    # error; the joint search of a verified duality run and the fixed solves
    # of spectrum both report it as an accuracy error
    import numpy as np

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    configs = {
        "duality": {"omega": 0.25, "grid": {"n": 400}},
        "spectrum": {**_OSC, "grid": {"n": 2000}},
    }
    for command, cfg in configs.items():
        path = _write(tmp_path, f"{command}.json", cfg)
        out = tmp_path / command
        assert main([command, path, "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err == "accuracy error: eigensolve failed: Eigenvalues did not converge\n", command
        assert not out.exists()


def test_failed_gate_exit_1_with_its_fields(tmp_path, capsys, monkeypatch):
    # a gate no bar can pass: the second line gives the state, its bar, the
    # size of the solve (8 basis functions) and the tolerance
    import hurwitz_kepler.numeric as numeric

    monkeypatch.setattr(numeric, "_CONV_TOL", 1e-20)
    path = _write(tmp_path, "s.json", {**_OSC, "grid": {"n": 2000}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 1
    first, second = capsys.readouterr().err.splitlines()
    assert first.startswith("accuracy error: basis growth did not converge: state 0 ")
    assert second.startswith("  state 0: error bar ") and second.endswith(", size 8, tol 1e-20")
    assert not out.exists()


@pytest.mark.parametrize(
    "grid",
    [{"n": 2000, "stretch": True}, {"n": 400, "spacing": "uniform", "stretch": 4.0}],
    ids=["default-spacing", "uniform"],
)
def test_stretch_without_log_spacing_exit_2(tmp_path, capsys, grid):
    # the grid block takes n alone: a stretch is rejected by name, whatever
    # the spacing
    path = _write(tmp_path, "s.json", {**_OSC, "grid": grid})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert f"unknown key(s) in grid block: {sorted(set(grid) - {'n'})}" in capsys.readouterr().err
    assert not out.exists()


def test_log_stretch_overflow_exit_2(tmp_path, capsys):
    # a stretch whose node map would overflow is rejected with every other
    # stretch, before any grid is built
    path = _write(tmp_path, "s.json", {**_OSC, "grid": {"n": 400, "spacing": "log", "stretch": 800}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "unknown key(s) in grid block: ['spacing', 'stretch']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
@pytest.mark.parametrize("rmax", [-1.0, 0.0, float("nan"), float("inf"), "12", True])
def test_qes_grid_rmax_checked_in_both_modes(tmp_path, capsys, rmax, verify):
    # no value of rmax is taken, with or without the cross-check
    path = _write(tmp_path, "q.json", {**_QES, "grid": {"rmax": rmax}})
    out = tmp_path / "out"
    assert main(["qes", path, "--out", str(out)] + verify) == 2
    assert "unknown key(s) in grid block: ['rmax']" in capsys.readouterr().err
    assert not out.exists()


_STARTUP = """
import json, sys
import hurwitz_kepler, hurwitz_kepler.cli as cli
from hurwitz_kepler import numeric
cfg, out = json.loads(sys.argv[1]), sys.argv[2]
assert "numpy.polynomial" not in sys.modules
assert numeric._whitening.cache_info().currsize == 0
loaded = {"import": "scipy" in sys.modules}
for name, argv in (
    ("transform", ["transform", cfg["transform"]]),
    ("duality --no-verify", ["duality", cfg["duality"], "--no-verify"]),
    ("spectrum", ["spectrum", cfg["spectrum"]]),
    ("qes --verify", ["qes", cfg["qes"], "--verify"]),
    ("duality", ["duality", cfg["duality"]]),
):
    assert cli.main(argv + ["--out", out]) == 0, name
    loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def _fresh(script, *args):
    """The JSON of the last line ``script`` prints in a fresh interpreter with the package on its path."""
    src = str(Path(hurwitz_kepler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_no_subcommand_loads_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded by other tests.  The
    # fixed problems of spectrum, qes --verify and duality and the joint
    # search of a verified duality run need numpy alone, and importing the
    # package builds no basis
    cfg = {
        "transform": _write(tmp_path, "t.json", {"count": 5}),
        "duality": _write(tmp_path, "d.json", {"omega": 0.25, "grid": {"n": 400}}),
        "spectrum": _write(tmp_path, "s.json", {**_OSC, "grid": {"n": 2000}}),
        "qes": _write(tmp_path, "q.json", _QES),
    }
    assert _fresh(_STARTUP, json.dumps(cfg), str(tmp_path / "out")) == {
        "import": False,
        "transform": False,
        "duality --no-verify": False,
        "spectrum": False,
        "qes --verify": False,
        "duality": False,
    }


_KERNEL = """
import json, pkgutil, sys
import numpy as np
import hurwitz_kepler
from hurwitz_kepler import numeric
for module in pkgutil.iter_modules(hurwitz_kepler.__path__):
    __import__("hurwitz_kepler." + module.name)
loaded = ["scipy" in sys.modules]
numeric.eigh_tridiagonal(np.array([2.0, 2.0]), np.array([-1.0]), 0, 0)
loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_scipy_loaded_only_by_a_solve():
    # a fresh interpreter: importing every module of the package leaves
    # scipy unloaded, and the one function that needs it, the tridiagonal
    # kernel kept for the bench's tracer, imports it when it solves
    assert _fresh(_KERNEL) == [False, True]


def _readme_cli_example():
    """The config files and ``hurwitz-kepler`` command lines of README.md's CLI example."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    files, commands = {}, []
    lines = iter(block.splitlines())
    for line in lines:
        if m := re.fullmatch(r"echo '(.*)' > (\S+)", line):
            files[m[2]] = m[1]
        elif m := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
            files[m[1]] = "\n".join(iter(lines.__next__, "EOF"))
        elif line.startswith("hurwitz-kepler "):
            commands.append(shlex.split(line)[1:])
    return files, commands


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # the README's configs run as they are, with its flags, from the
    # directory its shell lines write them to
    files, commands = _readme_cli_example()
    assert sorted({argv[0] for argv in commands}) == ["duality", "qes", "spectrum", "transform"]
    monkeypatch.chdir(tmp_path)
    for name, config in files.items():
        Path(name).write_text(config)
    for argv in commands:
        assert main(argv) == 0, argv
