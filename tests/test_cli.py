import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import hurwitz_kepler
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
        "family, a_prime, N", [("super2", 1e-3, 6), ("sub2", 1.0, 2), ("sub2", 0.0, 1)]
    )
    def test_mapped_c_is_unsigned_zero(self, tmp_path, family, a_prime, N):
        # c' = 0 maps to c = c'(c' - Dim + 1) = 0, written 0 and not -0; so
        # does the sub2 b = -a'(Dim - 2c') at a' = 0
        cfg = _write(tmp_path, "q.json", {"family": family, "a_prime": a_prime, "b_prime": 1.0, "N": N})
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "qes.csv")
        assert [row[header.index("c")] for row in rows] == ["0"] * N
        text = (tmp_path / "qes.json").read_text()
        assert re.search(r'"mapped_potential": \{[^}]*"c": (\S+)\n', text)[1] == "0"
        if a_prime == 0.0:
            assert re.search(r'"mapped_potential": \{[^}]*"b": (\S+),\n', text)[1] == "0"

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
        # one Kronecker-sum solve, two to find the level's pair, and one
        # Newton evaluation (two solves) on each of 12 and 16 basis functions
        assert [case["parabolic_solves"] for case in doc["cases"]] == [7, 7]

    def test_fixed_charge_energy_scales_as_charge_squared(self):
        # the dressed case's fixed-charge energy is its spherical energy at
        # Z = 4 omega, obtained by Z^2 scaling instead of a second solve
        import hurwitz_kepler.cli as climod
        from hurwitz_kepler.numeric import Grid

        omega, c1, c2, grid = 0.25, 1.0, 2.0, Grid(n=2000)
        case = climod._duality_case(omega, c1, c2, grid, 4.0 * omega, verify=True)
        scaled = case["E_spherical"] * (4.0 * omega / case["Z_charge"]) ** 2
        assert case["E_fixed_charge"] == pytest.approx(scaled, rel=1e-14, abs=0.0)
        direct = climod._spherical_ground(4.0 * omega, c1, c2, grid)
        assert case["E_fixed_charge"] == pytest.approx(direct, rel=1e-10, abs=0.0)

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

    def test_bracket_failure_exit_5(self, tmp_path, monkeypatch, capsys):
        import hurwitz_kepler.cli as climod
        from hurwitz_kepler.errors import BracketError

        def boom(*a, **k):
            raise BracketError("the window (-0.028, -0.024) holds no resolved level")

        monkeypatch.setattr(climod, "parabolic_joint_solve", boom)
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        assert main(["duality", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err == "bracket error: the window (-0.028, -0.024) holds no resolved level\n"

    def test_empty_bracket_fields_reach_stderr(self, tmp_path, monkeypatch, capsys):
        # the real search on a window between the two lowest levels
        import hurwitz_kepler.cli as climod

        solve = climod.parabolic_joint_solve

        def shifted(model, micz, grid, bracket):
            return solve(model, micz, grid, bracket=(-0.028, -0.024))

        monkeypatch.setattr(climod, "parabolic_joint_solve", shifted)
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        assert main(["duality", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert err == "bracket error: the window (-0.028, -0.024) holds no resolved level\n"


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
        ({"omega": 1e300}, "config key 'omega' must be positive and at most sqrt(float max)"),
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


def test_micz_spectrum_underflowing_charge_exit_2(tmp_path, capsys):
    # Z^2 / (2 n^2) underflows to 0 at Z = 1e-300, and the deviation from
    # the closed form would divide by it
    path = _write(tmp_path, "m.json", {"problem": "micz", "micz": {"Z": 1e-300}})
    out = tmp_path / "out"
    assert main(["spectrum", path, "--out", str(out)]) == 2
    assert "micz block key 'Z' must be large enough for normal closed-form E" in capsys.readouterr().err
    assert not out.exists()


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
    err = capsys.readouterr().err
    assert "config key 'n_states' asks for 751 states per solve" in err
    assert "polar solve's fixed grid of n = 3000 takes at most 750" in err
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
