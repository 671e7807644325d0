import json

import pytest

from hurwitz_kepler.cli import main


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
                "grid": {"n": 3000, "rmax": 12.0},
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

    def test_super2_precondition_exit_4(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            "q.json",
            {"family": "super2", "a_prime": 0.1, "b_prime": 1.0, "N": 2},
        )
        assert main(["qes", cfg, "--out", str(tmp_path)]) == 4
        assert "b'^2" in capsys.readouterr().err

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
            raise BracketError(
                "nothing in bracket",
                bracket=(-0.028, -0.024),
                endpoint_mismatch={(0, 0): (0.25, 0.125)},
            )

        monkeypatch.setattr(climod, "parabolic_joint_solve", boom)
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        assert main(["duality", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert "E_lo = -0.028, E_hi = -0.024" in err
        assert "pair (0, 0): mismatch 0.25 at E_lo, 0.125 at E_hi" in err

    def test_empty_bracket_fields_reach_stderr(self, tmp_path, monkeypatch, capsys):
        # the real search on a bracket between the two lowest levels
        import hurwitz_kepler.cli as climod

        solve = climod.parabolic_joint_solve

        def shifted(model, micz, grid, bracket):
            return solve(model, micz, grid, bracket=(-0.028, -0.024))

        monkeypatch.setattr(climod, "parabolic_joint_solve", shifted)
        cfg = _write(tmp_path, "d.json", {"omega": 0.25})
        assert main(["duality", cfg, "--out", str(tmp_path)]) == 5
        err = capsys.readouterr().err
        assert "E_lo = -0.028, E_hi = -0.024" in err
        for pair in ("(0, 0)", "(0, 1)", "(0, 2)", "(1, 0)", "(1, 1)", "(2, 0)"):
            assert f"pair {pair}: mismatch" in err


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
