import math
from fractions import Fraction

import numpy as np
import pytest

from hurwitz_kepler.analytic import (
    QuantumNumbers,
    dual_map,
    dual_map_inverse,
    effective_lprime,
    kummer_1f1_terminating,
    radial_wavefunction,
    singular_oscillator_energy,
)


def _kummer_fraction(n, beta, z):
    """Independent oracle: exact rational term-by-term evaluation."""
    total = Fraction(0)
    for k in range(n + 1):
        num = Fraction(1)
        den = Fraction(1)
        for i in range(k):
            num *= Fraction(-(n - i))
            den *= (Fraction(beta) + i) * (i + 1)
        total += num / den * Fraction(z) ** k
    return float(total)


class TestKummer:
    def test_empty_series(self):
        assert kummer_1f1_terminating(0, 3.7, 123.4) == 1.0

    def test_two_terms(self):
        assert kummer_1f1_terminating(1, 4.0, 4.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_fraction_oracle(self):
        for n, beta, z in [(3, 5.5, 2.0), (4, 4.0, 1.25), (6, 2.5, 0.75)]:
            expect = _kummer_fraction(n, Fraction(beta), Fraction(z))
            assert kummer_1f1_terminating(n, beta, z) == pytest.approx(expect, rel=1e-14)

    def test_termination_is_polynomial(self):
        # degree-n polynomial: n+1 samples determine it; compare forced
        # higher-order evaluation (same sum, extra zero terms change nothing)
        z = np.linspace(0.1, 3.0, 7)
        vals = [kummer_1f1_terminating(3, 6.0, zz) for zz in z]
        coeff = np.polyfit(z, vals, 3)
        assert np.allclose(np.polyval(coeff, z), vals, rtol=1e-10)

    def test_pochhammer_zero(self):
        with pytest.raises(ValueError):
            kummer_1f1_terminating(3, -1.0, 1.0)
        # pole beyond the truncation is harmless
        kummer_1f1_terminating(2, -2.5, 1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5, -1])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: QuantumNumbers(v),
        lambda v: QuantumNumbers(0, L=v),
        lambda v: QuantumNumbers(0, J=v),
        lambda v: kummer_1f1_terminating(v, 4.0, 1.0),
        lambda v: effective_lprime(v, 0.0),
    ],
    ids=["N", "L", "J", "kummer-n", "lprime-L"],
)
def test_non_integral_or_negative_index_rejected(call, value):
    with pytest.raises(ValueError):
        call(value)


class TestEffectiveLprime:
    def test_collapses_without_singular_term(self):
        assert effective_lprime(2, 0.0) == pytest.approx(2.0)
        assert effective_lprime(0, 0.0) == pytest.approx(0.0)

    def test_perfect_square(self):
        assert effective_lprime(0, 8.0) == pytest.approx(2.0)

    def test_defining_quadratic(self):
        for L in range(4):
            for c in (0.0, 1.0, 8.0, 3.7):
                lp = effective_lprime(L, c)
                assert lp * (lp + 6.0) == pytest.approx(L * (L + 6) + 2.0 * c, rel=1e-13)
                assert lp >= L


class TestSingularOscillatorEnergy:
    def test_frozen_values(self):
        # derived with the finite-difference oracle (see test_numeric)
        assert singular_oscillator_energy(QuantumNumbers(0, 0), 1.0, 0.0) == pytest.approx(4.0)
        assert singular_oscillator_energy(QuantumNumbers(1, 0), 1.0, 0.0) == pytest.approx(6.0)
        assert singular_oscillator_energy(QuantumNumbers(0, 0), 2.0, 8.0) == pytest.approx(12.0)

    def test_lprime_invariance(self):
        # (L, c) -> (L', 0) leaves the energy unchanged
        for L in (0, 1, 2):
            for c in (1.0, 8.0):
                lp = effective_lprime(L, c)
                direct = singular_oscillator_energy(QuantumNumbers(2, L), 1.3, c)
                assert direct == pytest.approx(1.3 * (4.0 + lp + 4.0), rel=1e-13)


def _count_sign_changes(vals):
    vals = np.asarray(vals)
    sig = vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))]
    return int(np.count_nonzero(np.sign(sig[1:]) != np.sign(sig[:-1])))


class TestRadialWavefunction:
    def test_gaussian_ground(self):
        q = QuantumNumbers(0, 0)
        assert radial_wavefunction(q, 1.0, 0.0, 1.0) == pytest.approx(math.exp(-0.5))

    def test_first_excited_zero_location(self):
        q = QuantumNumbers(1, 0)
        assert radial_wavefunction(q, 1.0, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_node_counts(self):
        # oracle: sign-change counting on a fine grid
        r = np.linspace(1e-3, 9.0, 30_000)
        for N in range(5):
            for L in range(4):
                for c in (0.0, 1.0, 8.0):
                    vals = radial_wavefunction(QuantumNumbers(N, L), 1.0, c, r)
                    assert _count_sign_changes(vals) == N, (N, L, c)

    def test_sign_pattern_n2(self):
        q = QuantumNumbers(2, 1)
        r = np.linspace(0.05, 8.0, 8000)
        vals = radial_wavefunction(q, 1.0, 0.0, r)
        sig = np.sign(vals[np.abs(vals) > 1e-12 * np.max(np.abs(vals))])
        blocks = [sig[0]]
        for s in sig[1:]:
            if s != blocks[-1]:
                blocks.append(s)
        assert blocks == [1.0, -1.0, 1.0]

    def test_domain(self):
        with pytest.raises(ValueError):
            radial_wavefunction(QuantumNumbers(0, 0), 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("N", range(6))
    def test_array_matches_points(self, N):
        # an array r evaluates 1F1 elementwise by the scalar's operations, so
        # the profile is bit-identical to its point-by-point form; N = 0
        # broadcasts the scalar 1F1 = 1
        r = np.linspace(0.05, 6.0, 200)
        lp, z = effective_lprime(1, 2.0), 0.7 * r**2
        points = np.array([kummer_1f1_terminating(N, lp + 4.0, zz) for zz in z])
        np.testing.assert_array_equal(kummer_1f1_terminating(N, lp + 4.0, z), points)
        vals = radial_wavefunction(QuantumNumbers(N, 1), 0.7, 2.0, r)
        assert vals.shape == r.shape
        np.testing.assert_array_equal(vals, r**lp * np.exp(-0.5 * z) * points)


class TestDualMap:
    def test_values(self):
        assert dual_map(1.0, 8.0).E == pytest.approx(-0.5)
        assert dual_map(2.0, 1.0).E == pytest.approx(-2.0)

    def test_round_trip(self):
        pair = dual_map(1.7, 3.0)
        back = dual_map_inverse(pair.E, pair.Z)
        assert back.omega == pytest.approx(1.7, rel=1e-15)
        assert back.Z == 3.0

    def test_scattering_rejected(self):
        with pytest.raises(ValueError):
            dual_map_inverse(0.1, 1.0)
        with pytest.raises(ValueError):
            dual_map(-1.0, 1.0)
