import math

import numpy as np
import pytest
from scipy.special import erf, i0e

from fso_geoloss.numerics import (
    BLOCK,
    QuadratureError,
    SymMatrix2,
    _block_sums,
    _polar_rule,
    disk_quadrature,
    eig_sym2,
)


def erf_series_oracle(x, terms=2000):
    """Brute-force Maclaurin sum; trustworthy for |x| <= ~3.5."""
    total = 0.0
    term = x
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def i0_series_oracle(x, terms=2000):
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= x * x / 4.0 / (k * k)
        total += term
    return total


class TestErf:
    def test_zero(self):
        assert erf(0.0) == 0.0

    def test_half(self):
        # frozen from erf_series_oracle(0.5)
        assert erf(0.5) == pytest.approx(0.5204998778130465, rel=1e-12)

    def test_series_oracle_log_grid(self):
        for x in np.geomspace(1e-4, 3.5, 60):
            assert erf(float(x)) == pytest.approx(erf_series_oracle(float(x)), rel=1e-12)

    def test_odd_symmetry(self):
        for x in [0.3, 1.7, 2.9, 4.2, 8.0]:
            assert erf(-x) == -erf(x)

    def test_matches_stdlib_across_branches(self):
        for x in np.linspace(0.05, 6.0, 120):
            assert erf(float(x)) == pytest.approx(math.erf(float(x)), rel=1e-13)

    def test_range(self):
        assert -1.0 < erf(-30.0) <= erf(30.0) < 1.0 or abs(erf(30.0)) == 1.0


class TestBesselI0:
    """I0 as the loss density evaluates it: I0(x) = exp(|x|) * i0e(x)."""

    def test_zero(self):
        assert i0e(0.0) == 1.0

    def test_one(self):
        # frozen from i0_series_oracle(1.0)
        assert i0e(1.0) == pytest.approx(1.2660658777520084 * math.exp(-1.0), rel=1e-10)

    def test_series_oracle_log_grid(self):
        # the positive-term series is an exact oracle over the whole range
        for x in np.geomspace(1e-3, 120.0, 60):
            assert i0e(float(x)) == pytest.approx(
                i0_series_oracle(float(x)) * math.exp(-float(x)), rel=1e-10)

    def test_even_symmetry(self):
        for x in [0.5, 3.0, 20.0, 200.0]:
            assert i0e(-x) == i0e(x)

    def test_at_least_one(self):
        # log I0(x) = x + log i0e(x) >= 0
        for x in [0.0, 1e-8, 2.0, 50.0]:
            assert x + math.log(i0e(x)) >= 0.0


class TestDiskQuadrature:
    def test_constant_gives_area(self):
        radius = 0.37
        val = disk_quadrature(lambda y, z, w: w, radius)
        assert val == pytest.approx(math.pi * radius**2, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        val = disk_quadrature(lambda y, z, w: y * w, 1.3)
        assert abs(val) < 1e-12

    def test_centered_gaussian_closed_form(self):
        w, a = 0.4934910867329322, 0.1
        val = disk_quadrature(
            lambda y, z, wt: 2.0 / (math.pi * w * w)
            * np.exp(-2.0 * (y * y + z * z) / (w * w)) * wt,
            a)
        assert val == pytest.approx(1.0 - math.exp(-2.0 * a * a / (w * w)), rel=1e-10)

    def test_rotation_invariance(self):
        rel_tol = 1e-9

        def make(rot):
            c, s = math.cos(rot), math.sin(rot)

            def f(y, z, w):
                yr = c * y - s * z + 0.03
                zr = s * y + c * z - 0.05
                return np.exp(-(2.1 * yr * yr + 0.7 * zr * zr + 0.9 * yr * zr)) * w

            return f

        base = disk_quadrature(make(0.0), 0.2, rel_tol)
        for rot in (0.4, 1.1, 2.8, 5.0):
            assert disk_quadrature(make(rot), 0.2, rel_tol) == pytest.approx(
                base, rel=10 * rel_tol)

    def test_batched_integrands(self):
        radii = np.array([[1.0], [2.0]])

        def f(y, z, w, rows):
            return np.exp(-(y * y + z * z) / radii[rows]**2) * w

        vals = disk_quadrature(f, 3.0, n=2)
        expected = [math.pi * r * r * (1 - math.exp(-9.0 / (r * r))) for r in (1.0, 2.0)]
        assert vals == pytest.approx(expected, rel=1e-9)

    def test_deterministic(self):
        f = lambda y, z, w: np.exp(-(y - 0.2) ** 2 - z**2) * w
        assert disk_quadrature(f, 0.9) == disk_quadrature(f, 0.9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            disk_quadrature(lambda y, z, w: y * w, -1.0)
        with pytest.raises(ValueError):
            disk_quadrature(lambda y, z, w: y * w, 1.0, rel_tol=2.0)

    @pytest.mark.parametrize("order", [32, 128])
    def test_row_blocked_sums_are_bitwise_whole_array_sums(self, order):
        y, z, w = _polar_rule(order, 0.1)
        rows = max(1, BLOCK // w.size)
        rng = np.random.default_rng(order)
        for n in {1, rows - 1, rows, rows + 1, 5 * rows + 3} - {0}:
            vals = rng.standard_normal((n, w.size)) * rng.uniform(1e-12, 1e3, (n, 1))
            # the first block is non-negative, so its gross mass is its sum
            vals[:rows] = np.abs(vals[:rows])
            # the integrand hands out row slices of vals * w, in one reused buffer
            scratch = np.empty((rows, w.size))

            def f(y, z, wt, sl):
                return np.multiply(vals[sl], wt, out=scratch[:sl.stop - sl.start])

            est, mass = _block_sums(f, y, z, w, n)
            assert est.tobytes() == np.sum(vals * w, axis=-1).tobytes()
            assert mass.tobytes() == np.sum(np.abs(vals) * w, axis=-1).tobytes()

    def test_cancelling_row_converges_through_gross_floor_in_a_batch(self):
        # the y row integrates to 0, so only the 1e-13 * integral(|y|) floor
        # lets the batch converge
        radius, rel_tol = 1.0, 1e-9
        s2 = np.array([[0.25], [1.0], [4.0]])

        def f(y, z, w, rows):
            return np.vstack([y, np.exp(-(y * y + z * z) / s2)])[rows] * w

        vals = disk_quadrature(f, radius, rel_tol, n=4)
        assert vals.shape == (4,)
        assert abs(vals[0]) <= 1e-13 * 4.0 / 3.0 * radius**3
        expected = [math.pi * v * (1.0 - math.exp(-radius**2 / v)) for v in s2[:, 0]]
        assert vals[1:] == pytest.approx(expected, rel=rel_tol)

    def test_nonconvergence_reports_best_estimate(self):
        # highly oscillatory integrand that never meets an absurd tolerance
        f = lambda y, z, w: np.sin(4000.0 * y) * np.cos(3777.0 * z) * w
        with pytest.raises(QuadratureError) as err:
            disk_quadrature(f, 1.0, rel_tol=1e-15)
        assert hasattr(err.value, "best_estimate")


class TestEigSym2:
    def test_diagonal(self):
        assert eig_sym2(SymMatrix2(3.0, 0.0, 5.0)) == (5.0, 3.0)

    def test_identity(self):
        assert eig_sym2(SymMatrix2(1.0, 0.0, 1.0)) == (1.0, 1.0)

    def test_coupled(self):
        l1, l2 = eig_sym2(SymMatrix2(2.0, 1.0, 2.0))
        assert (l1, l2) == pytest.approx((3.0, 1.0), rel=1e-14)

    def test_trace_det_property(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, c = rng.uniform(1e-6, 1e6, 2)
            b = rng.uniform(-math.sqrt(a * c), math.sqrt(a * c))
            m = SymMatrix2(a, b, c)
            l1, l2 = eig_sym2(m)
            assert l1 >= l2
            assert l1 + l2 == pytest.approx(m.trace(), rel=1e-12)
            assert l1 * l2 == pytest.approx(m.det(), rel=1e-12, abs=1e-12 * a * c)

    def test_psd_helper(self):
        assert SymMatrix2(1.0, 0.5, 1.0).is_psd()
        assert not SymMatrix2(1.0, 2.0, 1.0).is_psd()
