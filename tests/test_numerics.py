import math

import numpy as np
import pytest
from scipy.special import erf, i0e

from fso_geoloss.numerics import (
    BLOCK,
    QuadratureError,
    _block_sums,
    _polar_rule,
    disk_quadrature,
    gaussian_integrand,
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


RADII = [0.01, 0.1, 0.37, 3.0, 100.0]


class TestDiskQuadrature:
    @pytest.mark.parametrize("radius", RADII)
    def test_constant_gives_area(self, radius):
        val = disk_quadrature(lambda y, z, w: w, radius)
        assert val == pytest.approx(math.pi * radius**2, rel=1e-12)

    def test_odd_integrand_vanishes(self):
        # the rule is symmetric, so an odd integrand sums to 0; with the floor
        # at 1e-13 of the estimate it cannot converge, and raises with that 0
        with pytest.raises(QuadratureError) as err:
            disk_quadrature(lambda y, z, w: y * w, 1.3)
        assert abs(err.value.best_estimate) < 1e-12

    @pytest.mark.parametrize("a", RADII)
    def test_centered_gaussian_closed_form(self, a):
        w = 0.4934910867329322
        val = disk_quadrature(
            lambda y, z, wt: 2.0 / (math.pi * w * w)
            * np.exp(-2.0 * (y * y + z * z) / (w * w)) * wt,
            a)
        assert val == pytest.approx(1.0 - math.exp(-2.0 * a * a / (w * w)), rel=1e-10)
        # the same Gaussian from its quadratic form, centre and log prefactor,
        # alone and batched
        gauss = (2.0 / (w * w), 2.0 / (w * w), 0.0, 0.0, 0.0, math.log(2.0 / (math.pi * w * w)))
        assert disk_quadrature(gaussian_integrand(*gauss, a), a) == pytest.approx(val, rel=1e-10)
        batch = (np.full(3, v) for v in gauss)
        assert disk_quadrature(gaussian_integrand(*batch, a), a, n=3) == pytest.approx(
            [val] * 3, rel=1e-10)

    def test_rule_is_built_once_per_order_whatever_the_radius(self, monkeypatch):
        # the rule is cached on the unit disk, so a sweep of radii builds no more rules
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda deg: calls.append(deg) or leggauss(deg))
        counts = []
        for radii in ([0.37], [0.01, 0.37, 3.0]):
            _polar_rule.cache_clear()
            calls.clear()
            for radius in radii:
                disk_quadrature(lambda y, z, w: w, radius)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

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
        # an infinite radius would scale every node and weight to inf
        for radius in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                disk_quadrature(lambda y, z, w: y * w, radius)
        with pytest.raises(ValueError):
            disk_quadrature(lambda y, z, w: y * w, 1.0, rel_tol=2.0)

    @pytest.mark.parametrize("order", [32, 128])
    def test_row_blocked_sums_are_bitwise_whole_array_sums(self, order):
        y, z, w = _polar_rule(order)
        rows = max(1, BLOCK // w.size)
        rng = np.random.default_rng(order)
        for n in {1, rows - 1, rows, rows + 1, 5 * rows + 3} - {0}:
            vals = rng.standard_normal((n, w.size)) * rng.uniform(1e-12, 1e3, (n, 1))
            # the integrand hands out row slices of vals * w, in one reused buffer
            scratch = np.empty((rows, w.size))

            def f(y, z, wt, sl):
                return np.multiply(vals[sl], wt, out=scratch[:sl.stop - sl.start])

            est = _block_sums(f, y, z, w, n)
            assert est.tobytes() == np.sum(vals * w, axis=-1).tobytes()

    def test_cancelling_row_raises_in_a_batch(self):
        # integrands are taken to be non-negative, so a row's floor is 1e-13
        # of its own estimate; the y row integrates to 0 and never meets it
        # (test_odd_integrand_vanishes covers the float case)
        radius, rel_tol = 1.0, 1e-9
        s2 = np.array([[0.25], [1.0], [4.0]])

        def f(y, z, w, rows):
            return np.vstack([y, np.exp(-(y * y + z * z) / s2)])[rows] * w

        with pytest.raises(QuadratureError) as err:
            disk_quadrature(f, radius, rel_tol, n=4)
        # the Gaussian rows converged and keep their estimates
        expected = [math.pi * v * (1.0 - math.exp(-radius**2 / v)) for v in s2[:, 0]]
        assert err.value.best_estimate.shape == (4,)
        assert err.value.best_estimate[1:] == pytest.approx(expected, rel=rel_tol)

    def test_a_float_integrand_is_its_one_row_batch_bitwise(self):
        # one acceptance test for both paths, so a float integrand, even a
        # signed one, stops at the order its one-row batch stops at
        f = lambda y, z, w: (np.exp(-(y * y + z * z) / 0.05) - 0.5) * w
        alone = disk_quadrature(f, 1.0, 1e-13)
        batch = disk_quadrature(lambda y, z, w, rows: f(y, z, w)[None], 1.0, 1e-13, n=1)
        assert alone < 0.0 and [alone] == batch.tolist()

    def test_each_row_keeps_the_order_at_which_it_converged(self):
        # a wide Gaussian converges at order 16, an off-centre narrow one
        # needs higher orders; batched, the wide row keeps its order-16 bits
        radius, s2 = 1.0, np.array([[4.0], [0.01]])

        def f(y, z, w, rows):
            return np.exp(-((y - 0.3 * (s2[rows] < 1.0)) ** 2 + z * z) / s2[rows]) * w

        both = disk_quadrature(f, radius, n=2)
        alone = [disk_quadrature(lambda y, z, w, i=i: f(y, z, w, slice(i, i + 1))[0],
                                 radius) for i in range(2)]
        at16 = [np.sum(f(*_polar_rule(16), slice(i, i + 1))) for i in range(2)]
        assert both.tolist() == alone
        assert both[0] == at16[0] and both[1] != at16[1]

    def test_nonconvergence_reports_best_estimate(self):
        # highly oscillatory integrand that never meets an absurd tolerance
        f = lambda y, z, w: np.sin(4000.0 * y) * np.cos(3777.0 * z) * w
        with pytest.raises(QuadratureError) as err:
            disk_quadrature(f, 1.0, rel_tol=1e-15)
        assert hasattr(err.value, "best_estimate")
        # batched next to a Gaussian, which converges and keeps its estimate
        g = lambda y, z, w: np.exp(-(y * y + z * z)) * w
        with pytest.raises(QuadratureError) as err:
            disk_quadrature(lambda y, z, w, rows: np.vstack([g(y, z, w), f(y, z, w)])[rows],
                            1.0, rel_tol=1e-12, n=2)
        assert err.value.best_estimate[0] == disk_quadrature(g, 1.0, rel_tol=1e-12)
        assert err.value.last_diff > 1e-12 * abs(err.value.best_estimate[1])

