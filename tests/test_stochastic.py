import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fso_geoloss.beam import BeamParams
from fso_geoloss.geometry import Orientation, Pose, Position, footprint_center
from fso_geoloss.geoloss import DetectorParams, approx_params
from fso_geoloss.montecarlo import _chunk_eps, frozen_params_spread, sample_pose
from fso_geoloss.stochastic import (
    DegenerateTrackingError,
    GeoLossPdf,
    HoytParams,
    PoseDistribution,
    cdf_hg,
    covariance_sigma,
    geoloss_pdf,
    hoyt_params,
    linearized_footprint,
    pdf_hg,
    pdf_hg_rayleigh,
    tracking_constants,
)

BEAM = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
DET = DetectorParams(a=0.1)

FIG4 = dict(radius=1000.0, alpha=math.pi / 8, beta=5 * math.pi / 8)


def fig4_distribution(sigma_p=0.01, sigma_o=1e-4):
    return PoseDistribution.from_spherical(
        FIG4["radius"], FIG4["alpha"], FIG4["beta"],
        sigma_p=sigma_p, sigma_o=sigma_o)


def sample_eps(d, n, seed):
    sig = d.sigmas()
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 5)) * sig


def exact_footprints(d, eps):
    theta = (d.mu_omega.theta + eps[:, 3]) % (2 * math.pi)
    phi = d.mu_omega.phi + eps[:, 4]
    fy = (d.mu_r.ry + eps[:, 1]) - (d.mu_r.rx + eps[:, 0]) * np.tan(theta)
    fz = (d.mu_r.rz + eps[:, 2]) - (d.mu_r.rx + eps[:, 0]) / (np.tan(phi) * np.cos(theta))
    return fy, fz


class TestPoseDistribution:
    def test_tracking_enforced(self):
        with pytest.raises(ValueError, match="tracking"):
            PoseDistribution(mu_r=Position(1000.0, 0.0, 0.0),
                             mu_omega=Orientation(0.3, math.pi / 2))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2, sigma_p=-1.0)

    def test_from_spherical_mean_angles(self):
        d = fig4_distribution()
        # with mu_x > 0 the tracking angles coincide with (alpha, beta)
        assert d.mu_omega.theta == pytest.approx(FIG4["alpha"], rel=1e-12)
        assert d.mu_omega.phi == pytest.approx(FIG4["beta"], rel=1e-12)


class TestTrackingConstants:
    def test_partial_derivatives_by_finite_differences(self):
        # all ten entries of J = d(fy, fz)/d(x, y, z, theta, phi), the
        # structural 1s and 0s included: the linearized footprint of each
        # unit perturbation against a finite difference of the exact one
        d = fig4_distribution()
        h = 1e-7
        mu = np.array([d.mu_r.rx, d.mu_r.ry, d.mu_r.rz,
                       d.mu_omega.theta, d.mu_omega.phi])

        def fp(p):
            f = footprint_center(Pose(Position(*p[:3]), Orientation(*p[3:])))
            return np.array([f.fy, f.fz])

        base = fp(mu)
        for unit in np.eye(5):
            lin = linearized_footprint(d, unit)
            fd = (fp(mu + h * unit) - base) / h
            assert list(fd) == pytest.approx([lin.fy, lin.fz], rel=1e-6)

    def test_pole_rejected(self):
        # duck-typed stand-in: the real constructor rejects these earlier
        # through the perfect-tracking check
        from types import SimpleNamespace

        near_theta_pole = SimpleNamespace(
            mu_r=Position(1.0, 0.0, 0.0),
            mu_omega=Orientation(math.pi / 2 - 1e-10, math.pi / 2))
        with pytest.raises(DegenerateTrackingError):
            tracking_constants(near_theta_pole)
        near_phi_pole = SimpleNamespace(
            mu_r=Position(1.0, 0.0, 0.0),
            mu_omega=Orientation(0.0, 1e-10))
        with pytest.raises(DegenerateTrackingError):
            tracking_constants(near_phi_pole)


class TestCovarianceSigma:
    def test_boresight_diagonal(self):
        mu_x = 1000.0
        sp, so = 0.02, 3e-4
        d = PoseDistribution.from_spherical(mu_x, 0.0, math.pi / 2,
                                            sigma_p=sp, sigma_o=so)
        s = covariance_sigma(d)
        expected = sp * sp + mu_x * mu_x * so * so
        assert s[0, 0] == pytest.approx(expected, rel=1e-12)
        assert s[1, 1] == pytest.approx(expected, rel=1e-12)
        assert s[0, 1] == pytest.approx(0.0, abs=1e-18)

    def test_boresight_negative_x_matches_positive(self):
        sp, so = 0.01, 1e-4
        dp = PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2,
                                             sigma_p=sp, sigma_o=so)
        dn = PoseDistribution(mu_r=Position(-1000.0, 0.0, 0.0),
                              mu_omega=Orientation(math.pi, math.pi / 2),
                              sigma_x=sp, sigma_y=sp, sigma_z=sp,
                              sigma_theta=so, sigma_phi=so)
        spos, sneg = covariance_sigma(dp), covariance_sigma(dn)
        assert sneg[0, 0] == pytest.approx(spos[0, 0], rel=1e-12)
        assert sneg[1, 1] == pytest.approx(spos[1, 1], rel=1e-12)
        assert sneg[0, 1] == pytest.approx(spos[0, 1], abs=1e-18)

    def test_all_zero_sigmas_give_zero_matrix(self):
        d = fig4_distribution(sigma_p=0.0, sigma_o=0.0)
        s = covariance_sigma(d)
        assert s.shape == (2, 2)
        assert (s == 0.0).all()

    def test_matches_monte_carlo_footprints(self):
        d = fig4_distribution()
        s = covariance_sigma(d)
        eps = sample_eps(d, 1_000_000, seed=1)
        fy, fz = exact_footprints(d, eps)
        c = np.cov(fy, fz)
        assert c[0, 0] == pytest.approx(s[0, 0], rel=0.03)
        assert c[0, 1] == pytest.approx(s[0, 1], rel=0.03)
        assert c[1, 1] == pytest.approx(s[1, 1], rel=0.03)

    def test_positive_semidefinite(self):
        d = fig4_distribution()
        s = covariance_sigma(d)
        assert s[0, 1] == pytest.approx(s[1, 0], rel=1e-15)
        assert s[0, 0] >= 0.0 and s[1, 1] >= 0.0
        assert s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0] >= 0.0


class TestHoytParams:
    def test_equal_eigenvalues(self):
        hp = hoyt_params(np.diag([2.0, 2.0]))
        assert hp.q == 1.0
        assert hp.omega == 4.0

    def test_diagonal(self):
        hp = hoyt_params(np.diag([4.0, 1.0]))
        assert hp.q == pytest.approx(0.5)
        assert hp.omega == pytest.approx(5.0)

    def test_eigenvalues_largest_first(self):
        hp = hoyt_params(np.diag([3.0, 5.0]))
        assert (hp.lambda1, hp.lambda2) == (5.0, 3.0)

    def test_coupled(self):
        hp = hoyt_params(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert (hp.lambda1, hp.lambda2) == pytest.approx((3.0, 1.0))
        assert hp.q == pytest.approx(1.0 / math.sqrt(3.0))
        assert hp.omega == pytest.approx(4.0)

    def test_identity_gives_unit_eigenvalues(self):
        hp = hoyt_params(np.eye(2))
        assert (hp.lambda1, hp.lambda2) == (1.0, 1.0)

    def test_coupled_eigenvalues_to_1e_14(self):
        hp = hoyt_params(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert (hp.lambda1, hp.lambda2) == pytest.approx((3.0, 1.0), rel=1e-14)

    @pytest.mark.parametrize("diag", [(1e6, 1e-6), (1.0, 1e-9)], ids=["1e6-1e-6", "1-1e-9"])
    def test_eccentric_lambda2_to_1e_15(self, diag):
        # mean - disc cancels here: it gave 7.6e-6 and 2.7e-8 relative error
        hp = hoyt_params(np.diag(diag))
        assert hp.lambda2 == pytest.approx(diag[1], rel=1e-15, abs=0.0)

    def test_equal_eigenvalues_do_not_pass_each_other(self):
        # det / lambda1 rounds to an ulp above lambda1 at 0.1; q stays 1
        assert 0.1 * 0.1 / 0.1 > 0.1
        hp = hoyt_params(np.diag([0.1, 0.1]))
        assert (hp.lambda1, hp.lambda2, hp.q) == (0.1, 0.1, 1.0)

    def test_psd_accepted_and_indefinite_rejected(self):
        hp = hoyt_params(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert (hp.lambda1, hp.lambda2) == pytest.approx((1.5, 0.5), rel=1e-14)
        with pytest.raises(ValueError, match="positive semidefinite"):
            hoyt_params(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero covariance"):
            hoyt_params(np.zeros((2, 2)))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            hoyt_params(np.diag([1.0, 0.0]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            hoyt_params(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("sigma, match", [
        (np.eye(3), r"finite \(2, 2\) array"),
        ([[1.0, math.nan], [math.nan, 1.0]], r"finite \(2, 2\) array"),
        ([[1.0, 0.5], [0.4, 1.0]], "not symmetric"),
    ], ids=["3x3", "nan", "asymmetric"])
    def test_malformed_rejected(self, sigma, match):
        with pytest.raises(ValueError, match=match):
            hoyt_params(sigma)

    def test_rounding_asymmetry_accepted(self):
        # J S J^T as a matrix product rounds its two off-diagonal entries apart
        hp = hoyt_params([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert (hp.lambda1, hp.lambda2) == pytest.approx((1.5, 0.5))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(a=st.floats(1e-6, 1e6), ratio=st.floats(1e-3, 1e3),
           corr=st.floats(-0.99, 0.99))
    def test_eigenvalue_identities_on_psd_arrays(self, a, ratio, corr):
        c = a * ratio
        b = corr * math.sqrt(a * c)
        hp = hoyt_params(np.array([[a, b], [b, c]]))
        assert hp.lambda1 >= hp.lambda2 > 0.0
        assert hp.lambda1 + hp.lambda2 == pytest.approx(a + c, rel=1e-12)
        assert hp.lambda1 * hp.lambda2 == pytest.approx(a * c - b * b, rel=1e-12,
                                                        abs=1e-12 * a * c)
        assert hp.q == math.sqrt(hp.lambda2 / hp.lambda1)
        assert hp.omega == hp.lambda1 + hp.lambda2


def synthetic_pdf(q, varpi, a0=0.0787, w=0.4935):
    lam1 = 1.0
    lam2 = q * q
    k_mean = varpi * 4.0 * q * (lam1 + lam2) / ((1.0 + q * q) * w * w)
    return GeoLossPdf(hoyt=HoytParams(q=q, omega=lam1 + lam2,
                                      lambda1=lam1, lambda2=lam2),
                      a0=a0, k_mean=k_mean, w=w, varpi=varpi)


class TestPdfHg:
    def test_normalization_grid(self):
        for q in (0.3, 0.7, 1.0):
            for varpi in (0.5, 2.0, 10.0):
                pdf = synthetic_pdf(q, varpi)
                val, _ = quad(pdf_hg, 0.0, pdf.a0, args=(pdf,), limit=300)
                assert val == pytest.approx(1.0, abs=1e-6)

    def test_rayleigh_reduction_pointwise(self):
        for varpi in (0.5, 2.0, 6.355):
            pdf = synthetic_pdf(1.0, varpi)
            for frac in np.linspace(1e-9, 1.0, 31):
                x = float(frac * pdf.a0)
                assert pdf_hg(x, pdf) == pytest.approx(
                    pdf_hg_rayleigh(x, varpi, pdf.a0), rel=1e-12)

    def test_out_of_support(self):
        pdf = synthetic_pdf(0.7, 2.0)
        assert pdf_hg(pdf.a0 * 1.0000001, pdf) == 0.0
        with pytest.raises(ValueError):
            pdf_hg(0.0, pdf)
        with pytest.raises(ValueError):
            pdf_hg(-0.1, pdf)

    def test_endpoint_uses_i0_at_zero(self):
        # at x = a0 the power factor and I0(0) are both exactly 1
        pdf = synthetic_pdf(0.5, 3.0)
        assert pdf_hg(pdf.a0, pdf) == pytest.approx(pdf.varpi / pdf.a0, rel=1e-12)

    def test_tiny_argument_underflows_to_zero(self):
        pdf = synthetic_pdf(0.4, 5.0)
        assert pdf_hg(1e-310 * pdf.a0, pdf) == 0.0

    def test_nonnegative_everywhere(self):
        pdf = synthetic_pdf(0.3, 0.5)
        for frac in np.geomspace(1e-12, 1.0, 40):
            assert pdf_hg(float(frac * pdf.a0), pdf) >= 0.0

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(q=st.floats(0.05, 1.0), varpi=st.floats(0.1, 50.0),
           log10_ratio=st.floats(-299.0, 0.0))
    def test_matches_high_precision_density(self, q, varpi, log10_ratio):
        # The Bessel argument z reaches ~1.6e5 here, far past the |z| ~ 713
        # where I0(z) alone overflows a double.
        mp = pytest.importorskip("mpmath")
        pdf = synthetic_pdf(q, varpi)
        x = pdf.a0 * 10.0**log10_ratio
        with mp.workdps(40):
            mq, mv = mp.mpf(q), mp.mpf(varpi)
            ratio = mp.mpf(x) / mp.mpf(pdf.a0)
            c = (1 + mq * mq) * mv / (2 * mq)
            z = -(1 - mq * mq) * mv / (2 * mq) * mp.log(ratio)
            ref = mv / mp.mpf(pdf.a0) * ratio ** (c - 1) * mp.besseli(0, z)
            if not 1e-300 <= ref <= 1e300:
                return
            assert float(abs(mp.mpf(pdf_hg(x, pdf)) / ref - 1)) <= 1e-12


class TestCdfHg:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(q=st.floats(0.05, 1.0), varpi=st.floats(0.1, 50.0),
           log10_ratio=st.floats(-299.0, 0.0))
    def test_matches_high_precision_cdf(self, cdf_reference, q, varpi, log10_ratio):
        pdf = synthetic_pdf(q, varpi)
        x = pdf.a0 * 10.0**log10_ratio
        f = cdf_hg(x, pdf)
        # F <= (x/a0)**(q*varpi), so the reference is below 1e-300 here
        if q * varpi * -log10_ratio > 300.0:
            assert 0.0 <= f <= 1e-300
            return
        ref = cdf_reference(x, pdf)
        if ref >= 1e-300:
            assert float(abs(f / ref - 1)) <= 1e-12

    def test_support_edges_and_monotone(self):
        for q, varpi in ((0.05, 0.1), (0.3, 2.0), (0.8, 50.0), (1.0, 6.0)):
            pdf = synthetic_pdf(q, varpi)
            a0 = pdf.a0
            assert cdf_hg(0.0, pdf) == 0.0
            assert cdf_hg(-a0, pdf) == 0.0
            assert cdf_hg(a0, pdf) == 1.0
            assert np.all(cdf_hg([a0 * 1.0000001, 2 * a0, np.inf], pdf) == 1.0)
            f = cdf_hg(np.concatenate([[0.0], np.geomspace(1e-300, 1.0, 400) * a0]), pdf)
            assert np.all(np.diff(f) >= 0.0)
            assert np.all((f >= 0.0) & (f <= 1.0))

    def test_rayleigh_limit(self):
        for varpi in (0.1, 0.5, 6.355, 50.0):
            pdf = synthetic_pdf(1.0, varpi)
            x = np.geomspace(1e-6, 1.0, 50) * pdf.a0
            np.testing.assert_allclose(cdf_hg(x, pdf), (x / pdf.a0) ** varpi,
                                       rtol=1e-13, atol=0.0)

    def test_central_difference_is_the_density(self):
        for q, varpi in ((0.1, 0.5), (0.3, 2.0), (0.7, 10.0), (0.95, 40.0)):
            pdf = synthetic_pdf(q, varpi)
            h = 1e-6 * pdf.a0
            for frac in (0.05, 0.3, 0.6, 0.9):
                x = frac * pdf.a0
                slope = (cdf_hg(x + h, pdf) - cdf_hg(x - h, pdf)) / (2 * h)
                assert slope == pytest.approx(pdf_hg(x, pdf), rel=1e-6)

    def test_value_does_not_depend_on_the_other_points(self):
        pdf = synthetic_pdf(0.2, 30.0)
        x = np.geomspace(1e-12, 1.0, 7) * pdf.a0
        together = cdf_hg(x, pdf)
        assert np.array_equal(together, [cdf_hg(v, pdf) for v in x])
        assert cdf_hg(x.reshape(7, 1), pdf).shape == (7, 1)


class TestPdfRayleigh:
    def test_uniform_special_case(self):
        a0 = 0.08
        for x in (0.01, 0.04, 0.08):
            assert pdf_hg_rayleigh(x, 1.0, a0) == pytest.approx(1.0 / a0)

    def test_exact_normalization(self):
        # analytic antiderivative (x/a0)^rho integrates to exactly 1
        a0 = 0.0787
        for rho in (0.5, 1.0, 6.0):
            val, _ = quad(pdf_hg_rayleigh, 0.0, a0, args=(rho, a0), limit=200)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            pdf_hg_rayleigh(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            pdf_hg_rayleigh(0.05, -1.0, 0.1)


class TestGeoLossPdfFactory:
    def test_varpi_definition(self):
        d = fig4_distribution(sigma_p=0.0, sigma_o=1e-4)
        pdf = geoloss_pdf(d, BEAM, DET)
        hp = hoyt_params(covariance_sigma(d))
        ap = approx_params(Pose(d.mu_r, d.mu_omega), BEAM, DET)
        expected = (1 + hp.q**2) * ap.k_mean * ap.w**2 / (4 * hp.q * hp.omega)
        assert pdf.varpi == pytest.approx(expected, rel=1e-14)
        assert pdf.a0 == pytest.approx(ap.a0, rel=1e-14)

    def test_orthogonal_reduces_to_rayleigh_params(self):
        d = PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2,
                                            sigma_p=0.01, sigma_o=1e-4)
        pdf = geoloss_pdf(d, BEAM, DET)
        assert pdf.hoyt.q == pytest.approx(1.0, rel=1e-12)
        lam = 0.01**2 + 1000.0**2 * (1e-4) ** 2
        assert pdf.hoyt.omega == pytest.approx(2 * lam, rel=1e-12)


class TestSamplePose:
    def test_zero_sigma_returns_mean(self):
        d = fig4_distribution(sigma_p=0.0, sigma_o=0.0)
        p = sample_pose(d, 1, 0)
        assert p.position == d.mu_r
        assert p.orientation.theta == d.mu_omega.theta
        assert p.orientation.phi == d.mu_omega.phi

    def test_sample_mean_near_mu(self):
        d = fig4_distribution(sigma_p=0.05, sigma_o=1e-3)
        n = 20_000
        xs = np.empty(n)
        ths = np.empty(n)
        for i in range(n):
            p = sample_pose(d, 7, i)
            xs[i] = p.position.rx
            ths[i] = p.orientation.theta
        assert abs(xs.mean() - d.mu_r.rx) <= 5 * 0.05 / math.sqrt(n)
        assert abs(ths.mean() - d.mu_omega.theta) <= 5 * 1e-3 / math.sqrt(n)

    def test_streams_are_reproducible_and_disjoint(self):
        d = fig4_distribution()
        a = sample_pose(d, 3, 5)
        b = sample_pose(d, 3, 5)
        c = sample_pose(d, 3, 6)
        assert a == b
        assert a != c

    def test_footprint_covariance_through_sampling(self):
        d = fig4_distribution(sigma_p=0.0, sigma_o=1e-4)
        s = covariance_sigma(d)
        eps = sample_eps(d, 400_000, seed=2)
        fy, fz = exact_footprints(d, eps)
        c = np.cov(fy, fz)
        assert c[0, 0] == pytest.approx(s[0, 0], rel=0.03)
        assert c[1, 1] == pytest.approx(s[1, 1], rel=0.03)


class TestLinearizedFootprint:
    def test_zero_eps(self):
        f = linearized_footprint(fig4_distribution(), np.zeros(5))
        assert (f.fy, f.fz) == (0.0, 0.0)

    def test_linearity(self):
        d = fig4_distribution()
        eps = np.array([0.01, -0.02, 0.005, 1e-4, -2e-4])
        f1 = linearized_footprint(d, eps)
        f2 = linearized_footprint(d, 2 * eps)
        assert f2.fy == pytest.approx(2 * f1.fy, rel=1e-12)
        assert f2.fz == pytest.approx(2 * f1.fz, rel=1e-12)

    def test_quadratic_convergence_to_exact(self):
        d = fig4_distribution()
        base = np.array([0.02, -0.015, 0.01, 2e-4, -1.5e-4])
        errs = []
        for t in (1.0, 0.5, 0.25, 0.125):
            eps = t * base
            lin = linearized_footprint(d, eps)
            pose = Pose(Position(d.mu_r.rx + eps[0], d.mu_r.ry + eps[1],
                                 d.mu_r.rz + eps[2]),
                        Orientation(d.mu_omega.theta + eps[3],
                                    d.mu_omega.phi + eps[4]))
            exact = footprint_center(pose)
            errs.append(math.hypot(exact.fy - lin.fy, exact.fz - lin.fz))
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        assert all(r < 0.35 for r in ratios)  # ~0.25 for a quadratic remainder

    def test_covariance_decomposition_consistency(self):
        # var of the linear map under unit normals equals Sigma exactly
        d = fig4_distribution()
        c1, c2, c3, c4, c5 = tracking_constants(d)
        s = covariance_sigma(d)
        sig = d.sigmas()
        assert s[0, 0] == pytest.approx(
            sig[1] ** 2 + c1**2 * sig[0] ** 2 + c2**2 * sig[3] ** 2, rel=1e-14)
        assert s[0, 1] == pytest.approx(
            c1 * c5 * sig[0] ** 2 + c2 * c4 * sig[3] ** 2, rel=1e-14)


class TestFrozenParamsSpread:
    def test_frozen_kernel_inputs_vary_far_less_than_offset(self):
        d = fig4_distribution(sigma_p=0.0, sigma_o=1e-4)
        out = frozen_params_spread(d, BEAM, DET, n=400, seed=3)
        # freezing a0/k_mean at the mean pose is justified: their spread is
        # orders of magnitude below the offset spread
        assert out["cv_a0"] < 1e-3 * out["cv_u"]
        assert out["cv_k_mean"] < 1e-3 * out["cv_u"]
        assert out["cv_u"] > 0.1

    def test_equals_per_pose_scalar_loop_bitwise(self):
        d = fig4_distribution(sigma_p=0.05, sigma_o=5e-4)
        aps = [approx_params(sample_pose(d, 3, i), BEAM, DET) for i in range(300)]
        expected = {}
        for name in ("a0", "k_mean", "u"):
            arr = np.array([getattr(ap, name) for ap in aps])
            expected[f"cv_{name}"] = float(arr.std() / arr.mean())
        assert frozen_params_spread(d, BEAM, DET, n=300, seed=3) == expected

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_trials_is_an_error(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            frozen_params_spread(fig4_distribution(), BEAM, DET, n=n)

    def test_equals_per_pose_scalar_loop_at_one_rad_jitter(self):
        # at 1 rad jitter some phi of the first 100 trials leave (0, pi) and
        # are folded, in the batch and in `sample_pose` alike.  All 100
        # footprints lie over 10 m off the detector, so every pose is
        # far-field marginal: each scalar call warns, and the batch once
        d = fig4_distribution(sigma_p=0.0, sigma_o=1.0)
        raw_phi = d.mu_omega.phi + _chunk_eps(3, 0, 100, d.sigmas())[:, 4]
        assert ((raw_phi <= 0.0) | (raw_phi >= math.pi)).any()
        with pytest.warns(UserWarning, match="far-field") as caught:
            aps = [approx_params(sample_pose(d, 3, i), BEAM, DET) for i in range(100)]
        assert len(caught) == 100
        expected = {}
        for name in ("a0", "k_mean", "u"):
            arr = np.array([getattr(ap, name) for ap in aps])
            expected[f"cv_{name}"] = float(arr.std() / arr.mean())
        with pytest.warns(UserWarning, match="far-field") as caught:
            spread = frozen_params_spread(d, BEAM, DET, n=100, seed=3)
        assert len(caught) == 1
        assert spread == expected


class TestSensitivityOrdering:
    def test_orientation_dominates_position(self):
        mu_x = 1000.0
        base = PoseDistribution.from_spherical(mu_x, 0.0, math.pi / 2,
                                               sigma_p=0.01, sigma_o=1e-4)
        s0 = covariance_sigma(base)
        # derivative of the variance entries w.r.t. each variance input
        dvar = 1e-9
        bump_o = PoseDistribution.from_spherical(
            mu_x, 0.0, math.pi / 2, sigma_p=0.01,
            sigma_o=math.sqrt(1e-8 + dvar))
        bump_p = PoseDistribution.from_spherical(
            mu_x, 0.0, math.pi / 2, sigma_p=math.sqrt(1e-4 + dvar),
            sigma_o=1e-4)
        d_o = (covariance_sigma(bump_o)[0, 0] - s0[0, 0]) / dvar
        d_p = (covariance_sigma(bump_p)[0, 0] - s0[0, 0]) / dvar
        assert d_o == pytest.approx(mu_x**2, rel=1e-3)
        assert d_p == pytest.approx(1.0, rel=1e-3)
        assert d_o / d_p > 1e4
