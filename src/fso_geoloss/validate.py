"""Self-check suite behind the `validate` subcommand.

Each check re-derives a model property through an independent route
(closed forms, quadrature, sampling) and compares at a fixed tolerance.
The special functions and the 2x2 eigenvalues are checked through the
model that uses them, not on their own: erf through `approx_bracket`'s A0,
i0e through the density checks, the eigenvalues through `eig_trace_det`'s
model covariances.  Quadrature-dependent tolerances scale with the
configured rel_tol so a loosened tolerance loosens the checks consistently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr

from . import beam as beam_mod
from . import geoloss as geoloss_mod
from . import geometry, montecarlo, numerics, stochastic

DEFAULT_BEAM = beam_mod.BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
DEFAULT_DETECTOR = geoloss_mod.DetectorParams(a=0.1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # a check may compare numpy scalars; the verdict is a plain bool
        object.__setattr__(self, "passed", bool(self.passed))


def check_eig_trace_det(rel_tol: float) -> CheckResult:
    # hoyt_params' eigenvalues against the trace and determinant of the
    # model's covariance, at the Fig-5 geometries (0, pi/2) and (pi/8, 5pi/8),
    # the latter Fig-4's too, under orientation-only, position-only and
    # mixed jitter (sigma_p [m], sigma_o [rad])
    worst = 0.0
    for (alpha, beta), (sigma_p, sigma_o) in itertools.product(
            ((0.0, math.pi / 2), (math.pi / 8, 5 * math.pi / 8)),
            ((0.0, 1e-4), (0.01, 0.0), (0.01, 1e-4), (0.1, 1e-4), (0.01, 1e-3))):
        m = stochastic.covariance_sigma(stochastic.PoseDistribution.from_spherical(
            1000.0, alpha, beta, sigma_p, sigma_o))
        hp = stochastic.hoyt_params(m)
        trace, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        worst = max(worst, abs((hp.lambda1 + hp.lambda2) / trace - 1.0),
                    abs(hp.lambda1 * hp.lambda2 / det - 1.0))
    return CheckResult("eig_trace_det", worst <= 1e-12,
                       f"max rel residual {worst:.2e} (tol 1e-12)")


def check_disk_rotation_invariance(rel_tol: float) -> CheckResult:
    w2 = 0.2
    def make(rot):
        c, s = math.cos(rot), math.sin(rot)
        def f(y, z, w):
            yr, zr = c * y - s * z + 0.04, s * y + c * z - 0.03
            return np.exp(-(1.3 * yr * yr + 0.6 * zr * zr + 0.4 * yr * zr) / w2) * w
        return f
    base = numerics.disk_quadrature(make(0.0), 0.1, rel_tol)
    worst = max(
        abs(numerics.disk_quadrature(make(rot), 0.1, rel_tol) / base - 1.0)
        for rot in (0.7, 2.0, 4.5)
    )
    return CheckResult("disk_rotation_invariance", worst <= 10 * rel_tol,
                       f"max rel spread {worst:.2e} (tol {10 * rel_tol:.0e})")


def check_tracking_round_trip(rel_tol: float) -> CheckResult:
    # a 3x3x3 grid, plus two positions 2 mrad off the poles
    grid = [*itertools.product((1000.0, 600.0, -800.0), (-300.0, 0.0, 450.0),
                               (-400.0, 0.0, 250.0)), (2.0, 0.0, 1000.0), (2.0, 0.0, -1000.0)]
    worst = 0.0
    for p in itertools.starmap(geometry.Position, grid):
        f = geometry.footprint_center(geometry.Pose(p, geometry.tracking_orientation(p)))
        worst = max(worst, f.offset())
    return CheckResult("tracking_round_trip", worst <= 1e-9,
                       f"max footprint offset {worst:.2e} m (tol 1e-9)")


def check_footprint_affine(rel_tol: float) -> CheckResult:
    mu = geometry.spherical_mean_position(1000.0, 0.2, 1.8)
    o = geometry.tracking_orientation(mu)
    f0 = geometry.footprint_center(geometry.Pose(mu, o))
    worst = 0.0
    for delta in (0.01, -0.2, 3.0):
        f = geometry.footprint_center(
            geometry.Pose(geometry.Position(mu.rx, mu.ry + delta, mu.rz + delta), o))
        worst = max(worst, abs(f.fy - f0.fy - delta), abs(f.fz - f0.fz - delta))
    return CheckResult("footprint_affine", worst <= 1e-9,
                       f"max slope deviation {worst:.2e} m (tol 1e-9)")


def _orientation_grid():
    thetas = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    phis = np.linspace(0.15, math.pi - 0.15, 9)
    for t in thetas:
        for p in phis:
            o = geometry.Orientation(float(t), float(p))
            try:
                geometry.incidence_angle(o)
            except geometry.DegenerateGeometryError:
                continue
            yield o


def check_ellipse_identity(rel_tol: float) -> CheckResult:
    worst = 0.0
    for o in _orientation_grid():
        ep = beam_mod.ellipse_params(o)
        s2 = math.sin(ep.psi) ** 2
        worst = max(
            worst,
            abs(ep.rho_y * ep.rho_z - ep.rho_yz**2 - s2),
            abs(ep.rho_min * ep.rho_max * s2 - 1.0),
            abs(1.0 / ep.rho_min + 1.0 / ep.rho_max - (ep.rho_y + ep.rho_z)),
        )
    return CheckResult("ellipse_identity", worst <= 1e-12,
                       f"max identity residual {worst:.2e} (tol 1e-12)")


def check_energy_conservation(rel_tol: float) -> CheckResult:
    tol = 1e-10 + 10 * rel_tol
    worst = 0.0
    for alpha, beta in ((0.0, math.pi / 2), (math.pi / 8, 5 * math.pi / 8),
                        (-math.pi / 4, math.pi / 3)):
        mu = geometry.spherical_mean_position(1000.0, alpha, beta)
        pose = geometry.Pose(mu, geometry.tracking_orientation(mu))
        ep = beam_mod.ellipse_params(pose.orientation)
        w = beam_mod.beam_width(DEFAULT_BEAM, mu.norm())
        radius = 6.0 * w * math.sqrt(ep.rho_max)
        total = numerics.disk_quadrature(
            lambda y, z, wt: beam_mod.intensity_on_pd((y, z), pose, DEFAULT_BEAM) * wt,
            radius, rel_tol)
        worst = max(worst, abs(total - 1.0))
    return CheckResult("energy_conservation", worst <= tol,
                       f"max |integral - 1| = {worst:.2e} (tol {tol:.1e})")


def _bound_ordering_poses(n: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    a = DEFAULT_DETECTOR.a
    poses = []
    for _ in range(n):
        alpha = rng.uniform(-math.pi / 3, math.pi / 3)
        beta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
        u = rng.uniform(0.0, 3.0 * a)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        mu = geometry.spherical_mean_position(1000.0, alpha, beta)
        o = geometry.tracking_orientation(mu)
        shifted = geometry.Position(mu.rx, mu.ry + u * math.cos(ang),
                                    mu.rz + u * math.sin(ang))
        poses.append(geometry.Pose(shifted, o))
    return poses


def check_bound_ordering(rel_tol: float, n: int = 150) -> CheckResult:
    slack = 2.0 * rel_tol
    worst = -math.inf
    for pose in _bound_ordering_poses(n):
        low = geoloss_mod.bound_lower(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        ex = geoloss_mod.exact_loss(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        upp = geoloss_mod.bound_upper(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        worst = max(worst, low - ex, ex - upp)
    return CheckResult("bound_ordering", worst <= slack,
                       f"max ordering violation {worst:.2e} (slack {slack:.0e})")


def check_orthogonal_collapse(rel_tol: float) -> CheckResult:
    tol = 10 * rel_tol
    mu = geometry.spherical_mean_position(1000.0, 0.0, math.pi / 2)
    o = geometry.tracking_orientation(mu)
    worst = 0.0
    for u in (0.0, 0.05, 0.15, 0.3):
        pose = geometry.Pose(geometry.Position(mu.rx, mu.ry + u, mu.rz), o)
        ex = geoloss_mod.exact_loss(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        low = geoloss_mod.bound_lower(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        upp = geoloss_mod.bound_upper(pose, DEFAULT_BEAM, DEFAULT_DETECTOR, rel_tol)
        worst = max(worst, abs(low - ex), abs(upp - ex))
    return CheckResult("orthogonal_collapse", worst <= tol,
                       f"max |bound - exact| = {worst:.2e} (tol {tol:.0e})")


def check_orthogonal_chi_square(rel_tol: float) -> CheckResult:
    # an oracle without the polar rule: at orthogonal incidence the footprint
    # is a circular Gaussian of sigma = w/2 per axis, w taken at |r| as the
    # kernel takes it, so the capture is P(chi'^2_2(u^2/sigma^2) <= a^2/sigma^2);
    # at u = 0 that is 1 - exp(-2 a^2 / w^2).  Far-field poses only, up to
    # a/w = 20, where chndtr holds (above ~1e-15)
    tol = 10 * rel_tol
    worst, kept = 0.0, 0
    for dist in (300.0, 500.0, 1000.0, 2000.0):
        o = geometry.tracking_orientation(geometry.Position(dist, 0.0, 0.0))
        for a in (0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, dist / 100):
            for u in (k * a for k in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)):
                r = math.hypot(dist, u)
                if beam_mod.far_field_marginal(r, max(u, a)):
                    continue
                sigma = 0.5 * beam_mod.beam_width(DEFAULT_BEAM, r)
                ref = chndtr((a / sigma) ** 2, 2, (u / sigma) ** 2)
                if ref < 1e-15:
                    continue
                pose = geometry.Pose(geometry.Position(dist, u, 0.0), o)
                ex = geoloss_mod.exact_loss(pose, DEFAULT_BEAM,
                                            geoloss_mod.DetectorParams(a), rel_tol)
                worst, kept = max(worst, abs(ex / ref - 1.0)), kept + 1
    return CheckResult("orthogonal_chi_square", worst <= tol,
                       f"max rel err {worst:.2e} over {kept} poses (tol {tol:.0e})")


def _synthetic_pdf(q: float, varpi: float) -> stochastic.GeoLossPdf:
    """Density of Hoyt shape q and width ratio varpi, a0 and w of the default link."""
    a0, w = 0.0787, 0.4935
    lam1 = 1.0
    lam2 = q * q * lam1
    k_mean = varpi * 4.0 * q * (lam1 + lam2) / ((1.0 + q * q) * w * w)
    return stochastic.GeoLossPdf(
        hoyt=stochastic.HoytParams(q=q, omega=lam1 + lam2,
                                   lambda1=lam1, lambda2=lam2),
        a0=a0, k_mean=k_mean, w=w, varpi=varpi)


def _grid_pdfs():
    """Synthetic densities over a (q, varpi) grid."""
    return itertools.starmap(_synthetic_pdf,
                             itertools.product((0.3, 0.7, 1.0), (0.5, 2.0, 10.0)))


def check_pdf_normalization(rel_tol: float) -> CheckResult:
    from scipy.integrate import quad

    worst = 0.0
    for pdf in _grid_pdfs():
        val, _ = quad(stochastic.pdf_hg, 0.0, pdf.a0, args=(pdf,), limit=300)
        worst = max(worst, abs(val - 1.0))
    return CheckResult("pdf_normalization", worst <= 1e-6,
                       f"max |integral - 1| = {worst:.2e} (tol 1e-6)")


def check_cdf_matches_density(rel_tol: float) -> CheckResult:
    from scipy.integrate import quad

    worst = 0.0
    for pdf in _grid_pdfs():
        for frac in (0.01, 0.1, 0.5, 0.9):
            x = frac * pdf.a0
            # 1 - mass above x: quad over (0, x) does not converge on the
            # x**(q*varpi - 1) singularity at 0 for q*varpi = 0.15
            upper, _ = quad(stochastic.pdf_hg, x, pdf.a0, args=(pdf,), limit=300)
            worst = max(worst, abs(float(stochastic.cdf_hg(x, pdf)) - (1.0 - upper)))
    return CheckResult("cdf_matches_density", worst <= 1e-6,
                       f"max |cdf - integral of pdf| = {worst:.2e} (tol 1e-6)")


def check_rayleigh_reduction(rel_tol: float) -> CheckResult:
    worst = 0.0
    for varpi in (0.5, 2.0, 6.0):
        pdf = _synthetic_pdf(1.0, varpi)
        for frac in np.linspace(1e-6, 1.0, 23):
            x = float(frac * pdf.a0)
            full = stochastic.pdf_hg(x, pdf)
            ray = stochastic.pdf_hg_rayleigh(x, varpi, pdf.a0)
            worst = max(worst, abs(full - ray) / max(ray, 1e-300))
    return CheckResult("rayleigh_reduction", worst <= 1e-12,
                       f"max rel gap {worst:.2e} (tol 1e-12)")


def check_linearization_convergence(rel_tol: float) -> CheckResult:
    d = stochastic.PoseDistribution.from_spherical(
        1000.0, math.pi / 8, 5 * math.pi / 8, sigma_p=0.01, sigma_o=1e-4)
    base = np.array([0.02, -0.015, 0.01, 2e-4, -1.5e-4])
    errors = []
    for t in (1.0, 0.5, 0.25):
        eps = t * base
        lin = stochastic.linearized_footprint(d, eps)
        pose = geometry.Pose(
            geometry.Position(d.mu_r.rx + eps[0], d.mu_r.ry + eps[1],
                              d.mu_r.rz + eps[2]),
            geometry.Orientation(d.mu_omega.theta + eps[3],
                                 d.mu_omega.phi + eps[4]))
        f = geometry.footprint_center(pose)
        errors.append(math.hypot(f.fy - lin.fy, f.fz - lin.fz))
    quadratic = errors[1] <= 0.5 * errors[0] and errors[2] <= 0.5 * errors[1]
    return CheckResult("linearization_convergence", quadratic,
                       f"errors {errors[0]:.2e} -> {errors[1]:.2e} -> {errors[2]:.2e}")


def check_approx_bracket(rel_tol: float) -> CheckResult:
    # A0 = erf(nu_min) erf(nu_max), against the C library's erf, which
    # shares no code with scipy's
    ok = True
    worst, worst_a0 = 0.0, 0.0
    for pose in _bound_ordering_poses(40, seed=12):
        ap = geoloss_mod.approx_params(pose, DEFAULT_BEAM, DEFAULT_DETECTOR)
        low, upp = geoloss_mod.approx_bounds(ap)
        mean = geoloss_mod.approx_mean(ap)
        worst = max(worst, low - mean, mean - upp)
        ok = ok and low <= mean <= upp
        worst_a0 = max(worst_a0, abs(ap.a0 / (math.erf(ap.nu_min) * math.erf(ap.nu_max)) - 1.0))
    return CheckResult("approx_bracket", ok and worst_a0 <= 1e-13,
                       f"max bracket violation {worst:.2e}, max a0 rel err "
                       f"{worst_a0:.2e} (tol 1e-13)")


def check_hoyt_sampling_power(rel_tol: float) -> CheckResult:
    # the engine's own perturbations, through the linearized footprint
    d = stochastic.PoseDistribution.from_spherical(
        1000.0, math.pi / 8, 5 * math.pi / 8, sigma_p=0.05, sigma_o=1e-4)
    eps = montecarlo._chunk_eps(2718, 0, 200_000, d.sigmas())
    f = stochastic.linearized_footprint(d, eps.T)
    mean_sq = float(np.mean(f.fy * f.fy + f.fz * f.fz))
    rel = abs(mean_sq / np.trace(stochastic.covariance_sigma(d)) - 1.0)
    return CheckResult("hoyt_sampling_power", rel <= 0.01,
                       f"E[u^2]/Omega - 1 = {rel:.2e} (tol 1e-2)")


def check_sensitivity_ordering(rel_tol: float) -> CheckResult:
    mu_x = 1000.0
    d0 = stochastic.PoseDistribution.from_spherical(mu_x, 0.0, math.pi / 2,
                                                    sigma_p=0.01, sigma_o=1e-4)
    bump = 1e-9
    s0 = stochastic.covariance_sigma(d0)
    d_o = stochastic.PoseDistribution.from_spherical(
        mu_x, 0.0, math.pi / 2, sigma_p=0.01,
        sigma_o=math.sqrt(1e-8 + bump))
    d_p = stochastic.PoseDistribution.from_spherical(
        mu_x, 0.0, math.pi / 2, sigma_p=math.sqrt(1e-4 + bump), sigma_o=1e-4)
    dl_do = (stochastic.covariance_sigma(d_o)[0, 0] - s0[0, 0]) / bump
    dl_dp = (stochastic.covariance_sigma(d_p)[0, 0] - s0[0, 0]) / bump
    ratio = dl_do / dl_dp
    ok = abs(dl_do - mu_x**2) / mu_x**2 <= 1e-3 and abs(dl_dp - 1.0) <= 1e-3 \
        and ratio > 1e4
    return CheckResult(
        "sensitivity_ordering", ok,
        f"dVar/dsigma_o^2 = {dl_do:.4g} (mu_x^2 = {mu_x**2:.4g}), "
        f"dVar/dsigma_p^2 = {dl_dp:.4g}")


ALL_CHECKS = (
    check_eig_trace_det,
    check_disk_rotation_invariance,
    check_tracking_round_trip,
    check_footprint_affine,
    check_ellipse_identity,
    check_energy_conservation,
    check_bound_ordering,
    check_orthogonal_collapse,
    check_orthogonal_chi_square,
    check_pdf_normalization,
    check_cdf_matches_density,
    check_rayleigh_reduction,
    check_linearization_convergence,
    check_approx_bracket,
    check_hoyt_sampling_power,
    check_sensitivity_ordering,
)


def run_validation(rel_tol: float = geoloss_mod.DEFAULT_REL_TOL) -> list[CheckResult]:
    """Run every check; quadrature-based tolerances scale with rel_tol.

    A check that cannot finish, because a quadrature does not converge or a
    warning is raised as an error, is that check's failed row, named as its
    function without the `check_` prefix, and the other checks still run.
    """
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(rel_tol))
        except (numerics.QuadratureError, Warning) as e:
            results.append(CheckResult(check.__name__.removeprefix("check_"), False,
                                       f"{type(e).__name__}: {e}"))
    return results
