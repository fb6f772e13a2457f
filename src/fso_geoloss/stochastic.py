"""Statistical model of the geometric loss under pose jitter.

Position and orientation fluctuate as independent Gaussians around a
perfect-tracking mean pose.  Linearizing the footprint around that mean
makes the footprint offset coordinates jointly Gaussian with covariance
`covariance_sigma`; the offset norm is then Hoyt distributed and the loss
follows the closed-form density `pdf_hg` supported on (0, A0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e, ndtri

from . import geoloss as geoloss_mod
from .beam import BeamParams
from .geometry import (
    FootprintCenter,
    Orientation,
    Pose,
    Position,
    footprint_center,
    spherical_mean_position,
    tracking_orientation,
)
from .geoloss import DetectorParams
from .numerics import QuadratureError

# perfect tracking must hold to within this footprint distance [m]
TRACKING_TOL = 1e-9

# mean angles closer than this to the constants' poles are rejected
POLE_TOL = 1e-9

# trapezoid rule of `cdf_hg`: first node count, doubling cap, and the
# relative change between successive doublings that ends them
CDF_NODES_START = 64
CDF_NODES_MAX = 1 << 14
CDF_REL_TOL = 1e-12


class DegenerateTrackingError(ValueError):
    """Mean pose puts the linearization constants at a pole."""


@dataclass(frozen=True)
class PoseDistribution:
    """Independent Gaussian pose fluctuations around a tracking mean.

    The mean orientation is not free: it must aim the beam line at the
    detector center for the mean position (checked on construction).
    """

    mu_r: Position
    mu_omega: Orientation
    sigma_x: float = 0.0
    sigma_y: float = 0.0
    sigma_z: float = 0.0
    sigma_theta: float = 0.0
    sigma_phi: float = 0.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y", "sigma_z", "sigma_theta", "sigma_phi"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        f = footprint_center(Pose(self.mu_r, self.mu_omega))
        if f.offset() > TRACKING_TOL:
            raise ValueError(
                f"mean orientation is not tracking the detector center "
                f"(footprint offset {f.offset():.3e} m)"
            )

    @classmethod
    def from_spherical(cls, radius: float, alpha: float, beta: float,
                       sigma_p: float = 0.0, sigma_o: float = 0.0):
        """Distribution for a drone at spherical (R, alpha, beta) with a
        common position std sigma_p [m] and orientation std sigma_o [rad]."""
        mu_r = spherical_mean_position(radius, alpha, beta)
        return cls(
            mu_r=mu_r,
            mu_omega=tracking_orientation(mu_r),
            sigma_x=sigma_p,
            sigma_y=sigma_p,
            sigma_z=sigma_p,
            sigma_theta=sigma_o,
            sigma_phi=sigma_o,
        )

    def sigmas(self) -> np.ndarray:
        return np.array([self.sigma_x, self.sigma_y, self.sigma_z,
                         self.sigma_theta, self.sigma_phi])


@dataclass(frozen=True)
class HoytParams:
    """Hoyt (Nakagami-q) parameters of the footprint offset norm."""

    q: float
    omega: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class GeoLossPdf:
    """Closed-form loss density parameters; support is (0, a0]."""

    hoyt: HoytParams
    a0: float
    k_mean: float
    w: float
    varpi: float


def tracking_constants(d: PoseDistribution) -> tuple[float, float, float, float, float]:
    """First-order footprint sensitivities (c1..c5) at the mean pose.

    c1, c2 drive fy (via x-position and theta); c3..c5 drive fz (via phi,
    theta, and x-position).
    """
    mt, mp = d.mu_omega.theta, d.mu_omega.phi
    ct, st = math.cos(mt), math.sin(mt)
    sp = math.sin(mp)
    if min(abs(ct), abs(sp)) < POLE_TOL:
        raise DegenerateTrackingError(
            f"tracking constants undefined at mu_theta={mt!r}, mu_phi={mp!r}"
        )
    mu_x = d.mu_r.rx
    tan_t = st / ct
    cot_p = math.cos(mp) / sp
    c1 = -tan_t
    c2 = -mu_x / (ct * ct)
    c3 = mu_x / (sp * sp * ct)
    c4 = -mu_x * cot_p * tan_t / ct
    c5 = -cot_p / ct
    return c1, c2, c3, c4, c5


def _footprint_jacobian(d: PoseDistribution) -> np.ndarray:
    """J = d(fy, fz)/d(x, y, z, theta, phi) at the mean pose, a (2, 5) array
    with columns in `PoseDistribution.sigmas()` order: the footprint of a
    pose perturbation eps is J @ eps to first order."""
    c1, c2, c3, c4, c5 = tracking_constants(d)
    return np.array([[c1, 1.0, 0.0, c2, 0.0],
                     [c5, 0.0, 1.0, c4, c3]])


def covariance_sigma(d: PoseDistribution) -> np.ndarray:
    """Covariance J S J^T of the linearized footprint coordinates (fy, fz),
    S the diagonal pose covariance, as a (2, 2) array."""
    j = _footprint_jacobian(d)
    return (j * d.sigmas() ** 2) @ j.T


def linearized_footprint(d: PoseDistribution, eps) -> FootprintCenter:
    """First-order footprint J @ eps for pose perturbations
    eps = (ex, ey, ez, et, ep), of shape (5,) or (5, n)."""
    return FootprintCenter(*(_footprint_jacobian(d) @ eps))


def hoyt_params(sigma) -> HoytParams:
    """Hoyt parameters from a positive-semidefinite footprint covariance, a
    finite (2, 2) array symmetric to 1e-12 of its largest entry."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2) or not np.isfinite(sigma).all():
        raise ValueError(f"covariance must be a finite (2, 2) array, got {sigma.tolist()}")
    (a11, a12), (a21, a22) = sigma.tolist()
    scale = float(np.abs(sigma).max())
    if scale == 0.0:
        raise ValueError("zero covariance matrix: the offset is deterministic")
    tol = 1e-12 * scale
    det = a11 * a22 - a12 * a21
    if abs(a12 - a21) > tol:
        raise ValueError(f"covariance matrix is not symmetric: {sigma.tolist()}")
    if min(a11, a22, det) < -tol:
        raise ValueError(f"covariance matrix is not positive semidefinite: {sigma.tolist()}")
    # closed-form eigenvalues, largest first; lambda2 as det / lambda1, since
    # mean - disc cancels when lambda2 << lambda1, capped at lambda1, which a
    # rounded det / lambda1 can pass by an ulp when the two are equal
    lam1 = 0.5 * (a11 + a22) + math.hypot(0.5 * (a11 - a22), a12)
    lam2 = min(max(det, 0.0) / lam1, lam1)
    if lam2 == 0.0:
        raise ValueError(
            "covariance matrix is singular: the offset norm is not Hoyt distributed"
        )
    return HoytParams(
        q=math.sqrt(lam2 / lam1),
        omega=lam1 + lam2,
        lambda1=lam1,
        lambda2=lam2,
    )


def geoloss_pdf(d: PoseDistribution, b: BeamParams, det: DetectorParams) -> GeoLossPdf:
    """Analytic loss density with A0 and k_mean frozen at the mean pose."""
    ap = geoloss_mod.approx_params(Pose(d.mu_r, d.mu_omega), b, det)
    hp = hoyt_params(covariance_sigma(d))
    varpi = (1.0 + hp.q**2) * ap.k_mean * ap.w**2 / (4.0 * hp.q * hp.omega)
    return GeoLossPdf(hoyt=hp, a0=ap.a0, k_mean=ap.k_mean, w=ap.w, varpi=varpi)


def pdf_hg(x: float, p: GeoLossPdf) -> float:
    """Density of the approximate loss at x; 0 for x > a0, error for x <= 0."""
    if x <= 0.0:
        raise ValueError(f"density undefined at x={x!r}; support is (0, a0]")
    if x > p.a0:
        return 0.0
    if x < 1e-300 * p.a0:
        return 0.0
    q, varpi = p.hoyt.q, p.varpi
    log_ratio = math.log(x / p.a0)
    # log I0(z) = z + log i0e(z); folding z into the power, whose exponent
    # becomes q*varpi - 1, leaves no two large terms to cancel
    bessel_arg = -(1.0 - q * q) * varpi / (2.0 * q) * log_ratio
    log_pdf = (
        math.log(varpi / p.a0)
        + (q * varpi - 1.0) * log_ratio
        + math.log(i0e(bessel_arg))
    )
    if log_pdf < -745.0:
        return 0.0
    return math.exp(log_pdf)


def cdf_hg(x, p: GeoLossPdf):
    """P(loss <= x) of the approximate loss, vectorized over x.

    In polar coordinates of the standard normal pair behind the Hoyt offset,
    with r = x/a0, F = r**(q*varpi) * (1/pi) * int_0^pi r**(q*varpi*g(t)) dt
    where g = (1 - q^2) sin^2 t / (cos^2 t + q^2 sin^2 t); F = (x/a0)**varpi
    at q = 1, F = 0 for x <= 0 and F = 1 for x >= a0.  The integrand is
    smooth and pi-periodic, so the trapezoid rule converges spectrally; its
    nodes nest under doubling, and each x doubles on its own until two
    estimates agree to CDF_REL_TOL, so F(x) does not depend on the other x.
    Raises QuadratureError past CDF_NODES_MAX nodes, which only q below
    about 1e-3 (near-grazing incidence) needs.
    """
    x = np.asarray(x, dtype=float)
    r = np.clip(x.ravel() / p.a0, 0.0, 1.0)
    q = p.hoyt.q
    power = q * p.varpi
    out = r**power
    # where r**power underflows, F (which is at most r**power) is 0 as well
    inner = (out > 0.0) & (r < 1.0)
    ri = r[inner][:, None]

    def node_sum(rows, n, offset):
        s2 = np.sin((np.arange(n) + offset) * (math.pi / n)) ** 2
        g = (1.0 - q * q) * s2 / (1.0 - (1.0 - q * q) * s2)
        return np.sum(ri[rows] ** (power * g), axis=1)

    n = CDF_NODES_START
    active = np.arange(ri.shape[0])
    sums = node_sum(active, n, 0.0)
    mean = sums / n
    while active.size:
        if n >= CDF_NODES_MAX:
            raise QuadratureError(
                f"cdf_hg: {active.size} points unconverged at {n} nodes",
                mean[active], np.nan)
        sums = sums + node_sum(active, n, 0.5)
        n *= 2
        new = sums / n
        done = np.abs(new - mean[active]) <= CDF_REL_TOL * new
        mean[active] = new
        active, sums = active[~done], sums[~done]
    out[inner] *= mean
    return out.reshape(x.shape)[()]


def pdf_hg_rayleigh(x: float, rho_param: float, a0: float) -> float:
    """Equal-eigenvalue special case: pure power-law density on (0, a0]."""
    if x <= 0.0:
        raise ValueError(f"density undefined at x={x!r}; support is (0, a0]")
    if rho_param <= 0.0:
        raise ValueError(f"rho_param must be positive, got {rho_param!r}")
    if x > a0:
        return 0.0
    return rho_param / a0 * (x / a0) ** (rho_param - 1.0)


def raw_to_open_uniform(raw) -> np.ndarray:
    """Map uint64 draws to doubles strictly inside (0, 1)."""
    return ((np.asarray(raw, dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
            + 0.5) * 2.0**-53


def gaussian_from_uniforms(u: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of open-interval uniforms to N(0, sigma^2)."""
    return ndtri(u) * sigmas
