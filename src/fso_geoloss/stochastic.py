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
from .numerics import SymMatrix2, eig_sym2

# perfect tracking must hold to within this footprint distance [m]
TRACKING_TOL = 1e-9

# mean angles closer than this to the constants' poles are rejected
POLE_TOL = 1e-9


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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
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


def covariance_sigma(d: PoseDistribution) -> SymMatrix2:
    """Covariance of the linearized footprint coordinates (fy, fz)."""
    c1, c2, c3, c4, c5 = tracking_constants(d)
    vx, vy, vz = d.sigma_x**2, d.sigma_y**2, d.sigma_z**2
    vt, vp = d.sigma_theta**2, d.sigma_phi**2
    return SymMatrix2(
        a11=vy + c1 * c1 * vx + c2 * c2 * vt,
        a12=c1 * c5 * vx + c2 * c4 * vt,
        a22=vz + c3 * c3 * vp + c4 * c4 * vt + c5 * c5 * vx,
    )


def linearized_footprint(d: PoseDistribution, eps) -> FootprintCenter:
    """First-order footprint for pose perturbation eps = (ex, ey, ez, et, ep)."""
    c1, c2, c3, c4, c5 = tracking_constants(d)
    ex, ey, ez, et, ep = eps
    return FootprintCenter(
        fy=ey + c1 * ex + c2 * et,
        fz=ez + c3 * ep + c4 * et + c5 * ex,
    )


def hoyt_params(sigma: SymMatrix2) -> HoytParams:
    """Hoyt parameters from a positive-semidefinite footprint covariance."""
    scale = max(abs(sigma.a11), abs(sigma.a22), abs(sigma.a12))
    if scale == 0.0:
        raise ValueError("zero covariance matrix: the offset is deterministic")
    if not sigma.is_psd(tol=1e-12 * scale):
        raise ValueError(f"covariance matrix is not positive semidefinite: {sigma}")
    lam1, lam2 = eig_sym2(sigma)
    lam2 = max(lam2, 0.0)
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
