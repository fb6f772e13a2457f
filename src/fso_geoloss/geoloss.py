"""Deterministic geometric loss of the optical link.

`exact_loss` integrates the projected beam intensity over the circular
detector.  The rotated-ellipse bounds replace the tilted intensity contour
by best/worst aligned ellipses with the same axis coefficients, and the
closed-form approximations collapse those bound integrals into
A0 * exp(-2 u^2 / (k w^2)) kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import beam as beam_mod
from . import geometry
from .beam import BeamParams, ellipse_params, intensity_on_pd
from .geometry import Pose, footprint_center
from .numerics import disk_quadrature

DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True)
class DetectorParams:
    """Circular photo-detector of radius a [m], centered at the origin."""

    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"detector radius must be positive, got {self.a!r}")


@dataclass(frozen=True)
class ApproxParams:
    """Ingredients of the closed-form loss approximations.

    a0 is the captured fraction for a centered footprint, k_min/k_max/k_mean
    the effective width scalings, nu_min/nu_max the corresponding erf
    arguments, u the footprint offset and w the beam width at the link
    distance.  A k is +inf when its nu is so large (>~ 27) that exp(-nu^2)
    underflows; the kernels then return exactly a0, their limit there.
    """

    a0: float
    k_min: float
    k_max: float
    k_mean: float
    nu_min: float
    nu_max: float
    u: float
    w: float


@dataclass(frozen=True)
class ChannelInputs:
    """Externally supplied channel factors: responsivity eta, deterministic
    path loss hp in (0, 1], turbulence loss ha >= 0."""

    eta: float
    hp: float
    ha: float

    def __post_init__(self):
        if self.eta < 0 or not 0.0 < self.hp <= 1.0 or self.ha < 0:
            raise ValueError(f"invalid channel inputs: {self}")


def exact_loss(p: Pose, b: BeamParams, d: DetectorParams,
               rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Fraction of transmitted power captured by the detector."""
    est = disk_quadrature(lambda y, z: intensity_on_pd((y, z), p, b), d.a, rel_tol)
    return min(max(float(est), 0.0), 1.0)


def _bound(p: Pose, b: BeamParams, d: DetectorParams, rel_tol: float,
           rho_along: float, rho_across: float) -> float:
    """Loss for an axis-aligned contour ellipse displaced by u along the
    first axis; rho_along/rho_across are the inverse axis coefficients."""
    ep = ellipse_params(p.orientation)
    u = footprint_center(p).offset()
    w2 = beam_mod.beam_width(b, p.position.norm()) ** 2
    pref = 2.0 * math.sin(ep.psi) / (math.pi * w2)

    def integrand(y, z):
        return pref * np.exp(-2.0 / w2 * ((y - u) ** 2 / rho_along + z**2 / rho_across))

    est = disk_quadrature(integrand, d.a, rel_tol)
    return min(max(float(est), 0.0), 1.0)


def bound_lower(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Lower bound: contour major axis perpendicular to the offset direction."""
    ep = ellipse_params(p.orientation)
    return _bound(p, b, d, rel_tol, ep.rho_min, ep.rho_max)


def bound_upper(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Upper bound: contour major axis along the offset direction."""
    ep = ellipse_params(p.orientation)
    return _bound(p, b, d, rel_tol, ep.rho_max, ep.rho_min)


def _nu(a: float, w, rho):
    return a / w * np.sqrt(math.pi / (2.0 * rho))


def _k(rho, nu, erf_nu):
    # exp(-nu^2) underflows to 0 for nu >~ 27, where k = inf is the right limit
    with np.errstate(divide="ignore"):
        return math.sqrt(math.pi) * rho * erf_nu / (2.0 * nu * np.exp(-nu * nu))


def approx_params(p: Pose, b: BeamParams, d: DetectorParams) -> ApproxParams:
    """Closed-form approximation parameters for pose `p`."""
    ep = ellipse_params(p.orientation)
    u = footprint_center(p).offset()
    w = beam_mod.beam_width(b, p.position.norm())
    nu_min = _nu(d.a, w, ep.rho_min)
    nu_max = _nu(d.a, w, ep.rho_max)
    erf_min = erf(nu_min)
    erf_max = erf(nu_max)
    k_min = _k(ep.rho_min, nu_min, erf_min)
    k_max = _k(ep.rho_max, nu_max, erf_max)
    return ApproxParams(
        a0=float(erf_min * erf_max),
        k_min=float(k_min),
        k_max=float(k_max),
        k_mean=float(0.5 * (k_min + k_max)),
        nu_min=float(nu_min),
        nu_max=float(nu_max),
        u=u,
        w=w,
    )


def approx_bounds(ap: ApproxParams) -> tuple[float, float]:
    """Closed-form (lower, upper) loss approximations."""
    w2 = ap.w * ap.w
    low = ap.a0 * math.exp(-2.0 * ap.u**2 / (ap.k_min * w2))
    upp = ap.a0 * math.exp(-2.0 * ap.u**2 / (ap.k_max * w2))
    return low, upp


def approx_mean(ap: ApproxParams) -> float:
    """Closed-form loss approximation with the averaged width scaling."""
    return ap.a0 * math.exp(-2.0 * ap.u**2 / (ap.k_mean * ap.w * ap.w))


def channel_coefficient(c: ChannelInputs, hg: float) -> float:
    """Composite channel coefficient eta * hp * ha * hg."""
    if hg < 0:
        raise ValueError(f"geometric loss must be non-negative, got {hg!r}")
    return c.eta * c.hp * c.ha * hg


def loss_db(hg: float) -> float:
    """Loss in decibels, -10*log10(hg); 0 maps to +inf."""
    if hg < 0:
        raise ValueError(f"loss must be non-negative, got {hg!r}")
    if hg == 0.0:
        return math.inf
    return -10.0 * math.log10(hg)


def exact_loss_batch(rx, ry, rz, theta, phi, b: BeamParams, d: DetectorParams,
                     rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Vectorized `exact_loss` over per-trial pose arrays.

    All pose arrays share shape (n,).  The batch is converged together, so
    a trial's refinement level can depend on its batch mates; callers that
    need reproducible values must keep batch composition fixed.
    """
    rx, ry, rz = np.asarray(rx, float), np.asarray(ry, float), np.asarray(rz, float)
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    fy, fz = geometry.footprint_yz(rx, ry, rz, theta, phi)
    rho_y, rho_z, rho_yz = beam_mod.ellipse_coefficients(theta, phi)
    sin_psi = np.abs(np.sin(phi) * np.cos(theta))
    dist = np.sqrt(rx * rx + ry * ry + rz * rz)
    w2 = beam_mod.beam_width(b, dist) ** 2
    pref = sin_psi * 2.0 / (math.pi * w2)
    reach = max(float(np.max(np.hypot(fy, fz))), d.a)
    if float(np.min(dist)) < beam_mod.VALIDITY_FACTOR * reach:
        warnings.warn(
            f"far-field assumption is marginal for some trials: min distance "
            f"{float(np.min(dist)):.3g} m vs reach {reach:.3g} m",
            stacklevel=2,
        )

    c_y = (rho_y * 2.0 / w2)[:, None]
    c_z = (rho_z * 2.0 / w2)[:, None]
    c_yz = (rho_yz * 4.0 / w2)[:, None]
    fy_c, fz_c = fy[:, None], fz[:, None]

    def integrand(y, z):
        yt = y[None, :] - fy_c
        zt = z[None, :] - fz_c
        return pref[:, None] * np.exp(-(c_y * yt * yt + c_z * zt * zt + c_yz * yt * zt))

    est = disk_quadrature(integrand, d.a, rel_tol)
    return np.clip(est, 0.0, 1.0)


def approx_mean_batch(rx, ry, rz, theta, phi, b: BeamParams,
                      d: DetectorParams) -> np.ndarray:
    """Vectorized per-pose evaluation of the `approx_mean` kernel."""
    rx, ry, rz = np.asarray(rx, float), np.asarray(ry, float), np.asarray(rz, float)
    theta, phi = np.asarray(theta, float), np.asarray(phi, float)
    fy, fz = geometry.footprint_yz(rx, ry, rz, theta, phi)
    rho_y, rho_z, rho_yz = beam_mod.ellipse_coefficients(theta, phi)
    det = (np.sin(phi) * np.cos(theta)) ** 2
    rho_min, rho_max = beam_mod.ellipse_axes(rho_y, rho_z, rho_yz, det)
    w = beam_mod.beam_width(b, np.sqrt(rx * rx + ry * ry + rz * rz))
    nu_min = _nu(d.a, w, rho_min)
    nu_max = _nu(d.a, w, rho_max)
    erf_min = erf(nu_min)
    erf_max = erf(nu_max)
    k_mean = 0.5 * (_k(rho_min, nu_min, erf_min) + _k(rho_max, nu_max, erf_max))
    u2 = fy * fy + fz * fz
    return erf_min * erf_max * np.exp(-2.0 * u2 / (k_mean * w * w))
