"""Deterministic geometric loss of the optical link.

`exact_loss` integrates the projected beam intensity over the circular
detector.  The rotated-ellipse bounds replace the tilted intensity contour
by best/worst aligned ellipses with the same axis coefficients; they and
both exact kernels integrate one Gaussian quadratic form, `_capture`.  The
closed-form approximations collapse the bound integrals into
A0 * exp(-2 u^2 / (k w^2)) kernels, computed once in `_approx`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import beam as beam_mod
from . import geometry
from .beam import (
    BeamParams,
    ellipse_params,
    intensity_on_pd,  # unused here; perfbench's tracing.TARGETS hooks geoloss.intensity_on_pd
)
from .geometry import Pose, footprint_center
from .numerics import BLOCK, disk_quadrature

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


def _gauss(y, z, pref, c_y, c_z, c_yz, fy, fz, out=None):
    yt = y - fy
    zt = z - fz
    return np.multiply(pref, np.exp(-(c_y * yt * yt + c_z * zt * zt + c_yz * yt * zt)), out=out)


def _capture(pref, c_y, c_z, c_yz, fy, fz, a: float, rel_tol: float):
    """pref * exp(-(c_y yt^2 + c_z zt^2 + c_yz yt zt)), (yt, zt) = (y - fy,
    z - fz), integrated over the radius-`a` disk and clipped to [0, 1]: one
    float for float coefficients, n losses for (n, 1) columns.

    For columns the integrand fills its (n, nodes) output `BLOCK // nodes`
    rows at a time, so its temporaries stay in cache; every element is the
    same expression of the same operands as unblocked, hence bit-identical,
    and a trial's bits do not depend on its row."""
    if not isinstance(pref, np.ndarray):
        est = disk_quadrature(lambda y, z: _gauss(y, z, pref, c_y, c_z, c_yz, fy, fz),
                              a, rel_tol)
        return min(max(est, 0.0), 1.0)

    def integrand(y, z):
        out = np.empty((len(pref), len(y)))
        step = max(1, BLOCK // len(y))
        for s in range(0, len(pref), step):
            e = s + step
            _gauss(y, z, pref[s:e], c_y[s:e], c_z[s:e], c_yz[s:e], fy[s:e], fz[s:e],
                   out=out[s:e])
        return out

    est = disk_quadrature(integrand, a, rel_tol)
    return np.clip(est, 0.0, 1.0)


def exact_loss(p: Pose, b: BeamParams, d: DetectorParams,
               rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Fraction of transmitted power captured by the detector."""
    ep = ellipse_params(p.orientation)
    f = footprint_center(p)
    distance = p.position.norm()
    beam_mod.check_far_field(distance, max(f.offset(), d.a))
    w2 = beam_mod.beam_width(b, distance) ** 2
    return _capture(2.0 * math.sin(ep.psi) / (math.pi * w2), 2.0 * ep.rho_y / w2,
                    2.0 * ep.rho_z / w2, 4.0 * ep.rho_yz / w2, f.fy, f.fz, d.a, rel_tol)


def _bound(p: Pose, b: BeamParams, d: DetectorParams, rel_tol: float,
           upper: bool) -> float:
    """Loss for the contour ellipse turned so that its major axis lies along
    (upper) or across (lower) the offset direction, the offset on y."""
    ep = ellipse_params(p.orientation)
    rho_along, rho_across = (ep.rho_max, ep.rho_min) if upper else (ep.rho_min, ep.rho_max)
    w2 = beam_mod.beam_width(b, p.position.norm()) ** 2
    return _capture(2.0 * math.sin(ep.psi) / (math.pi * w2), 2.0 / (w2 * rho_along),
                    2.0 / (w2 * rho_across), 0.0, footprint_center(p).offset(), 0.0,
                    d.a, rel_tol)


def bound_lower(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Contour major axis across the offset: `exact_loss` at the un-rotated
    pose theta = 0, phi = psi placed at (t sin psi, u, t cos psi), with
    t = sqrt(L^2 - u^2) for p's incidence angle psi, distance L and offset
    u.  Not ordered against `bound_upper` once a is comparable to w (they
    cross at a = 0.6 m, w = 0.49 m)."""
    return _bound(p, b, d, rel_tol, upper=False)


def bound_upper(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Contour major axis along the offset: `exact_loss` at theta = 0,
    phi = psi placed at (t' sin psi, 0, u + t' cos psi), with
    t' = -u cos psi + sqrt(L^2 - u^2 sin^2 psi).  Ordered as a bound only
    while a is small against w; see `bound_lower`."""
    return _bound(p, b, d, rel_tol, upper=True)


def _approx(a: float, w, rho_min, rho_max):
    """Closed-form (a0, k_min, k_max, nu_min, nu_max) for floats or arrays."""
    nu_min = a / w * np.sqrt(math.pi / (2.0 * rho_min))
    nu_max = a / w * np.sqrt(math.pi / (2.0 * rho_max))
    erf_min, erf_max = erf(nu_min), erf(nu_max)
    # exp(-nu^2) underflows to 0 for nu >~ 27, where k = inf is the right limit
    with np.errstate(divide="ignore"):
        k_min = math.sqrt(math.pi) * rho_min * erf_min / (2.0 * nu_min * np.exp(-nu_min * nu_min))
        k_max = math.sqrt(math.pi) * rho_max * erf_max / (2.0 * nu_max * np.exp(-nu_max * nu_max))
    return erf_min * erf_max, k_min, k_max, nu_min, nu_max


def approx_params(p: Pose, b: BeamParams, d: DetectorParams) -> ApproxParams:
    """Closed-form approximation parameters for pose `p`."""
    ep = ellipse_params(p.orientation)
    u = footprint_center(p).offset()
    w = beam_mod.beam_width(b, p.position.norm())
    a0, k_min, k_max, nu_min, nu_max = map(float, _approx(d.a, w, ep.rho_min, ep.rho_max))
    return ApproxParams(a0, k_min, k_max, 0.5 * (k_min + k_max), nu_min, nu_max, u, w)


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
    dist = np.sqrt(rx * rx + ry * ry + rz * rz)
    w2 = beam_mod.beam_width(b, dist) ** 2
    pref = np.abs(np.sin(phi) * np.cos(theta)) * 2.0 / (math.pi * w2)
    # initial= lets a chunk of only degenerate trials pass an empty batch
    reach = max(float(np.max(np.hypot(fy, fz), initial=0.0)), d.a)
    beam_mod.check_far_field(float(np.min(dist, initial=math.inf)), reach)
    return _capture(pref[:, None], (rho_y * 2.0 / w2)[:, None], (rho_z * 2.0 / w2)[:, None],
                    (rho_yz * 4.0 / w2)[:, None], fy[:, None], fz[:, None], d.a, rel_tol)


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
    a0, k_min, k_max, _nu_min, _nu_max = _approx(d.a, w, rho_min, rho_max)
    u2 = fy * fy + fz * fz
    return a0 * np.exp(-2.0 * u2 / (0.5 * (k_min + k_max) * w * w))
