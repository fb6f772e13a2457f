"""Deterministic geometric loss of the optical link.

Every kernel, for one pose or a batch, reads the pose through one
derivation, `_pose_form`.  `exact_loss` integrates the projected intensity
over the circular detector; the rotated-ellipse bounds replace its tilted
contour by best/worst aligned ellipses, and all three integrate through
`_capture`.  The closed-form approximations collapse the bound integrals
into A0 * exp(-2 u^2 / (k w^2)): `_approx` gives A0 and k, `_closed_form` the kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import beam as beam_mod
from . import geometry
from .beam import (
    BeamParams,
    ellipse_params,  # unused here; perfbench's tracing.TARGETS hooks geoloss.ellipse_params
    intensity_on_pd,  # unused here; perfbench's tracing.TARGETS hooks geoloss.intensity_on_pd
)
from .geometry import Pose
from .geometry import footprint_center  # unused here; perfbench's tracing.TARGETS hooks geoloss.footprint_center
from .numerics import BLOCK, disk_quadrature, quadratic_basis

DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True)
class DetectorParams:
    """Circular photo-detector of radius a [m], centered at the origin."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"detector radius must be positive and finite, got {self.a!r}")


@dataclass(frozen=True)
class ApproxParams:
    """Ingredients of the closed-form loss approximations.

    a0 is the captured fraction for a centered footprint, k_min/k_max/k_mean
    the effective width scalings, nu_min/nu_max the corresponding erf
    arguments, u the footprint offset, u2 = fy^2 + fz^2 and w the beam width
    at the link distance.  A k is +inf when its nu is so large (>~ 27) that
    exp(-nu^2) underflows; the kernels then return exactly a0, their limit.
    """

    a0: float
    k_min: float
    k_max: float
    k_mean: float
    nu_min: float
    nu_max: float
    u: float
    u2: float
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


_Form = namedtuple("_Form", "s fy fz u rho_y rho_z rho_yz rho_min rho_max dist w")


def _pose_form(rx, ry, rz, theta, phi, b: BeamParams) -> _Form:
    """Kernel inputs, elementwise over float or (n,) array pose coordinates,
    with the incidence sine s computed once, by `geometry`'s grazing rule,
    which raises DegenerateGeometryError if any pose grazes the detector plane."""
    s = geometry.checked_incidence_sine(theta, phi)
    fy, fz = geometry.footprint_yz(rx, ry, rz, theta, phi)
    rho_y, rho_z, rho_yz = beam_mod.ellipse_coefficients(theta, phi)
    rho_min, rho_max = beam_mod.ellipse_axes(rho_y, rho_z, rho_yz, s * s)
    dist = np.sqrt(rx * rx + ry * ry + rz * rz)
    return _Form(s, fy, fz, np.hypot(fy, fz), rho_y, rho_z, rho_yz, rho_min, rho_max,
                 dist, beam_mod.beam_width(b, dist))


def _coords(p: Pose):
    return p.position.rx, p.position.ry, p.position.rz, p.orientation.theta, p.orientation.phi


def _capture(f: _Form, a: float, rel_tol: float):
    """Form f's projected intensity 2 s / (pi w^2) exp(-2 (rho_y yt^2 + rho_z
    zt^2 + 2 rho_yz yt zt) / w^2), (yt, zt) = (y - fy, z - fz), integrated
    over the radius-`a` disk and clipped to [0, 1]: a float for a float form,
    n losses for (n,) arrays, whose row blocks `disk_quadrature` streams.

    The exponent, log prefactor included, is expanded into one coefficient
    row per pose against `quadratic_basis`' (y^2, z^2, yz, y, z, 1, log w),
    with a coefficient of 1 on log w, so each block is one matrix product
    into this call's scratch and one in-place exp, which is already the
    intensity times the rule's weights that `disk_quadrature` sums.  A pose's
    bits do not depend on its row: a lone row (the float path included) is
    doubled, as a 1-row product takes BLAS's matrix-vector path, whose bits
    differ, and no product has more than `BLOCK` elements, far below the
    size at which BLAS spreads one over threads."""
    w2 = f.w * f.w
    c_y, c_z, c_yz = f.rho_y * 2.0 / w2, f.rho_z * 2.0 / w2, f.rho_yz * 4.0 / w2
    fy, fz = f.fy, f.fz
    batch = isinstance(f.s, np.ndarray)
    coef = (-c_y, -c_z, -c_yz, 2.0 * c_y * fy + c_yz * fz, 2.0 * c_z * fz + c_yz * fy,
            np.log(f.s * 2.0 / (math.pi * w2))
            - (c_y * fy * fy + c_z * fz * fz + c_yz * fy * fz),
            np.ones_like(f.s) if batch else 1.0)  # ones_like on a float costs ~3 us
    coef = np.stack(coef, axis=-1) if batch else np.array((coef, coef))
    v = np.empty((0, 0))

    def integrand(y, z, _w, rows=None):
        nonlocal v
        c = coef if rows is None else coef[rows]
        k = len(c) if batch else 1
        if len(c) == 1:
            c = np.concatenate((c, c))
        if len(v) < len(c) or v.shape[1] != len(y):
            v = np.empty((len(c), len(y)))
        basis, step = quadratic_basis(len(y), a), BLOCK // len(c)
        for s in range(0, len(y), step):
            np.matmul(c, basis[:, s:s + step], out=v[:len(c), s:s + step])
        np.exp(v[:k], out=v[:k])
        return v[:k] if batch else v[0]

    if not batch:
        return min(max(disk_quadrature(integrand, a, rel_tol), 0.0), 1.0)
    return np.clip(disk_quadrature(integrand, a, rel_tol, len(f.s)), 0.0, 1.0)


def exact_loss(p: Pose, b: BeamParams, d: DetectorParams,
               rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Fraction of transmitted power captured by the detector."""
    f = _pose_form(*_coords(p), b)
    beam_mod.check_far_field(f.dist, max(f.u, d.a))
    return _capture(f, d.a, rel_tol)


def _bound(p: Pose, b: BeamParams, d: DetectorParams, rel_tol: float,
           upper: bool) -> float:
    """Capture of the contour ellipse turned so that its major axis lies
    along (upper) or across (lower) the offset direction, the offset on y."""
    f = _pose_form(*_coords(p), b)
    along, across = (f.rho_max, f.rho_min) if upper else (f.rho_min, f.rho_max)
    return _capture(f._replace(rho_y=1.0 / along, rho_z=1.0 / across, rho_yz=0.0,
                               fy=f.u, fz=0.0), d.a, rel_tol)


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


def _closed_form(a0, u2, k, w):
    """A0 exp(-2 u^2 / (k w^2)) for floats or arrays, u2 = fy^2 + fz^2."""
    return a0 * np.exp(-2.0 * u2 / (k * w * w))


def approx_params(p: Pose, b: BeamParams, d: DetectorParams) -> ApproxParams:
    """Closed-form approximation parameters for pose `p`.

    k_min <= k_max holds only while a is small against w.  At 1 km, alpha =
    pi/4, beta = pi/2 and footprint offset (0.1, 0.1) m, where w = 0.49 m,
    a = 0.5 m gives k_min 3.25 <= k_max 3.52 but a = 0.6 m gives 5.74 > 4.58."""
    f = _pose_form(*_coords(p), b)
    a0, k_min, k_max, nu_min, nu_max = map(float, _approx(d.a, f.w, f.rho_min, f.rho_max))
    return ApproxParams(a0, k_min, k_max, 0.5 * (k_min + k_max), nu_min, nu_max,
                        float(f.u), float(f.fy * f.fy + f.fz * f.fz), f.w)


def approx_bounds(ap: ApproxParams) -> tuple[float, float]:
    """Closed-form (lower, upper) loss approximations.  Ordered only while
    k_min <= k_max; once a is comparable to w the lower value can exceed the
    upper one (see `approx_params`)."""
    return tuple(float(_closed_form(ap.a0, ap.u2, k, ap.w)) for k in (ap.k_min, ap.k_max))


def approx_mean(ap: ApproxParams) -> float:
    """Closed-form loss approximation with the averaged width scaling."""
    return float(_closed_form(ap.a0, ap.u2, ap.k_mean, ap.w))


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
    f = _pose_form(*(np.asarray(v, float) for v in (rx, ry, rz, theta, phi)), b)
    # initial= lets a chunk of only degenerate trials pass an empty batch
    reach = max(float(np.max(f.u, initial=0.0)), d.a)
    beam_mod.check_far_field(float(np.min(f.dist, initial=math.inf)), reach)
    return _capture(f, d.a, rel_tol)


def approx_mean_batch(rx, ry, rz, theta, phi, b: BeamParams,
                      d: DetectorParams) -> np.ndarray:
    """Vectorized per-pose evaluation of the `approx_mean` kernel."""
    f = _pose_form(*(np.asarray(v, float) for v in (rx, ry, rz, theta, phi)), b)
    a0, k_min, k_max, _nu_min, _nu_max = _approx(d.a, f.w, f.rho_min, f.rho_max)
    return _closed_form(a0, f.fy * f.fy + f.fz * f.fz, 0.5 * (k_min + k_max), f.w)
