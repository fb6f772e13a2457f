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
from .numerics import DEFAULT_REL_TOL, disk_quadrature, gaussian_integrand


@dataclass(frozen=True)
class DetectorParams:
    """Circular photo-detector of radius a [m], centered at the origin."""

    a: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"detector radius must be positive and finite, got {self.a!r}")


@dataclass(frozen=True)
class ApproxParams:
    """Ingredients of the closed-form loss approximations: floats, or (n,) arrays.

    a0 is the captured fraction for a centered footprint, k_min/k_max/k_mean the
    width scalings (k_min <= k_max where nu_min <= 1.142; see `approx_params`),
    nu_min >= nu_max their erf arguments, u the footprint offset, u2 = fy^2 +
    fz^2 and w the beam width at the link distance.  A k is +inf when its nu is
    so large (>~ 27) that exp(-nu^2) underflows; the kernels then return exactly a0.
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
    """Externally supplied channel factors: finite responsivity eta >= 0,
    deterministic path loss hp in (0, 1], finite turbulence loss ha >= 0."""

    eta: float
    hp: float
    ha: float

    def __post_init__(self):
        if not (0.0 <= self.eta < math.inf and 0.0 < self.hp <= 1.0 and 0.0 <= self.ha < math.inf):
            raise ValueError(f"invalid channel inputs: {self}")


_Form = namedtuple("_Form", "s fy fz u rho_y rho_z rho_yz rho_min rho_max w")


def _pose_form(rx, ry, rz, theta, phi, b: BeamParams, a: float) -> _Form:
    """Kernel inputs, elementwise over float or (n,) array poses, for a radius-`a` detector,
    each pose held on its own to `geometry`'s grazing rule (DegenerateGeometryError) and
    `beam`'s far-field rule on (dist, max(u, a)), which warns the kernel's caller."""
    s = geometry.checked_incidence_sine(theta, phi)
    fy, fz = geometry.footprint_yz(rx, ry, rz, theta, phi)
    u = np.hypot(fy, fz)
    dist = np.sqrt(rx * rx + ry * ry + rz * rz)
    beam_mod.check_far_field(dist, np.maximum(u, a), stacklevel=4)
    rho_y, rho_z, rho_yz = beam_mod.ellipse_coefficients(theta, phi)
    rho_min, rho_max = beam_mod.ellipse_axes(rho_y, rho_z, rho_yz, s * s)
    return _Form(s, fy, fz, u, rho_y, rho_z, rho_yz, rho_min, rho_max,
                 beam_mod.beam_width(b, dist))


def _coords(p: Pose):
    return p.position.rx, p.position.ry, p.position.rz, p.orientation.theta, p.orientation.phi


def _capture(f: _Form, a: float, rel_tol: float):
    """Form f's projected intensity 2 s / (pi w^2) exp(-2 (rho_y yt^2 + rho_z
    zt^2 + 2 rho_yz yt zt) / w^2), (yt, zt) = (y - fy, z - fz), integrated
    over the radius-`a` disk and clipped to [0, 1]: a float for a float form,
    n losses for (n,) arrays."""
    w2 = f.w * f.w
    g = gaussian_integrand(f.rho_y * 2.0 / w2, f.rho_z * 2.0 / w2, f.rho_yz * 4.0 / w2,
                           f.fy, f.fz, np.log(f.s * 2.0 / (math.pi * w2)), a)
    if not isinstance(f.s, np.ndarray):
        return min(max(disk_quadrature(g, a, rel_tol), 0.0), 1.0)
    return np.clip(disk_quadrature(g, a, rel_tol, len(f.s)), 0.0, 1.0)


def exact_loss(p: Pose, b: BeamParams, d: DetectorParams,
               rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Fraction of transmitted power captured by the detector."""
    return _capture(_pose_form(*_coords(p), b, d.a), d.a, rel_tol)


def _bound(f: _Form, a: float, rel_tol: float, upper: bool):
    """Capture of form f's contour ellipse turned so that its major axis
    lies along (upper) or across (lower) the offset direction, the offset
    on y: a float for a float form, n bounds for (n,) arrays."""
    along, across = (f.rho_max, f.rho_min) if upper else (f.rho_min, f.rho_max)
    return _capture(f._replace(rho_y=1.0 / along, rho_z=1.0 / across, rho_yz=0.0,
                               fy=f.u, fz=0.0), a, rel_tol)


def bound_lower(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Contour major axis across the offset: `exact_loss` at the un-rotated
    pose theta = 0, phi = psi placed at (t sin psi, u, t cos psi), with
    t = sqrt(L^2 - u^2) for p's incidence angle psi, distance L and offset
    u.  bound_lower <= exact_loss <= bound_upper holds, to 2 rel_tol, for
    tracked poses at 1 km (alpha within pi/3, beta within pi/6 of pi/2,
    offsets up to 3a) while a/w <= 1.  It first fails at a/w = 1.0016, at
    small offsets; of `validate`'s 150 such poses, on one at a/w = 1.043
    and on 19 at a/w = 1.2."""
    return _bound(_pose_form(*_coords(p), b, d.a), d.a, rel_tol, upper=False)


def bound_upper(p: Pose, b: BeamParams, d: DetectorParams,
                rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Contour major axis along the offset: `exact_loss` at theta = 0,
    phi = psi placed at (t' sin psi, 0, u + t' cos psi), with
    t' = -u cos psi + sqrt(L^2 - u^2 sin^2 psi).  Ordered as a bound only
    while a is small against w; see `bound_lower`."""
    return _bound(_pose_form(*_coords(p), b, d.a), d.a, rel_tol, upper=True)


def _approx(f: _Form, a: float) -> ApproxParams:
    """Form f's `ApproxParams` for a radius-`a` detector, floats for a float form."""
    nu_min = a / f.w * np.sqrt(math.pi / (2.0 * f.rho_min))
    nu_max = a / f.w * np.sqrt(math.pi / (2.0 * f.rho_max))
    erf_min, erf_max = erf(nu_min), erf(nu_max)
    # exp(-nu^2) underflows to 0 for nu >~ 27, where k = inf is the right limit
    with np.errstate(divide="ignore"):
        k_min = math.sqrt(math.pi) * f.rho_min * erf_min / (2.0 * nu_min * np.exp(-nu_min * nu_min))
        k_max = math.sqrt(math.pi) * f.rho_max * erf_max / (2.0 * nu_max * np.exp(-nu_max * nu_max))
    fields = (erf_min * erf_max, k_min, k_max, 0.5 * (k_min + k_max), nu_min, nu_max,
              f.u, f.fy * f.fy + f.fz * f.fz, f.w)
    return ApproxParams(*(fields if isinstance(f.s, np.ndarray) else map(float, fields)))


def _closed_form(ap: ApproxParams, k):
    """A0 exp(-2 u^2 / (k w^2)) of `ap` at width scaling k, floats or arrays."""
    return ap.a0 * np.exp(-2.0 * ap.u2 / (k * ap.w * ap.w))


def approx_params(p: Pose, b: BeamParams, d: DetectorParams) -> ApproxParams:
    """Closed-form approximation parameters for pose `p`.

    A k is (pi^1.5 / 4) (a/w)^2 erf(nu) exp(nu^2) / nu^3, which falls in nu up
    to nu* = 1.1420888, so k_min <= k_max wherever nu_min (>= nu_max) <= nu*.
    At 1 km, alpha = pi/4, beta = pi/2 and offset (0.1, 0.1) m (w = 0.49 m),
    a = 0.5 m (nu_min 1.27) gives k_min 3.25 <= k_max 3.52 but a = 0.6 m 5.74 > 4.58."""
    return _approx(_pose_form(*_coords(p), b, d.a), d.a)


def approx_bounds(ap: ApproxParams) -> tuple[float, float]:
    """Closed-form (lower, upper) loss approximations, ordered wherever
    k_min <= k_max, so wherever nu_min <= 1.142 (see `approx_params`); past
    that the lower value can exceed the upper one."""
    return tuple(float(_closed_form(ap, k)) for k in (ap.k_min, ap.k_max))


def approx_mean(ap: ApproxParams) -> float:
    """Closed-form loss approximation with the averaged width scaling."""
    return float(_closed_form(ap, ap.k_mean))


def channel_coefficient(c: ChannelInputs, hg: float) -> float:
    """Composite channel coefficient eta * hp * ha * hg."""
    if not 0.0 <= hg < math.inf:
        raise ValueError(f"geometric loss must be non-negative and finite, got {hg!r}")
    return c.eta * c.hp * c.ha * hg


def loss_db(hg):
    """Loss in dB, -10*log10(hg), elementwise (a float for a float); 0 maps to +inf."""
    hg = np.asarray(hg, float)
    if (hg < 0).any():
        raise ValueError(f"loss must be non-negative, got {float(hg.min())!r}")
    with np.errstate(divide="ignore"):
        db = -10.0 * np.log10(hg)
    return float(db) if db.ndim == 0 else db


def exact_loss_batch(rx, ry, rz, theta, phi, b: BeamParams, d: DetectorParams,
                     rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Vectorized `exact_loss` over per-trial pose arrays.

    All pose arrays share shape (n,).  Each trial converges on its own, at
    the first quadrature order at which its own estimates agree, so its
    value is its one-pose batch's bitwise, whatever else shares the batch.
    """
    f = _pose_form(*(np.asarray(v, float) for v in (rx, ry, rz, theta, phi)), b, d.a)
    return _capture(f, d.a, rel_tol)


BoundsColumns = namedtuple("BoundsColumns",
                           "exact lower upper approx_lower approx_upper approx_mean")


def bounds_batch(rx, ry, rz, theta, phi, b: BeamParams, d: DetectorParams,
                 rel_tol: float = DEFAULT_REL_TOL) -> BoundsColumns:
    """Every deterministic loss of (n,) pose arrays, as (n,) arrays: the
    `exact_loss`, `bound_lower` and `bound_upper` captures, `approx_bounds`
    and `approx_mean`, each row bitwise its pose's scalar value.  One pose
    derivation serves the batch."""
    f = _pose_form(*(np.asarray(v, float) for v in (rx, ry, rz, theta, phi)), b, d.a)
    ap = _approx(f, d.a)
    return BoundsColumns(
        _capture(f, d.a, rel_tol),
        _bound(f, d.a, rel_tol, upper=False), _bound(f, d.a, rel_tol, upper=True),
        *(_closed_form(ap, k) for k in (ap.k_min, ap.k_max, ap.k_mean)))


def approx_mean_batch(rx, ry, rz, theta, phi, b: BeamParams,
                      d: DetectorParams) -> np.ndarray:
    """Vectorized per-pose evaluation of the `approx_mean` kernel."""
    f = _pose_form(*(np.asarray(v, float) for v in (rx, ry, rz, theta, phi)), b, d.a)
    ap = _approx(f, d.a)
    return _closed_form(ap, ap.k_mean)
