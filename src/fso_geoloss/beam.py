"""Gaussian-beam physics: width growth, orthogonal-plane intensity, and the
obliquely projected intensity on the detector plane.

A beam hitting the detector plane at an angle paints elliptic rather than
circular intensity contours.  `ellipse_coefficients` and `ellipse_axes`
give their quadratic form and the inverse axis coefficients of the loss
bounds; `ellipse_params` collects both for one orientation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import Orientation, Pose, footprint_center, incidence_angle, incidence_sine

# far-field validity: the source distance must dominate both the footprint
# offset and the evaluation-point radius by this factor
VALIDITY_FACTOR = 100.0


@dataclass(frozen=True)
class BeamParams:
    """Optical hardware constants.

    w0 is the beam waist radius [m], wavelength the optical wavelength [m],
    cn2 the refractive-index structure parameter [m^(-2/3)] (0 disables
    turbulence broadening).
    """

    w0: float
    wavelength: float
    cn2: float = 0.0

    def __post_init__(self):
        if not (0 < self.w0 < math.inf and 0 < self.wavelength < math.inf
                and 0 <= self.cn2 < math.inf):
            raise ValueError(f"invalid beam parameters: {self}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength


@dataclass(frozen=True)
class EllipseParams:
    """Quadratic-form coefficients of the oblique intensity contours.

    rho_y, rho_z, rho_yz define the exponent quadratic form; rho_min and
    rho_max are the inverse squared-axis coefficients of the contour
    ellipse (rho_min <= rho_max); psi is the incidence angle and
    contour_rotation the counterclockwise tilt of the contour axes.
    """

    rho_y: float
    rho_z: float
    rho_yz: float
    rho_min: float
    rho_max: float
    psi: float
    contour_rotation: float


def coherence_length(b: BeamParams, distance: float) -> float:
    """Turbulence coherence length rho(L) = (0.55 Cn^2 k^2 L)^(-3/5)."""
    if not distance > 0:
        raise ValueError(f"distance must be positive, got {distance!r}")
    s = 0.55 * b.cn2 * b.wavenumber**2 * distance
    if s == 0.0:
        return math.inf
    return s**-0.6


def beam_width(b: BeamParams, distance):
    """1/e^2 intensity radius after `distance` meters, with turbulence
    broadening through the coherence length.  Accepts array distances."""
    d = np.asarray(distance, dtype=float)
    if (d <= 0).any():
        raise ValueError("distance must be positive")
    spread = b.wavelength * d / (math.pi * b.w0**2)
    s = 0.55 * b.cn2 * b.wavenumber**2 * d
    inv_rho2 = np.power(s, 1.2)  # = rho(L)^-2; no scalar pow: floats match arrays bitwise
    w = b.w0 * np.sqrt(1.0 + (1.0 + 2.0 * b.w0**2 * inv_rho2) * (spread * spread))
    return float(w) if np.ndim(distance) == 0 else w


def intensity_orthogonal(b: BeamParams, distance: float, offset):
    """Normalized power density at radial offset `offset` in the plane
    orthogonal to the beam, `distance` meters from the source."""
    w2 = beam_width(b, distance) ** 2
    out = 2.0 / (math.pi * w2) * np.exp(-2.0 * np.asarray(offset, float) ** 2 / w2)
    return float(out) if out.ndim == 0 else out


def ellipse_coefficients(theta, phi):
    """Array-friendly quadratic-form coefficients (rho_y, rho_z, rho_yz)."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    rho_y = cp * cp + sp * sp * ct * ct
    rho_z = sp * sp
    rho_yz = -cp * sp * st
    return rho_y, rho_z, rho_yz


def ellipse_axes(rho_y, rho_z, rho_yz, det):
    """Inverse axis coefficients (rho_min, rho_max) of the contour ellipse.

    rho_max is formed from the quadratic-form determinant `det`, which
    callers supply as sin^2(phi)*cos^2(theta) (the cancellation-free form of
    rho_y*rho_z - rho_yz^2) to stay accurate at grazing incidence.
    """
    spread = np.hypot(rho_y - rho_z, 2.0 * rho_yz)
    rho_min = 2.0 / (rho_y + rho_z + spread)
    rho_max = (rho_y + rho_z + spread) / (2.0 * det)
    return rho_min, rho_max


def ellipse_params(o: Orientation) -> EllipseParams:
    """Contour-ellipse description for a beam with orientation `o`."""
    psi = incidence_angle(o)
    rho_y, rho_z, rho_yz = ellipse_coefficients(o.theta, o.phi)
    s, _ = incidence_sine(o.theta, o.phi)
    rho_min, rho_max = ellipse_axes(rho_y, rho_z, rho_yz, s * s)
    if rho_yz == 0.0:
        rotation = 0.0
    else:
        rotation = 0.5 * math.atan2(2.0 * rho_yz, rho_y - rho_z)
    return EllipseParams(
        rho_y=float(rho_y),
        rho_z=float(rho_z),
        rho_yz=float(rho_yz),
        rho_min=float(rho_min),
        rho_max=float(rho_max),
        psi=psi,
        contour_rotation=rotation,
    )


def check_far_field(distance: float, reach: float) -> None:
    """Warn, on behalf of the caller's caller, when the source `distance`
    does not dominate `reach`, the larger of the footprint offset and the
    detector or evaluation radius."""
    if distance < VALIDITY_FACTOR * reach:
        warnings.warn(
            f"far-field assumption is marginal: source distance {distance:.3g} m "
            f"vs footprint/detector reach {reach:.3g} m",
            stacklevel=3,
        )


def intensity_on_pd(point, p: Pose, b: BeamParams):
    """Power density at detector-plane point(s) (y, z) for pose `p`.

    `point` is a (y, z) pair of floats or broadcastable arrays.  Valid in
    the far field; when the source distance does not dominate the footprint
    offset and the evaluation radius a warning is emitted and the value is
    still returned.
    """
    y, z = point
    f = footprint_center(p)
    psi = incidence_angle(p.orientation)
    distance = p.position.norm()
    check_far_field(distance, max(f.offset(), float(np.max(np.hypot(y, z)))))
    rho_y, rho_z, rho_yz = ellipse_coefficients(p.orientation.theta, p.orientation.phi)
    w2 = beam_width(b, distance) ** 2
    yt = np.asarray(y, dtype=float) - f.fy
    zt = np.asarray(z, dtype=float) - f.fz
    form = rho_y * yt * yt + rho_z * zt * zt + 2.0 * rho_yz * yt * zt
    out = math.sin(psi) * 2.0 / (math.pi * w2) * np.exp(-2.0 * form / w2)
    return float(out) if out.ndim == 0 else out
