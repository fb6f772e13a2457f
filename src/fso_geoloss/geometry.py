"""Coordinate conventions, beam direction, and footprint geometry.

The detector sits in the y-z plane with its center at the origin; the
transmitter position is expressed in the same Cartesian frame.  The beam
direction is given by a polar pair (theta, phi): theta is measured from
the +x axis in the x-y plane, phi from the +z axis.  Rotation about the
beam axis is irrelevant for a rotationally symmetric beam and is not
represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# beams closer than this to grazing the detector plane are rejected
DEGENERACY_TOL = 1e-12


class DegenerateGeometryError(ValueError):
    """Beam is (numerically) parallel to the detector plane."""


@dataclass(frozen=True)
class Position:
    """Transmitter location in meters; rx is the off-plane coordinate."""

    rx: float
    ry: float
    rz: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.rx, self.ry, self.rz))):
            raise ValueError(f"position must be finite, got {self}")

    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)


@dataclass(frozen=True)
class Orientation:
    """Beam direction angles; theta is wrapped into [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", self.theta % TWO_PI)
        if not 0.0 < self.phi < math.pi:
            raise ValueError(f"phi must lie strictly inside (0, pi), got {self.phi!r}")


@dataclass(frozen=True)
class Pose:
    position: Position
    orientation: Orientation


@dataclass(frozen=True)
class FootprintCenter:
    """Beam-line intersection (0, fy, fz) with the detector plane."""

    fy: float
    fz: float

    def offset(self) -> float:
        """Distance u from the detector center."""
        return math.hypot(self.fy, self.fz)


def direction_from_angles(o: Orientation) -> np.ndarray:
    """Unit beam-direction vector (sin phi cos theta, sin phi sin theta, cos phi)."""
    sp = math.sin(o.phi)
    return np.array([sp * math.cos(o.theta), sp * math.sin(o.theta), math.cos(o.phi)])


def incidence_angle(o: Orientation) -> float:
    """Angle psi between the beam line and the detector plane, in (0, pi/2].

    The absolute value makes psi independent of which half-space the beam
    arrives from, so the projected intensity stays non-negative.
    """
    s = math.sin(o.phi) * math.cos(o.theta)
    if abs(s) < DEGENERACY_TOL:
        raise DegenerateGeometryError(
            f"beam parallel to detector plane (sin(phi)*cos(theta)={s:.3e})"
        )
    return math.asin(min(1.0, abs(s)))


def footprint_yz(rx, ry, rz, theta, phi):
    """Footprint coordinates for float or array inputs; no degeneracy guarding."""
    return ry - rx * np.tan(theta), rz - rx / (np.tan(phi) * np.cos(theta))


def footprint_center(p: Pose) -> FootprintCenter:
    """Intersection of the beam line with the detector plane x = 0."""
    o = p.orientation
    ct = math.cos(o.theta)
    sp = math.sin(o.phi)
    if abs(ct) < DEGENERACY_TOL or abs(sp) < DEGENERACY_TOL:
        raise DegenerateGeometryError(
            f"footprint undefined: cos(theta)={ct:.3e}, sin(phi)={sp:.3e}"
        )
    r = p.position
    return FootprintCenter(*map(float, footprint_yz(r.rx, r.ry, r.rz, o.theta, o.phi)))


def tracking_orientation(mu_r: Position) -> Orientation:
    """Mean orientation that points the beam line through the detector center.

    theta follows the two-branch arctangent (branch switch at mu_x = 0);
    phi is the polar angle of the position vector, which is the choice that
    actually closes the loop: footprint_center(mu_r, result) == (0, 0).
    """
    if mu_r.rx == 0.0:
        raise DegenerateGeometryError("tracking orientation undefined for mu_x = 0")
    n = mu_r.norm()
    if n == 0.0:
        raise DegenerateGeometryError("tracking orientation undefined at the origin")
    theta = math.atan2(mu_r.ry, mu_r.rx) % TWO_PI
    phi = math.acos(mu_r.rz / n)
    return Orientation(theta, phi)


def spherical_mean_position(radius: float, alpha: float, beta: float) -> Position:
    """Position from spherical coordinates (R, alpha, beta); beta from +z."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    sb = math.sin(beta)
    return Position(
        radius * sb * math.cos(alpha),
        radius * sb * math.sin(alpha),
        radius * math.cos(beta),
    )
