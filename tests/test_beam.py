import math
import warnings

import numpy as np
import pytest

from fso_geoloss.beam import (
    BeamParams,
    beam_width,
    coherence_length,
    ellipse_params,
    intensity_on_pd,
    intensity_orthogonal,
)
from fso_geoloss.geometry import DegenerateGeometryError, Orientation, Pose, Position
from fso_geoloss.numerics import disk_quadrature

DEFAULT = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)


def tracked_pose(rx, fy=0.0, fz=0.0, theta=0.0, phi=math.pi / 2):
    return Pose(Position(rx, fy, fz), Orientation(theta, phi))


class TestCoherenceLength:
    def test_default_link(self):
        k = 2 * math.pi / 1550e-9
        expected = (0.55 * 1e-14 * k * k * 1000.0) ** -0.6
        assert coherence_length(DEFAULT, 1000.0) == pytest.approx(expected, rel=1e-15)
        assert coherence_length(DEFAULT, 1000.0) == pytest.approx(0.0670, abs=2e-4)

    def test_power_law_scaling(self):
        r1 = coherence_length(DEFAULT, 500.0)
        r4 = coherence_length(DEFAULT, 2000.0)
        assert r4 / r1 == pytest.approx(4.0 ** -0.6, rel=1e-12)

    def test_no_turbulence_limit(self):
        b = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=0.0)
        assert coherence_length(b, 1000.0) == math.inf


class TestBeamWidth:
    def test_default_link(self):
        # lambda*L/(pi*w0^2) ~ 493 dominates; frozen from the closed form
        assert beam_width(DEFAULT, 1000.0) == pytest.approx(0.4934910867329322, rel=1e-12)

    def test_waist_limit(self):
        assert beam_width(DEFAULT, 1e-9) == pytest.approx(DEFAULT.w0, rel=1e-9)

    def test_pure_diffraction(self):
        b = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=0.0)
        spread = b.wavelength * 1000.0 / (math.pi * b.w0**2)
        assert beam_width(b, 1000.0) == pytest.approx(
            b.w0 * math.sqrt(1 + spread**2), rel=1e-14)

    def test_never_below_waist(self):
        for L in (1e-6, 1.0, 100.0, 5e4):
            assert beam_width(DEFAULT, L) >= DEFAULT.w0

    def test_array_input(self):
        ls = np.array([500.0, 1000.0, 2000.0])
        ws = beam_width(DEFAULT, ls)
        assert ws.shape == (3,)
        assert ws[1] == pytest.approx(beam_width(DEFAULT, 1000.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            beam_width(DEFAULT, -1.0)
        with pytest.raises(ValueError):
            BeamParams(w0=0.0, wavelength=1550e-9)


class TestIntensityOrthogonal:
    def test_peak(self):
        w = beam_width(DEFAULT, 1000.0)
        assert intensity_orthogonal(DEFAULT, 1000.0, 0.0) == pytest.approx(
            2 / (math.pi * w * w), rel=1e-14)

    def test_e2_radius(self):
        w = beam_width(DEFAULT, 1000.0)
        peak = intensity_orthogonal(DEFAULT, 1000.0, 0.0)
        assert intensity_orthogonal(DEFAULT, 1000.0, w) == pytest.approx(
            peak * math.exp(-2), rel=1e-14)

    def test_disk_capture_closed_form(self):
        w = beam_width(DEFAULT, 1000.0)
        a = 0.1
        val = disk_quadrature(
            lambda y, z, wt: intensity_orthogonal(DEFAULT, 1000.0, np.hypot(y, z)) * wt, a)
        assert val == pytest.approx(1 - math.exp(-2 * a * a / (w * w)), rel=1e-9)


class TestEllipseParams:
    def test_orthogonal(self):
        ep = ellipse_params(Orientation(0.0, math.pi / 2))
        assert (ep.rho_y, ep.rho_z, ep.rho_yz) == pytest.approx((1.0, 1.0, 0.0))
        assert (ep.rho_min, ep.rho_max) == pytest.approx((1.0, 1.0))
        assert ep.contour_rotation == 0.0

    def test_diagonal_incidence(self):
        ep = ellipse_params(Orientation(math.pi / 4, math.pi / 2))
        assert ep.rho_y == pytest.approx(0.5, rel=1e-15)
        assert ep.rho_z == pytest.approx(1.0, rel=1e-15)
        assert ep.rho_yz == pytest.approx(0.0, abs=1e-16)
        assert (ep.rho_min, ep.rho_max) == pytest.approx((1.0, 2.0), rel=1e-14)
        assert ep.psi == pytest.approx(math.pi / 4, rel=1e-14)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            o = Orientation(rng.uniform(0, 2 * math.pi), rng.uniform(0.1, math.pi - 0.1))
            try:
                ep = ellipse_params(o)
            except DegenerateGeometryError:
                continue
            s2 = math.sin(ep.psi) ** 2
            assert ep.rho_y * ep.rho_z - ep.rho_yz**2 == pytest.approx(s2, abs=1e-12)
            assert ep.rho_min * ep.rho_max == pytest.approx(1.0 / s2, rel=1e-12)
            assert 1 / ep.rho_min + 1 / ep.rho_max == pytest.approx(
                ep.rho_y + ep.rho_z, rel=1e-12)
            assert ep.rho_min <= 1.0 + 1e-12 <= ep.rho_max + 2e-12
            assert 0.0 <= ep.rho_y <= 1.0 and 0.0 <= ep.rho_z <= 1.0

    def test_contour_rotation_convention(self):
        ep = ellipse_params(Orientation(0.5, 2.0))
        expected = 0.5 * math.atan2(2 * ep.rho_yz, ep.rho_y - ep.rho_z)
        assert ep.contour_rotation == pytest.approx(expected)
        assert ellipse_params(Orientation(0.0, 1.1)).contour_rotation == 0.0


class TestIntensityOnPd:
    def test_orthogonal_peak_matches(self):
        pose = tracked_pose(1000.0)
        w = beam_width(DEFAULT, pose.position.norm())
        assert intensity_on_pd((0.0, 0.0), pose, DEFAULT) == pytest.approx(
            2 / (math.pi * w * w), rel=1e-12)

    def test_orthogonal_collapses_to_radial_profile(self):
        pose = tracked_pose(1000.0)
        dist = pose.position.norm()
        for (y, z) in [(0.02, -0.01), (0.08, 0.05), (-0.09, 0.0)]:
            assert intensity_on_pd((y, z), pose, DEFAULT) == pytest.approx(
                intensity_orthogonal(DEFAULT, dist, math.hypot(y, z)), rel=1e-12)

    def test_full_plane_energy_conservation(self):
        for theta, phi in [(0.0, math.pi / 2), (math.pi / 4, math.pi / 2),
                           (math.pi / 8, 5 * math.pi / 8), (5.9, 1.1)]:
            o = Orientation(theta, phi)
            # position chosen so the footprint sits at the disk center
            rx = 1000.0
            pos = Position(rx, rx * math.tan(o.theta),
                           rx / (math.tan(o.phi) * math.cos(o.theta)))
            pose = Pose(pos, o)
            ep = ellipse_params(o)
            w = beam_width(DEFAULT, pos.norm())
            radius = 6.0 * w * math.sqrt(ep.rho_max)
            total = disk_quadrature(
                lambda y, z, wt: intensity_on_pd((y, z), pose, DEFAULT) * wt, radius)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_far_field_warning(self):
        # footprint 0.5 m off-center while the source is only 5 m away
        pose = Pose(Position(5.0, 0.5, 0.0), Orientation(0.0, math.pi / 2))
        with pytest.warns(UserWarning, match="far-field"):
            val = intensity_on_pd((0.5, 0.0), pose, DEFAULT)
        assert val > 0.0

    def test_no_warning_in_far_field(self):
        pose = tracked_pose(1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            intensity_on_pd((0.05, 0.02), pose, DEFAULT)

    @pytest.mark.filterwarnings("ignore:far-field")
    def test_nonnegative(self):
        pose = Pose(Position(1000.0, 30.0, -20.0), Orientation(2.9, 2.2))
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.2, 0.2, (50, 2))
        for y, z in pts:
            assert intensity_on_pd((y, z), pose, DEFAULT) >= 0.0
