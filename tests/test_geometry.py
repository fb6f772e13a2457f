import math

import numpy as np
import pytest

from fso_geoloss.geometry import (
    DEGENERACY_TOL,
    DegenerateGeometryError,
    Orientation,
    Pose,
    Position,
    checked_incidence_sine,
    direction_from_angles,
    footprint_center,
    footprint_yz,
    incidence_angle,
    incidence_sine,
    spherical_mean_position,
    tracking_orientation,
)


class TestOrientation:
    def test_theta_wraps(self):
        assert Orientation(2.5 * math.pi, 1.0).theta == pytest.approx(0.5 * math.pi)
        assert Orientation(-0.5, 1.0).theta == pytest.approx(2 * math.pi - 0.5)

    def test_phi_bounds(self):
        with pytest.raises(ValueError):
            Orientation(0.0, 0.0)
        with pytest.raises(ValueError):
            Orientation(0.0, math.pi)


class TestDirection:
    def test_along_x(self):
        d = direction_from_angles(Orientation(0.0, math.pi / 2))
        assert d == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_near_pole(self):
        d = direction_from_angles(Orientation(1.2345, 1e-9))
        assert d == pytest.approx([0.0, 0.0, 1.0], abs=1e-8)

    def test_diagonal(self):
        d = direction_from_angles(Orientation(math.pi / 4, math.pi / 2))
        assert d == pytest.approx([math.sqrt(0.5), math.sqrt(0.5), 0.0], abs=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            o = Orientation(rng.uniform(0, 2 * math.pi), rng.uniform(1e-3, math.pi - 1e-3))
            assert np.linalg.norm(direction_from_angles(o)) == pytest.approx(1.0, abs=1e-15)


class TestIncidenceAngle:
    def test_orthogonal(self):
        assert incidence_angle(Orientation(0.0, math.pi / 2)) == pytest.approx(math.pi / 2)

    def test_orthogonal_from_negative_side(self):
        assert incidence_angle(Orientation(math.pi, math.pi / 2)) == pytest.approx(math.pi / 2)

    def test_oblique(self):
        assert incidence_angle(Orientation(math.pi / 4, math.pi / 2)) == pytest.approx(math.pi / 4)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            incidence_angle(Orientation(math.pi / 2, math.pi / 2))

    def test_matches_direction_projection(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            o = Orientation(rng.uniform(0, 2 * math.pi), rng.uniform(0.2, math.pi - 0.2))
            try:
                psi = incidence_angle(o)
            except DegenerateGeometryError:
                continue
            d = direction_from_angles(o)
            assert psi == pytest.approx(math.asin(abs(d[0])), abs=1e-12)


class TestGrazingRule:
    # in the third pose cos(theta) and sin(phi) each pass 1e-12, their product does not
    @pytest.mark.parametrize("theta, phi", [(math.pi / 2, 1.0), (1.0, 1e-13),
                                            (math.pi / 2 - 1e-7, 1e-7), (0.3, 1.9)])
    def test_every_guard_is_the_one_rule(self, theta, phi):
        s, grazes = incidence_sine(np.array([theta, 0.0]), np.array([phi, 1.0]))
        assert grazes.tolist() == [s[0] < DEGENERACY_TOL, False]
        o = Orientation(theta, phi)
        for guard in (lambda: incidence_angle(o),
                      lambda: footprint_center(Pose(Position(500.0, 10.0, -20.0), o)),
                      lambda: checked_incidence_sine(theta, phi)):
            if grazes[0]:
                with pytest.raises(DegenerateGeometryError):
                    guard()
            else:
                guard()


class TestFootprintCenter:
    def test_boresight(self):
        p = Pose(Position(100.0, 0.0, 0.0), Orientation(0.0, math.pi / 2))
        f = footprint_center(p)
        assert (f.fy, f.fz) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_lateral_offset(self):
        p = Pose(Position(100.0, 3.0, 0.0), Orientation(0.0, math.pi / 2))
        f = footprint_center(p)
        assert (f.fy, f.fz) == pytest.approx((3.0, 0.0), abs=1e-12)

    def test_small_tilt(self):
        p = Pose(Position(100.0, 0.0, 0.0), Orientation(0.001, math.pi / 2))
        f = footprint_center(p)
        # line-parameter solution of the beam-line/plane intersection
        assert f.fy == pytest.approx(-100.0 * math.tan(0.001), rel=1e-14)
        assert f.fy == pytest.approx(-0.1, rel=1e-5)
        assert f.fz == pytest.approx(0.0, abs=1e-12)

    def test_matches_line_plane_intersection(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pos = Position(*rng.uniform(-800, 800, 3))
            if abs(pos.rx) < 1.0:
                continue
            o = Orientation(rng.uniform(0, 2 * math.pi), rng.uniform(0.3, math.pi - 0.3))
            d = direction_from_angles(o)
            if abs(d[0]) < 1e-3:
                continue
            t = -pos.rx / d[0]
            f = footprint_center(Pose(pos, o))
            assert f.fy == pytest.approx(pos.ry + t * d[1], rel=1e-9, abs=1e-9)
            assert f.fz == pytest.approx(pos.rz + t * d[2], rel=1e-9, abs=1e-9)

    def test_affine_unit_slope(self):
        o = Orientation(0.3, 1.9)
        base = footprint_center(Pose(Position(500.0, 20.0, -30.0), o))
        shifted = footprint_center(Pose(Position(500.0, 20.0 + 7.5, -30.0 + 2.25), o))
        assert shifted.fy - base.fy == pytest.approx(7.5, abs=1e-10)
        assert shifted.fz - base.fz == pytest.approx(2.25, abs=1e-10)

    def test_degenerate_guards(self):
        with pytest.raises(DegenerateGeometryError):
            footprint_center(Pose(Position(10.0, 0.0, 0.0), Orientation(math.pi / 2, 1.0)))

    def test_array_kernel_matches_scalar(self):
        o = Orientation(0.4, 1.8)
        p = Position(750.0, -12.0, 40.0)
        f = footprint_center(Pose(p, o))
        fy, fz = footprint_yz(np.array([p.rx]), np.array([p.ry]), np.array([p.rz]),
                              np.array([o.theta]), np.array([o.phi]))
        assert fy[0] == f.fy and fz[0] == f.fz


class TestTrackingOrientation:
    def test_boresight_positive_x(self):
        o = tracking_orientation(Position(1000.0, 0.0, 0.0))
        assert (o.theta, o.phi) == pytest.approx((0.0, math.pi / 2))

    def test_boresight_negative_x(self):
        o = tracking_orientation(Position(-1000.0, 0.0, 0.0))
        assert (o.theta, o.phi) == pytest.approx((math.pi, math.pi / 2))

    def test_round_trip_property(self):
        rng = np.random.default_rng(17)
        # 2 mrad off either pole, where phi = acos(rz / |r|) missed by 1.3e-8 m
        near_poles = [Position(2.0, 0.0, 1000.0), Position(2.0, 0.0, -1000.0)]
        for pos in near_poles + [
                Position(rng.uniform(5, 2000), rng.uniform(-1500, 1500),
                         rng.uniform(-1500, 1500)) for _ in range(300)]:
            f = footprint_center(Pose(pos, tracking_orientation(pos)))
            assert f.offset() <= 1e-9

    def test_round_trip_negative_x(self):
        pos = Position(-700.0, 120.0, -60.0)
        f = footprint_center(Pose(pos, tracking_orientation(pos)))
        assert f.offset() <= 1e-9

    def test_rejects_zero_x(self):
        with pytest.raises(DegenerateGeometryError):
            tracking_orientation(Position(0.0, 5.0, 5.0))


class TestSphericalMeanPosition:
    def test_boresight(self):
        p = spherical_mean_position(1000.0, 0.0, math.pi / 2)
        assert (p.rx, p.ry, p.rz) == pytest.approx((1000.0, 0.0, 0.0), abs=1e-10)

    def test_tilted(self):
        p = spherical_mean_position(1000.0, math.pi / 8, 5 * math.pi / 8)
        sb, cb = math.sin(5 * math.pi / 8), math.cos(5 * math.pi / 8)
        assert p.rx == pytest.approx(1000.0 * sb * math.cos(math.pi / 8), rel=1e-15)
        assert p.ry == pytest.approx(1000.0 * sb * math.sin(math.pi / 8), rel=1e-15)
        assert p.rz == pytest.approx(1000.0 * cb, rel=1e-15)

    def test_radius_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = spherical_mean_position(123.4, rng.uniform(-math.pi, math.pi),
                                        rng.uniform(0.01, math.pi - 0.01))
            assert p.norm() == pytest.approx(123.4, rel=1e-14)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            spherical_mean_position(0.0, 0.0, 1.0)
