import collections
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import chndtr

from fso_geoloss import geoloss as geoloss_mod
from fso_geoloss import numerics
from fso_geoloss.beam import VALIDITY_FACTOR, BeamParams, beam_width, intensity_on_pd
from fso_geoloss.geometry import (
    DegenerateGeometryError,
    Orientation,
    Pose,
    Position,
    direction_from_angles,
    footprint_center,
    incidence_angle,
    spherical_mean_position,
    tracking_orientation,
)
from fso_geoloss.geoloss import (
    ApproxParams,
    ChannelInputs,
    DetectorParams,
    approx_bounds,
    approx_mean,
    approx_mean_batch,
    approx_params,
    bound_lower,
    bound_upper,
    bounds_batch,
    channel_coefficient,
    exact_loss,
    exact_loss_batch,
    loss_db,
)
from fso_geoloss.montecarlo import CHUNK, _chunk_poses, sample_pose
from fso_geoloss.numerics import BLOCK, QuadratureError, disk_quadrature
from fso_geoloss.stochastic import PoseDistribution

BEAM = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
DET = DetectorParams(a=0.1)


def tracked_pose(radius, alpha, beta, fy=0.0, fz=0.0):
    mu = spherical_mean_position(radius, alpha, beta)
    orient = tracking_orientation(mu)
    return Pose(Position(mu.rx, mu.ry + fy, mu.rz + fz), orient)


def fig4_poses(n):
    """Trials 0..n-1 of the Fig-4 geometry at sigma_o = 1 mrad, seed 0; a
    batch of them converges at order 32 (2048 nodes, `BLOCK // 2048`-row
    blocks)."""
    d = PoseDistribution.from_spherical(1000.0, math.pi / 8, 5 * math.pi / 8, sigma_o=1e-3)
    return [sample_pose(d, 0, i) for i in range(n)]


def pose_arrays(poses):
    """(rx, ry, rz, theta, phi) arrays for the batch kernels."""
    return tuple(np.array(v) for v in zip(*(
        (p.position.rx, p.position.ry, p.position.rz, p.orientation.theta, p.orientation.phi)
        for p in poses)))


SCALAR_KERNELS = (exact_loss, bound_lower, bound_upper, approx_params)
BATCH_KERNELS = (exact_loss_batch, bounds_batch, approx_mean_batch)


class TestExactLoss:
    def test_centered_orthogonal_closed_form(self):
        for a in (0.01, 0.05, 0.1, 0.2):
            for dist in (500.0, 1000.0, 2000.0):
                pose = tracked_pose(dist, 0.0, math.pi / 2)
                w = beam_width(BEAM, dist)
                expected = 1.0 - math.exp(-2.0 * a * a / (w * w))
                got = exact_loss(pose, BEAM, DetectorParams(a))
                assert got == pytest.approx(expected, rel=1e-8)

    def test_offset_orthogonal_matches_the_noncentral_chi_square(self):
        # an oracle without the polar rule: at orthogonal incidence the
        # footprint is a circular Gaussian of sigma = w/2 per axis, so the
        # capture is P(chi'^2_2(u^2/sigma^2) <= a^2/sigma^2), with w taken at
        # |r|, the distance the kernel uses.  chndtr is trusted above ~1e-15
        worst, kept = 0.0, 0
        for dist in (500.0, 1000.0, 2000.0):
            for a in (0.01, 0.1, 0.5):
                for u in (0.0, 0.05, 0.3, 1.0, 2.0):
                    pose = tracked_pose(dist, 0.0, math.pi / 2, fy=u)
                    sigma = 0.5 * beam_width(BEAM, math.hypot(dist, u))
                    ref = chndtr((a / sigma) ** 2, 2, (u / sigma) ** 2)
                    if ref < 1e-15:
                        continue
                    got = exact_loss(pose, BEAM, DetectorParams(a))
                    worst, kept = max(worst, abs(got - ref) / ref), kept + 1
        assert kept >= 30
        assert worst <= geoloss_mod.DEFAULT_REL_TOL

    def test_offset_orthogonal_tail_matches_the_poisson_mixture(self):
        # the same oracle into the deep tail, where chndtr fails: P(chi'^2_2(lam)
        # <= x) = sum_j e^(-lam/2) (lam/2)^j / j! * P(j+1, x/2), P the regularized
        # lower gamma, summed in mpmath past its largest term (the terms are
        # unimodal in j).  mp.quad over the Bessel form, unsplit, is off by 1.7e-3
        # at 4e-292, so it would report kernel errors that do not exist
        mp = pytest.importorskip("mpmath")

        def mixture_cdf(x, lam):
            total, prev, weight, j = mp.mpf(0), mp.mpf(0), mp.exp(-lam / 2), 0
            while True:
                term = weight * mp.gammainc(j + 1, 0, x / 2, regularized=True)
                total += term
                if term < prev and term <= total * mp.mpf(10) ** -mp.mp.dps:
                    return total
                prev, weight, j = term, weight * lam / (2 * (j + 1)), j + 1

        worst, kept, least = 0.0, 0, 1.0
        with mp.workdps(30):
            for dist in (500.0, 1000.0, 2000.0):
                for a in (0.01, 0.1, 0.5):
                    for u in (0.0, 0.05, 0.3, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.5):
                        r = math.hypot(dist, u)  # |r|, where the kernel takes w
                        if r < VALIDITY_FACTOR * max(u, a):
                            continue
                        sigma = mp.mpf(0.5 * beam_width(BEAM, r))
                        ref = mixture_cdf((a / sigma) ** 2, (u / sigma) ** 2)
                        if ref < mp.mpf("1e-300"):
                            continue
                        got = exact_loss(tracked_pose(dist, 0.0, math.pi / 2, fy=u),
                                         BEAM, DetectorParams(a))
                        worst = max(worst, float(abs(got - ref) / ref))
                        kept, least = kept + 1, min(least, float(ref))
        assert kept >= 80
        assert least < 1e-250
        assert worst <= geoloss_mod.DEFAULT_REL_TOL

    def test_tilted_loss_matches_the_strip_integral(self):
        # an oracle at any incidence that does not share the polar rule: the
        # projected intensity is the Gaussian density N(f, (w^2/4) (I - e e^T)^-1),
        # e = (d_y, d_z) the in-plane part of the unit beam direction d and w
        # taken at |r|.  Along e its width is w / (2 |d_x|), across e it is w / 2,
        # so in that frame, footprint at (c1, c2), the capture is the strip
        # integral over t in [-a, a] of phi(t; c1, s1) * P(|Z| <= sqrt(a^2 - t^2)),
        # Z ~ N(c2, s2).  It is split at the disk point nearest the footprint,
        # and each value is confirmed by doubling its pieces
        mp = pytest.importorskip("mpmath")

        def strip_capture(pose, a, doublings):
            r = pose.position
            dx, dy, dz = map(mp.mpf, direction_from_angles(pose.orientation))
            fy, fz = r.ry - r.rx * dy / dx, r.rz - r.rx * dz / dx
            w = mp.mpf(beam_width(BEAM, math.sqrt(r.rx**2 + r.ry**2 + r.rz**2)))
            e, a = mp.hypot(dy, dz), mp.mpf(a)
            c1, c2 = (dy * fy + dz * fz) / e, abs(dy * fz - dz * fy) / e
            s1, s2 = w / (2 * abs(dx)), w / 2

            def g(t):
                h = mp.sqrt(a * a - t * t)
                return mp.npdf(t, c1, s1) * (mp.ncdf(h, c2, s2) - mp.ncdf(-h, c2, s2))

            points = [-a, c1 * a / max(mp.hypot(c1, c2), a), a]
            for _ in range(doublings):
                points = sorted(points + [(p + q) / 2 for p, q in zip(points, points[1:])])
            # mp.quad's convergence test is absolute, so integrate g at order 1
            peak = max(map(g, points))
            return peak * mp.quad(lambda t: g(t) / peak, points)

        worst, captures = 0.0, []
        with mp.workdps(25):
            for dist, alpha, beta, a, fy, fz in [
                (200.0, 0.9, 0.4, 0.01, 0.0, 0.0),
                (1000.0, 0.3, 1.2, 0.3, 0.05, -0.05),
                (1000.0, math.pi / 8, 5 * math.pi / 8, 0.1, 0.1, 0.1),
                (1500.0, 1.3, 1.4, 0.05, 1.0, 0.5),
                (2000.0, -0.7, 2.6, 0.3, 2.0, -1.5),
                (3000.0, 1.45, 0.2, 0.5, -4.0, 3.0),
                (500.0, 1.2, 2.0, 0.01, 1.5, -0.3),
                (2500.0, 1.0, 0.7, 0.2, 6.0, 10.0),
                (1000.0, 0.4, 0.3, 0.02, 2.5, 1.0),
                (800.0, -1.1, 1.9, 0.05, -2.0, 2.5),
                (1000.0, -0.2, 1.0, 0.02, 4.0, -1.0),
                (2000.0, 0.2, 1.3, 0.1, 8.0, -8.0),
            ]:
                pose = tracked_pose(dist, alpha, beta, fy, fz)
                assert 0.02 < math.sin(incidence_angle(pose.orientation)) < 0.95
                ref = strip_capture(pose, a, 0)
                assert abs(strip_capture(pose, a, 1) / ref - 1) <= 1e-12
                got = exact_loss(pose, BEAM, DetectorParams(a))
                worst = max(worst, float(abs(got - ref) / ref))
                captures.append(got)
        assert max(captures) > 0.3 and min(captures) < 1e-100
        assert worst <= geoloss_mod.DEFAULT_REL_TOL

    def test_default_value(self):
        # frozen: 1 - exp(-2 a^2 / w(1 km)^2) with w = 0.4934910867329322
        got = exact_loss(tracked_pose(1000.0, 0.0, math.pi / 2), BEAM, DET)
        assert got == pytest.approx(0.07884249409492505, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:far-field")
    def test_far_footprint_decays_to_zero(self):
        pose = tracked_pose(1000.0, 0.0, math.pi / 2, fy=30.0)
        assert exact_loss(pose, BEAM, DET) <= 1e-12

    def test_energy_conservation_with_huge_detector(self):
        pose = tracked_pose(1000.0, math.pi / 8, 5 * math.pi / 8)
        assert exact_loss(pose, BEAM, DetectorParams(a=8.0)) == pytest.approx(1.0, abs=1e-8)

    def test_bounded_by_unit_interval(self):
        for u in (0.0, 0.1, 0.25, 0.6):
            v = exact_loss(tracked_pose(1000.0, 0.2, 1.4, fy=u), BEAM, DET)
            assert 0.0 <= v <= 1.0

    def test_grazing_incidence_raises(self):
        # theta = pi/2 leaves sin(phi) * cos(theta) = 6e-17: the beam grazes the plane
        pose = Pose(Position(1000.0, 0.0, 0.0), Orientation(math.pi / 2, math.pi / 2))
        for fn in (exact_loss, bound_lower, bound_upper, approx_params):
            with pytest.raises(DegenerateGeometryError):
                fn(pose, BEAM, DET)
        # one grazing pose fails a whole batch, as one grazing pose fails a call
        batch = pose_arrays([tracked_pose(1000.0, 0.2, 1.5), pose])
        for fn in (exact_loss_batch, approx_mean_batch):
            with pytest.raises(DegenerateGeometryError):
                fn(*batch, BEAM, DET)

    @pytest.mark.parametrize("kernel", SCALAR_KERNELS + BATCH_KERNELS,
                             ids=lambda k: k.__name__)
    def test_one_far_field_warning_per_call(self, kernel):
        # 5 m against a 0.1 m detector is inside 100 reach.  Every entry,
        # exact, bound or closed form, warns once per call on behalf of its
        # caller: a batch of two such poses once, and the quadrature's
        # refinement over several orders does not repeat it
        pose = tracked_pose(5.0, math.pi / 8, 5 * math.pi / 8)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if kernel in BATCH_KERNELS:
                kernel(*pose_arrays([pose, pose]), BEAM, DET)
            else:
                kernel(pose, BEAM, DET)
        assert len(caught) == 1
        assert str(caught[0].message) == ("far-field assumption is marginal: source "
                                          "distance 5 m vs footprint/detector reach 0.1 m")
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("kernel", BATCH_KERNELS, ids=lambda k: k.__name__)
    def test_far_field_rule_does_not_depend_on_batch_mates(self, kernel):
        # a centred pose at 1 km and a pose at 3 km 20 m off the detector each
        # dominate their own reach (0.1 m and 20 m), so they are silent alone
        # and batched together, though 1 km does not dominate 20 m
        poses = [tracked_pose(1000.0, 0.0, math.pi / 2),
                 tracked_pose(3000.0, 0.0, math.pi / 2, fy=20.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in poses:
                kernel(*pose_arrays([p]), BEAM, DET)
            kernel(*pose_arrays(poses), BEAM, DET)


class TestBounds:
    def test_orthogonal_bounds_coincide(self):
        for u in (0.0, 0.08, 0.2):
            pose = tracked_pose(1000.0, 0.0, math.pi / 2, fy=u, fz=0.3 * u)
            ex = exact_loss(pose, BEAM, DET)
            assert bound_lower(pose, BEAM, DET) == pytest.approx(ex, abs=1e-8)
            assert bound_upper(pose, BEAM, DET) == pytest.approx(ex, abs=1e-8)

    def test_centered_oblique_bounds_coincide(self):
        pose = tracked_pose(1000.0, math.pi / 4, math.pi / 2)
        ex = exact_loss(pose, BEAM, DET)
        assert bound_lower(pose, BEAM, DET) == pytest.approx(ex, abs=1e-8)
        assert bound_upper(pose, BEAM, DET) == pytest.approx(ex, abs=1e-8)

    def test_ordering_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            alpha = rng.uniform(-math.pi / 3, math.pi / 3)
            beta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
            u = rng.uniform(0.0, 3.0 * DET.a)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pose = tracked_pose(1000.0, alpha, beta,
                                fy=u * math.cos(ang), fz=u * math.sin(ang))
            low = bound_lower(pose, BEAM, DET)
            ex = exact_loss(pose, BEAM, DET)
            upp = bound_upper(pose, BEAM, DET)
            assert low <= ex + 2e-9
            assert ex <= upp + 2e-9

    def test_bounds_strictly_separate_for_oblique_offset(self):
        pose = tracked_pose(1000.0, math.pi / 4, math.pi / 2, fy=0.1, fz=0.1)
        assert bound_upper(pose, BEAM, DET) - bound_lower(pose, BEAM, DET) > 1e-4


def assert_bounds_are_unrotated_exact(pose, det):
    """bound_lower/bound_upper against exact_loss at the un-rotated poses
    (theta = 0, phi = psi) with the footprint offset u along y or along z."""
    psi = incidence_angle(pose.orientation)
    dist = pose.position.norm()
    u = footprint_center(pose).offset()
    flat = Orientation(0.0, psi)
    t = math.sqrt(dist**2 - u**2)
    across = Pose(Position(t * math.sin(psi), u, t * math.cos(psi)), flat)
    t = -u * math.cos(psi) + math.sqrt(dist**2 - (u * math.sin(psi)) ** 2)
    along = Pose(Position(t * math.sin(psi), 0.0, u + t * math.cos(psi)), flat)
    assert bound_lower(pose, BEAM, det) == pytest.approx(exact_loss(across, BEAM, det), rel=1e-9)
    assert bound_upper(pose, BEAM, det) == pytest.approx(exact_loss(along, BEAM, det), rel=1e-9)


class TestBoundIdentity:
    @pytest.mark.parametrize("a", [0.05, 0.1, 0.6, 0.8])
    def test_bounds_are_exact_loss_of_unrotated_poses(self, a):
        rng = np.random.default_rng(int(a * 100))
        for _ in range(75):
            alpha = rng.uniform(-math.pi / 3, math.pi / 3)
            beta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
            u = rng.uniform(0.0, 2.0 * a)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            pose = tracked_pose(1000.0, alpha, beta, fy=u * math.cos(ang), fz=u * math.sin(ang))
            assert_bounds_are_unrotated_exact(pose, DetectorParams(a))

    def test_identity_holds_where_the_bounds_cross(self):
        # a = 0.6 m against w = 0.49 m: the "bounds" cross, and still each is
        # the exact loss of its un-rotated pose, so the crossing is the model's
        pose = tracked_pose(1000.0, math.pi / 4, math.pi / 2, fy=0.1, fz=0.1)
        det = DetectorParams(0.6)
        assert bound_lower(pose, BEAM, det) > bound_upper(pose, BEAM, det)
        assert_bounds_are_unrotated_exact(pose, det)


class TestApprox:
    def test_orthogonal_params(self):
        ap = approx_params(tracked_pose(1000.0, 0.0, math.pi / 2), BEAM, DET)
        w = beam_width(BEAM, 1000.0)
        nu = DET.a / w * math.sqrt(math.pi / 2)
        assert ap.nu_min == pytest.approx(nu, rel=1e-12)
        assert ap.nu_max == pytest.approx(nu, rel=1e-12)
        assert ap.nu_min == pytest.approx(0.2540, abs=1e-4)
        assert ap.a0 == pytest.approx(0.0787, abs=1e-4)
        assert ap.k_min == ap.k_max == ap.k_mean
        assert ap.k_mean == pytest.approx(1.0441303013596828, rel=1e-12)

    def test_param_invariants_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(80):
            alpha = rng.uniform(-math.pi / 3, math.pi / 3)
            beta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
            ap = approx_params(tracked_pose(1000.0, alpha, beta, fy=rng.uniform(0, 0.3)),
                               BEAM, DET)
            assert 0.0 < ap.a0 < 1.0
            assert ap.k_min <= ap.k_mean <= ap.k_max
            assert ap.k_mean == pytest.approx(0.5 * (ap.k_min + ap.k_max), rel=1e-15)
            assert ap.u >= 0.0

    def test_bounds_at_zero_offset(self):
        pose = tracked_pose(1000.0, 0.3, 1.7)
        ap = approx_params(pose, BEAM, DET)
        low, upp = approx_bounds(ap)
        # tracked pose: u is footprint rounding residue, so both collapse to a0
        assert ap.u <= 1e-12
        assert low == pytest.approx(ap.a0, rel=1e-12)
        assert upp == pytest.approx(ap.a0, rel=1e-12)
        assert approx_mean(ap) == pytest.approx(ap.a0, rel=1e-12)

    def test_mean_within_bounds(self):
        for u in (0.0, 0.05, 0.15, 0.3):
            ap = approx_params(tracked_pose(1000.0, math.pi / 8, 5 * math.pi / 8, fy=u),
                               BEAM, DET)
            low, upp = approx_bounds(ap)
            assert low <= approx_mean(ap) <= upp

    def test_large_nu_gives_infinite_k_and_a0(self):
        # a = 12 m against w = 0.49 m gives nu = 30.5, where exp(-nu^2)
        # underflows; k = inf is the limit and the kernels return a0.  1 km
        # does not dominate a = 12 m, so the pose is far-field marginal
        with pytest.warns(UserWarning, match="far-field"):
            ap = approx_params(tracked_pose(1000.0, 0.0, math.pi / 2, fy=5.0),
                               BEAM, DetectorParams(12.0))
        assert ap.nu_min == pytest.approx(30.5, abs=0.1)
        assert ap.k_min == math.inf
        assert approx_mean(ap) == ap.a0
        assert approx_bounds(ap) == (ap.a0, ap.a0)

    def test_displaced_orthogonal_value(self):
        # frozen: A0 * exp(-2*0.01/(k*w^2)) at the default link
        ap = approx_params(tracked_pose(1000.0, 0.0, math.pi / 2, fy=0.1), BEAM, DET)
        expected = ap.a0 * math.exp(-2.0 * 0.01 / (ap.k_mean * ap.w**2))
        assert approx_mean(ap) == pytest.approx(expected, rel=1e-14)
        assert approx_mean(ap) == pytest.approx(0.07274412194782998, rel=1e-9)

    def test_closed_form_bounds_cross_once_a_is_comparable_to_w(self):
        # the pose where the exact bounds cross (TestBoundIdentity): the
        # closed-form pair is ordered at a = 0.5 m and crossed at a = 0.6 m
        pose = tracked_pose(1000.0, math.pi / 4, math.pi / 2, fy=0.1, fz=0.1)
        # both nu_min lie past NU_STAR, so the ordered a = 0.5 m pose shows
        # that nu_min <= NU_STAR is sufficient for k_min <= k_max, not necessary
        assert NU_STAR == pytest.approx(1.1420888, abs=1e-7)
        ap = approx_params(pose, BEAM, DetectorParams(0.5))
        assert ap.k_min == pytest.approx(3.246, abs=1e-3)
        assert ap.k_max == pytest.approx(3.518, abs=1e-3)
        assert ap.nu_min == pytest.approx(1.27, abs=5e-3) and ap.nu_min > NU_STAR
        low, upp = approx_bounds(ap)
        assert low <= approx_mean(ap) <= upp
        ap = approx_params(pose, BEAM, DetectorParams(0.6))
        assert ap.k_min == pytest.approx(5.744, abs=1e-3)
        assert ap.k_max == pytest.approx(4.582, abs=1e-3)
        assert ap.nu_min == pytest.approx(1.52, abs=5e-3)
        low, upp = approx_bounds(ap)
        assert low > approx_mean(ap) > upp

    def test_close_to_exact_at_center(self):
        pose = tracked_pose(1000.0, 0.0, math.pi / 2)
        ap = approx_params(pose, BEAM, DET)
        assert approx_mean(ap) == pytest.approx(exact_loss(pose, BEAM, DET), rel=0.02)


class TestMonotoneDecay:
    def test_exact_and_approx_decay_in_offset(self):
        us = np.linspace(0.0, 0.4, 9)
        for direction in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8)):
            ex, am = [], []
            for u in us:
                pose = tracked_pose(1000.0, math.pi / 8, 5 * math.pi / 8,
                                    fy=u * direction[0], fz=u * direction[1])
                ex.append(exact_loss(pose, BEAM, DET))
                am.append(approx_mean(approx_params(pose, BEAM, DET)))
            assert all(a >= b - 1e-12 for a, b in zip(ex, ex[1:]))
            assert all(a >= b - 1e-15 for a, b in zip(am, am[1:]))


def oblique_pose(theta, phi, u, ang, dist=1000.0):
    """Orientation (theta, phi) from about `dist` away, its beam line
    meeting the detector plane at offset u in direction ang."""
    fy, fz = u * math.cos(ang), u * math.sin(ang)
    d = direction_from_angles(Orientation(theta, phi))
    return Pose(Position(dist * d[0], fy + dist * d[1], fz + dist * d[2]),
                Orientation(theta, phi))


def one_pose_batch(kernel, pose, det):
    """`kernel`'s value for `pose` through the (1,)-array pose derivation,
    and so through `_capture`'s batch path."""
    pose_form = geoloss_mod._pose_form

    def batched(*args):
        *coords, b, a = args
        return pose_form(*(np.array([c], float) for c in coords), b, a)

    with mock.patch.object(geoloss_mod, "_pose_form", batched):
        return kernel(pose, BEAM, det)[0]


_WIDTH = beam_width(BEAM, 1000.0)


def _g(nu):
    """erf(nu) exp(nu^2) / nu^3: a k of `_approx` is (pi^1.5 / 4) (a/w)^2 g(nu)."""
    return math.erf(nu) / (nu**3 * math.exp(-nu * nu))


# where g is least: d log g / d nu = 2 exp(-nu^2) / (sqrt(pi) erf nu) + 2 nu - 3 / nu = 0
NU_STAR = brentq(lambda v: 2.0 * math.exp(-v * v) / (math.sqrt(math.pi) * math.erf(v))
                 + 2.0 * v - 3.0 / v, 0.5, 2.0, xtol=1e-14)


# phi within 1e-3 of 0 or pi, theta within 1e-3 of pi/2: grazing on both
# sides of DEGENERACY_TOL; elsewhere anything not grazing
_EDGE = st.floats(1e-15, 1e-3)
_PHI = st.one_of(st.floats(0.05, math.pi - 0.05), _EDGE, _EDGE.map(lambda e: math.pi - e))
_THETA = st.one_of(st.floats(0.0, 2 * math.pi),
                   st.floats(-1e-3, 1e-3).map(lambda e: math.pi / 2 + e))


@pytest.mark.filterwarnings("ignore:far-field")
class TestProperties:
    """Over a/w in [0.01, 2], offsets up to 20 beam widths and grazing
    incidence (20 widths is where the far-field check starts to warn)."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(a_w=st.floats(0.01, 2.0), u_w=st.floats(0.0, 20.0),
           ang=st.floats(0.0, 2 * math.pi), theta=_THETA, phi=_PHI)
    def test_losses_are_in_unit_interval_and_their_one_pose_batch(self, a_w, u_w, ang,
                                                                 theta, phi):
        pose = oblique_pose(theta, phi, u_w * _WIDTH, ang)
        det = DetectorParams(a_w * _WIDTH)
        for kernel in (exact_loss, bound_lower, bound_upper):
            try:
                val = kernel(pose, BEAM, det)
            except DegenerateGeometryError:
                with pytest.raises(DegenerateGeometryError):
                    one_pose_batch(kernel, pose, det)
                continue
            assert type(val) is float and 0.0 <= val <= 1.0
            assert val == one_pose_batch(kernel, pose, det)
            if kernel is exact_loss:
                assert val == exact_loss_batch(*pose_arrays([pose]), BEAM, det)[0]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(a_w=st.floats(0.01, 2.0), u_w=st.floats(0.0, 20.0),
           ang=st.floats(0.0, 2 * math.pi), theta=_THETA, phi=_PHI)
    def test_k_is_ordered_wherever_nu_min_is_at_most_nu_star(self, a_w, u_w, ang,
                                                              theta, phi):
        # k = C g(nu) with C common to k_min and k_max, and nu_min >= nu_max;
        # g falls on (0, NU_STAR], so nu_min <= NU_STAR gives k_min <= k_max
        pose = oblique_pose(theta, phi, u_w * _WIDTH, ang)
        a = a_w * _WIDTH
        try:
            ap = approx_params(pose, BEAM, DetectorParams(a))
        except DegenerateGeometryError:
            return
        c = math.pi**1.5 / 4.0 * (a / ap.w) ** 2
        for k, nu in ((ap.k_min, ap.nu_min), (ap.k_max, ap.nu_max)):
            if math.isfinite(k):
                assert k == pytest.approx(c * _g(nu), rel=1e-12)
        assert ap.nu_min >= ap.nu_max
        if ap.nu_min <= NU_STAR:
            assert ap.k_min <= ap.k_max * (1.0 + 1e-12)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(a_w=st.floats(0.01, 2.0), ang=st.floats(0.0, 2 * math.pi),
           u_w=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6))
    def test_exact_loss_is_non_increasing_in_offset_at_orthogonal_incidence(self, a_w,
                                                                            ang, u_w):
        # non-increasing to within the kernel's own relative accuracy, as two
        # close offsets may converge at different orders
        det = DetectorParams(a_w * _WIDTH)
        losses = [exact_loss(oblique_pose(0.0, math.pi / 2, u * _WIDTH, ang), BEAM, det)
                  for u in sorted(u_w)]
        tol = geoloss_mod.DEFAULT_REL_TOL
        assert all(b <= a * (1.0 + tol) for a, b in zip(losses, losses[1:]))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(a_w=st.floats(0.01, 0.9), alpha=st.floats(-math.pi / 3, math.pi / 3),
           beta=st.floats(math.pi / 3, 2 * math.pi / 3), u_a=st.floats(0.0, 3.0),
           ang=st.floats(0.0, 2 * math.pi))
    def test_bounds_bracket_the_exact_loss_while_a_is_below_w(self, a_w, alpha, beta, u_a,
                                                                ang):
        # validate's bound_ordering sampling (tracked poses at 1 km, offsets up to
        # 3a) at any a/w up to 0.9: the ordering was seen to fail first at
        # a/w = 1.0016 over that sampling, at small offsets
        a = a_w * _WIDTH
        pose = tracked_pose(1000.0, alpha, beta, u_a * a * math.cos(ang),
                            u_a * a * math.sin(ang))
        det = DetectorParams(a)
        exact, slack = exact_loss(pose, BEAM, det), 2.0 * geoloss_mod.DEFAULT_REL_TOL
        assert bound_lower(pose, BEAM, det) - exact <= slack
        assert exact - bound_upper(pose, BEAM, det) <= slack


class TestBatchKernels:
    def test_exact_batch_matches_scalar(self):
        poses = [tracked_pose(1000.0, a, b, fy=f)
                 for a, b, f in [(0.0, math.pi / 2, 0.0), (0.2, 1.5, 0.1),
                                 (math.pi / 8, 5 * math.pi / 8, 0.05)]]
        batch = exact_loss_batch(*pose_arrays(poses), BEAM, DET)
        for i, p in enumerate(poses):
            assert batch[i] == pytest.approx(exact_loss(p, BEAM, DET), rel=1e-9)

    def test_exact_loss_is_the_one_pose_batch_bitwise(self):
        # one derivation serves both: a pose's scalar loss is its batch bits
        rng = np.random.default_rng(5)
        for i in range(300):
            a = (0.05, 0.1, 0.6)[i % 3]
            u, ang = rng.uniform(0.0, 2.0 * a), rng.uniform(0.0, 2.0 * math.pi)
            pose = tracked_pose(1000.0, rng.uniform(-math.pi / 3, math.pi / 3),
                                rng.uniform(math.pi / 3, 2 * math.pi / 3),
                                fy=u * math.cos(ang), fz=u * math.sin(ang))
            det = DetectorParams(a)
            batch = exact_loss_batch(*pose_arrays([pose]), BEAM, det)
            assert exact_loss(pose, BEAM, det) == batch[0]

    def test_exact_batch_of_no_trials(self):
        # a chunk whose trials are all degenerate passes empty arrays
        empty = np.empty(0)
        assert exact_loss_batch(empty, empty, empty, empty, empty, BEAM, DET).shape == (0,)

    def test_exact_batch_bits_do_not_depend_on_row(self):
        # at 1 mrad the batch converges at order 32 (2048 nodes), where these
        # poses span four row blocks of the integrand and of its sums
        n = 3 * (BLOCK // 2048) + 5
        poses = fig4_poses(n)
        perm = np.random.default_rng(8).permutation(n)
        base = exact_loss_batch(*pose_arrays(poses), BEAM, DET)
        shuffled = exact_loss_batch(*pose_arrays([poses[i] for i in perm]), BEAM, DET)
        assert shuffled.tobytes() == base[perm].tobytes()

    def test_exact_batch_bits_do_not_depend_on_block_rows(self):
        # at order 32 these poses fill three `BLOCK // 2048`-row blocks and
        # one 1-row block; rolling by one moves a pose between a full and a
        # lone block
        arrays = pose_arrays(fig4_poses(3 * (BLOCK // 2048) + 1))
        base = exact_loss_batch(*arrays, BEAM, DET)
        rolled = exact_loss_batch(*(np.roll(v, 1) for v in arrays), BEAM, DET)
        assert rolled.tobytes() == np.roll(base, 1).tobytes()

    @pytest.mark.filterwarnings("ignore:far-field")
    def test_every_exponent_product_has_two_rows_and_at_most_a_block(self, monkeypatch):
        # a 1-row product takes BLAS's matrix-vector path, and a large one
        # may be spread over threads; either could change a pose's bits
        shapes = []
        matmul = np.matmul

        def spy(c, basis, **kwargs):
            shapes.append((len(c), basis.shape[1]))
            return matmul(c, basis, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        exact_loss_batch(*pose_arrays(fig4_poses(3 * (BLOCK // 2048) + 1)), BEAM, DET)
        # a beam 100 times narrower than the detector, off its centre, runs
        # the rule up to order 512 before the quadrature gives up
        w = beam_width(BEAM, 1000.0)
        with pytest.raises(QuadratureError):
            exact_loss(tracked_pose(1000.0, 0.0, math.pi / 2, fy=50.0 * w), BEAM,
                       DetectorParams(100.0 * w))
        assert max(cols for _, cols in shapes) == BLOCK // 2
        assert all(rows >= 2 and rows * cols <= BLOCK for rows, cols in shapes)

    @pytest.mark.filterwarnings("ignore:far-field")
    @pytest.mark.parametrize("alpha, beta", [(0.0, math.pi / 2),
                                             (math.pi / 8, 5 * math.pi / 8)])
    def test_exact_loss_at_far_offsets_matches_the_oracle(self, alpha, beta):
        # the expanded exponent keeps rel_tol down to losses near 1e-300 (an
        # offset of ~20 beam widths) and underflows where the oracle does
        det = DetectorParams(0.6)
        w = beam_width(BEAM, 1000.0)
        refs = []
        for k in (3, 4, 6, 8, 12, 16, 18, 20, 21, 24):
            for ang in (0.0, 0.7, math.pi / 2, 2.5, 4.0):
                pose = tracked_pose(1000.0, alpha, beta, fy=k * w * math.cos(ang),
                                    fz=k * w * math.sin(ang))
                got = exact_loss(pose, BEAM, det)
                ref = disk_quadrature(
                    lambda y, z, wt: intensity_on_pd((y, z), pose, BEAM) * wt, det.a)
                assert got == pytest.approx(ref, rel=geoloss_mod.DEFAULT_REL_TOL, abs=0.0)
                refs.append(ref)
        assert 0.0 in refs and min(r for r in refs if r) < 1e-300

    def test_exact_batch_streams_its_integrand(self):
        # a Fig-4 chunk at 1 mrad converges at order 32, where a whole
        # (CHUNK, 2048) integrand would be 64 MiB; row blocks stay far below
        d = PoseDistribution.from_spherical(1000.0, math.pi / 8, 5 * math.pi / 8,
                                            sigma_o=1e-3)
        poses = _chunk_poses(d, 0, 0, CHUNK)
        exact_loss_batch(*poses, BEAM, DET)  # caches the polar rules
        tracemalloc.start()
        try:
            exact_loss_batch(*poses, BEAM, DET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_exact_batch_fills_a_large_block_per_integrand_call(self, monkeypatch):
        # each integrand call fills a block of at least 2^16 elements, so
        # 1024 Fig-4 poses at 1 mrad take at most 32 calls at order 32; a
        # change back to small blocks fails here rather than only slowing down
        calls = collections.Counter()
        block_sums = numerics._block_sums

        def counting_block_sums(f, y, z, w, n):
            def counted(*args):
                calls[len(y)] += 1
                return f(*args)
            return block_sums(counted, y, z, w, n)

        monkeypatch.setattr(numerics, "_block_sums", counting_block_sums)
        d = PoseDistribution.from_spherical(1000.0, math.pi / 8, 5 * math.pi / 8,
                                            sigma_o=1e-3)
        exact_loss_batch(*_chunk_poses(d, 0, 0, 1024), BEAM, DET)
        assert sorted(calls) == [128, 512, 2048]  # orders 8, 16 and 32
        assert all(k <= math.ceil(1024 * nodes / 2**16) for nodes, k in calls.items())

    def test_closed_form_is_the_one_pose_batch_bitwise(self):
        # one closed-form expression serves both: a pose's scalar values are
        # the batch expression's bits at k_mean, k_min and k_max
        rng = np.random.default_rng(11)
        for i in range(300):
            a = (0.05, 0.1, 0.6)[i % 3]
            u, ang = rng.uniform(0.0, 2.0 * a), rng.uniform(0.0, 2.0 * math.pi)
            pose = tracked_pose(1000.0, rng.uniform(-math.pi / 3, math.pi / 3),
                                rng.uniform(math.pi / 3, 2 * math.pi / 3),
                                fy=u * math.cos(ang), fz=u * math.sin(ang))
            det = DetectorParams(a)
            arrays = pose_arrays([pose])
            ap = approx_params(pose, BEAM, det)
            assert approx_mean(ap) == approx_mean_batch(*arrays, BEAM, det)[0]
            one = geoloss_mod._approx(geoloss_mod._pose_form(*arrays, BEAM, a), a)
            expected = tuple(float((one.a0 * np.exp(-2.0 * one.u2 / (k * one.w * one.w)))[0])
                             for k in (one.k_min, one.k_max))
            assert approx_bounds(ap) == expected

    def test_exact_batch_rows_converge_on_their_own(self):
        # Fig-4 trials at 0.2 mrad converge at order 16 and most at 1 mrad at
        # order 32; mixed in one batch, each row still keeps its own order
        rows = [np.concatenate(v) for v in zip(*(
            _chunk_poses(PoseDistribution.from_spherical(
                1000.0, math.pi / 8, 5 * math.pi / 8, sigma_o=s), 0, 0, 64)
            for s in (2e-4, 1e-3)))]
        mixed = exact_loss_batch(*rows, BEAM, DET)
        alone = [exact_loss_batch(*(v[i:i + 1] for v in rows), BEAM, DET)[0]
                 for i in range(128)]
        assert mixed.tobytes() == np.array(alone).tobytes()

    def test_bounds_batch_is_the_scalar_api_bitwise(self):
        # the README pose (a = 0.6 m, offset 0.1:0.1, where both pairs of
        # bounds cross), centred rows and offsets off the disk, in one batch
        for a in (0.6, 0.1):
            det = DetectorParams(a)
            poses = [tracked_pose(1000.0, alpha, beta, fy=fy, fz=fz)
                     for alpha, beta in ((math.pi / 4, math.pi / 2), (0.0, math.pi / 2),
                                         (math.pi / 8, 5 * math.pi / 8))
                     for fy, fz in ((0.1, 0.1), (0.0, 0.0), (0.05, -0.02), (0.9, 0.4),
                                    (-1.5, 2.0))]
            cols = bounds_batch(*pose_arrays(poses), BEAM, det)
            for i, p in enumerate(poses):
                ap = approx_params(p, BEAM, det)
                assert (cols.exact[i], cols.lower[i], cols.upper[i], cols.approx_lower[i],
                        cols.approx_upper[i], cols.approx_mean[i]) == (
                    exact_loss(p, BEAM, det), bound_lower(p, BEAM, det),
                    bound_upper(p, BEAM, det), *approx_bounds(ap), approx_mean(ap))
            assert (cols.lower[0] > cols.upper[0]) == (a == 0.6)
            assert (cols.approx_lower[0] > cols.approx_upper[0]) == (a == 0.6)

    def test_approx_batch_matches_scalar(self):
        poses = [tracked_pose(1000.0, a, b, fy=f)
                 for a, b, f in [(0.0, math.pi / 2, 0.2), (-0.3, 1.2, 0.02)]]
        batch = approx_mean_batch(*pose_arrays(poses), BEAM, DET)
        for i, p in enumerate(poses):
            assert batch[i] == pytest.approx(
                approx_mean(approx_params(p, BEAM, DET)), rel=1e-12)


class TestChannelComposition:
    def test_identity(self):
        assert channel_coefficient(ChannelInputs(1.0, 1.0, 1.0), 0.37) == 0.37

    def test_zero_factor(self):
        assert channel_coefficient(ChannelInputs(0.0, 1.0, 1.0), 0.5) == 0.0

    def test_product(self):
        assert channel_coefficient(ChannelInputs(0.5, 0.8, 1.2), 0.1) == pytest.approx(0.048)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelInputs(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ChannelInputs(1.0, 1.5, 1.0)
        # each would make the composite coefficient nan or infinite
        for eta, ha in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                ChannelInputs(eta, 1.0, ha)
        for hg in (-0.1, math.nan):
            with pytest.raises(ValueError):
                channel_coefficient(ChannelInputs(1.0, 1.0, 1.0), hg)


class TestLossDb:
    def test_values(self):
        assert loss_db(0.1) == pytest.approx(10.0)
        assert loss_db(1.0) == 0.0

    def test_zero_maps_to_inf(self):
        assert loss_db(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            loss_db(-1e-9)

    def test_a_float_is_its_element_of_an_array_bitwise(self):
        x = np.logspace(-300.0, 0.0, 100_000)
        db = loss_db(x)
        assert isinstance(db, np.ndarray) and isinstance(loss_db(float(x[0])), float)
        assert [loss_db(v) for v in x.tolist()] == db.tolist()

    @pytest.mark.parametrize("at", [0, 4, 9])
    def test_a_negative_anywhere_in_an_array_is_rejected(self, at):
        x = np.linspace(0.1, 1.0, 10)
        x[at] = -1e-300
        with pytest.raises(ValueError, match="non-negative"):
            loss_db(x)

    def test_zero_in_an_array_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = loss_db(np.array([0.5, 0.0, 1.0]))
        assert db[1] == math.inf and db[2] == 0.0
