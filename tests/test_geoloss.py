import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_geoloss import geoloss as geoloss_mod
from fso_geoloss.beam import BeamParams, beam_width, intensity_on_pd
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
    batch of them converges at order 32 (2048 nodes, 8-row blocks)."""
    d = PoseDistribution.from_spherical(1000.0, math.pi / 8, 5 * math.pi / 8, sigma_o=1e-3)
    return [sample_pose(d, 0, i) for i in range(n)]


def pose_arrays(poses):
    """(rx, ry, rz, theta, phi) arrays for the batch kernels."""
    return tuple(np.array(v) for v in zip(*(
        (p.position.rx, p.position.ry, p.position.rz, p.orientation.theta, p.orientation.phi)
        for p in poses)))


class TestExactLoss:
    def test_centered_orthogonal_closed_form(self):
        for a in (0.01, 0.05, 0.1, 0.2):
            for dist in (500.0, 1000.0, 2000.0):
                pose = tracked_pose(dist, 0.0, math.pi / 2)
                w = beam_width(BEAM, dist)
                expected = 1.0 - math.exp(-2.0 * a * a / (w * w))
                got = exact_loss(pose, BEAM, DetectorParams(a))
                assert got == pytest.approx(expected, rel=1e-8)

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

    def test_one_far_field_warning_per_call(self):
        # 5 m against a 0.1 m detector is inside 100 reach; the quadrature
        # refines over several levels but the check runs once per call
        pose = tracked_pose(5.0, math.pi / 8, 5 * math.pi / 8)
        for call in (lambda: exact_loss(pose, BEAM, DET),
                     lambda: exact_loss_batch(*pose_arrays([pose, pose]), BEAM, DET)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert len(caught) == 1
            assert "far-field" in str(caught[0].message)
            assert caught[0].filename == __file__


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
        # underflows; k = inf is the limit and the kernels return a0
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
        ap = approx_params(pose, BEAM, DetectorParams(0.5))
        assert ap.k_min == pytest.approx(3.246, abs=1e-3)
        assert ap.k_max == pytest.approx(3.518, abs=1e-3)
        low, upp = approx_bounds(ap)
        assert low <= approx_mean(ap) <= upp
        ap = approx_params(pose, BEAM, DetectorParams(0.6))
        assert ap.k_min == pytest.approx(5.744, abs=1e-3)
        assert ap.k_max == pytest.approx(4.582, abs=1e-3)
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
        *coords, b = args
        return pose_form(*(np.array([c], float) for c in coords), b)

    with mock.patch.object(geoloss_mod, "_pose_form", batched):
        return kernel(pose, BEAM, det)[0]


_WIDTH = beam_width(BEAM, 1000.0)
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
        # at order 32 these poses fill three 8-row blocks and one 1-row
        # block; rolling by one moves a pose between a full and a lone block
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
        # (CHUNK, 2048) integrand would be 16 MiB; row blocks stay far below
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
            f = geoloss_mod._pose_form(*arrays, BEAM)
            a0, k_min, k_max, _, _ = geoloss_mod._approx(a, f.w, f.rho_min, f.rho_max)
            u2 = f.fy * f.fy + f.fz * f.fz
            expected = tuple(float((a0 * np.exp(-2.0 * u2 / (k * f.w * f.w)))[0])
                             for k in (k_min, k_max))
            assert approx_bounds(ap) == expected

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
        with pytest.raises(ValueError):
            channel_coefficient(ChannelInputs(1.0, 1.0, 1.0), -0.1)


class TestLossDb:
    def test_values(self):
        assert loss_db(0.1) == pytest.approx(10.0)
        assert loss_db(1.0) == 0.0

    def test_zero_maps_to_inf(self):
        assert loss_db(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            loss_db(-1e-9)
