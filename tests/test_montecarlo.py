import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_geoloss import montecarlo
from fso_geoloss.beam import BeamParams
from fso_geoloss.geometry import Orientation, Pose, Position
from fso_geoloss.geoloss import DetectorParams, approx_mean, approx_params, exact_loss
from fso_geoloss.montecarlo import (
    CHUNK,
    LOSS_KERNELS,
    GofInconclusiveError,
    TrialPlan,
    _bin_probabilities,
    _chunk_eps,
    _chunk_poses,
    build_histogram,
    chi_square_gof,
    run_trials,
    sample_pose,
    sturges_bins,
    summarize,
)
from fso_geoloss.stochastic import PoseDistribution, geoloss_pdf

BEAM = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
DET = DetectorParams(a=0.1)


def plan_for(sigma_p=0.0, sigma_o=1e-4, n=2000, seed=101, kernel="exact",
             alpha=0.0, beta=math.pi / 2, radius=1000.0):
    d = PoseDistribution.from_spherical(radius, alpha, beta,
                                        sigma_p=sigma_p, sigma_o=sigma_o)
    return TrialPlan(n_trials=n, seed=seed, distribution=d, beam=BEAM,
                     detector=DET, loss_kernel=kernel)


class TestTrialPlan:
    def test_validation(self):
        d = PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2)
        with pytest.raises(ValueError):
            TrialPlan(n_trials=0, seed=1, distribution=d, beam=BEAM, detector=DET)
        with pytest.raises(ValueError):
            TrialPlan(n_trials=10, seed=1, distribution=d, beam=BEAM,
                      detector=DET, loss_kernel="nope")


class TestRunTrials:
    def test_zero_sigma_degenerates_to_mean_pose(self):
        plan = plan_for(sigma_p=0.0, sigma_o=0.0, n=64)
        samples, stats = run_trials(plan)
        d = plan.distribution
        ref = exact_loss(Pose(d.mu_r, d.mu_omega), BEAM, DET)
        assert np.all(samples == samples[0])
        assert samples[0] == pytest.approx(ref, rel=1e-12)
        assert stats.std_linear <= 1e-16  # identical samples up to mean rounding

    def test_zero_sigma_approx_kernel(self):
        plan = plan_for(sigma_p=0.0, sigma_o=0.0, n=8, kernel="approx_mean")
        samples, _ = run_trials(plan)
        d = plan.distribution
        ref = approx_mean(approx_params(Pose(d.mu_r, d.mu_omega), BEAM, DET))
        assert samples[0] == pytest.approx(ref, rel=1e-12)

    # at 1 mrad every chunk converges at polar order 32, so each worker
    # thread streams `BLOCK // 2048`-row blocks through its own call's scratch
    @pytest.mark.parametrize("sigma_o", [2e-4, 1e-3])
    def test_parallelism_invariance(self, monkeypatch, sigma_o):
        plan = plan_for(n=3 * CHUNK + 17, sigma_o=sigma_o)
        monkeypatch.setenv(montecarlo.THREADS_ENV, "1")
        s1, st1 = run_trials(plan)
        monkeypatch.setenv(montecarlo.THREADS_ENV, "8")
        s8, st8 = run_trials(plan)
        assert np.array_equal(s1, s8)
        assert st1 == st8

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_is_rejected(self, monkeypatch, threads):
        monkeypatch.setenv(montecarlo.THREADS_ENV, threads)
        with pytest.raises(montecarlo.ThreadsEnvError):
            run_trials(plan_for(n=10))

    @pytest.mark.parametrize("n, threads, cpus, workers", [
        (64, 10**6, 1000, 64), (10**5, 10**5, 3, 3), (10, 2, 1000, 2), (1, 8, 1000, 1)])
    def test_pool_has_no_more_threads_than_chunks_or_cpus(self, monkeypatch, n, threads,
                                                           cpus, workers):
        # a serial stand-in for the executor records its size and starts no thread
        sizes = []

        class Serial:
            map = staticmethod(map)

        monkeypatch.setattr(montecarlo, "_pool", lambda w: sizes.append(w) or Serial())
        monkeypatch.setattr(montecarlo, "_chunk_losses",
                            lambda plan, start, count: (np.full(count, 0.5), 0))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv(montecarlo.THREADS_ENV, str(threads))
        samples, _ = run_trials(plan_for(n=n))
        assert sizes == [workers] and samples.tolist() == [0.5] * n

    def test_trials_match_per_trial_streams(self):
        plan = plan_for(n=40, sigma_p=0.01, sigma_o=1e-4, kernel="exact")
        samples, _ = run_trials(plan)
        d = plan.distribution
        # trial 13 recomputed through the public per-trial path, to the bit:
        # a trial converges on its own, not with its chunk
        pose = sample_pose(d, plan.seed, 13)
        assert samples[13] == exact_loss(pose, BEAM, DET)

    @pytest.mark.parametrize("n, threads", [(1, 1), (10, 8), (CHUNK, 1), (CHUNK + 1, 1),
                                            (2 * CHUNK, 8), (3 * CHUNK + 17, 2)])
    def test_every_thread_gets_a_chunk_of_at_most_chunk_trials(self, monkeypatch, n,
                                                               threads):
        chunks = []

        def spy(plan, start, count):
            chunks.append((start, count))
            return np.zeros(count), 0

        monkeypatch.setattr(montecarlo, "_chunk_losses", spy)
        monkeypatch.setenv(montecarlo.THREADS_ENV, str(threads))
        run_trials(plan_for(n=n))
        starts, counts = zip(*sorted(chunks))
        # chunks of min(CHUNK, ceil(n / threads)) trials: 2 * CHUNK trials on
        # 8 threads make 8 chunks, not 2
        assert len(counts) == math.ceil(n / min(CHUNK, math.ceil(n / threads)))
        assert len(counts) >= min(threads, math.ceil(n / CHUNK)) and max(counts) <= CHUNK
        # the chunks tile the trials [0, n) in order
        assert np.cumsum((0,) + counts).tolist() == [*starts, n]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_does_not_touch_a_trials_bits(self, monkeypatch, chunk):
        # at 0.5 mrad the Fig-4 trials converge at orders 16 and 32, so a
        # chunk converged jointly would move some of them
        plan = plan_for(sigma_o=5e-4, n=512, seed=0, alpha=math.pi / 8,
                        beta=5 * math.pi / 8)
        base, _ = run_trials(plan)
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        samples, _ = run_trials(plan)
        assert samples.tobytes() == base.tobytes()

    def test_sample_pose_is_its_row_across_a_chunk_boundary(self):
        # trials CHUNK-2 .. CHUNK+1 sit in the first and second chunk of a
        # run; 2 mrad off the pole, the first folded trial is checked too.
        # There the footprints lie hundreds of metres off the detector, so
        # these poses are far-field marginal and their kernels warn
        def far_field_warns(marginal):
            return (pytest.warns(UserWarning, match="far-field") if marginal
                    else contextlib.nullcontext())

        for beta in (math.pi / 2, 2e-3):
            plan = plan_for(n=2 * CHUNK, sigma_p=0.01, sigma_o=1e-3, kernel="approx_mean",
                            beta=beta)
            d = plan.distribution
            rows = [np.column_stack(_chunk_poses(d, plan.seed, start, CHUNK))
                    for start in (0, CHUNK)]
            raw = _chunk_eps(plan.seed, 0, 2 * CHUNK, d.sigmas())[:, 3:] + (
                d.mu_omega.theta, d.mu_omega.phi)
            folded = np.flatnonzero((raw[:, 1] <= 0.0) | (raw[:, 1] >= math.pi)).tolist()
            assert (len(folded) > 0) == (beta < 1.0)
            with far_field_warns(beta < 1.0):
                samples, _ = run_trials(plan)
            for i in [*range(CHUNK - 2, CHUNK + 2), *folded[:1]]:
                p = sample_pose(d, plan.seed, i)
                pose = np.array([p.position.rx, p.position.ry, p.position.rz,
                                 p.orientation.theta, p.orientation.phi])
                assert pose.tobytes() == rows[i // CHUNK][i % CHUNK].tobytes()
                with far_field_warns(beta < 1.0):
                    ap = approx_params(p, BEAM, DET)
                assert approx_mean(ap) == samples[i]
            for i in folded:
                o = sample_pose(d, plan.seed, i).orientation
                # phi mod 2*pi rounds once, to within half an ulp of 2*pi
                assert o.phi == pytest.approx(-raw[i, 1], rel=0, abs=1e-15)
                assert o.theta == pytest.approx((raw[i, 0] + math.pi) % (2 * math.pi),
                                                rel=0, abs=1e-14)

    def test_chunk_of_only_degenerate_trials(self, monkeypatch):
        # every trial's beam grazes the detector plane (theta = pi/2)
        def grazing_poses(_d, _seed, _start, count):
            return (np.full(count, 1000.0), np.zeros(count), np.zeros(count),
                    np.full(count, math.pi / 2), np.full(count, math.pi / 2))
        monkeypatch.setattr(montecarlo, "_chunk_poses", grazing_poses)
        for kernel in LOSS_KERNELS:
            samples, stats = run_trials(plan_for(n=3, kernel=kernel))
            assert stats.degenerate_trials == 3
            assert samples.tolist() == [0.0] * 3

    # 2 mrad off either pole, 1 mrad jitter sends about 2% of phi past it;
    # such a trial is folded onto its own beam line, not counted degenerate
    @pytest.mark.filterwarnings("ignore:far-field")
    @pytest.mark.parametrize("beta", [2e-3, math.pi - 2e-3], ids=["near-0", "near-pi"])
    def test_phi_past_a_pole_is_folded_not_degenerate(self, beta):
        d = plan_for(beta=beta, sigma_o=1e-3).distribution
        raw_phi = d.mu_omega.phi + _chunk_eps(7, 0, 8192, d.sigmas())[:, 4]
        folded = (raw_phi <= 0.0) | (raw_phi >= math.pi)
        assert folded.sum() > 100
        for kernel in LOSS_KERNELS:
            samples, stats = run_trials(plan_for(n=8192, seed=7, kernel=kernel,
                                                 beta=beta, sigma_o=1e-3))
            assert stats.degenerate_trials == 0
            assert samples.min() > 0.0

    def test_seed_changes_samples(self):
        a, _ = run_trials(plan_for(seed=1, n=256))
        b, _ = run_trials(plan_for(seed=2, n=256))
        assert not np.array_equal(a, b)

    def test_stats_fields(self):
        samples, stats = run_trials(plan_for(n=CHUNK + 5, sigma_o=2e-4))
        assert len(samples) == CHUNK + 5
        assert 0.0 <= stats.mean_linear <= 1.0
        assert stats.mean_db == pytest.approx(-10 * math.log10(stats.mean_linear))
        assert stats.degenerate_trials == 0


class TestPoseGenerator:
    @settings(derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 10**6),
           count=st.integers(1, 64), data=st.data())
    def test_rows_depend_only_on_trial_index(self, seed, start, count, data):
        i = data.draw(st.integers(0, count - 1), label="i")
        m = data.draw(st.integers(1, count - i), label="m")
        d = plan_for(sigma_p=0.01, sigma_o=1e-4).distribution
        sig = d.sigmas()
        full = _chunk_eps(seed, start, count, sig)
        part = _chunk_eps(seed, start + i, m, sig)
        assert part.tobytes() == full[i:i + m].tobytes()

        eps = full[i]
        assert sample_pose(d, seed, start + i) == Pose(
            Position(d.mu_r.rx + eps[0], d.mu_r.ry + eps[1], d.mu_r.rz + eps[2]),
            Orientation(d.mu_omega.theta + eps[3], d.mu_omega.phi + eps[4]))
        with pytest.raises(ValueError):
            sample_pose(d, seed, -1 - start)

    def test_zero_sigma_columns_are_zero_and_move_no_other_column(self):
        still = plan_for(sigma_p=0.0, sigma_o=1e-3).distribution.sigmas()
        moving = plan_for(sigma_p=0.01, sigma_o=1e-3).distribution.sigmas()
        a, b = _chunk_eps(11, 5, 300, still), _chunk_eps(11, 5, 300, moving)
        assert a[:, 3:].tobytes() == b[:, 3:].tobytes()
        assert a[:, :3].tobytes() == np.zeros((300, 3)).tobytes()  # +0.0, not -0.0
        assert np.all(b[:, :3] != 0.0)

    def test_all_zero_sigma_draws_the_mean_pose_for_every_trial(self):
        d = plan_for(sigma_p=0.0, sigma_o=0.0).distribution
        mean = (d.mu_r.rx, d.mu_r.ry, d.mu_r.rz, d.mu_omega.theta, d.mu_omega.phi)
        for col, m in zip(_chunk_poses(d, 3, CHUNK - 2, 5), mean):
            assert col.tobytes() == np.full(5, m).tobytes()

    def test_theta_jitter_just_below_zero_wraps_to_zero(self, monkeypatch):
        # at mean theta 0, a sum in (-4e-16, 0) would wrap to 2*pi exactly
        d = plan_for(sigma_o=1e-4).distribution
        assert d.mu_omega.theta == 0.0
        monkeypatch.setattr(montecarlo, "_chunk_eps",
                            lambda seed, start, count, sigmas: np.array([[0, 0, 0, -1e-20, 0.0]]))
        assert _chunk_poses(d, 0, 0, 1)[3].tolist() == [0.0]

    @pytest.mark.parametrize("index_type", [np.int64, np.uint64])
    def test_numpy_integer_index_is_the_int_index(self, index_type):
        d = plan_for(sigma_p=0.01, sigma_o=1e-3).distribution
        assert sample_pose(d, 3, index_type(5)) == sample_pose(d, 3, 5)


class TestSummarize:
    def test_single_sample(self):
        stats = summarize(np.array([0.25]))
        assert stats.mean_linear == 0.25
        assert stats.std_linear == 0.0
        assert stats.mean_db == pytest.approx(-10 * math.log10(0.25))

    def test_zero_loss_maps_to_inf_db(self):
        stats = summarize(np.array([0.0, 0.0]))
        assert stats.mean_db == math.inf


class TestBuildHistogram:
    def test_all_equal_samples(self):
        h = build_histogram(np.full(50, 0.3), 4)
        assert h.counts.sum() == 50
        assert h.total == 50

    def test_uniform_counts_within_binomial_noise(self):
        rng = np.random.default_rng(0)
        n, bins = 100_000, 10
        h = build_histogram(rng.uniform(0, 1, n), bins, (0.0, 1.0))
        expected = n / bins
        sigma = math.sqrt(n * (1 / bins) * (1 - 1 / bins))
        assert np.all(np.abs(h.counts - expected) < 5 * sigma)

    def test_overflow_accounting(self):
        h = build_histogram(np.array([0.1, 0.5, 0.9, 1.5, -0.2]), 2, (0.0, 1.0))
        assert h.underflow == 1
        assert h.overflow == 1
        assert h.total == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([]), 4)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([1.0]), 4, (1.0, 1.0))


def model_sampler(pdf, rng, n):
    """Exact sampler of the analytic loss law via its Hoyt construction."""
    g1 = rng.normal(0.0, math.sqrt(pdf.hoyt.lambda1), n)
    g2 = rng.normal(0.0, math.sqrt(pdf.hoyt.lambda2), n)
    u2 = g1 * g1 + g2 * g2
    return pdf.a0 * np.exp(-2.0 * u2 / (pdf.k_mean * pdf.w * pdf.w))


@pytest.fixture(scope="module")
def pdf():
    d = PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2,
                                        sigma_p=0.0, sigma_o=1e-4)
    return geoloss_pdf(d, BEAM, DET)


class TestChiSquareGof:
    def test_null_calibration(self, pdf):
        # samples drawn from the model itself: p should exceed 0.01 almost
        # always and be roughly uniform
        rng = np.random.default_rng(51)
        pvals = []
        for _ in range(100):
            samples = model_sampler(pdf, rng, 5000)
            h = build_histogram(samples, sturges_bins(len(samples)))
            _stat, _dof, p = chi_square_gof(h, pdf)
            pvals.append(p)
        pvals = np.array(pvals)
        assert (pvals > 0.01).sum() >= 98
        assert 0.2 <= np.median(pvals) <= 0.8

    def test_power_against_wrong_sigma(self, pdf):
        d_wrong = PoseDistribution.from_spherical(1000.0, 0.0, math.pi / 2,
                                                  sigma_p=0.0, sigma_o=2e-4)
        wrong = geoloss_pdf(d_wrong, BEAM, DET)
        rng = np.random.default_rng(9)
        samples = model_sampler(wrong, rng, 20_000)
        h = build_histogram(samples, sturges_bins(len(samples)))
        _stat, _dof, p = chi_square_gof(h, pdf)
        assert p < 0.001

    def test_inconclusive_with_tiny_sample(self, pdf):
        samples = model_sampler(pdf, np.random.default_rng(1), 6)
        h = build_histogram(samples, 3)
        with pytest.raises(GofInconclusiveError):
            chi_square_gof(h, pdf)

    def test_thin_interior_cells_merge_into_their_smaller_neighbour(self, pdf, monkeypatch):
        # expected counts (underflow, 5 cells, overflow) over 128 samples, all
        # exact in binary: the underflow's 4 goes into the first cell (30);
        # the thinnest, 2, ties its neighbours (30, 30) and goes left; the
        # next, 3, goes right, into the smaller 25
        expected = np.array([4.0, 26.0, 2.0, 30.0, 3.0, 25.0, 38.0])
        monkeypatch.setattr(montecarlo, "_bin_probabilities", lambda h, p: expected / 128.0)
        h = montecarlo.Histogram(edges=np.linspace(0.0, 1.0, 6),
                                 counts=np.array([27, 1, 31, 4, 24]), total=87,
                                 underflow=3, overflow=38)
        from scipy.special import chdtrc

        stat, dof, p = chi_square_gof(h, pdf)
        # pooled cells expect (32, 30, 28, 38) and hold (31, 31, 28, 38)
        assert dof == 3
        assert stat == pytest.approx(1 / 32 + 1 / 30, rel=1e-15)
        assert p == chdtrc(3, stat)

    def test_sparse_tails_merged(self, pdf):
        rng = np.random.default_rng(4)
        samples = model_sampler(pdf, rng, 4000)
        # absurdly many bins force tail merging but keep the test conclusive
        h = build_histogram(samples, 12)
        stat, dof, p = chi_square_gof(h, pdf)
        assert dof >= 2
        assert 0.0 <= p <= 1.0


    def test_p_value_is_the_chi2_survival_function(self, pdf):
        from scipy.special import chdtrc
        from scipy.stats import chi2

        stats = np.geomspace(1e-3, 300.0, 300)
        for dof in range(1, 60):
            assert np.array_equal(chdtrc(dof, stats), chi2.sf(stats, dof))
        samples = model_sampler(pdf, np.random.default_rng(4), 4000)
        stat, dof, p = chi_square_gof(build_histogram(samples, 12), pdf)
        assert p == chi2.sf(stat, dof)


def fig4_gof_inputs(sigma_o):
    """Sturges histogram of 20k closed-form-kernel losses at the Fig-4
    geometry (alpha = pi/8, beta = 5pi/8, 1 km, seed 1) and its density."""
    plan = plan_for(sigma_o=sigma_o, n=20_000, seed=1, kernel="approx_mean",
                    alpha=math.pi / 8, beta=5 * math.pi / 8)
    samples, _stats = run_trials(plan)
    return (build_histogram(samples, sturges_bins(len(samples))),
            geoloss_pdf(plan.distribution, BEAM, DET))


class TestFig4Gof:
    def test_converges_at_largest_sigma(self):
        # per-bin adaptive quadrature of the density raised IntegrationWarning
        # here: the lowest edge sits at 7e-72 a0
        h, pdf = fig4_gof_inputs(1e-3)
        stat, dof, p = chi_square_gof(h, pdf)
        assert math.isfinite(stat) and dof >= 2
        assert 0.0 <= p <= 1.0

    def test_bin_probabilities_match_high_precision_cdf(self, cdf_reference):
        # per-bin quadrature was off by up to 5.3e-5 here before renormalizing
        h, pdf = fig4_gof_inputs(5e-4)
        probs = _bin_probabilities(h, pdf)
        cdf = [cdf_reference(x, pdf)
               for x in np.concatenate([[0.0], np.clip(h.edges, 0.0, pdf.a0), [pdf.a0]])]
        ref = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
        assert len(probs) == len(ref) == len(h.counts) + 2
        assert all(r > 0 for r in ref)
        for got, want in zip(probs, ref):
            assert float(abs(got / want - 1)) <= 1e-11


class TestFig4Point:
    def test_kernel_agreement_at_half_mrad(self):
        # alpha=pi/8, beta=5pi/8, L=1 km, sigma_o=0.5 mrad: the closed-form
        # kernel tracks the exact mean within 0.5 dB
        kwargs = dict(alpha=math.pi / 8, beta=5 * math.pi / 8,
                      sigma_o=5e-4, n=10_000, seed=77)
        _s, exact = run_trials(plan_for(kernel="exact", **kwargs))
        _s, approx = run_trials(plan_for(kernel="approx_mean", **kwargs))
        assert abs(exact.mean_db - approx.mean_db) <= 0.5


class TestTailHeaviness:
    def test_larger_sigma_gives_heavier_db_tail(self):
        # 99th-percentile dB loss = -10*log10 of the 1st-percentile loss
        lo, _ = run_trials(plan_for(sigma_o=1e-4, n=20_000, seed=13))
        hi, _ = run_trials(plan_for(sigma_o=2e-4, n=20_000, seed=13))
        db99_lo = -10 * math.log10(np.quantile(lo, 0.01))
        db99_hi = -10 * math.log10(np.quantile(hi, 0.01))
        assert db99_hi > db99_lo


class TestSturgesBins:
    def test_values(self):
        assert sturges_bins(100_000) == 18
        assert sturges_bins(100) == 8
        assert sturges_bins(1) == 4


class TestQuadratureFailurePropagation:
    def test_failing_chunk_reports_trial_range(self, monkeypatch):
        from fso_geoloss import geoloss as geoloss_mod
        from fso_geoloss.numerics import QuadratureError

        def explode(*args, **kwargs):
            raise QuadratureError("synthetic non-convergence", 0.0, 1.0)

        monkeypatch.setattr(geoloss_mod, "exact_loss_batch", explode)
        with pytest.raises(QuadratureError, match=r"trials \[0, 50\)"):
            run_trials(plan_for(n=50))
