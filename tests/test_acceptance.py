"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py`).

Criterion 5 compares 1e5 exact-kernel samples with the analytic density
by their two-sided Kolmogorov-Smirnov distance D.  The density is an
approximate model: its support endpoint A0 is the equal-area-square
`erf^2` value, which sits a fraction delta0 below the exact centred loss
h0.  So D may exceed the 1% KS critical value by at most eps_model, the
CDF shift that moving the endpoint from A0 to h0 causes; delta0 itself is
held to the leading-order error of that approximation, and the same
samples must reject the density with `varpi` scaled by 0.9 and by 1.1.
The reasoning and numbers are in CHANGES.md, section "Decisions ledger:
criterion 5".  The companion diagnostic `test_criterion_5_diagnostic_*`
isolates the statistical chain by applying a chi-square test at p > 0.01
to samples of the closed-form kernel.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstwo

from fso_geoloss import cli
from fso_geoloss.beam import BeamParams, beam_width
from fso_geoloss.geometry import Position, Pose, spherical_mean_position, tracking_orientation
from fso_geoloss.geoloss import (
    DetectorParams,
    approx_bounds,
    approx_mean,
    approx_params,
    bound_lower,
    bound_upper,
    exact_loss,
    loss_db,
)
from fso_geoloss.montecarlo import (
    TrialPlan,
    build_histogram,
    chi_square_gof,
    run_trials,
    sturges_bins,
)
from fso_geoloss.stochastic import (
    GeoLossPdf,
    HoytParams,
    PoseDistribution,
    covariance_sigma,
    geoloss_pdf,
    linearized_footprint,
    pdf_hg,
    pdf_hg_rayleigh,
    tracking_constants,
)
from fso_geoloss.validate import run_validation

BEAM = BeamParams(w0=1e-3, wavelength=1550e-9, cn2=1e-14)
DET = DetectorParams(a=0.1)
SEED = 20260810

FIG4_GEOMETRY = dict(alpha=math.pi / 8, beta=5 * math.pi / 8)

FIG5_CONFIGS = [
    pytest.param(0.0, math.pi / 2, 1e-4, id="alpha0-sigma0.1mrad"),
    pytest.param(0.0, math.pi / 2, 2e-4, id="alpha0-sigma0.2mrad"),
    pytest.param(math.pi / 8, 5 * math.pi / 8, 1e-4, id="alphapi8-sigma0.1mrad"),
    pytest.param(math.pi / 8, 5 * math.pi / 8, 2e-4, id="alphapi8-sigma0.2mrad"),
]


def report(criterion: str, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}: {detail}")


def tracked_pose(radius, alpha, beta, fy=0.0, fz=0.0):
    mu = spherical_mean_position(radius, alpha, beta)
    return Pose(Position(mu.rx, mu.ry + fy, mu.rz + fz), tracking_orientation(mu))


def test_criterion_1_closed_form_oracle():
    worst = 0.0
    for a in (0.01, 0.05, 0.1, 0.2):
        for dist in (500.0, 1000.0, 2000.0):
            w = beam_width(BEAM, dist)
            expected = 1.0 - math.exp(-2.0 * a * a / (w * w))
            got = exact_loss(tracked_pose(dist, 0.0, math.pi / 2), BEAM,
                             DetectorParams(a))
            worst = max(worst, abs(got / expected - 1.0))
    passed = worst <= 1e-8
    report("criterion 1 (closed-form oracle)", passed,
           f"max rel err {worst:.2e} over 12 (a, L) pairs (tol 1e-8)")
    assert passed


def test_criterion_2_bound_ordering():
    rng = np.random.default_rng(SEED)
    worst_violation = -math.inf
    for _ in range(1000):
        alpha = rng.uniform(-math.pi / 3, math.pi / 3)
        beta = rng.uniform(math.pi / 3, 2 * math.pi / 3)
        u = rng.uniform(0.0, 3.0 * DET.a)
        ang = rng.uniform(0.0, 2 * math.pi)
        pose = tracked_pose(1000.0, alpha, beta,
                            fy=u * math.cos(ang), fz=u * math.sin(ang))
        low = bound_lower(pose, BEAM, DET)
        ex = exact_loss(pose, BEAM, DET)
        upp = bound_upper(pose, BEAM, DET)
        worst_violation = max(worst_violation, low - ex, ex - upp)

    worst_collapse = 0.0
    for u in np.linspace(0.0, 3.0 * DET.a, 7):
        pose = tracked_pose(1000.0, 0.0, math.pi / 2, fy=float(u))
        ex = exact_loss(pose, BEAM, DET)
        worst_collapse = max(worst_collapse,
                             abs(bound_lower(pose, BEAM, DET) - ex),
                             abs(bound_upper(pose, BEAM, DET) - ex))
    passed = worst_violation <= 2e-9 and worst_collapse <= 1e-8
    report("criterion 2 (bound ordering)", passed,
           f"max ordering violation {worst_violation:.2e} over 1000 poses "
           f"(slack 2e-9); max orthogonal spread {worst_collapse:.2e} (tol 1e-8)")
    assert passed


def test_criterion_3_oblique_loss_increase_and_tracking():
    alphas = np.linspace(0.0, math.pi / 4, 9)
    exact_db = []
    max_track_err = 0.0
    for alpha in alphas:
        pose = tracked_pose(1000.0, float(alpha), math.pi / 2)
        ex_db = loss_db(exact_loss(pose, BEAM, DET))
        exact_db.append(ex_db)
        ap = approx_params(pose, BEAM, DET)
        alow, aupp = approx_bounds(ap)
        for val in (bound_lower(pose, BEAM, DET), bound_upper(pose, BEAM, DET),
                    alow, aupp, approx_mean(ap)):
            max_track_err = max(max_track_err, abs(loss_db(val) - ex_db))
    increase = exact_db[-1] - exact_db[0]
    passed = increase <= 1.5 and max_track_err <= 0.3
    report("criterion 3 (oblique-incidence penalty)", passed,
           f"dB increase at alpha=pi/4: {increase:.3f} (limit 1.5); "
           f"worst bound/approx tracking error {max_track_err:.3f} dB (limit 0.3)")
    assert passed


def test_criterion_4_pdf_normalization_and_rayleigh_limit():
    worst_norm = 0.0
    for q in (0.3, 0.7, 1.0):
        for varpi in (0.5, 2.0, 10.0):
            lam1 = 1.0
            lam2 = q * q
            k_mean = varpi * 4.0 * q * (lam1 + lam2) / ((1 + q * q) * 0.4935**2)
            pdf = GeoLossPdf(hoyt=HoytParams(q=q, omega=lam1 + lam2,
                                             lambda1=lam1, lambda2=lam2),
                             a0=0.0787, k_mean=k_mean, w=0.4935, varpi=varpi)
            val, _ = quad(pdf_hg, 0.0, pdf.a0, args=(pdf,), limit=300)
            worst_norm = max(worst_norm, abs(val - 1.0))

    worst_ray = 0.0
    for varpi in (0.5, 2.0, 10.0):
        pdf = GeoLossPdf(hoyt=HoytParams(q=1.0, omega=2.0, lambda1=1.0, lambda2=1.0),
                         a0=0.0787, k_mean=varpi * 4.0 / 0.4935**2 * 2.0 / 2.0,
                         w=0.4935, varpi=varpi)
        for frac in np.linspace(1e-9, 1.0, 41):
            x = float(frac * pdf.a0)
            ray = pdf_hg_rayleigh(x, varpi, pdf.a0)
            worst_ray = max(worst_ray, abs(pdf_hg(x, pdf) - ray) / max(ray, 1e-300))
    passed = worst_norm <= 1e-6 and worst_ray <= 1e-12
    report("criterion 4 (analytic density)", passed,
           f"max |integral - 1| = {worst_norm:.2e} (tol 1e-6); "
           f"max q=1 pointwise gap {worst_ray:.2e} (tol 1e-12)")
    assert passed


def _fig5_samples(alpha, beta, sigma_o, kernel):
    d = PoseDistribution.from_spherical(1000.0, alpha, beta,
                                        sigma_p=0.0, sigma_o=sigma_o)
    plan = TrialPlan(n_trials=100_000, seed=SEED, distribution=d, beam=BEAM,
                     detector=DET, loss_kernel=kernel)
    samples, _stats = run_trials(plan)
    return d, samples


def _fig5_gof(alpha, beta, sigma_o, kernel):
    d, samples = _fig5_samples(alpha, beta, sigma_o, kernel)
    hist = build_histogram(samples, sturges_bins(len(samples)))
    return chi_square_gof(hist, geoloss_pdf(d, BEAM, DET))


def _analytic_cdf(pdf):
    """Nodes and values of the CDF of `pdf_hg` on [0, a0], integrated cell
    by cell with `quad` as the chi-square bin probabilities are; linear
    interpolation between the nodes gives F (0 below, 1 above the support)."""
    nodes = np.linspace(0.0, pdf.a0, 401)
    cells = [quad(pdf_hg, lo, hi, args=(pdf,), limit=200)[0]
             for lo, hi in zip(nodes[:-1], nodes[1:])]
    values = np.concatenate([[0.0], np.cumsum(cells)])
    return nodes, values / values[-1]


def _ks_band(sorted_samples, pdf, h0):
    """(D, eps_model): the two-sided KS distance of the samples from the
    density, and sup_x |F(x) - F(x A0/h0)|, the CDF shift caused by moving
    the density's endpoint from A0 to the exact centred loss h0."""
    nodes, values = _analytic_cdf(pdf)

    def cdf(x):
        return np.interp(x, nodes, values)

    n = sorted_samples.size
    f = cdf(sorted_samples)
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(ranks - f), np.max(f - (ranks - 1.0 / n)))
    # both interpolants are piecewise linear, so the sup is at a breakpoint
    scale = pdf.a0 / h0
    breaks = np.concatenate([nodes, nodes / scale])
    return float(ks), float(np.max(np.abs(cdf(breaks) - cdf(breaks * scale))))


@pytest.mark.parametrize("alpha,beta,sigma_o", FIG5_CONFIGS)
def test_criterion_5_distribution_reproduction(alpha, beta, sigma_o):
    d, samples = _fig5_samples(alpha, beta, sigma_o, "exact")
    samples = np.sort(samples)
    pdf = geoloss_pdf(d, BEAM, DET)
    h0 = exact_loss(Pose(d.mu_r, d.mu_omega), BEAM, DET)
    delta0 = 1.0 - pdf.a0 / h0
    # leading-order relative error of the equal-area-square erf^2 endpoint
    delta0_max = (math.pi / 3.0 - 1.0) * (DET.a / pdf.w) ** 2
    eps_stat = float(kstwo.isf(0.01, samples.size))

    ks, eps_model = _ks_band(samples, pdf, h0)
    bound = eps_stat + eps_model
    controls = []
    for factor in (0.9, 1.1):
        wrong = dataclasses.replace(pdf, varpi=factor * pdf.varpi)
        ks_c, eps_model_c = _ks_band(samples, wrong, h0)
        controls.append((factor, ks_c, eps_stat + eps_model_c))

    endpoint_ok = 0.0 < delta0 <= delta0_max
    fits = ks <= bound
    controls_rejected = all(ks_c > bound_c for _f, ks_c, bound_c in controls)
    passed = endpoint_ok and fits and controls_rejected
    report("criterion 5 (analytic density vs exact-kernel sampling)", passed,
           f"alpha={alpha:.3f}, sigma_o={sigma_o * 1e3:.1f} mrad: "
           f"D={ks:.4f}, bound eps_stat {eps_stat:.4f} + eps_model "
           f"{eps_model:.4f} = {bound:.4f} (need D <= bound); "
           f"delta0={delta0:.3%} (need in (0, {delta0_max:.3%}]); "
           + "; ".join(f"varpi x{f}: D={k:.4f}, bound {b:.4f} (need D > bound)"
                       for f, k, b in controls))
    assert endpoint_ok, (
        f"A0 sits {delta0:.3%} below h0, outside (0, {delta0_max:.3%}]; "
        "see CHANGES.md, section 'Decisions ledger: criterion 5'"
    )
    assert fits, (
        "exact-kernel samples are farther from the analytic density than "
        "the KS critical value plus the endpoint-approximation shift; see "
        "CHANGES.md, section 'Decisions ledger: criterion 5'"
    )
    assert controls_rejected, (
        "a density with varpi off by 10% passes the same bound, so the bound "
        "cannot detect a wrong density"
    )


@pytest.mark.parametrize("alpha,beta,sigma_o", FIG5_CONFIGS)
def test_criterion_5_diagnostic_statistical_chain(alpha, beta, sigma_o):
    # same test with the model's own kernel: isolates linearization + Hoyt +
    # frozen-parameter steps from the deterministic kernel gap
    stat, dof, p = _fig5_gof(alpha, beta, sigma_o, "approx_mean")
    passed = p > 0.01
    report("criterion 5 diagnostic (statistical chain only)", passed,
           f"alpha={alpha:.3f}, sigma_o={sigma_o * 1e3:.1f} mrad: "
           f"chi2={stat:.1f}, dof={dof}, p={p:.3g} (need > 0.01)")
    assert passed


def test_criterion_6_linearized_covariance():
    d = PoseDistribution.from_spherical(1000.0, sigma_p=0.01, sigma_o=1e-4,
                                        **FIG4_GEOMETRY)
    sigma = covariance_sigma(d)
    n = 1_000_000
    rng = np.random.default_rng(SEED)
    base = rng.standard_normal((n, 5))

    def footprints(dist, eps):
        theta = (dist.mu_omega.theta + eps[:, 3]) % (2 * math.pi)
        phi = dist.mu_omega.phi + eps[:, 4]
        fy = (dist.mu_r.ry + eps[:, 1]) - (dist.mu_r.rx + eps[:, 0]) * np.tan(theta)
        fz = (dist.mu_r.rz + eps[:, 2]) \
            - (dist.mu_r.rx + eps[:, 0]) / (np.tan(phi) * np.cos(theta))
        return fy, fz

    eps = base * d.sigmas()
    fy, fz = footprints(d, eps)
    cov = np.cov(fy, fz)
    rel = max(abs(cov[0, 0] / sigma[0, 0] - 1.0),
              abs(cov[0, 1] / sigma[0, 1] - 1.0),
              abs(cov[1, 1] / sigma[1, 1] - 1.0))

    # shrinking jitter: the exact-vs-linearized covariance distance is pure
    # linearization error and must fall as sigma is halved (the distance to
    # the analytic matrix is statistical-noise-bound at these sigmas)
    c = tracking_constants(d)
    distances = []
    for t in (1.0, 0.5, 0.25):
        eps_t = eps * t
        fy_t, fz_t = footprints(d, eps_t)
        ly = eps_t[:, 1] + c[0] * eps_t[:, 0] + c[1] * eps_t[:, 3]
        lz = eps_t[:, 2] + c[2] * eps_t[:, 4] + c[3] * eps_t[:, 3] + c[4] * eps_t[:, 0]
        gap = np.cov(fy_t, fz_t) - np.cov(ly, lz)
        distances.append(float(np.max(np.abs(gap))) / t**2)
    decreasing = distances[0] > distances[1] > distances[2]
    passed = rel <= 0.03 and decreasing
    report("criterion 6 (footprint covariance)", passed,
           f"max entrywise gap to the analytic matrix {rel:.4f} (tol 0.03); "
           f"scale-normalized nonlinearity {distances[0]:.2e} -> "
           f"{distances[1]:.2e} -> {distances[2]:.2e}")
    assert passed


def _mean_db(sigma_value, unit, dist_m, kernel, n_trials=100_000):
    sigma_p, sigma_o = ((sigma_value * 1e-2, 0.0) if unit == "cm"
                        else (0.0, sigma_value * 1e-3))
    d = PoseDistribution.from_spherical(dist_m, sigma_p=sigma_p,
                                        sigma_o=sigma_o, **FIG4_GEOMETRY)
    plan = TrialPlan(n_trials=n_trials, seed=SEED, distribution=d,
                     beam=BEAM, detector=DET, loss_kernel=kernel)
    _samples, stats = run_trials(plan)
    return stats.mean_db


def test_criterion_7_average_loss_trends():
    sigmas = (0.2, 0.5, 1.0)
    exact = {}
    kernel_gap = 0.0
    for unit in ("mrad", "cm"):
        for s in sigmas:
            exact[unit, s] = _mean_db(s, unit, 1000.0, "exact")
            approx = _mean_db(s, unit, 1000.0, "approx_mean")
            kernel_gap = max(kernel_gap, abs(exact[unit, s] - approx))

    by_distance = []
    for dist in (800.0, 1000.0, 1500.0):
        by_distance.append(_mean_db(0.5, "mrad", dist, "exact"))

    increasing_l = by_distance[0] < by_distance[1] < by_distance[2]
    increasing_sigma = all(
        exact[unit, a] < exact[unit, b]
        for unit in ("mrad", "cm") for a, b in zip(sigmas, sigmas[1:]))
    orientation_dominates = all(
        exact["mrad", s] >= exact["cm", s] for s in sigmas)
    passed = (increasing_l and increasing_sigma and orientation_dominates
              and kernel_gap <= 0.5)
    report("criterion 7 (average-loss trends)", passed,
           f"dB vs L {['%.2f' % v for v in by_distance]} increasing={increasing_l}; "
           f"increasing in sigma={increasing_sigma}; "
           f"mrad >= cm at every sigma={orientation_dominates}; "
           f"max |exact - approx| = {kernel_gap:.3f} dB (limit 0.5)")
    assert passed


def test_criterion_8_deterministic_output(tmp_path, monkeypatch):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "geometry.alpha_rad = 0.39269908169872414\n"
        "geometry.beta_rad = 1.9634954084936207\n"
        "sweep.variable = sigma\nsweep.values = 0.2,0.5\n"
        "sweep.sigma_unit = mrad\nmc.n_trials = 4096\nmc.seed = 11\n")
    out = tmp_path / "exp.csv"
    blobs = []
    for threads in ("1", "4", "8"):
        monkeypatch.setenv("FSO_GEOLOSS_THREADS", threads)
        rc = cli.main(["average-loss", "--config", str(cfgfile), "--out", str(out)])
        assert rc == cli.EXIT_OK
        blobs.append(out.read_bytes())
    passed = blobs[0] == blobs[1] == blobs[2]
    report("criterion 8 (determinism)", passed,
           f"CSV bytes identical across thread counts 1/4/8: {passed}")
    assert passed


def test_criterion_9_property_suite():
    results = run_validation()
    failures = [r for r in results if not r.passed]
    passed = not failures
    report("criterion 9 (property suite)", passed,
           f"{len(results) - len(failures)}/{len(results)} checks passed"
           + (": " + "; ".join(f"{r.name} ({r.detail})" for r in failures)
              if failures else ""))
    assert passed
