"""Seeded Monte Carlo engine for loss statistics and empirical densities.

Trial i draws its pose from the counter-based substream (seed, i), so the
sample array is a pure function of the plan: evaluation order, chunking
into worker threads, and the thread count never change a single bit of the
output; `sample_pose(d, seed, i)` regenerates trial i on its own.  Losses
are written into a preallocated array by trial index and all statistics
are computed from that array with numpy's pairwise sums.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Philox
from scipy.special import chdtrc

from . import geoloss as geoloss_mod
from .beam import BeamParams
from .geometry import TWO_PI, Orientation, Pose, Position, incidence_sine
from .geoloss import DetectorParams
from .numerics import QuadratureError
from .stochastic import (
    GeoLossPdf,
    PoseDistribution,
    cdf_hg,
    gaussian_from_uniforms,
    pdf_hg,  # unused here; perfbench's tracing.TARGETS hooks montecarlo.pdf_hg
    raw_to_open_uniform,
)

LOSS_KERNELS = ("exact", "approx_mean")

# chunk size is part of the reproducibility contract: batched quadrature
# converges a chunk jointly, so chunk composition must not depend on the
# worker count.  The exact kernel streams a chunk's integrand in cache-sized
# row blocks, so its memory does not grow with the chunk, and the blocks do
# not touch a trial's bits; the joint refinement level does.
CHUNK = 1024

QUANTILE_LEVELS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

THREADS_ENV = "FSO_GEOLOSS_THREADS"

# Philox raws each trial owns (two 256-bit blocks); its pose uses the first five
RAWS_PER_TRIAL = 8

# chi-square cells are merged until each expects at least this many counts
MIN_EXPECTED = 5.0


class GofInconclusiveError(RuntimeError):
    """Too few samples for a meaningful test; raise n_trials."""


class ThreadsEnvError(ValueError):
    """`THREADS_ENV` is set to something other than a positive integer."""


@dataclass(frozen=True)
class TrialPlan:
    n_trials: int
    seed: int
    distribution: PoseDistribution
    beam: BeamParams
    detector: DetectorParams
    loss_kernel: str = "exact"
    rel_tol: float = geoloss_mod.DEFAULT_REL_TOL

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials!r}")
        if not 0 <= self.seed < 2**128:  # Philox's key range
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed!r}")
        if self.loss_kernel not in LOSS_KERNELS:
            raise ValueError(
                f"unknown loss kernel {self.loss_kernel!r}; pick one of {LOSS_KERNELS}"
            )


@dataclass(frozen=True)
class LossStats:
    mean_linear: float
    mean_db: float
    std_linear: float
    n: int
    quantiles: dict[float, float]
    mean_db_per_sample: float
    degenerate_trials: int = 0


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray
    total: int
    underflow: int = 0
    overflow: int = 0


def resolve_threads(threads: int | None = None) -> int:
    """Worker-thread count: explicit argument, else the env cap, else 1.
    An env value below 1 is an error, not a request for one thread (an
    explicit one fails in the executor)."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            threads = 0  # as invalid as a count below 1
        if threads < 1:
            raise ThreadsEnvError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return threads


@lru_cache(maxsize=4)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's executor with `workers` threads, kept across runs, so
    repeated runs reuse the same threads instead of starting new ones.  An
    evicted executor's idle threads exit once nothing refers to it."""
    return ThreadPoolExecutor(max_workers=workers)


def _chunk_eps(seed: int, start: int, count: int, sigmas: np.ndarray) -> np.ndarray:
    """Pose perturbations for trials [start, start+count), shape (count, 5).

    Trial i owns raw draws [RAWS_PER_TRIAL*i, RAWS_PER_TRIAL*(i+1)) of the
    Philox sequence keyed by `seed`, so its row does not depend on `start`
    or `count`.
    """
    if start < 0:
        raise ValueError(f"trial index must be non-negative, got {start!r}")
    bg = Philox(key=seed)
    # advance() counts 256-bit blocks (4 raws each)
    bg.advance(start * (RAWS_PER_TRIAL // 4))
    raw = bg.random_raw(count * RAWS_PER_TRIAL).reshape(count, RAWS_PER_TRIAL)[:, :5]
    return gaussian_from_uniforms(raw_to_open_uniform(raw), sigmas)


def _chunk_poses(d: PoseDistribution, seed: int, start: int, count: int):
    """(rx, ry, rz, theta, phi) arrays of trials [start, start+count): the
    mean pose plus the `_chunk_eps` rows, theta wrapped into [0, 2*pi) and
    phi folded into [0, pi] on the same beam line: phi <- phi mod 2*pi, and
    where that exceeds pi, (theta, phi) <- (theta + pi, 2*pi - phi).  A
    trial with phi in (0, pi) keeps its bits."""
    eps = _chunk_eps(seed, start, count, d.sigmas())
    theta = (d.mu_omega.theta + eps[:, 3]) % TWO_PI
    phi = (d.mu_omega.phi + eps[:, 4]) % TWO_PI
    past = phi > math.pi
    phi[past], theta[past] = TWO_PI - phi[past], (theta[past] + math.pi) % TWO_PI
    return d.mu_r.rx + eps[:, 0], d.mu_r.ry + eps[:, 1], d.mu_r.rz + eps[:, 2], theta, phi


def sample_pose(d: PoseDistribution, seed: int, index: int) -> Pose:
    """The pose of trial `index` under `seed`, folded as `run_trials` draws
    it.  `Orientation` raises ValueError only for a phi folded exactly onto
    a pole, a grazing pose that `run_trials` counts as degenerate."""
    rx, ry, rz, theta, phi = (float(v[0]) for v in _chunk_poses(d, seed, index, 1))
    return Pose(Position(rx, ry, rz), Orientation(theta, phi))


def frozen_params_spread(d: PoseDistribution, b: BeamParams, det: DetectorParams,
                         n: int = 1000, seed: int = 0) -> dict:
    """Coefficients of variation of A0, k_mean, and u under pose sampling.

    Diagnoses the freeze of A0/k_mean at the mean pose: their spread should
    be orders of magnitude below the spread of the offset u.  Uses trials
    0..n-1, folded as in `sample_pose`; a grazing one raises
    DegenerateGeometryError.
    """
    rx, ry, rz, theta, phi = _chunk_poses(d, seed, 0, n)
    f = geoloss_mod._pose_form(rx, ry, rz, theta, phi, b)
    a0, k_min, k_max, _nu_min, _nu_max = geoloss_mod._approx(det.a, f.w, f.rho_min, f.rho_max)
    out = {}
    for name, arr in (("a0", a0), ("k_mean", 0.5 * (k_min + k_max)), ("u", f.u)):
        mean = float(arr.mean())
        out[f"cv_{name}"] = float(arr.std() / mean) if mean else math.inf
    return out


def _chunk_losses(plan: TrialPlan, start: int, count: int):
    """Losses and degenerate-trial count for one contiguous chunk; a trial
    is degenerate, and its loss 0, where its beam grazes the detector plane."""
    rx, ry, rz, theta, phi = _chunk_poses(plan.distribution, plan.seed, start, count)
    sel = np.flatnonzero(~incidence_sine(theta, phi)[1])
    losses = np.zeros(count)
    try:
        if plan.loss_kernel == "exact":
            vals = geoloss_mod.exact_loss_batch(
                rx[sel], ry[sel], rz[sel], theta[sel], phi[sel],
                plan.beam, plan.detector, plan.rel_tol,
            )
        else:
            vals = geoloss_mod.approx_mean_batch(
                rx[sel], ry[sel], rz[sel], theta[sel], phi[sel],
                plan.beam, plan.detector,
            )
    except QuadratureError as e:
        raise QuadratureError(
            f"{e} (trials [{start}, {start + count}))",
            e.best_estimate, e.last_diff) from e
    losses[sel] = vals
    return losses, count - len(sel)


def run_trials(plan: TrialPlan, threads: int | None = None):
    """Run the plan; returns (samples, LossStats).

    `threads` parallelizes chunk evaluation only; output is bit-identical
    for any thread count.
    """
    n = plan.n_trials
    samples = np.empty(n)
    degenerate = 0

    def work(start: int):
        return start, _chunk_losses(plan, start, min(CHUNK, n - start))

    for start, (losses, bad) in _pool(resolve_threads(threads)).map(work, range(0, n, CHUNK)):
        samples[start:start + len(losses)] = losses
        degenerate += bad

    return samples, summarize(samples, degenerate)


def summarize(samples: np.ndarray, degenerate: int = 0) -> LossStats:
    """Deterministic summary statistics of a loss sample array."""
    mean = float(np.mean(samples))
    with np.errstate(divide="ignore"):
        per_sample_db = -10.0 * np.log10(samples)
    qs = np.quantile(samples, QUANTILE_LEVELS)
    return LossStats(
        mean_linear=mean,
        mean_db=geoloss_mod.loss_db(mean),
        std_linear=float(np.std(samples)),
        n=len(samples),
        quantiles={lv: float(q) for lv, q in zip(QUANTILE_LEVELS, qs)},
        mean_db_per_sample=float(np.mean(per_sample_db)),
        degenerate_trials=degenerate,
    )


def build_histogram(samples, n_bins: int, value_range=None) -> Histogram:
    """Equal-width histogram; out-of-range samples land in under/overflow."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("cannot histogram an empty sample array")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
    if value_range is None:
        lo, hi = float(samples.min()), float(samples.max())
        if lo == hi:
            hi = lo + (abs(lo) if lo else 1.0) * 1e-9
    else:
        lo, hi = map(float, value_range)
        if not lo < hi:
            raise ValueError(f"empty histogram range ({lo!r}, {hi!r})")
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(samples, bins=edges)
    return Histogram(
        edges=edges,
        counts=counts,
        total=int(counts.sum()),
        underflow=int((samples < lo).sum()),
        overflow=int((samples > hi).sum()),
    )


def _bin_probabilities(h: Histogram, pdf: GeoLossPdf) -> np.ndarray:
    """Model probability of each histogram cell plus the two open tails.

    Differences of the analytic CDF over the support-clipped edges, with the
    mass below edges[0] and above edges[-1] as extra first/last cells; they
    sum to F(a0) - F(0) = 1.
    """
    cdf = cdf_hg(np.concatenate([[0.0], np.clip(h.edges, 0.0, pdf.a0), [pdf.a0]]), pdf)
    return np.maximum(np.diff(cdf), 0.0)


def chi_square_gof(h: Histogram, pdf: GeoLossPdf):
    """Pearson chi-square of a histogram against the analytic density.

    Tail cells are merged inward until each carries at least `MIN_EXPECTED`
    expected counts.  Returns (statistic, dof, p_value).
    """
    observed = np.concatenate([[h.underflow], h.counts, [h.overflow]]).astype(float)
    n = observed.sum()
    expected = n * _bin_probabilities(h, pdf)

    obs, exp = list(observed), list(expected)
    while len(exp) > 1 and exp[0] < MIN_EXPECTED:
        exp[1] += exp[0]; obs[1] += obs[0]
        del exp[0], obs[0]
    while len(exp) > 1 and exp[-1] < MIN_EXPECTED:
        exp[-2] += exp[-1]; obs[-2] += obs[-1]
        del exp[-1], obs[-1]
    if len(exp) < 2 or min(exp) < MIN_EXPECTED:
        raise GofInconclusiveError(
            f"{len(exp)} usable cells with min expected count "
            f"{min(exp):.2f}; raise n_trials or widen bins"
        )
    obs, exp = np.asarray(obs), np.asarray(exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(exp) - 1
    return stat, dof, float(chdtrc(dof, stat))


def sturges_bins(n: int) -> int:
    return max(4, int(math.ceil(math.log2(max(n, 2)) + 1)))
