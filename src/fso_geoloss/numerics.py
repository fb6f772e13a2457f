"""Disk quadrature and its nodes' quadratic basis.

The model's special functions (erf, the scaled Bessel function i0e) come
from `scipy.special`.  Everything here is pure and deterministic: identical
inputs give bit-identical outputs, so results are reproducible across runs
and across any parallel evaluation order.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Disk quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate, last_diff):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.last_diff = last_diff


@lru_cache(maxsize=32)
def _polar_rule(order: int, radius: float):
    """Tensor Gauss-Legendre nodes/weights on the radius-`radius` disk.

    `order` radial points on [0, radius] and 2*order angular points on
    [0, 2pi); the radial Jacobian r is folded into the weights.  Returns
    flat (y, z, w) arrays.
    """
    xr, wr = np.polynomial.legendre.leggauss(order)
    r = 0.5 * radius * (xr + 1.0)
    wr = 0.5 * radius * wr * r
    xt, wt = np.polynomial.legendre.leggauss(2 * order)
    t = math.pi * (xt + 1.0)
    wt = math.pi * wt
    y = np.multiply.outer(r, np.cos(t)).ravel()
    z = np.multiply.outer(r, np.sin(t)).ravel()
    w = np.multiply.outer(wr, wt).ravel()
    return y, z, w


@lru_cache(maxsize=32)
def quadratic_basis(nodes: int, radius: float):
    """Rows (y^2, z^2, yz, y, z, 1, log w) at the nodes of `_polar_rule`'s
    `nodes`-node rule (order sqrt(nodes / 2)) on the radius-`radius` disk,
    a (7, nodes) array.  A Gaussian's exponent, its coefficients in that
    order with a 1 for log w, is one matrix product with it, and the exp of
    that is the Gaussian times the rule's weights (all positive)."""
    y, z, w = _polar_rule(math.isqrt(nodes // 2), radius)
    return np.stack((y * y, z * z, y * z, y, z, np.ones_like(y), np.log(w)))


_BASE_ORDER = 8
_MAX_LEVEL = 6  # orders 8, 16, ..., 512

# array elements per block of integrand rows (512 KiB of float64, a quarter of a
# 2 MiB L2): filled and reduced while in L2, below OpenBLAS's threading onset
BLOCK = 1 << 16


def _block_sums(f, y, z, w, n: int):
    """Row sums of the n weighted rows that f(y, z, w, rows) yields
    `BLOCK // len(y)` (at least one) at a time, one L2-sized block per call,
    each the same pairwise ufunc sum as over a whole array.  The rows are
    non-negative, so each sum is also its row's gross mass."""
    est = np.empty(n)
    step = max(1, BLOCK // len(y))
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        np.add.reduce(f(y, z, w, rows), axis=-1, out=est[rows])
    return est


def disk_quadrature(f, radius: float, rel_tol: float = 1e-9, n: int | None = None):
    """Integrate an integrand over the disk y^2 + z^2 <= radius^2 (radius > 0).

    f(y, z, w) takes equal-shape 1-D node and weight arrays and returns the
    integrand there times w, so the estimate is the sum of what f returns.
    Successive doubled-order estimates must agree to `rel_tol` in relative
    terms, or to 1e-13 of the gross mass integral(|f|) (with a tiny
    absolute floor), so an integral cancelling to far below eps times its
    gross mass is resolved only to that rounding floor.  The gross mass is
    summed only when the relative test fails, which changes no decision.

    With `n`, f(y, z, w, rows) returns non-negative integrands `rows` (a
    slice of range(n)), times w, as a (rows, len(y)) block, summed while in
    cache before the next call, so f may reuse one scratch buffer and no
    (n, nodes) array exists.  A non-negative row is its own gross mass, so
    its floor is 1e-13 of its estimate, and a cancelling row raises.  Each
    of the n integrands keeps the estimate of the first order at which its
    own estimates agree: every row is evaluated at every order until all
    have, so a row's value does not depend on the other rows of its batch.

    Returns a float, or n estimates.  Raises QuadratureError if doubling the
    order `_MAX_LEVEL` times leaves an integrand unconverged.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")

    prev, done = None, np.zeros(n or 0, bool)
    for level in range(_MAX_LEVEL + 1):
        y, z, w = _polar_rule(_BASE_ORDER << level, radius)
        # the sums are ufunc reductions, not BLAS: bit-identical under
        # concurrent callers (an integrand's BLAS products answer for their own bits)
        if n is None:
            vals = np.asarray(f(y, z, w))
            est = np.sum(vals, axis=-1)
        else:
            est = _block_sums(f, y, z, w, n)
        if prev is not None:
            diff = np.abs(est - prev)
            rel = rel_tol * np.abs(est)
            if n is None:
                if diff <= rel + 1e-300 or diff <= np.maximum(
                        rel, 1e-13 * np.sum(np.abs(vals), axis=-1)) + 1e-300:
                    return float(est)
            else:
                # a converged row keeps its estimate from the order it converged at
                est, done = np.where(done, prev, est), done | (
                    diff <= np.maximum(rel, 1e-13 * np.abs(est)) + 1e-300)
                if done.all():
                    return est
        prev = est
    raise QuadratureError(
        f"disk quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_MAX_LEVEL} refinements",
        best_estimate=float(prev) if n is None else prev,
        last_diff=float(np.max(diff if n is None else diff[~done])),
    )
