"""Disk quadrature and a 2x2 symmetric eigensolver.

The model's special functions (erf, the scaled Bessel function i0e) come
from `scipy.special`.  Everything here is pure and deterministic: identical
inputs give bit-identical outputs, so results are reproducible across runs
and across any parallel evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Disk quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate, last_diff):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.last_diff = last_diff


@dataclass(frozen=True)
class SymMatrix2:
    """Symmetric 2x2 matrix; a12 is the shared off-diagonal entry."""

    a11: float
    a12: float
    a22: float

    def trace(self) -> float:
        return self.a11 + self.a22

    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def is_psd(self, tol: float = 0.0) -> bool:
        return self.a11 >= -tol and self.a22 >= -tol and self.det() >= -tol


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


_BASE_ORDER = 8
_MAX_LEVEL = 6  # orders 8, 16, ..., 512

# array elements per block of integrand rows (128 KB of float64): each block
# is filled and reduced while it is still in L2
BLOCK = 1 << 14


def _block_sums(f, y, z, w, n: int):
    """Row sums of v*w and of |v*w| (= |v|*w bitwise, as w >= 0) for the n
    rows v that f(y, z, rows) yields `BLOCK // len(y)` (at least one) at a
    time, each the same pairwise ufunc sum as over a whole array."""
    est, mass = np.empty(n), np.empty(n)
    step = max(1, BLOCK // len(y))
    prod = np.empty((step, len(y)))
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        p = np.multiply(f(y, z, rows), w, out=prod[:rows.stop - s])
        np.sum(p, axis=-1, out=est[rows])
        np.sum(np.abs(p, out=p), axis=-1, out=mass[rows])
    return est, mass


def disk_quadrature(f, radius: float, rel_tol: float = 1e-9, n: int | None = None):
    """Integrate f(y, z) over the disk y^2 + z^2 <= radius^2 (radius > 0).

    f(y, z) takes equal-shape 1-D node arrays and returns the integrand
    there.  With `n`, n integrands are converged together: f(y, z, rows)
    returns integrands `rows` (a slice of range(n)) as a (rows, len(y))
    block, reduced before the next call, so f may reuse one scratch buffer.
    Successive doubled-order estimates must agree to `rel_tol` in relative
    terms (with a tiny absolute floor).

    Returns a float, or n estimates.  Raises QuadratureError if doubling the
    order `_MAX_LEVEL` times never converges.  An integral cancelling to far
    below eps times the gross mass integral(|f|) is resolved only to that
    rounding floor.  With `n`, each block is summed with its gross mass while
    in cache, and no (n, nodes) array exists; without, the gross mass is
    summed only when the relative test fails, which changes no decision, as
    it can only raise the tolerance.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")

    prev = None
    for level in range(_MAX_LEVEL + 1):
        y, z, w = _polar_rule(_BASE_ORDER << level, radius)
        # ufunc reductions, not BLAS: bit-identical under concurrent callers
        if n is None:
            vals = np.asarray(f(y, z))
            est = np.sum(vals * w, axis=-1)
        else:
            est, mass = _block_sums(f, y, z, w, n)
        if prev is not None:
            diff = np.abs(est - prev)
            rel = rel_tol * np.abs(est)
            if np.all(diff <= rel + 1e-300) or np.all(diff <= np.maximum(rel, 1e-13 * (
                    np.sum(np.abs(vals) * w, axis=-1) if n is None else mass)) + 1e-300):
                return float(est) if n is None else est
        prev = est
    raise QuadratureError(
        f"disk quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_MAX_LEVEL} refinements",
        best_estimate=float(prev) if n is None else prev,
        last_diff=float(np.max(diff)),
    )


def eig_sym2(m: SymMatrix2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, largest first (closed form)."""
    mean = 0.5 * (m.a11 + m.a22)
    disc = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return mean + disc, mean - disc
