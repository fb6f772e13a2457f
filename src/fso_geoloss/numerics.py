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

# array elements per block of integrand rows (128 KB of float64): blocked
# passes stay in L2 instead of streaming a full-size temporary each
BLOCK = 1 << 14


def _row_sums(vals, w, absolute: bool = False):
    """np.sum(vals * w, axis=-1), or of |vals| * w, one BLOCK of rows at a
    time.  Each row is the same pairwise ufunc sum as over the whole array,
    so the bits do not depend on the blocking."""
    if vals.ndim < 2:
        return np.sum((np.abs(vals) if absolute else vals) * w, axis=-1)
    rows = vals.reshape(-1, w.size)
    out = np.empty(len(rows))
    step = max(1, BLOCK // w.size)
    for s in range(0, len(rows), step):
        block = rows[s:s + step]
        np.sum((np.abs(block) if absolute else block) * w, axis=-1, out=out[s:s + step])
    return out.reshape(vals.shape[:-1])


def disk_quadrature(f, radius: float, rel_tol: float = 1e-9):
    """Integrate f(y, z) over the disk y^2 + z^2 <= radius^2.

    Parameters
    ----------
    f : callable
        Must accept equal-shape 1-D arrays (y, z) and return the integrand
        values with shape (..., len(y)); a leading axis batches independent
        integrands that are converged together.
    radius : float
        Disk radius, > 0.
    rel_tol : float
        Convergence target: successive doubled-order estimates must agree
        to rel_tol in relative terms (with a tiny absolute floor).

    Returns the estimate (scalar, or an array matching f's leading axes).
    Raises QuadratureError if doubling the order `_MAX_LEVEL` times never
    converges.  An integral cancelling to far below eps times the gross
    mass integral(|f|) is resolved only to that rounding floor.

    The weighted sums run one `BLOCK` of rows at a time, each row the same
    pairwise ufunc sum as over the whole array.  The gross mass is summed
    only when the relative test fails: it can only raise the tolerance, so
    every convergence decision, and every bit returned, is as if it were
    always summed.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")

    prev = None
    for level in range(_MAX_LEVEL + 1):
        y, z, w = _polar_rule(_BASE_ORDER << level, radius)
        vals = np.asarray(f(y, z))
        # ufunc reduction, not BLAS: bit-identical under concurrent callers
        est = _row_sums(vals, w)
        if prev is not None:
            diff = np.abs(est - prev)
            rel = rel_tol * np.abs(est)
            if np.all(diff <= rel + 1e-300) or np.all(
                    diff <= np.maximum(rel, 1e-13 * _row_sums(vals, w, absolute=True)) + 1e-300):
                return est if est.ndim else float(est)
        prev = est
    raise QuadratureError(
        f"disk quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_MAX_LEVEL} refinements",
        best_estimate=prev if prev.ndim else float(prev),
        last_diff=float(np.max(diff)),
    )


def eig_sym2(m: SymMatrix2) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, largest first (closed form)."""
    mean = 0.5 * (m.a11 + m.a22)
    disc = math.hypot(0.5 * (m.a11 - m.a22), m.a12)
    return mean + disc, mean - disc
