"""Disk quadrature, and the Gaussian integrand that the loss kernels sum.

Each order's rule is built once, on the unit disk.  Everything here is pure
and deterministic: identical inputs give bit-identical outputs, so results
are reproducible across runs and across any parallel evaluation order.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np


class QuadratureError(RuntimeError):
    """Disk quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate, last_diff):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.last_diff = last_diff


@cache
def _polar_rule(order: int) -> np.ndarray:
    """Tensor Gauss-Legendre rule on the unit disk, rows (y, z, w) of a (3,
    2 order^2) array: `order` radial points on [0, 1] times 2*order angles
    on [0, 2pi), the radial Jacobian r folded into the weights."""
    xr, wr = np.polynomial.legendre.leggauss(order)
    xt, wt = np.polynomial.legendre.leggauss(2 * order)
    r, t = 0.5 * (xr + 1.0), math.pi * (xt + 1.0)
    return np.stack((np.outer(r, np.cos(t)), np.outer(r, np.sin(t)),
                     np.outer(0.5 * wr * r, math.pi * wt))).reshape(3, -1)


@cache
def quadratic_basis(nodes: int) -> np.ndarray:
    """Rows (y^2, z^2, yz, y, z, 1, log w), a (7, nodes) array, of the
    `nodes`-node unit-disk rule (order sqrt(nodes / 2)): a Gaussian's
    exponent plus log w is one matrix product with it."""
    y, z, w = _polar_rule(math.isqrt(nodes // 2))
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
    non-negative, as every integrand is, so one test accepts each sum."""
    est = np.empty(n)
    step = max(1, BLOCK // len(y))
    for s in range(0, n, step):
        rows = slice(s, min(s + step, n))
        np.add.reduce(f(y, z, w, rows), axis=-1, out=est[rows])
    return est


def gaussian_integrand(c_y, c_z, c_yz, fy, fz, log_c, radius: float):
    """The f(y, z, w[, rows]) that `disk_quadrature(f, radius[, n=n])` sums for
    exp(log_c - (c_y yt^2 + c_z zt^2 + c_yz yt zt)), (yt, zt) = (y - fy, z - fz),
    one Gaussian for floats, n for (n,) arrays (c_y, c_z, c_yz (n,) if any is),
    always as a (rows, nodes) block: expanded onto `quadratic_basis`' rows and
    rescaled to the unit disk with a 1 on log w, a block is one product with
    the basis into a `BLOCK`-sized scratch (a longer doubled row gets its own)
    and one in-place exp.  A row's bits do not depend on its position: a lone
    row is doubled (a 1-row product takes BLAS's matrix-vector path) and no
    product exceeds `BLOCK` elements."""
    # the rows' coefficients, the quadratic ones' sign on their scale: (-c) a^2 is -(c a^2)
    terms = np.array((c_y, c_z, c_yz, 2.0 * c_y * fy + c_yz * fz, 2.0 * c_z * fz + c_yz * fy,
                      log_c - (c_y * fy * fy + c_z * fz * fz + c_yz * fy * fz))).T  # (6,) or (n, 6)
    a2 = radius * radius
    # one allocation for the scratch and the rows (a second large one per call cost the
    # Fig-5 workload 5% on 2 vCPU), filled by one broadcast product: rows of 6 are slow
    buf = np.empty(BLOCK + terms.size // 6 * 7)
    scratch, unit = buf[:BLOCK], buf[BLOCK:].reshape(-1, 7)
    unit[:, 6] = 1.0
    np.multiply(terms, (-a2, -a2, -a2, radius, radius, 1.0), out=unit[:, :6])
    unit[:, 5] += 2.0 * math.log(radius)

    def integrand(y, _z, _w, rows=slice(None)):
        c = unit[rows]
        k = len(c)
        if k == 1:
            c = c.repeat(2, 0)
        size = len(c) * len(y)
        v = (scratch[:size] if size <= BLOCK else np.empty(size)).reshape(len(c), len(y))
        basis, step = quadratic_basis(len(y)), BLOCK // len(c)
        for s in range(0, len(y), step):
            np.matmul(c, basis[:, s:s + step], out=v[:, s:s + step])
        return np.exp(v[:k], out=v[:k])

    return integrand


def disk_quadrature(f, radius: float, rel_tol: float = 1e-9, n: int | None = None):
    """Integrate a non-negative integrand over the disk y^2 + z^2 <= radius^2
    (0 < radius < inf).

    f(y, z, w) takes equal-shape 1-D node and weight arrays, a unit-disk rule
    scaled to the disk, and returns the integrand there times w, as a
    (nodes,) or (1, nodes) array, so the estimate is the sum of what f
    returns.  With `n`, f(y, z, w, rows) returns integrands `rows` (a slice
    of range(n)), times w, as a (rows, len(y)) block, summed while in cache
    before the next call, so f may reuse one scratch buffer and no (n,
    nodes) array exists.

    One test accepts an integrand and each row alike: successive
    doubled-order estimates must agree to max(rel_tol, 1e-13) of the latest
    (with a tiny absolute floor), so an integrand that cancels to about
    zero raises.  Each of the n integrands keeps the estimate of the first
    order at which its own estimates agree: every row is evaluated at every
    order until all have, so a row's value does not depend on the other
    rows of its batch.

    Returns a float, or n estimates.  Raises QuadratureError if doubling the
    order `_MAX_LEVEL` times leaves an integrand unconverged.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol!r}")

    # fl(t * x) rises with t for x >= 0, so this is max(rel_tol |est|, 1e-13 |est|) bitwise
    tol = max(rel_tol, 1e-13)
    scale = np.array(((radius,), (radius,), (radius * radius,)))
    prev, done = None, np.zeros(n or 0, bool)
    for level in range(_MAX_LEVEL + 1):
        y, z, w = _polar_rule(_BASE_ORDER << level) * scale
        # the sums are ufunc reductions, not BLAS: bit-identical under
        # concurrent callers (an integrand's BLAS products answer for their own bits)
        est = np.add.reduce(f(y, z, w), axis=None) if n is None else _block_sums(f, y, z, w, n)
        if prev is not None:
            diff = np.abs(est - prev)
            agree = diff <= tol * np.abs(est) + 1e-300
            if n is None:
                if agree:
                    return float(est)
            else:
                # a converged row keeps its estimate from the order it converged at
                est, done = np.where(done, prev, est), done | agree
                if done.all():
                    return est
        prev = est
    raise QuadratureError(
        f"disk quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_MAX_LEVEL} refinements",
        best_estimate=float(prev) if n is None else prev,
        last_diff=float(np.max(diff if n is None else diff[~done])),
    )
