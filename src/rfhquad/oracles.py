"""Slow independent cross-checks for the crossing enumeration.

The analytic path locates crossings from eigenvalue arithmetic.  The
oracle here knows nothing about eigenvalue frequencies: it scans
sigma_min(exp(t J S) - Id) on a dense grid, brackets the dips, and
refines each by golden-section search.  Near a crossing sigma_min decays
linearly in |t - t*|, so the refined minimizer localizes the crossing
far more sharply than the quadratic touch of the determinant would.

The scan is screened.  With E(t) = exp(t J S), E(t) = E(t_c) exp((t - t_c) J S)
and Weyl's inequality give

    |sigma_min(E(t) - Id) - sigma_min(E(t_c) - Id)|
        <= |E(t_c)|_2 * expm1(|t - t_c| * |J S|_2),
    |E(t_c)|_2 <= sigma_max(E(t_c) - Id) + 1,

so full singular values at every _STRIDE-th grid point bound sigma_min on
the points between them.  Only where that lower bound can fall below the
bracketing level is sigma_min taken at every grid point; elsewhere no dip
can hide, and the scan finds the same dips as a full-grid scan.  The
bound uses no eigenvalue frequencies and holds on the Pade fallback too.

Intended for test suites; cost linear in the grid size, with a small
constant away from crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .czindex import HalfInt
from .symlin import DEFAULT_TOL, Tolerances, signature, standard_J, sym_matrix

__all__ = ["OracleCz", "oracle_cz"]

_BRACKET = 2e-2  # sampled dip must fall below this to be refined
_ACCEPT = 1e-7  # refined minimum below this counts as a crossing
_KERNEL_CUT = 1e-6
_ENDPOINT = 1e-6
_STRIDE = 16  # grid steps between the screen's coarse samples; even
_SLACK = 1e-8  # rounding allowance on the screen, relative to |E(t_c)|_2


@dataclass(frozen=True)
class OracleCz:
    times: tuple
    index: HalfInt
    endpoint_hit: bool


class _ExpEvaluator:
    """exp(t J S) for many t, via one eigendecomposition when it is
    trustworthy, falling back to per-point Pade otherwise."""

    def __init__(self, JS):
        self.JS = JS
        w, V = np.linalg.eig(JS)
        self.w = w
        self.V = V
        try:
            self.Vi = np.linalg.inv(V)
            resid = np.linalg.norm(V @ np.diag(w) @ self.Vi - JS, 2)
            self.fast = resid <= 1e-10 * max(1.0, np.linalg.norm(JS, 2))
        except np.linalg.LinAlgError:
            self.fast = False

    def at(self, t: float):
        if self.fast:
            return (self.V @ np.diag(np.exp(t * self.w)) @ self.Vi).real
        return expm(t * self.JS)

    def batch(self, ts):
        if self.fast:
            E = np.exp(np.multiply.outer(np.asarray(ts), self.w))
            return np.einsum("ij,tj,jk->tik", self.V, E, self.Vi).real
        return np.stack([expm(t * self.JS) for t in ts])


def _golden_min(f, a: float, b: float, width: float = 1e-11):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return ((x1, f1) if f1 <= f2 else (x2, f2))


def _kernel_cols(M):
    _, s, Vt = np.linalg.svd(M)
    cut = _KERNEL_CUT * max(float(s[0]), 1e-3)
    k = int((s < cut).sum())
    return Vt[len(s) - k:].T if k else None


def _form_signature(S, B) -> int:
    G = B.T @ S @ B
    w = np.linalg.eigvalsh((G + G.T) / 2)
    c = 1e-8 * max(1.0, float(np.abs(w).max()))
    return int((w > c).sum()) - int((w < -c).sum())


def _screened_scan(ev: _ExpEvaluator, ts) -> np.ndarray:
    """sigma_min(exp(t J S) - Id) at each of the equally spaced ``ts``
    where it can fall below _BRACKET, and +inf where the screen rules
    that out (the true value there is at least _BRACKET)."""
    grid = len(ts) - 1
    eye = np.eye(ev.JS.shape[0])
    coarse = np.unique(np.append(np.arange(0, grid + 1, _STRIDE), grid))
    s = np.linalg.svd(ev.batch(ts[coarse]) - eye, compute_uv=False)
    F = np.full(grid + 1, np.inf)
    F[coarse] = s[:, -1]
    # Every grid point is within _STRIDE / 2 steps of a coarse point that
    # bounds its gap; a gap is scanned if either end's bound is open.
    half_cell = _STRIDE / 2 * ts[-1] / grid
    reach = (s[:, 0] + 1.0) * (math.expm1(half_cell * np.linalg.norm(ev.JS, 2)) + _SLACK)
    is_open = s[:, -1] - reach < _BRACKET
    gap_open = is_open[:-1] | is_open[1:]
    need = gap_open[np.minimum(np.arange(grid + 1) // _STRIDE, len(gap_open) - 1)]
    need[coarse] = False
    fine = np.flatnonzero(need)
    if fine.size:
        F[fine] = np.linalg.svd(ev.batch(ts[fine]) - eye, compute_uv=False)[:, -1]
    return F


def oracle_cz(S, T: float, grid: int = 20000,
              tol: Tolerances = DEFAULT_TOL) -> OracleCz:
    """Crossing times and index of t |-> exp(t J S) on [0, T] by dense
    scanning.  Needs crossings separated by at least ~8 grid steps.

    Raises ValueError unless T is finite and positive and ``grid`` is an
    integer of at least 1."""
    S = sym_matrix(S)
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise ValueError("grid must be an integer of at least 1")
    dof = S.shape[0] // 2
    ev = _ExpEvaluator(standard_J(dof) @ S)
    eye = np.eye(2 * dof)
    ts = np.linspace(0.0, T, grid + 1)
    # Points the screen skips read +inf: they are only compared against
    # values below _BRACKET, and the true value there is not below it.
    F = _screened_scan(ev, ts)

    def fmin(t):
        return float(np.linalg.svd(ev.at(t) - eye, compute_uv=False)[-1])

    cands = []
    for i in range(1, grid):
        if F[i] < _BRACKET and F[i] <= F[i - 1] and F[i] <= F[i + 1]:
            cands.append(i)
    if F[grid] < _BRACKET and F[grid] <= F[grid - 1]:
        cands.append(grid)
    merged = []
    for i in cands:
        if merged and i - merged[-1] <= 3:
            if F[i] < F[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)

    doubled = signature(S, tol)
    times = []
    endpoint_hit = False
    for i in merged:
        a = ts[max(i - 1, 0)]
        b = ts[min(i + 1, grid)]
        t_star, val = _golden_min(fmin, a, b)
        if val > _ACCEPT:
            continue
        B = _kernel_cols(ev.at(t_star) - eye)
        if B is None:
            continue
        sig = _form_signature(S, B)
        if abs(t_star - T) <= _ENDPOINT:
            doubled += sig
            endpoint_hit = True
            times.append(T)
        else:
            doubled += 2 * sig
            times.append(float(t_star))
    return OracleCz(tuple(times), HalfInt(doubled), endpoint_hit)
