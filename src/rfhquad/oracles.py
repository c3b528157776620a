"""Slow independent cross-checks for the crossing enumeration.

The analytic path locates crossings from eigenvalue arithmetic.  The
oracle here knows nothing about eigenvalue frequencies: it scans
sigma_min(exp(t J S) - Id) on a dense grid, brackets the dips, and
refines each by golden-section search.  Near a crossing sigma_min decays
linearly in |t - t*|, so the refined minimizer localizes the crossing
far more sharply than the quadratic touch of the determinant would.
exp(t J S) comes from symlin.ExpEvaluator, which the analytic path in
czindex never uses.

The scan is screened.  With E(t) = exp(t J S), E(t) = E(t_c) exp((t - t_c) J S)
and Weyl's inequality give

    |sigma_min(E(t) - Id) - sigma_min(E(t_c) - Id)|
        <= |E(t_c)|_2 * expm1(|t - t_c| * |J S|_2),
    |E(t_c)|_2 <= sigma_max(E(t_c) - Id) + 1,

so full singular values at the two ends of a cell of the grid bound
sigma_min on the points inside it.  The screen works in levels, cells of
_STRIDES[0] grid steps first: a cell is split into cells of the next
stride only where the lower bound at either end can fall below the
bracketing level, and at stride 1 every point of such a cell is taken.
Each level is one batched evaluation.  Elsewhere no dip can hide, and the
scan finds the same dips as a full-grid scan.  The bound uses no
eigenvalue frequencies and holds on the evaluator's Pade fallback too.

All brackets are refined together: the golden-section searches advance in
lockstep, one batched evaluation per step, each bracket stopping at its
own width.  Every bracket sees the arithmetic of a search run on it alone.

Intended for test suites; cost linear in the grid size, with a small
constant away from crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .czindex import HalfInt
from .errors import InputError
from .symlin import DEFAULT_TOL, ExpEvaluator, signature, standard_J, sym_matrix

__all__ = ["OracleCz", "oracle_cz"]

_BRACKET = 2e-2  # sampled dip must fall below this to be refined
_ACCEPT = 1e-7  # refined minimum below this counts as a crossing
_KERNEL_CUT = 1e-6
_ENDPOINT = 1e-6
_STRIDES = (256, 64, 16, 4, 1)  # cell widths of the screen's levels; each divides the one before
_SLACK = 1e-8  # rounding allowance on the screen, relative to |E(t_c)|_2
_WIDTH = 1e-11  # golden-section stops once a bracket is this narrow
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OracleCz:
    times: tuple
    index: HalfInt
    endpoint_hit: bool


def _golden_lockstep(f, a, b):
    """Golden-section minima of f on the brackets [a[j], b[j]], all
    searched together.

    f maps an array of times to the array of its values; each step calls
    it once, on the brackets still wider than _WIDTH.  Bracket j ends as
    a search on it alone would.  Returns the minimizers and their values."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    live = np.flatnonzero(b - a > _WIDTH)
    while live.size:
        left = f1[live] <= f2[live]
        lo, hi = live[left], live[~left]
        b[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        x1[lo] = b[lo] - _INVPHI * (b[lo] - a[lo])
        a[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        x2[hi] = a[hi] + _INVPHI * (b[hi] - a[hi])
        fx = f(np.where(left, x1[live], x2[live]))
        f1[lo], f2[hi] = fx[left], fx[~left]
        live = live[b[live] - a[live] > _WIDTH]
    first = f1 <= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


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


def _screened_scan(ev: ExpEvaluator, ts) -> np.ndarray:
    """sigma_min(exp(t J S) - Id) at each of the equally spaced ``ts``
    where it can fall below _BRACKET, and +inf where the screen rules
    that out (the true value there is at least _BRACKET)."""
    grid = len(ts) - 1
    eye = np.eye(ev.M.shape[0])
    F = np.full(grid + 1, np.inf)
    top = np.full(grid + 1, np.nan)  # sigma_max where taken
    step_norm = ts[-1] / grid * np.linalg.norm(ev.M, 2)
    lo = np.arange(0, grid, _STRIDES[0])  # left ends of the cells to take
    for level, stride in enumerate(_STRIDES):
        hi = np.minimum(lo + stride, grid)
        ends = np.union1d(lo, hi)
        fresh = ends[np.isnan(top[ends])]
        s = np.linalg.svd(ev.at(ts[fresh]) - eye, compute_uv=False)
        F[fresh], top[fresh] = s[:, -1], s[:, 0]
        if stride == 1:
            break
        # Every point of a cell is within stride / 2 steps of one end; a
        # cell is split if either end's bound is open.  A reach above 1
        # opens every end (sigma_min <= sigma_max), so the exponent is capped.
        reach = math.expm1(min(stride / 2 * step_norm, 1.0)) + _SLACK
        is_open = np.zeros(grid + 1, dtype=bool)
        is_open[ends] = F[ends] - (top[ends] + 1.0) * reach < _BRACKET
        split = lo[is_open[lo] | is_open[hi]]
        lo = (split[:, None] + np.arange(0, stride, _STRIDES[level + 1])).ravel()
        lo = lo[lo < grid]
    return F


def oracle_cz(S, T: float, grid: int = 20000) -> OracleCz:
    """Crossing times and index of t |-> exp(t J S) on [0, T] by dense
    scanning.  Needs crossings separated by at least ~8 grid steps.

    Raises InputError unless S acts on an even-dimensional space, and
    ValueError unless T is finite and positive and ``grid`` is an integer
    of at least 1."""
    S = sym_matrix(S)
    if S.shape[0] % 2:
        raise InputError("S must act on an even-dimensional space")
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise ValueError("grid must be an integer of at least 1")
    if not S.size:
        return OracleCz((), HalfInt(0), False)
    dof = S.shape[0] // 2
    ev = ExpEvaluator(standard_J(dof) @ S)
    eye = np.eye(2 * dof)
    ts = np.linspace(0.0, T, grid + 1)
    # Points the screen skips read +inf: they are only compared against
    # values below _BRACKET, and the true value there is not below it.
    F = _screened_scan(ev, ts)

    # Local minima below _BRACKET; the last point has no right neighbour.
    mid = F[1:]
    cands = np.flatnonzero((mid < _BRACKET) & (mid <= F[:-1])
                           & (mid <= np.append(F[2:], np.inf))) + 1
    merged = []
    for i in cands.tolist():
        if merged and i - merged[-1] <= 3:
            if F[i] < F[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)
    merged = np.array(merged, dtype=int)

    def fmin(t):
        return np.linalg.svd(ev.at(t) - eye, compute_uv=False)[:, -1]

    t_star, val = _golden_lockstep(fmin, ts[merged - 1], ts[np.minimum(merged + 1, grid)])
    t_star = t_star[val <= _ACCEPT]
    doubled = signature(S, DEFAULT_TOL)
    times = []
    endpoint_hit = False
    for t, M in zip(t_star.tolist(), ev.at(t_star) - eye):
        B = _kernel_cols(M)
        if B is None:
            continue
        sig = _form_signature(S, B)
        if abs(t - T) <= _ENDPOINT:
            doubled += sig
            endpoint_hit = True
            times.append(T)
        else:
            doubled += 2 * sig
            times.append(t)
    return OracleCz(tuple(times), HalfInt(doubled), endpoint_hit)
