"""Slow independent cross-checks for the crossing enumeration.

The analytic path locates crossings from eigenvalue arithmetic.  The
oracle here knows nothing about eigenvalue frequencies: it scans
sigma_min(exp(t J S) - Id) on a dense grid, brackets the dips, and
refines each by a safeguarded Newton search.  Near a crossing sigma_min
is a V whose arms are analytic and fall linearly in |t - t*| (Robbin &
Salamon, Topology 32, 1993), so its minimizer localizes the crossing far
more sharply than the quadratic touch of the determinant would.
exp(t J S) comes from symlin.ExpEvaluator, which the analytic path in
czindex never uses.

The scan is screened.  With E(t) = exp(t J S), Weyl's inequality bounds
the change of sigma_min(E(t) - Id) between a point t_c and any t by
|E(t) - E(t_c)|_2, which is at most size_c * expm1(|t - t_c| * |J S|_2)
for either of two sizes:

    |E(t_c)|_2 <= sigma_max(E(t_c) - Id) + 1,
        as E(t) - E(t_c) = E(t_c) (exp((t - t_c) J S) - Id);
    kappa * exp(t_c * max(0, max_j Re w_j)),
        as E(t) - E(t_c) = V diag(exp(t_c w) expm1((t - t_c) w)) V^-1
        on the evaluator's eigenbasis J S = V diag(w) V^-1, with
        kappa = |V|_2 |V^-1|_2 and max_j |w_j| <= |J S|_2
        (kappa = +inf on the Pade fallback).

The smaller size holds, so each evaluated point proves sigma_min at least
the floor out to a radius of floor(log1p(room / size_c) / (|J S|_2 h))
grid steps of width h, where room is its sigma_min less the floor and a
rounding allowance _SLACK * (sigma_max + 1), and the radius is 0 when
room is not positive (Lipschitz exclusion: Shubert, SIAM J. Numer. Anal.
9, 1972; Rump, Acta Numerica 19, 2010).  The screen works in levels,
cells of _STRIDES[0] grid steps first, each level one batched evaluation
of the cells' ends.  A cell passes to the next level only the cells of
the next stride that hold points neither end's radius reaches, and at
stride 1 every such point is taken.  Elsewhere no dip can hide, and the
scan finds the same dips, at the same values, as a full-grid scan.  The
bound reads no crossing frequencies, and its first size holds on the
Pade fallback too.

A grid minimum is refined only below the floor: twice the Weyl bound
_ACCEPT + top * expm1(|J S|_2 h / 2), plus 1e-8 * (top + 1) for rounding,
at most _BRACKET, with top = kappa * exp(T * max(0, max Re w)) >= |E(t)|_2
on [0, T].  If Newton accepts t' (sigma <= _ACCEPT) from the bracket
[i - 1, i + 1] of grid minimum i, the bound holds at t''s nearest grid
point, one of the three, so sigma at point i lies below the floor:
dropping minima at or above it leaves the merged candidates (by induction
over the 3-step merge), the brackets and the output unchanged.  On Pade
it is _BRACKET.

Each bracket is refined from its grid minimum.  The slope of a simple
singular value is u^T (dE/dt) v for its singular pair (u, v) (Stewart &
Sun, Matrix Perturbation Theory, 1990), with dE/dt = J S E, so Newton's
step on the V lands on its vertex up to the curvature: three or four
evaluations take a bracket from a grid step to 1e-11.  All brackets are
refined together, one batched evaluation per step.  An accepted
crossing's kernel is read from the SVD Newton took at its point, and the
crossing forms on the kernels of each dimension are signed together, by
one stacked eigvalsh.

The scan keeps state only at the points it evaluates, keyed by grid
index; index i stands for np.linspace(0, T, grid + 1)[i], computed in
Python floats by linspace's own arithmetic as i * (T / grid), and T
itself at i = grid, and made an array once per level.

The scan starts just short of 2 pi / |J S|_2.  exp(t J S) has the
eigenvalue 1 only where t w lies in 2 pi i Z for an eigenvalue w of J S,
and 0 < |w| <= |J S|_2 for a nondegenerate S, so no crossing lies in
(0, 2 pi / |J S|_2).  The bound reads only the norm the grid rule and
the screen already read, no frequency, and holds on the Pade fallback
and beside hyperbolic blocks.  |J S|_2 is taken before the
eigendecomposition, so a horizon inside the bound pays for neither.

Intended for test suites; cost linear in the part of the grid scanned,
with a small constant away from crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .czindex import HalfInt
from .errors import InputError, NumericalError
from .symlin import (
    DEFAULT_TOL,
    ExpEvaluator,
    _is_real,
    _spectral_norm,
    signature,
    standard_J,
    sym_matrix,
)

__all__ = ["OracleCz", "oracle_cz"]

_BRACKET = 2e-2  # sampled dip must fall below this to be refined
_ACCEPT = 1e-7  # refined minimum below this counts as a crossing
_KERNEL_CUT = 1e-6
_ENDPOINT = 1e-6
_STRIDES = (512, 128, 32, 8, 1)  # cell widths of the screen's levels; each divides the one before
_SLACK = 1e-8  # rounding allowance on the screen, relative to sigma_max + 1
_WIDTH = 1e-11  # a refinement stops at a step or a bracket this narrow


@dataclass(frozen=True)
class OracleCz:
    times: tuple
    index: HalfInt
    endpoint_hit: bool


def _newton_lockstep(ev: ExpEvaluator, a, b, x):
    """Minima of sigma(t) = sigma_min(exp(t J S) - Id) on the brackets
    [a[j], b[j]], searched together from the points x[j] in them.

    Each step makes one batched evaluation, on the brackets still live.
    At a point it reads sigma and its slope u^T (J S E) v, with E = exp(t J S)
    and (u, v) the singular pair of sigma.  The slope's sign moves one end
    of the bracket to the point, and the next point is the Newton step
    t - sigma / slope, or the bracket's midpoint where that step is not
    finite or leaves the open bracket.  A bracket stops after it evaluates
    a point that a step of at most _WIDTH reached, once it is at most
    _WIDTH wide, when sigma did not decrease, or after as many evaluations
    as bisection needs to narrow it to _WIDTH.  Bracket j ends as a search
    on it alone would.  Returns three lists: the point of least sigma each
    bracket evaluated, that sigma, and the singular values and right
    singular vectors (s, Vt) of exp(t J S) - Id there."""
    a, b, x = list(a), list(b), list(x)
    best, val, svd = x[:], [math.inf] * len(x), [None] * len(x)
    left = (1 + np.ceil(np.log2(np.maximum(np.subtract(b, a), _WIDTH) / _WIDTH))).tolist()
    near = [False] * len(x)  # x[j] lies a step of at most _WIDTH away
    eye = np.eye(ev.M.shape[0])
    live = list(range(len(x)))
    while live:
        ts = [x[j] for j in live]
        E = ev.at(ts)
        U, s, Vt = np.linalg.svd(E - eye)
        sigma = s[:, -1]
        slope = np.sum(U[:, :, -1] * (ev.M @ E @ Vt[:, -1, :, None])[:, :, 0], axis=1)
        going = []
        for k, (j, t, sg, sl) in enumerate(zip(live, ts, sigma.tolist(), slope.tolist())):
            fell = sg < val[j]
            if fell:
                best[j], val[j], svd[j] = t, sg, (s[k], Vt[k])
            (b if sl > 0 else a)[j] = t
            lo, hi = a[j], b[j]
            step = t - sg / sl if sl else math.nan
            if not lo < step < hi:
                step = (lo + hi) / 2
            left[j] -= 1
            if fell and not near[j] and hi - lo > _WIDTH and left[j] > 0:
                going.append(j)
            near[j] = abs(step - t) <= _WIDTH
            x[j] = step
        live = going
    return best, val, svd


def _kernel_cols(s, Vt):
    """The rows of Vt whose singular values s lie below the cut, as columns, or None."""
    cut = _KERNEL_CUT * max(float(s[0]), 1e-3)
    k = int((s < cut).sum())
    return Vt[len(s) - k:].T if k else None


def _form_signatures(S, kernels) -> list:
    """sgn(B^T S B) for each kernel B of the list, one stacked eigvalsh for
    the kernels of each dimension; eigenvalues within 1e-8 * max(1, max|w|)
    of zero, w those of the one form, count as neither sign."""
    sigs = [0] * len(kernels)
    groups = {}  # kernel dimension -> indices into kernels
    for j, B in enumerate(kernels):
        groups.setdefault(B.shape[1], []).append(j)
    for idx in groups.values():
        R = np.stack([kernels[j].T for j in idx])
        G = R @ S @ R.transpose(0, 2, 1)
        for j, w in zip(idx, np.linalg.eigvalsh((G + G.transpose(0, 2, 1)) / 2).tolist()):
            c = 1e-8 * max(1.0, max(map(abs, w)))
            sigs[j] = len([x for x in w if x > c]) - len([x for x in w if x < -c])
    return sigs


def _screen_size(ev: ExpEvaluator):
    """The screen's size, as a function of the points t_c and sigma_max of
    E(t_c) - Id at each: the smaller of sigma_max + 1 and the eigenbasis
    size kappa * exp(t_c * max(0, max Re w)) (module docstring), so that
    |E(t) - E(t_c)|_2 <= size * expm1(|t - t_c| * |J S|_2) for all t."""
    # kappa = |V|_2 |V^-1|_2, from one stacked SVD
    kappa = (math.prod(np.linalg.svd(np.stack((ev.V, ev.Vi)), compute_uv=False)[:, 0].tolist())
             if ev.fast else np.inf)
    growth = max(0.0, float(ev.w.real.max()))
    return lambda t_c, sigma_max: np.minimum(sigma_max + 1.0, kappa * np.exp(t_c * growth))


def _grid_floor(size, T: float, reach: float) -> float:
    """The floor (module docstring) of a grid over [0, T] with |J S|_2 h = reach."""
    top = float(size(T, np.inf))  # the eigenbasis size at T
    return min(_BRACKET, 2 * (_ACCEPT + top * math.expm1(reach / 2)) + 1e-8 * (top + 1.0))


def _grid_time(T: float, grid: int):
    """The times of a sequence of grid indices i, np.linspace(0, T, grid + 1)[i],
    as a list of floats by linspace's own arithmetic: i * (T / grid), and T
    itself at i = grid."""
    h = T / grid
    return lambda idx: [T if i == grid else i * h for i in idx]


def _screened_scan(ev: ExpEvaluator, time, lo: int, hi: int, norm: float, size,
                   floor: float) -> dict:
    """{i: sigma_min(exp(t_i J S) - Id)} over the grid indices i in lo..hi
    that the screen, of sizes ``size`` = _screen_size(ev) and |J S|_2 =
    ``norm``, evaluates, t_i being the time ``time`` = _grid_time(T, grid)
    gives i: every point where sigma_min can fall below ``floor``, and the
    points that prove it cannot elsewhere.  The radii are in the window's
    own steps, so its cost is set by its width hi - lo, not by its
    distance from 0."""
    eye = np.eye(ev.M.shape[0])
    sigma, radius = {}, {}  # by grid index; radius in grid steps
    width = hi - lo
    t_lo, t_hi = time([lo, hi])
    step_norm = (t_hi - t_lo) / width * norm
    cells = range(lo, hi, _STRIDES[0])  # left ends of the cells to take
    for level, stride in enumerate(_STRIDES):
        ends = [e for c in cells for e in (c, c + stride)]
        ends[-1] = min(ends[-1], hi)  # only the last cell can pass the window's end
        fresh = [i for i in dict.fromkeys(ends) if i not in radius]
        ts = np.array(time(fresh))
        s = np.linalg.svd(ev.at(ts) - eye, compute_uv=False)
        room = np.maximum(s[:, -1] - floor - _SLACK * (s[:, 0] + 1.0), 0.0)
        reach = np.minimum(np.floor(np.log1p(room / size(ts, s[:, 0])) / step_norm), width)
        sigma.update(zip(fresh, s[:, -1].tolist()))
        radius.update(zip(fresh, reach.astype(int).tolist()))
        if stride == 1:
            break
        # The points from a to b of a cell are out of both ends' reach.
        # Take each cell of the next stride that holds one of them: from
        # the one that holds a, each that starts before b, or the one that
        # starts at a = b.
        sub, cells = _STRIDES[level + 1], []
        for c, e in zip(ends[0::2], ends[1::2]):
            a, b = c + radius[c] + 1, e - radius[e] - 1
            if a <= b:
                first = c + (a - c) // sub * sub
                cells += range(first, max(b, first + 1), sub)
        if not cells:
            break
    return sigma


def oracle_cz(S, T: float, grid: int = 20000) -> OracleCz:
    """Crossing times and index of t |-> exp(t J S) on [0, T] by dense
    scanning.  Crossings whose grid minima lie at most 3 grid steps apart
    fall into one candidate and count as one crossing, silently.

    The grid must also keep |J S|_2 * T / grid below 2 * _BRACKET.  Only
    grid minima below the floor are refined, and the sample nearest each
    crossing lies below half the floor (module docstring), so wherever the
    floor is below _BRACKET the rule is sufficient, for non-normal J S too.
    Where the floor is _BRACKET (the Pade fallback, or a large
    |exp(t J S)|_2) the rule is necessary but not sufficient.

    The scan evaluates a point only where the screen cannot prove sigma_min
    at least the floor from a point it evaluated, from 4 grid steps short
    of 2 pi / |J S|_2 on (module docstring), and keeps sigma_min only at
    those points, by grid index; when no point is left after the first one
    it scans, no exp(t J S) is built and the answer is sgn(S) / 2 with no
    crossing.  Each accepted crossing's kernel is read from the SVD that
    the refinement took at its point, and the forms on the kernels of each
    dimension are signed by one stacked eigvalsh.

    Raises InputError unless S acts on an even-dimensional space,
    DegenerateInput when S has a numerical kernel (before any scanning),
    ValueError unless T is a real number (a bool or a string is none),
    finite and positive, and ``grid`` is an integer of at least 1 that
    meets the rule above, and NumericalError, before any exp(t J S) is
    built, when T * max Re w reaches log of the largest float, w over the
    eigenvalues of J S: |exp(T J S)| overflows there."""
    S = sym_matrix(S)
    if S.shape[0] % 2:
        raise InputError("S must act on an even-dimensional space")
    if not _is_real(T):
        raise ValueError(f"T must be a real number, got {T!r}")
    T = float(T)
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 1:
        raise ValueError("grid must be an integer of at least 1")
    if not S.size:
        return OracleCz((), HalfInt(0), False)
    doubled = signature(S, DEFAULT_TOL)  # refuses a degenerate S; so |J S|_2 > 0
    M = standard_J(S.shape[0] // 2) @ S
    norm = _spectral_norm(M)
    reach = norm * T / grid
    if reach >= 2 * _BRACKET:
        raise ValueError(f"grid {grid} cannot resolve crossings on [0, {T:g}]: "
                         f"|J S|_2 * T / grid = {reach:.3g} is not below {2 * _BRACKET:g}")
    # 2 pi / |J S|_2 in grid steps, less 1e-9 for the rounding of the norm.
    # The scan starts 4 steps short of it, so that a crossing on the bound
    # keeps its left neighbour and its 3-step merge window.  The first
    # scanned point has no scanned left neighbour and is never a candidate.
    bound = 2 * math.pi / norm * (1 - 1e-9) / T * grid
    if bound >= grid + 4:
        return OracleCz((), HalfInt(doubled), False)
    ev = ExpEvaluator(M)
    growth = float(ev.w.real.max())
    if T * growth >= math.log(np.finfo(float).max):
        raise NumericalError(f"exp(t J S) overflows on [0, {T:g}]: T = {T:g} times "
                             f"max Re w = {growth:g} reaches log of the largest float")
    start = max(0, math.floor(bound) - 4)
    time = _grid_time(T, grid)
    size = _screen_size(ev)
    floor = _grid_floor(size, T, reach)
    F = _screened_scan(ev, time, start, grid, norm, size, floor)

    # Local minima below the floor; the last point has no right neighbour,
    # and a point the scan skipped is not below the floor.
    cands = sorted(i for i, v in F.items() if v < floor and i > start
                   and v <= F.get(i - 1, math.inf) and v <= F.get(i + 1, math.inf))
    merged = []
    for i in cands:
        if merged and i - merged[-1] <= 3:
            if F[i] < F[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)

    best, val, svd = _newton_lockstep(ev, time([i - 1 for i in merged]),
                                      time([min(i + 1, grid) for i in merged]), time(merged))
    crossings = [(t, B) for t, sigma, s_vt in zip(best, val, svd)
                 if sigma <= _ACCEPT and (B := _kernel_cols(*s_vt)) is not None]
    times = []
    endpoint_hit = False
    for (t, _), sig in zip(crossings, _form_signatures(S, [B for _, B in crossings])):
        if abs(t - T) <= _ENDPOINT:
            doubled += sig
            endpoint_hit = True
            times.append(T)
        else:
            doubled += 2 * sig
            times.append(t)
    return OracleCz(tuple(times), HalfInt(doubled), endpoint_hit)
