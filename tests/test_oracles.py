import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from rfhquad import oracles
from rfhquad import (
    HalfInt,
    OracleCz,
    build_block,
    crossing_times,
    cz_index_data,
    normal_form,
    oracle_cz,
)
from rfhquad.errors import InputError
from rfhquad.oracles import (
    _ACCEPT,
    _BRACKET,
    _ENDPOINT,
    _WIDTH,
    _form_signature,
    _golden_lockstep,
    _kernel_cols,
    _screened_scan,
)
from rfhquad.samples import random_elliptic_form
from rfhquad.symlin import DEFAULT_TOL, ExpEvaluator, signature, standard_J, sym_matrix

TWO_PI = 2 * np.pi


def _full_scan(ev, ts):
    eye = np.eye(ev.M.shape[0])
    return np.linalg.svd(ev.at(ts) - eye, compute_uv=False)[:, -1]


def _at(ev, t):
    """exp(t J S) at one point, by the evaluator's point formula on 2-D arrays."""
    if ev.fast:
        return ((ev.V * np.exp(t * ev.w)) @ ev.Vi).real
    return expm(t * ev.M)


def _fmin(ev, t):
    return float(np.linalg.svd(_at(ev, t) - np.eye(ev.M.shape[0]), compute_uv=False)[-1])


def _golden_min(f, a, b, width=_WIDTH):
    """Scalar golden-section search, one evaluation of f per step."""
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


def _reference_oracle(S, T, grid=20000, tol=DEFAULT_TOL):
    """The oracle with sigma_min taken at every grid point, candidates
    tested one by one and each bracket refined alone, point by point,
    kept as the reference the screened, batched oracle must reproduce
    exactly."""
    S = sym_matrix(S)
    T = float(T)
    dof = S.shape[0] // 2
    ev = ExpEvaluator(standard_J(dof) @ S)
    eye = np.eye(2 * dof)
    ts = np.linspace(0.0, T, grid + 1)
    F = _full_scan(ev, ts)

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
        t_star, val = _golden_min(lambda t: _fmin(ev, t), a, b)
        if val > _ACCEPT:
            continue
        B = _kernel_cols(_at(ev, t_star) - eye)
        if B is None:
            continue
        sig = _form_signature(S, B)
        if abs(t_star - T) <= _ENDPOINT:
            doubled += sig
            endpoint_hit = True
            times.append(T)
        else:
            doubled += 2 * sig
            times.append(t_star)
    return times, HalfInt(doubled), endpoint_hit


def _assert_matches_reference(S, T, grid):
    got = oracle_cz(S, T, grid)
    times, index, endpoint_hit = _reference_oracle(S, T, grid)
    assert got.times == tuple(times)
    assert all(type(t) is float for t in got.times)
    assert got.index == index
    assert got.endpoint_hit == endpoint_hit
    return got


@given(
    seed=st.integers(0, 2**32 - 1),
    dof=st.integers(1, 3),
    grid=st.sampled_from([40, 97, 1000, 4000, 8001, 20000]),
    where=st.sampled_from(["random", "on", "before", "after"]),
    offset=st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3]),
    pick=st.integers(0, 50),
)
def test_screened_oracle_matches_full_scan(seed, dof, grid, where, offset, pick):
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 4 * math.pi))
    S = random_elliptic_form(rng, dof, horizon=T + 0.1)
    crossings = crossing_times(S, T)
    if where != "random" and crossings:
        t = crossings[pick % len(crossings)]
        T = {"on": t, "before": t - offset, "after": t + offset}[where]
    _assert_matches_reference(S, T, grid)

    ev = ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    ts = np.linspace(0.0, T, grid + 1)
    F, ref = _screened_scan(ev, ts), _full_scan(ev, ts)
    seen = np.isfinite(F)
    assert np.array_equal(F[seen], ref[seen])
    assert (ref[~seen] >= _BRACKET).all()


def test_fallback_without_eigenbasis():
    S = normal_form([build_block("c", 2, 1j, gamma=1)]).matrix
    assert not ExpEvaluator(standard_J(2) @ S).fast
    got = _assert_matches_reference(S, 9.0, 4000)
    assert got.times


@pytest.mark.parametrize("T, grid", [(100.0, 1), (300.0, 7), (2000.0, 300)])
def test_coarse_grid_opens_every_cell(T, grid):
    """Cells far wider than 1 / |J S| must open, not overflow the bound."""
    _assert_matches_reference(np.eye(2), T, grid)


def test_rotation_crosses_at_two_pi():
    got = oracle_cz(np.eye(2), 7.0)
    assert len(got.times) == 1
    assert got.times[0] == pytest.approx(TWO_PI, abs=1e-8)
    assert got.index == HalfInt(6)
    assert not got.endpoint_hit


@pytest.mark.parametrize("T, grid, message", [
    (7.0, 0, "grid must"),
    (7.0, -5, "grid must"),
    (7.0, True, "grid must"),
    (7.0, 2.5, "grid must"),
    (7.0, "100", "grid must"),
    (0.0, 100, "T must"),
    (-1.0, 100, "T must"),
    (math.inf, 100, "T must"),
    (math.nan, 100, "T must"),
])
def test_rejects_bad_horizon_and_grid(T, grid, message):
    with pytest.raises(ValueError, match=message):
        oracle_cz(np.eye(2), T, grid)


def _guard_case_calls(monkeypatch):
    """Sizes of the calls of ExpEvaluator.at while the oracle runs on a
    dof-3 form over [0, 4 pi] with ten crossings: those made inside the
    screened scan, and those made after it (refinement and kernels)."""
    scan, rest = [], []
    sink = [rest]
    original_at, original_scan = ExpEvaluator.at, oracles._screened_scan

    def counting(self, ts):
        sink[-1].append(len(ts))
        return original_at(self, ts)

    def scanning(ev, ts):
        sink.append(scan)
        try:
            return original_scan(ev, ts)
        finally:
            sink.pop()

    monkeypatch.setattr(ExpEvaluator, "at", counting)
    monkeypatch.setattr(oracles, "_screened_scan", scanning)
    T = 4 * math.pi
    S = random_elliptic_form(np.random.default_rng(4), 3, horizon=T + 0.1)
    assert len(oracle_cz(S, T, 20000).times) == 10
    assert scan and rest
    return scan, rest


def test_scan_evaluates_a_fraction_of_the_grid(monkeypatch):
    """Guard against a return to a full-grid or single-level scan: count
    the matrices exp(t J S) the scan builds."""
    scan, _ = _guard_case_calls(monkeypatch)
    assert sum(scan) <= 20000 / 16


def test_refinement_is_batched(monkeypatch):
    """Guard against a return to point-by-point refinement, about 41
    evaluations per crossing: the lockstep search makes one batched
    evaluation per step for all brackets."""
    _, rest = _guard_case_calls(monkeypatch)
    assert len(rest) <= 50


@pytest.mark.parametrize("blocks, fast", [
    ([build_block("c", 2, 1j, gamma=1)], False),  # no eigenbasis: Pade
    ([build_block("a", 1, 0.8), build_block("c", 1, 1.3j, gamma=-1)], True),
    ([build_block("a", 1, 0.6)], True),  # real eigenvalues and eigenvectors
])
def test_points_match_single_point_product(blocks, fast, rng):
    """The batched evaluator gives each point bit for bit the value of
    the 2-D product (V * exp(t w)) @ V^-1 (or expm), whatever else is
    asked for with it."""
    S = normal_form(blocks).matrix
    ev = ExpEvaluator(standard_J(S.shape[0] // 2) @ S)
    assert ev.fast == fast
    ts = np.concatenate([rng.uniform(0.0, 10.0, 60), [0.0, TWO_PI]])
    ref = np.stack([_at(ev, t) for t in ts])
    assert np.array_equal(ev.at(ts), ref)
    assert np.array_equal(ev.at(ts[::-1]), ref[::-1])
    assert np.array_equal(ev.at(ts[:1]), ref[:1])


@given(
    seed=st.integers(0, 2**32 - 1),
    dof=st.integers(1, 3),
    grid=st.sampled_from([40, 1000, 20000]),
    widths=st.lists(st.sampled_from([0.0, 1e-13, 5e-12, _WIDTH, 2e-11, 1e-6, 1e-2]),
                    max_size=4),
    step=st.sampled_from([None, 1e-12, 1e-9, 1e-6]),
)
def test_lockstep_refinement_matches_scalar_search(seed, dof, grid, widths, step):
    """Every bracket of the lockstep search ends exactly where a scalar
    search on it alone ends: brackets around the crossings, the one-step
    bracket at the grid's end, and brackets of mixed widths, some already
    narrower than the stopping width.  With ``step``, sigma_min is rounded
    down to a multiple of it, so the searches meet ties."""
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 4 * math.pi))
    S = random_elliptic_form(rng, dof, horizon=T + 0.1)
    ev = ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    eye = np.eye(2 * dof)
    ts = np.linspace(0.0, T, grid + 1)
    near = [min(max(int(round(t / T * grid)), 1), grid) for t in crossing_times(S, T)]
    a = [ts[i - 1] for i in near] + [ts[grid - 1]]
    b = [ts[min(i + 1, grid)] for i in near] + [ts[grid]]
    for k, w in enumerate(widths):
        lo = float(rng.uniform(0.0, T)) if k else 0.0
        a.append(lo)
        b.append(lo + w)

    def fbatch(t):
        s = np.linalg.svd(ev.at(t) - eye, compute_uv=False)[:, -1]
        return s if step is None else np.floor(s / step)

    def fscalar(t):
        s = _fmin(ev, t)
        return s if step is None else float(math.floor(s / step))

    t_star, val = _golden_lockstep(fbatch, a, b)
    for j, (aj, bj) in enumerate(zip(a, b)):
        assert (t_star[j], val[j]) == _golden_min(fscalar, aj, bj)


def test_rejects_odd_dimension():
    with pytest.raises(InputError, match="even-dimensional"):
        oracle_cz(np.eye(3), 7.0)


def test_empty_form_has_no_crossings():
    empty = np.zeros((0, 0))
    assert oracle_cz(empty, 7.0) == OracleCz((), HalfInt(0), False)
    assert cz_index_data(empty, 7.0).index == HalfInt(0)
