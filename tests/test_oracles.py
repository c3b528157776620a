import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfhquad import HalfInt, build_block, crossing_times, normal_form, oracle_cz
from rfhquad.oracles import (
    _ACCEPT,
    _BRACKET,
    _ENDPOINT,
    _ExpEvaluator,
    _form_signature,
    _golden_min,
    _kernel_cols,
    _screened_scan,
)
from rfhquad.samples import random_elliptic_form
from rfhquad.symlin import DEFAULT_TOL, signature, standard_J, sym_matrix

TWO_PI = 2 * np.pi


def _full_scan(ev, ts):
    eye = np.eye(ev.JS.shape[0])
    return np.linalg.svd(ev.batch(ts) - eye, compute_uv=False)[:, -1]


def _reference_oracle(S, T, grid=20000, tol=DEFAULT_TOL):
    """The oracle with sigma_min taken at every grid point, kept as the
    reference the screened scan must reproduce exactly."""
    S = sym_matrix(S)
    T = float(T)
    dof = S.shape[0] // 2
    ev = _ExpEvaluator(standard_J(dof) @ S)
    eye = np.eye(2 * dof)
    ts = np.linspace(0.0, T, grid + 1)
    F = _full_scan(ev, ts)

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

    ev = _ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    ts = np.linspace(0.0, T, grid + 1)
    F, ref = _screened_scan(ev, ts), _full_scan(ev, ts)
    seen = np.isfinite(F)
    assert np.array_equal(F[seen], ref[seen])
    assert (ref[~seen] >= _BRACKET).all()


def test_fallback_without_eigenbasis():
    S = normal_form([build_block("c", 2, 1j, gamma=1)]).matrix
    assert not _ExpEvaluator(standard_J(2) @ S).fast
    got = _assert_matches_reference(S, 9.0, 4000)
    assert got.times


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


def test_scan_evaluates_a_fraction_of_the_grid(monkeypatch):
    """Guard against a return to the full-grid scan: count the matrices
    exp(t J S) the scan builds on a dof-3 form over [0, 4 pi]."""
    evaluated = []
    batch = _ExpEvaluator.batch

    def counting(self, ts):
        evaluated.append(len(ts))
        return batch(self, ts)

    monkeypatch.setattr(_ExpEvaluator, "batch", counting)
    T, grid = 4 * math.pi, 20000
    S = random_elliptic_form(np.random.default_rng(4), 3, horizon=T + 0.1)
    assert oracle_cz(S, T, grid).times
    assert sum(evaluated) <= grid / 4
