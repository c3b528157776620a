import math
import tracemalloc
import warnings

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
from rfhquad.errors import CrossingDegenerate, DegenerateInput, InputError, NumericalError
from rfhquad.oracles import (
    _ACCEPT,
    _BRACKET,
    _ENDPOINT,
    _SLACK,
    _WIDTH,
    _grid_floor,
    _grid_time,
    _kernel_cols,
    _newton_lockstep,
    _screen_size,
    _screened_scan,
)
from rfhquad.samples import random_elliptic_form, random_symplectic
from rfhquad.symlin import DEFAULT_TOL, ExpEvaluator, signature, standard_J, sym_matrix

TWO_PI = 2 * np.pi


def _full_scan(ev, ts):
    eye = np.eye(ev.M.shape[0])
    return np.linalg.svd(ev.at(ts) - eye, compute_uv=False)[:, -1]


def _norm(ev):
    """|J S|_2 of the evaluator's J S."""
    return float(np.linalg.norm(ev.M, 2))


def _scan(ev, T, grid, lo, hi, floor):
    """The screened scan of the grid indices lo..hi of a grid of ``grid``
    steps over [0, T], as a dense array over lo..hi: sigma_min where the
    scan evaluates it, +inf where it does not."""
    got = _screened_scan(ev, _grid_time(T, grid), lo, hi, _norm(ev), _screen_size(ev), floor)
    assert min(got) >= lo and max(got) <= hi
    F = np.full(hi - lo + 1, np.inf)
    F[np.array(list(got)) - lo] = list(got.values())
    return F


def _at(ev, t):
    """exp(t J S) at one point, by the evaluator's point formula on 2-D arrays."""
    if ev.fast:
        return ((ev.V * np.exp(t * ev.w)) @ ev.Vi).real
    return expm(t * ev.M)


def _newton_min(ev, a, b, x):
    """Scalar Newton search for the least sigma_min(exp(t J S) - Id) on
    [a, b] from x, one 2-D evaluation per step, with the oracle's safeguard
    and stopping rules: the slope u^T (J S E) v moves one end to the point,
    a step that is not finite or leaves the open bracket is replaced by the
    midpoint, and the search stops after a point reached by a step of at
    most _WIDTH, at width _WIDTH, when sigma did not fall, or after as many
    evaluations as bisection needs."""
    eye = np.eye(ev.M.shape[0])
    best, val = x, math.inf
    left = 1 + math.ceil(math.log2(max(b - a, _WIDTH) / _WIDTH))
    near = False
    while True:
        E = _at(ev, x)
        U, s, Vt = np.linalg.svd(E - eye)
        sigma = s[-1]
        slope = np.sum(U[:, -1] * (ev.M @ E @ Vt[-1, :, None])[:, 0])
        fell = sigma < val
        if fell:
            best, val = x, sigma
        if slope > 0:
            b = x
        else:
            a = x
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - sigma / slope
        if not a < step < b:
            step = (a + b) / 2
        left -= 1
        if near or not fell or b - a <= _WIDTH or left <= 0:
            return best, val
        near = abs(step - x) <= _WIDTH
        x = step


def _form_signature(S, B) -> int:
    """sgn(B^T S B) of one crossing's kernel B, by its own eigvalsh, at the
    oracle's cut 1e-8 * max(1, max|w|)."""
    G = B.T @ S @ B
    w = np.linalg.eigvalsh((G + G.T) / 2)
    c = 1e-8 * max(1.0, float(np.abs(w).max()))
    return int((w > c).sum()) - int((w < -c).sum())


def _reference_oracle(S, T, grid=20000, tol=DEFAULT_TOL, rejected=None):
    """The oracle with sigma_min taken at every grid point, every local
    minimum below _BRACKET a candidate, candidates tested one by one and
    each bracket refined alone, point by point, kept as the reference the
    screened, batched oracle must reproduce exactly.  The least sigma of
    each refined candidate that is not accepted is appended to
    ``rejected`` when a list is given."""
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
        t_star, val = _newton_min(ev, ts[i - 1], ts[min(i + 1, grid)], ts[i])
        if val > _ACCEPT:
            if rejected is not None:
                rejected.append(val)
            continue
        _, s, Vt = np.linalg.svd(_at(ev, t_star) - eye)
        B = _kernel_cols(s, Vt)
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


def _assert_matches_reference(S, T, grid, rejected=None):
    got = oracle_cz(S, T, grid)
    times, index, endpoint_hit = _reference_oracle(S, T, grid, rejected=rejected)
    assert got.times == tuple(times)
    assert all(type(t) is float for t in got.times)
    assert got.index == index
    assert got.endpoint_hit == endpoint_hit
    return got


def _window_floor(ev, ts):
    """The grid floor oracle_cz would set on the window ``ts``: its own
    step, and |exp(t J S)|_2 bounded up to its right end."""
    return _grid_floor(_screen_size(ev), ts[-1], _norm(ev) * (ts[-1] - ts[0]) / (len(ts) - 1))


def _assert_screen_matches_full_scan(ev, T, grid, lo=0, hi=None):
    """On the grid indices lo..hi (hi = grid by default) of a grid of
    ``grid`` steps over [0, T], at each floor, _BRACKET and the window's
    grid floor, the screened scan takes sigma_min exactly where it can
    fall below that floor, and skips only points where the full scan is
    not below it."""
    hi = grid if hi is None else hi
    ts = np.array(_grid_time(T, grid)(range(lo, hi + 1)))  # linspace(0, T, grid + 1)[lo:hi + 1]
    ref = _full_scan(ev, ts)
    for floor in (_BRACKET, _window_floor(ev, ts)):
        F = _scan(ev, T, grid, lo, hi, floor)
        seen = np.isfinite(F)
        assert np.array_equal(F[seen], ref[seen])
        assert (ref[~seen] >= floor).all()


def _too_coarse(S, T, grid):
    return np.linalg.norm(standard_J(S.shape[0] // 2) @ S, 2) * T / grid >= 2 * _BRACKET


@given(
    seed=st.integers(0, 2**32 - 1),
    dof=st.integers(1, 3),
    grid=st.sampled_from([40, 97, 1000, 4000, 8001, 20000]),
    where=st.sampled_from(["random", "on", "before", "after"]),
    offset=st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3]),
    pick=st.integers(0, 50),
)
def test_screened_oracle_matches_full_scan(seed, dof, grid, where, offset, pick):
    """The oracle matches the full-scan reference on every grid fine enough
    for |J S|_2, and refuses, naming the grid, every other one."""
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 4 * math.pi))
    S = random_elliptic_form(rng, dof, horizon=T + 0.1)
    crossings = crossing_times(S, T)
    if where != "random" and crossings:
        t = crossings[pick % len(crossings)]
        T = {"on": t, "before": t - offset, "after": t + offset}[where]
    if _too_coarse(S, T, grid):
        with pytest.raises(ValueError, match=f"grid {grid} cannot resolve"):
            oracle_cz(S, T, grid)
    else:
        _assert_matches_reference(S, T, grid)
    ev = ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    _assert_screen_matches_full_scan(ev, T, grid)


def _kappa(ev):
    return np.linalg.norm(ev.V, 2) * np.linalg.norm(ev.Vi, 2)


@given(
    seed=st.integers(0, 2**32 - 1),
    dof=st.integers(1, 3),
    magnitude=st.floats(0.1, 1.0),
    grid=st.sampled_from([40, 97, 1000, 4000, 8001, 20000]),
)
def test_screen_holds_on_a_skew_eigenbasis(seed, dof, magnitude, grid):
    """Elliptic forms conjugated by a symplectic, not orthogonal, map, so
    that kappa(V) > 1 (1.1 to 5.8 over 200 draws at these magnitudes) and
    the screen's eigenbasis size kappa * exp(t max Re w) is the smaller
    one at most points.  The oracle still matches the full-scan reference
    and the screen skips no point below either floor.  sigma_min at the
    grid point nearest each crossing lies below the grid floor, and below
    half of it, the Weyl bound kappa * expm1(|J S|_2 h / 2), wherever the
    floor is under _BRACKET."""
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 4 * math.pi))
    G = random_symplectic(rng, dof, magnitude)
    S = sym_matrix(G.T @ random_elliptic_form(rng, dof, horizon=T + 0.1) @ G)
    ev = ExpEvaluator(standard_J(dof) @ S)
    assert ev.fast and _kappa(ev) > 1.01
    ts = np.linspace(0.0, T, grid + 1)
    if _too_coarse(S, T, grid):
        with pytest.raises(ValueError, match=f"grid {grid} cannot resolve"):
            oracle_cz(S, T, grid)
    else:
        _assert_matches_reference(S, T, grid)
        floor = _window_floor(ev, ts)
        near = np.minimum(np.rint(np.array(crossing_times(S, T)) / T * grid).astype(int), grid)
        assert (_full_scan(ev, ts[near]) < (floor / 2 if floor < _BRACKET else floor)).all()
    _assert_screen_matches_full_scan(ev, T, grid)


@pytest.mark.parametrize("blocks, T, grid", [
    ([build_block("a", 1, 0.8), build_block("c", 1, 1.3j, gamma=-1)], 9.0, 4000),
    ([build_block("c", 1, 1.0j, gamma=1), build_block("a", 1, 0.3),
      build_block("c", 1, 1.7j, gamma=-1)], 4 * math.pi, 20000),
])
@pytest.mark.parametrize("magnitude", [0.0, 0.5])
def test_screen_holds_beside_a_hyperbolic_block(blocks, T, grid, magnitude):
    """A hyperbolic block beside elliptic ones: Re w != 0, so the
    eigenbasis size grows as exp(t max Re w); conjugated by a symplectic
    map, kappa(V) > 1 as well."""
    S = normal_form(blocks).matrix
    dof = S.shape[0] // 2
    if magnitude:
        G = random_symplectic(np.random.default_rng(18), dof, magnitude)
        S = sym_matrix(G.T @ S @ G)
    ev = ExpEvaluator(standard_J(dof) @ S)
    assert ev.fast and ev.w.real.max() > 0.25
    assert (_kappa(ev) > 1.05) == bool(magnitude)
    assert _assert_matches_reference(S, T, grid).times
    _assert_screen_matches_full_scan(ev, T, grid)


def _c2(eps):
    """The imaginary Jordan block (c, 2) at i plus eps * Id: a Krein
    collision, J S with eigenvalues +-sqrt(2 eps) +- i, kappa(V) about
    sqrt(2 / eps); at eps = 0 the evaluator falls back to Pade."""
    return build_block("c", 2, 1j, gamma=1).matrix + eps * np.eye(4)


def _conjugated(S, seed, magnitude):
    G = random_symplectic(np.random.default_rng(seed), S.shape[0] // 2, magnitude)
    return sym_matrix(G.T @ S @ G)


_ELLIPTIC = normal_form([build_block("c", 1, 1.0j, gamma=1),
                         build_block("c", 1, 1.7j, gamma=-1)]).matrix
_BESIDE_HYPERBOLIC = normal_form([build_block("a", 1, 0.3),
                                  build_block("c", 1, 1.3j, gamma=-1)]).matrix


@given(
    seed=st.integers(0, 2**32 - 1),
    dof=st.integers(1, 3),
    a=st.floats(1e-3, 1e6),
    steps=st.sampled_from([1, 2, 5, 97, 1000]),
    h=st.sampled_from([1e-4, 1e-3, 1e-2]),
    beyond=st.sampled_from([0, 1, 3000]),
    magnitude=st.sampled_from([0.0, 0.5]),
)
def test_screen_scans_a_window_off_zero(seed, dof, a, steps, h, beyond, magnitude):
    """The screen scans any window of grid indices, from the first past
    a / h to ``steps`` steps of about h later, with ``beyond`` more steps
    of the grid after it: one step wide or more and as far out as
    t = 1e6, as a full scan of that window does."""
    rng = np.random.default_rng(seed)
    S = random_elliptic_form(rng, dof)
    if magnitude:
        S = _conjugated(S, seed, magnitude)
    ev = ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    lo = math.ceil(a / h)
    grid = lo + steps + beyond
    _assert_screen_matches_full_scan(ev, grid * h, grid, lo, lo + steps)


@pytest.mark.parametrize("a", [1.0, 1e3, 1e6, 1e9])
def test_a_far_window_costs_its_width(a):
    """The screen's radii are in steps of the window itself, so a window
    of width 20 at t = 1e9 takes about as many points as one at t = 1
    (346 to 437 of 20001 here); a step read as T / grid took all 20001
    from t = 1e6 on."""
    ev = ExpEvaluator(standard_J(2) @ _ELLIPTIC)
    lo = round(a * 1000)  # a window of 20000 steps of 1e-3 from t = a
    _assert_screen_matches_full_scan(ev, (lo + 20000) / 1000, lo + 20000, lo)
    assert np.isfinite(_scan(ev, (lo + 20000) / 1000, lo + 20000, lo, lo + 20000,
                             _BRACKET)).sum() <= 20000 / 32


@pytest.mark.parametrize("S", [_c2(0.0), _conjugated(_BESIDE_HYPERBOLIC, 2, 0.3)],
                         ids=["c2-pade", "hyperbolic-0.3"])
@pytest.mark.parametrize("a, b, n", [(2.5, 2.501, 2), (TWO_PI - 1e-3, TWO_PI + 1e-3, 3),
                                     (1.0, 12.0, 40), (5.0, 9.0, 1001)])
def test_screen_scans_a_window_beside_jordan_and_hyperbolic_blocks(S, a, b, n):
    """Windows of n points off 0 on the Pade fallback and beside a
    hyperbolic block, where the screen's size grows with t: from the grid
    point nearest a on a grid of steps (b - a) / (n - 1) over [0, b + 1]."""
    ev = ExpEvaluator(standard_J(S.shape[0] // 2) @ S)
    grid = round((b + 1.0) / (b - a) * (n - 1))
    lo = round(a / (b + 1.0) * grid)
    _assert_screen_matches_full_scan(ev, b + 1.0, grid, lo, lo + n - 1)


@pytest.mark.parametrize("S", [
    _c2(1e-2), _c2(1e-4), _c2(0.0), _conjugated(_c2(1e-3), 0, 0.3),
    _conjugated(_ELLIPTIC, 1, 1.0), _conjugated(_BESIDE_HYPERBOLIC, 2, 0.3),
    _conjugated(_BESIDE_HYPERBOLIC, 3, 1.0),
], ids=["c2+1e-2", "c2+1e-4", "c2-pade", "c2+1e-3-conjugated", "elliptic-conjugated",
        "hyperbolic-0.3", "hyperbolic-1.0"])
def test_screen_size_bounds_the_step(S):
    """|E(t) - E(t_c)|_2 <= size_c * expm1(|t - t_c| |J S|_2), size_c the
    screen's size at t_c, checked directly on the evaluator's own values
    for t_c over [0, 4 pi] and steps from 1e-3 to 0.5 either way.  The
    stated slack is the rounding allowance the screen itself subtracts,
    _SLACK * (sigma_max + 1).  Without the factor kappa the size fails on
    the (c, 2) forms and the conjugated elliptic one, and without
    exp(t_c max Re w) beside the hyperbolic block and on (c, 2) + 1e-2 Id."""
    dof = S.shape[0] // 2
    ev = ExpEvaluator(standard_J(dof) @ S)
    size = _screen_size(ev)
    centers = np.linspace(0.0, 4 * math.pi, 41)
    E_c = ev.at(centers)
    sigma_max = np.linalg.svd(E_c - np.eye(2 * dof), compute_uv=False)[:, 0]
    size_c = size(centers, sigma_max)
    for step in (-0.5, -0.1, -1e-2, -1e-3, 1e-3, 1e-2, 0.1, 0.5):
        keep = centers + step >= 0.0
        moved = np.linalg.norm(ev.at(centers[keep] + step) - E_c[keep], 2, axis=(1, 2))
        bound = size_c[keep] * np.expm1(abs(step) * _norm(ev)) + _SLACK * (sigma_max[keep] + 1.0)
        assert (moved <= bound).all(), (step, float((moved / bound).max()))


@pytest.mark.parametrize("S, fast", [(_c2(0.0), False), (_BESIDE_HYPERBOLIC, True)],
                         ids=["c2-pade", "beside-hyperbolic"])
def test_floor_stays_at_the_bracket(S, fast):
    """On the Pade fallback (kappa = +inf) and beside a hyperbolic block
    (|exp(t J S)|_2 up to exp(0.3 T)) on [0, 9] at grid 4000, the grid
    floor is _BRACKET itself."""
    ev = ExpEvaluator(standard_J(2) @ S)
    assert ev.fast == fast
    assert _grid_floor(_screen_size(ev), 9.0, _norm(ev) * 9.0 / 4000) == _BRACKET


def test_floor_brackets_a_crossing_midway_between_grid_points(monkeypatch):
    """S = mu I_2 crosses at 2 pi / mu, placed half a step h between grid
    points 18000 and 18001: the nearest grid point lies as far from the
    crossing as any can, and sigma_min there, 2 sin(mu h / 4), meets the
    Weyl bound _ACCEPT + expm1(mu h / 2) to within 1.2e-7.  The oracle
    finds the crossing as the reference does; a twin floor at half that
    bound misses it."""
    grid, T = 20000, 7.0
    mu = TWO_PI / (18000.5 * T / grid)
    S = mu * np.eye(2)
    got = _assert_matches_reference(S, T, grid)
    assert got.times == pytest.approx((TWO_PI / mu,), abs=1e-10)
    monkeypatch.setattr(oracles, "_grid_floor",
                        lambda size, T, reach: (_ACCEPT + math.expm1(reach / 2)) / 2)
    assert oracle_cz(S, T, grid).times == ()


def test_spurious_dips_are_dropped_as_the_reference_rejects_them(monkeypatch):
    """400 elliptic forms on horizons up to 25 at grid 20000, every even
    draw conjugated by a symplectic map.  On draws 104, 172, 215, 248 and
    287 the reference refines a local minimum below _BRACKET and rejects
    it (least sigma 1.5e-3 to 1.8e-2), and the oracle answers as the
    reference does.  Four of those minima lie above their grid floor and
    the oracle refines none of them; draw 172's (1.5e-3) lies below its
    floor (3.6e-3: kappa 1.9, |J S|_2 4.5), and the oracle refines and
    rejects it, with the same least sigma."""
    rng = np.random.default_rng(11)
    draws = []
    for i in range(400):
        dof = 1 + i % 3
        T = float(rng.uniform(2.0, 25.0))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        if i % 2 == 0:
            G = random_symplectic(rng, dof, float(rng.uniform(0.3, 0.9)))
            S = sym_matrix(G.T @ S @ G)
        draws.append((S, T))
    refined = []
    original = oracles._newton_lockstep

    def spying(*args):
        best, val, svd = original(*args)
        refined.extend(val)
        return best, val, svd

    monkeypatch.setattr(oracles, "_newton_lockstep", spying)
    for i in (104, 172, 215, 248, 287):
        rejected, refined[:] = [], []
        _assert_matches_reference(*draws[i], 20000, rejected=rejected)
        assert rejected and 1e-3 < min(rejected) and max(rejected) < _BRACKET
        assert [v for v in refined if v > _ACCEPT] == (rejected if i == 172 else [])


def test_fallback_without_eigenbasis():
    """On the Pade fallback the scan, from 4 steps short of 2 pi / |J S|_2,
    finds the crossing the analytic path places; the analytic index
    refuses that crossing's form as degenerate."""
    S = normal_form([build_block("c", 2, 1j, gamma=1)]).matrix
    ev = ExpEvaluator(standard_J(2) @ S)
    assert not ev.fast
    got = _assert_matches_reference(S, 9.0, 4000)
    assert got.times == pytest.approx(crossing_times(S, 9.0), abs=1e-7)
    assert TWO_PI / _norm(ev) <= min(got.times)
    with pytest.raises(CrossingDegenerate):
        cz_index_data(S, 9.0)
    _assert_screen_matches_full_scan(ev, 9.0, 4000)


@pytest.mark.parametrize("S, T, grid", [
    (np.diag([3.0, 1.0, 3.0, 1.0]), 7.0, 20000),
    (2 * np.eye(2), math.pi, 20000),
    (_conjugated(_ELLIPTIC, 1, 1.0), 9.0, 20000),
    (_BESIDE_HYPERBOLIC, 9.0, 4000),
], ids=["crossings-on-the-bound", "endpoint-on-the-bound", "elliptic-conjugated",
        "beside-hyperbolic"])
def test_scan_from_the_bound_matches_full_scan(S, T, grid):
    """Forms whose first crossing lies on 2 pi / |J S|_2 (the first two),
    or past it where rho(J S) < |J S|_2 (conjugated), and beside a
    hyperbolic block: the oracle, which scans from 4 steps short of the
    bound, answers as the reference scan from 0 and as the analytic index."""
    got = _assert_matches_reference(S, T, grid)
    assert got.times
    norm = np.linalg.norm(standard_J(S.shape[0] // 2) @ S, 2)
    assert TWO_PI / norm <= min(got.times) + 1e-12
    data = cz_index_data(S, T)
    assert got.index == data.index
    assert got.endpoint_hit == (data.endpoint is not None)
    analytic = [t for t, _ in data.interior] + ([data.endpoint[0]] if data.endpoint else [])
    assert got.times == pytest.approx(analytic, abs=1e-10)


def _horizon(k, grid):
    """A horizon for I_2 (|J S|_2 = 1) on a grid of ``grid`` steps at
    which the margined scan start is grid point grid + k."""
    return TWO_PI * (1 - 1e-9) * grid / (grid + 4.5 + k)


@pytest.mark.parametrize("T, grid", [(1.0, 20000)] + [
    pytest.param(_horizon(k, g), g, id=f"grid{g}-start{k:+d}")
    for g in (400, 20000) for k in (-3, -2, -1, 0, 1, 2)])
def test_horizon_inside_the_prefix(monkeypatch, T, grid):
    """A horizon short of the first possible crossing: no crossing,
    index sgn(S) / 2 and no RuntimeWarning.  When the scan would start on
    the last grid point or past it, nothing is left to scan and no
    exp(t J S) is built; windows of one to three steps are scanned from
    their start and answer as the reference does."""
    start = math.floor(TWO_PI * (1 - 1e-9) / T * grid) - 4
    scan, rest = _scan_calls(monkeypatch)
    with np.errstate(all="raise"):
        got = oracle_cz(np.eye(2), T, grid)
    assert got == OracleCz((), HalfInt(2), False)
    if start >= grid:
        assert scan == [] and rest == []
    else:
        assert got.times == tuple(_reference_oracle(np.eye(2), T, grid)[0])
        built = np.concatenate(scan)
        assert built.size and built.min() == np.linspace(0.0, T, grid + 1)[start]


def test_degenerate_form_is_refused_before_scanning(monkeypatch):
    """sigma_min vanishes on the whole grid when S has a kernel; the
    oracle refuses S before it builds any exp(t J S)."""
    calls = []
    original_at = ExpEvaluator.at

    def counting(self, ts):
        calls.append(len(ts))
        return original_at(self, ts)

    monkeypatch.setattr(ExpEvaluator, "at", counting)
    with pytest.raises(DegenerateInput):
        oracle_cz(np.diag([1.0, 0.0]), 7.0)
    assert calls == []


@pytest.mark.parametrize("T, grid", [(100.0, 1), (300.0, 7), (2000.0, 300)])
def test_coarse_grid_opens_every_cell(T, grid):
    """Cells far wider than 1 / |J S| must open, not overflow the bound;
    the oracle refuses such a grid."""
    _assert_screen_matches_full_scan(ExpEvaluator(standard_J(1)), T, grid)
    with pytest.raises(ValueError, match=f"grid {grid} cannot resolve"):
        oracle_cz(np.eye(2), T, grid)


def test_refuses_a_horizon_where_exp_overflows(monkeypatch):
    """Beside a hyperbolic block of rate 1, |exp(t J S)| overflows past
    t = log of the largest float, about 709.8.  At T = 720 the oracle
    refuses, naming T and max Re w, before it builds any exp(t J S) and
    with no floating-point warning; at T = 700 it still answers."""
    S = normal_form([build_block("a", 1, 1.0), build_block("c", 1, 1.3j, gamma=-1)]).matrix
    calls = []
    original_at = ExpEvaluator.at

    def counting(self, ts):
        calls.append(len(ts))
        return original_at(self, ts)

    monkeypatch.setattr(ExpEvaluator, "at", counting)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="T = 720 times max Re w = 1 "):
            oracle_cz(S, 720.0, 40000)
    assert calls == []
    assert oracle_cz(S, 700.0, 40000).index == HalfInt(2 * -289)


def test_refuses_an_under_resolved_grid():
    """On a step of 0.015, sigma_min at the sample nearest a crossing of
    50 I_2 is about 0.37, above the bracketing level: the grid is refused
    rather than answered with a few of the 238 crossings (index 477)."""
    assert cz_index_data(50 * np.eye(2), 30.0).index == HalfInt(2 * 477)
    with pytest.raises(ValueError, match="grid 2000 cannot resolve"):
        oracle_cz(50 * np.eye(2), 30.0, 2000)
    assert len(oracle_cz(50 * np.eye(2), 30.0, 40000).times) == 238


def test_rotation_crosses_at_two_pi():
    got = oracle_cz(np.eye(2), 7.0)
    assert len(got.times) == 1
    assert got.times[0] == pytest.approx(TWO_PI, abs=1e-8)
    assert got.index == HalfInt(6)
    assert not got.endpoint_hit


def test_signs_kernels_of_two_dimensions_in_one_call(monkeypatch):
    """diag(1, 2, 1, 2) on [0, 13] crosses at pi and 3 pi with 2-dimensional
    kernels and at 2 pi and 4 pi, where both frequencies resonate, with
    4-dimensional ones.  The oracle signs each dimension's kernels by one
    stacked eigvalsh, after the one of sgn(S), and answers as the
    reference signing one crossing at a time does."""
    S = np.diag([1.0, 2.0, 1.0, 2.0])
    shapes = []
    original = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    got = oracle_cz(S, 13.0)
    monkeypatch.undo()
    assert shapes[1:] == [(2, 2, 2), (2, 4, 4)]
    assert got.times == pytest.approx((math.pi, TWO_PI, 3 * math.pi, 2 * TWO_PI), abs=1e-10)
    assert got.index == HalfInt(28)
    assert got == _assert_matches_reference(S, 13.0, 20000)
    assert got.index == cz_index_data(S, 13.0).index


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


def _scan_calls(monkeypatch):
    """Lists that gather the times of each call of ExpEvaluator.at from
    here on: those made inside the screened scan, and all others."""
    scan, rest = [], []
    sink = [rest]
    original_at, original_scan = ExpEvaluator.at, oracles._screened_scan

    def counting(self, ts):
        sink[-1].append(np.array(ts, dtype=float))
        return original_at(self, ts)

    def scanning(*args):
        sink.append(scan)
        try:
            return original_scan(*args)
        finally:
            sink.pop()

    monkeypatch.setattr(ExpEvaluator, "at", counting)
    monkeypatch.setattr(oracles, "_screened_scan", scanning)
    return scan, rest


_GUARD_T = 4 * math.pi
_GUARD_S = random_elliptic_form(np.random.default_rng(4), 3, horizon=_GUARD_T + 0.1)


def _guard_case_calls(monkeypatch):
    """Times of the calls of ExpEvaluator.at while the oracle runs on a
    dof-3 form over [0, 4 pi] with ten crossings: those made inside the
    screened scan, and those made after it (refinement and kernels)."""
    scan, rest = _scan_calls(monkeypatch)
    assert len(oracle_cz(_GUARD_S, _GUARD_T, 20000).times) == 10
    assert scan and rest
    return scan, rest


def test_scan_evaluates_a_fraction_of_the_grid(monkeypatch):
    """Guard against a return to a full-grid or single-level scan, or to
    splitting whole cells: count the matrices exp(t J S) the scan builds."""
    scan, _ = _guard_case_calls(monkeypatch)
    assert sum(map(len, scan)) <= 20000 / 32


def test_grid_floor_cuts_the_scan(monkeypatch):
    """The oracle screens at its grid floor (1.5e-3 here), not at
    _BRACKET: it builds at most a third of the matrices that the _BRACKET
    screen builds on the same window (142 against 428)."""
    scan, _ = _guard_case_calls(monkeypatch)
    ev = ExpEvaluator(standard_J(3) @ _GUARD_S)
    # the scan evaluates its window's first point
    lo = int(np.searchsorted(np.linspace(0.0, _GUARD_T, 20001), np.concatenate(scan).min()))
    bracketed = np.isfinite(_scan(ev, _GUARD_T, 20000, lo, 20000, _BRACKET)).sum()
    assert 3 * sum(map(len, scan)) <= bracketed


@pytest.mark.parametrize("S, T", [(_GUARD_S, _GUARD_T), (np.eye(2), 7.0)],
                         ids=["guard-case", "rotation"])
def test_scan_skips_the_prefix_without_crossings(monkeypatch, S, T):
    """No crossing lies in (0, 2 pi / |J S|_2), so the scan builds no
    exp(t J S) more than its 4-step margin (5 steps with rounding) short
    of that bound, and still finds the crossings after it."""
    scan, _ = _scan_calls(monkeypatch)
    assert oracle_cz(S, T, 20000).times
    norm = np.linalg.norm(standard_J(S.shape[0] // 2) @ S, 2)
    assert np.concatenate(scan).min() >= TWO_PI / norm - 5 * T / 20000


@pytest.mark.parametrize("grid", [1, 3, 400, 20000, 40001])
def test_grid_time_is_linspace(grid):
    """The scan's grid index -> time map gives np.linspace(0, T, grid + 1)
    at every index, bit for bit, T itself at the last."""
    for T in (1e-3, 1.0, 4 * math.pi, 7.0, 720.0, 1e6 / 3):
        got = np.array(_grid_time(T, grid)(range(grid + 1)))
        assert np.array_equal(got.view(np.int64), np.linspace(0.0, T, grid + 1).view(np.int64))


def test_oracle_memory_does_not_grow_with_the_grid():
    """The oracle keeps state only at the points it evaluates: on [0, 7]
    at grid 2e6 its traced allocations peak under 1 MB (62 kB here), where
    dense arrays of the scanned times, sigma_min and radii took 20 MB."""
    oracle_cz(np.eye(2), 7.0, 2_000_000)  # first-call allocations
    tracemalloc.start()
    try:
        got = oracle_cz(np.eye(2), 7.0, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.times == pytest.approx((TWO_PI,), abs=1e-10)
    assert peak < 1e6


def test_refinement_is_batched(monkeypatch):
    """Guard against a return to point-by-point refinement or to golden
    section (about 40 batched steps): the lockstep Newton search makes one
    batched evaluation per step for all brackets, and a few steps take
    each bracket from a grid step to _WIDTH.  The kernels are read from
    the refinement's own SVDs, with no further call."""
    _, rest = _guard_case_calls(monkeypatch)
    assert len(rest) <= 6


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
)
def test_lockstep_refinement_matches_scalar_search(seed, dof, grid, widths):
    """Every bracket of the lockstep search ends exactly where a scalar
    search on it alone ends: brackets around the crossings, the one-step
    bracket at the grid's end, and brackets of mixed widths, some already
    narrower than the stopping width."""
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.5, 4 * math.pi))
    S = random_elliptic_form(rng, dof, horizon=T + 0.1)
    ev = ExpEvaluator(standard_J(dof) @ sym_matrix(S))
    ts = np.linspace(0.0, T, grid + 1)
    near = [min(max(int(round(t / T * grid)), 1), grid) for t in crossing_times(S, T)]
    a = [ts[i - 1] for i in near] + [ts[grid - 1]]
    b = [ts[min(i + 1, grid)] for i in near] + [ts[grid]]
    x = [ts[i] for i in near] + [ts[grid]]
    for k, w in enumerate(widths):
        lo = float(rng.uniform(0.0, T)) if k else 0.0
        a.append(lo)
        b.append(lo + w)
        x.append(lo + w * float(rng.uniform()))

    t_star, val, _ = _newton_lockstep(ev, a, b, x)
    for j, (aj, bj, xj) in enumerate(zip(a, b, x)):
        assert (t_star[j], val[j]) == _newton_min(ev, aj, bj, xj)


def test_oracle_times_match_crossing_times():
    """On 30 elliptic forms the refined crossings lie within 1e-12 of the
    analytic ones (golden section stopped at about 1.7e-12)."""
    rng = np.random.default_rng(15)
    gaps = []
    for trial in range(30):
        dof = 1 + trial % 3
        T = float(rng.uniform(2.0, 4 * math.pi))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        while any(abs(t - T) < 1e-3 for t in crossing_times(S, T + 0.02)):
            T += 7e-3
        got, ref = oracle_cz(S, T).times, crossing_times(S, T)
        assert len(got) == len(ref)
        gaps += [abs(g - r) for g, r in zip(sorted(got), sorted(ref))]
    assert len(gaps) > 30
    assert max(gaps) <= 1e-12


def test_rejects_odd_dimension():
    with pytest.raises(InputError, match="even-dimensional"):
        oracle_cz(np.eye(3), 7.0)


def test_empty_form_has_no_crossings():
    empty = np.zeros((0, 0))
    assert oracle_cz(empty, 7.0) == OracleCz((), HalfInt(0), False)
    assert cz_index_data(empty, 7.0).index == HalfInt(0)
