"""Metamorphic relations of the census: transformations of the input whose
effect on the output is known, so no reference value is needed."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import critical_values
from rfhquad import DEFAULT_TOL, ActionWindow, QuadraticHamiltonian, build_block, generator_census
from rfhquad.samples import random_hamiltonian, random_orthosymplectic
from rfhquad.tentacular import _williamson

TWO_PI = 2 * np.pi
SHAPES = [(n, 1) for n in range(2, 7)] + [(5, 3)]


def _graded(gens):
    """(eta, side, pole, m, grading) of each generator, in census order."""
    return [(g.action, g.family.side, g.pole, g.family.m, g.grading.doubled) for g in gens]


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0, None], ids=lambda c: f"c={c or 'drawn'}")
@given(data=st.data())
def test_scaling_a0_divides_the_critical_values(c, data):
    """A0 -> c A0 (c > 0) scales every frequency by c, so on the window
    divided by c every critical value is divided by c and keeps its side,
    poles, m and gradings.  The window edges lie midway between critical
    values, so no edge decides membership."""
    if c is None:
        c = data.draw(st.floats(0.25, 8.0), label="c")
    n, k = data.draw(st.sampled_from(SHAPES), label="shape")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    H = random_hamiltonian(rng, n, k)
    if data.draw(st.booleans(), label="conjugated"):
        U = random_orthosymplectic(rng, k)
        a0 = U @ H.a0 @ U.T
        H = QuadraticHamiltonian(n, k, (a0 + a0.T) / 2, H.a1)
    w = 3 * TWO_PI / min(_williamson(H.a0, DEFAULT_TOL)[1])
    values = critical_values(H, ActionWindow(-w, w))
    i = data.draw(st.integers(1, len(values) - 2), label="first")
    j = data.draw(st.integers(i, len(values) - 2), label="last")
    lo, hi = (values[i - 1] + values[i]) / 2, (values[j] + values[j + 1]) / 2
    scaled = QuadraticHamiltonian(n, k, c * H.a0, H.a1)
    want = _graded(generator_census(H, ActionWindow(lo, hi)))
    got = _graded(generator_census(scaled, ActionWindow(lo / c, hi / c)))
    assert want and [g[1:] for g in got] == [g[1:] for g in want]
    assert [g[0] * c for g in got] == pytest.approx([g[0] for g in want], rel=1e-12, abs=0)


def _assert_restricts(H, sub, full):
    """The census over the window ``sub`` equals the census over ``full``,
    which holds it, restricted to ``sub``: the same generators, with the
    same actions, sides, poles, m and gradings."""
    want = [g for g in _graded(generator_census(H, full)) if g[0] in sub]
    assert want and _graded(generator_census(H, sub)) == want


@given(data=st.data())
def test_a_sub_window_restricts_the_census(data):
    """Window restriction.  Frequencies repeat, with multiplicity 2 or 3,
    so each crossing of a repeated frequency below a window weighs twice
    its multiplicity in the gradings.  The sub-window starts past the first
    crossing, on either side of 0, so its census counts the crossings
    below it rather than listing them, while the containing window
    [-w, w] lists them all from 0.  The sub-window's edges lie midway
    between critical values, so no edge decides membership."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mults = data.draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3)
                      .filter(lambda m: max(m) > 1), label="multiplicities")
    mus = 0.5 + 0.8 * np.arange(len(mults)) + rng.uniform(0.0, 0.6, size=len(mults))
    freqs = [mu for mu, m in zip(mus.tolist(), mults) for _ in range(m)]
    k = len(freqs)
    H = QuadraticHamiltonian.from_frequencies(k + 1, k, freqs, build_block("a", 1, 1.0).matrix)
    full = ActionWindow(-8 * TWO_PI / mus[0], 8 * TWO_PI / mus[0])
    pos = [v for v in critical_values(H, full) if v > 0]
    i = data.draw(st.integers(1, len(pos) - 2), label="first")
    j = data.draw(st.integers(i, len(pos) - 2), label="last")
    lo, hi = (pos[i - 1] + pos[i]) / 2, (pos[j] + pos[j + 1]) / 2
    positive = data.draw(st.booleans(), label="positive")
    sub = ActionWindow(lo, hi) if positive else ActionWindow(-hi, -lo)
    _assert_restricts(H, sub, full)


def test_a_late_window_weighs_a_double_frequency_by_its_multiplicity():
    """Two equal frequencies 1.0 beside a hyperbolic block: the census
    over [50, 60] counts the crossings at 2 pi j, j < 8, below it, each
    weighing 4, and grades the first H generator, at 16 pi, 34, as the
    census over [-0.1, 60] does.  Weighing each by 1 grades it 13."""
    H = QuadraticHamiltonian.from_frequencies(3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
    _assert_restricts(H, ActionWindow(50.0, 60.0), ActionWindow(-0.1, 60.0))
    first = next(g for g in generator_census(H, ActionWindow(50.0, 60.0)) if g.family.side == "H")
    assert (first.action, first.grading.doubled) == (16 * np.pi, 68)
