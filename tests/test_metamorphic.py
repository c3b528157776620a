"""Metamorphic relations of the census: transformations of the input whose
effect on the output is known, so no reference value is needed."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import critical_values
from rfhquad import DEFAULT_TOL, ActionWindow, QuadraticHamiltonian, generator_census
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
