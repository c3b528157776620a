import copy
import dataclasses
import itertools
import pickle
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import critical_values, per_horizon_data
from rfhquad import (
    ActionWindow,
    ExactSequenceProblem,
    GradedZ2Space,
    HalfInt,
    OrbitFamily,
    QuadraticHamiltonian,
    alternating_sum,
    build_block,
    census,
    exact1_problem,
    exact2_problem,
    generator_census,
    rfh_geq0,
    rfh_pm_compact,
    rfh_report,
    singular_homology,
    solve_exact_sequence,
)
from rfhquad import czindex, rfh, symlin
from rfhquad.errors import (
    Inconsistent,
    InputError,
    InternalError,
    ResonanceMismatch,
    Underdetermined,
)
from rfhquad.samples import random_hamiltonian, random_hyperbolic_blocks, random_orthosymplectic
from rfhquad.selftest import criterion_grid
from rfhquad.symlin import DEFAULT_TOL
from rfhquad.tentacular import _williamson

TWO_PI = 2 * np.pi


class TestGradedSpace:
    def test_zero_dims_dropped(self):
        V = GradedZ2Space({0: 1, 3: 0, -2: 2})
        assert list(V.as_dict()) == [-2, 0]
        assert V.dim(3) == 0 and V.dim(-2) == 2

    def test_dict_equality(self):
        assert GradedZ2Space({1: 1}) == {1: 1}
        assert GradedZ2Space() == {}
        assert not GradedZ2Space()

    def test_rejects_bad_dims(self):
        with pytest.raises(InputError):
            GradedZ2Space({0: -1})
        with pytest.raises(InputError):
            GradedZ2Space({0: 1.5})

    def test_degrees_are_integers(self):
        """A degree is an integer, an integral float among them but not a
        bool: anything else raises InputError, in the constructor and in
        dim, where int() would truncate 1.5 to degree 1."""
        assert GradedZ2Space({2.0: 1, -1: 1}) == GradedZ2Space({2: 1, -1: 1})
        assert GradedZ2Space({1: 1}).dim(1.0) == 1
        for bad in (1.5, "x", "1", True, None, float("nan"), float("inf")):
            with pytest.raises(InputError, match="degree must be an integer"):
                GradedZ2Space({bad: 1})
            with pytest.raises(InputError, match="degree must be an integer"):
                GradedZ2Space({1: 1}).dim(bad)

    def test_rejects_non_numbers(self):
        """A bool, a string or None is no dimension, and raises InputError,
        not the ValueError or TypeError of int()."""
        for bad in (True, "x", "1", None, [1], float("nan"), float("inf")):
            with pytest.raises(InputError, match="nonnegative integer"):
                GradedZ2Space({0: bad})

    def test_solver_and_compact_inputs_reject_non_numbers(self):
        for bad in ("x", [1], float("inf")):  # None marks an unknown to the solver
            with pytest.raises(InputError, match="bad dimension"):
                solve_exact_sequence(ExactSequenceProblem((("0", 0), ("A", bad), ("1", 0))))
        for bad in ("x", None, float("inf")):
            with pytest.raises(InputError, match="positive integer"):
                rfh_pm_compact(bad)


class TestKnownSpaces:
    def test_hypersurface_homology(self):
        assert singular_homology(3, 1) == {0: 1, 3: 1}
        assert singular_homology(5, 2) == {0: 1, 6: 1}

    def test_guards(self):
        with pytest.raises(InputError):
            singular_homology(2, 2)

    def test_compact_side_theories(self):
        plus, minus = rfh_pm_compact(1)
        assert plus == {2: 1} and minus == {-1: 1}
        plus, minus = rfh_pm_compact(3)
        assert plus == {4: 1} and minus == {-3: 1}


class TestSequenceSolver:
    def test_two_term_isomorphism(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("A", None), ("B", 5), ("0'", 0)))
        solved = solve_exact_sequence(prob)
        assert solved.dim_of("A") == 5

    def test_short_exact_sum(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("L", 1), ("X", None), ("R", 1), ("0'", 0)))
        solved = solve_exact_sequence(prob)
        assert solved.dim_of("X") == 2

    def test_iso_annotation_kills_neighbours(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("X", None), ("A", 1), ("B", 1), ("Y", None), ("0'", 0)),
            maps=("unknown", "unknown", "iso", "unknown", "unknown"))
        solved = solve_exact_sequence(prob)
        assert solved.dim_of("X") == 0
        assert solved.dim_of("Y") == 0

    def test_rank_annotation_is_refused(self):
        """An arrow is annotated 'unknown' or 'iso' only; an integer rank
        (or 'zero') is refused, not taken as a bound."""
        for ann in (3, 0, "zero"):
            with pytest.raises(InputError, match=f"bad map annotation {ann!r}"):
                ExactSequenceProblem(terms=(("0", 0), ("A", 3), ("B", None), ("0'", 0)),
                                     maps=("unknown", ann, "unknown"))

    def test_underdetermined_named(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("X", None), ("M", None), ("Y", None), ("0'", 0)))
        with pytest.raises(Underdetermined) as err:
            solve_exact_sequence(prob)
        assert "X" in str(err.value) or "M" in str(err.value)

    def test_inconsistent_named(self):
        prob = ExactSequenceProblem(terms=(("0", 0), ("A", 1), ("0'", 0)))
        with pytest.raises(Inconsistent):
            solve_exact_sequence(prob)

    def test_inconsistent_stops_at_the_first_crossed_bound(self, monkeypatch):
        """A crossed bound admits no solution, so the solver stops there
        instead of moving the crossed bounds until its pass cap (256 passes
        on this problem)."""
        calls = []
        step = rfh._intervals_step

        def counting(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(rfh, "_intervals_step", counting)
        prob = ExactSequenceProblem(terms=(("0", 0), ("A", 1), ("0'", 0)))
        with pytest.raises(Inconsistent, match="no consistent"):
            solve_exact_sequence(prob)
        assert len(calls) <= 2

    def test_must_close_with_zeros(self):
        with pytest.raises(InputError):
            ExactSequenceProblem(terms=(("A", 1), ("B", 1), ("C", None)))

    def test_refill_is_idempotent(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("L", 1), ("X", None), ("R", 1), ("0'", 0)))
        solved = solve_exact_sequence(prob)
        again = solve_exact_sequence(ExactSequenceProblem(terms=solved.dims))
        assert again.dims == solved.dims

    def test_alternating_sum_vanishes(self):
        prob = ExactSequenceProblem(
            terms=(("0", 0), ("A", 2), ("B", None), ("C", 1), ("0'", 0)))
        solved = solve_exact_sequence(prob)
        assert alternating_sum(d for _, d in solved.dims) == 0


def _exact_solutions(terms, maps, top=8):
    """Every (dims, ranks) that makes the sequence exact with each 'iso'
    arrow an isomorphism, each unknown dim tried from 0 to ``top``."""
    unknown = [i for i, (_, d) in enumerate(terms) if d is None]
    found = []
    for guess in itertools.product(range(top + 1), repeat=len(unknown)):
        dims = [d for _, d in terms]
        for i, d in zip(unknown, guess):
            dims[i] = d
        ranks = [dims[0]]  # exactness at each term fixes the rank out of it
        for d in dims[1:-1]:
            ranks.append(d - ranks[-1])
        arrows = list(zip(ranks, dims, dims[1:], maps))
        if ranks[-1] == dims[-1] and all(
                0 <= r <= min(a, b) and (ann != "iso" or r == a == b) for r, a, b, ann in arrows):
            found.append((tuple((lab, d) for (lab, _), d in zip(terms, dims)), tuple(ranks)))
    return found


@given(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=5), st.data())
def test_solver_is_sound_against_brute_force(inner, data):
    """What the solver returns is the one solution a brute-force search
    finds, and it finds none where the solver says Inconsistent."""
    terms = (("0", 0), *((f"T{i}", d) for i, d in enumerate(inner)), ("0'", 0))
    maps = tuple(data.draw(st.lists(st.sampled_from(["unknown", "iso"]),
                                    min_size=len(terms) - 1, max_size=len(terms) - 1)))
    found = _exact_solutions(terms, maps)
    try:
        solved = solve_exact_sequence(ExactSequenceProblem(terms, maps))
    except Inconsistent:
        assert found == []
    except Underdetermined:
        pass
    else:
        assert found == [(solved.dims, solved.ranks)]


def _closure_intervals_step(lo, hi, rlo, rhi, maps, n):
    """Reference for ``rfh._intervals_step``: every move goes through a
    setter closure that checks the moved bound against its partner."""
    changed = crossed = False

    def set_lo(arr, i, v):
        nonlocal changed, crossed
        if v > arr[i]:
            arr[i] = v
            changed = True
            crossed = crossed or v > (hi if arr is lo else rhi)[i]

    def set_hi(arr, i, v):
        nonlocal changed, crossed
        if v < arr[i]:
            arr[i] = v
            changed = True
            crossed = crossed or v < (lo if arr is hi else rlo)[i]

    for i in range(n - 1):
        set_hi(rhi, i, min(hi[i], hi[i + 1]))
        if maps[i] == "iso":
            set_lo(rlo, i, max(lo[i], lo[i + 1]))
            set_lo(lo, i, lo[i + 1])
            set_lo(lo, i + 1, lo[i])
            set_hi(hi, i, hi[i + 1])
            set_hi(hi, i + 1, hi[i])
    for i in range(n):
        rin_lo = rlo[i - 1] if i > 0 else 0
        rin_hi = rhi[i - 1] if i > 0 else 0
        rout_lo = rlo[i] if i < n - 1 else 0
        rout_hi = rhi[i] if i < n - 1 else 0
        set_lo(lo, i, rin_lo + rout_lo)
        set_hi(hi, i, rin_hi + rout_hi)
        if i > 0:
            set_lo(rlo, i - 1, lo[i] - rout_hi)
            set_hi(rhi, i - 1, hi[i] - rout_lo)
        if i < n - 1:
            set_lo(rlo, i, lo[i] - rin_hi)
            set_hi(rhi, i, hi[i] - rin_lo)
    return changed and not crossed


def _solve_tracing(problem, step):
    """solve_exact_sequence(problem) through ``step``: its outcome, and
    the bounds and answer after every pass."""
    passes = []

    def traced(lo, hi, rlo, rhi, maps, n):
        moved = step(lo, hi, rlo, rhi, maps, n)
        passes.append((moved, lo[:], hi[:], rlo[:], rhi[:]))
        return moved

    with mock.patch.object(rfh, "_intervals_step", traced):
        try:
            solved = solve_exact_sequence(problem)
        except (Inconsistent, Underdetermined) as exc:
            return type(exc), str(exc), passes
    return solved, passes


_EXACT_PROBLEMS = [exact1_problem(n, k) for n in range(2, 7) for k in range(1, n)]
_EXACT_PROBLEMS += [exact2_problem(n, k, rfh_geq0(n, k)) for n in range(2, 7) for k in range(1, n)]


@st.composite
def _sequence_problems(draw):
    inner = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=12))
    terms = (("0", 0), *((f"T{i}", d) for i, d in enumerate(inner)), ("0'", 0))
    maps = draw(st.lists(st.sampled_from(["unknown", "iso"]),
                         min_size=len(terms) - 1, max_size=len(terms) - 1))
    return ExactSequenceProblem(terms, tuple(maps))


@given(st.one_of(st.sampled_from(_EXACT_PROBLEMS), _sequence_problems()))
@example(ExactSequenceProblem(terms=(("0", 0), ("A", 1), ("0'", 0))))  # Inconsistent
@example(ExactSequenceProblem(terms=(("0", 0), ("X", None), ("M", None), ("Y", None), ("0'", 0))))
def test_inline_intervals_step_matches_the_closure_version(problem):
    """The inline tightening pass, which checks for a crossed pair once per
    pass, moves every bound as the closure version does, pass by pass, and
    the solver stops, answers or raises (Inconsistent, Underdetermined) at
    the same pass."""
    assert _solve_tracing(problem, rfh._intervals_step) == _solve_tracing(
        problem, _closure_intervals_step)


class TestHomology:
    def test_half_open_cylinder(self, h31):
        assert rfh_report(h31).full == {-2: 1, -1: 1}

    def test_degree_collision(self, h21):
        # k = n-1 stacks both classes in one degree
        assert rfh_report(h21).full == {-1: 2}

    def test_wider_gap(self, rng):
        assert rfh_report(random_hamiltonian(rng, 5, 2)).full == {-4: 1, -2: 1}

    def test_nonnegative_part(self):
        assert rfh_geq0(3, 1) == {-2: 1}
        assert rfh_geq0(4, 2) == {-3: 1}

    def test_report_consistency(self, h31):
        report = rfh_report(h31)
        assert (report.n, report.k) == (3, 1)
        assert report.full == {-2: 1, -1: 1}
        assert report.geq0 == {-2: 1}
        assert report.plus == {2: 1} and report.minus == {-1: 1}

    def test_k_range_guard(self):
        H = QuadraticHamiltonian.from_frequencies(3, 3, [1.0, 2.0, 3.0], np.zeros((0, 0)))
        with pytest.raises(InputError):
            rfh_report(H)

    @given(st.integers(2, 7), st.data())
    def test_grid_matches_closed_form(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        expect = {}
        for d in (1 - n, -k):
            expect[d] = expect.get(d, 0) + 1
        H = random_hamiltonian(np.random.default_rng(10 * n + k), n, k)
        assert rfh_report(H).full == expect


class TestGeneratorCensus:
    def test_degrees_single_frequency(self, h21):
        gens = generator_census(h21, ActionWindow(0.1, 7.0))
        h0 = sorted(g.grading.as_int() for g in gens if g.family.side == "H0")
        assert h0 == [2, 3]
        h = sorted(g.grading.as_int() for g in gens if g.family.side == "H")
        assert h == [2, 3]

    def test_degrees_double_frequency(self):
        H = QuadraticHamiltonian.from_frequencies(
            3, 2, [1.0, 1.0], build_block("a", 1, 1.0).matrix)
        gens = generator_census(H, ActionWindow(0.1, 7.0))
        h0 = sorted(g.grading.as_int() for g in gens if g.family.side == "H0")
        assert h0 == [3, 6]

    def test_stationary_degrees(self, h31):
        gens = generator_census(h31, ActionWindow(-0.5, 0.5))
        h_side = sorted(g.grading.as_int() for g in gens if g.family.side == "H")
        h0_side = sorted(g.grading.as_int() for g in gens if g.family.side == "H0")
        assert h_side == [-2, 1]  # 1-n and k
        assert h0_side == [0, 1]  # 1-k and k

    def test_census_sorted_by_action(self, h32):
        gens = generator_census(h32, ActionWindow(-8.0, 8.0))
        actions = [g.action for g in gens]
        assert actions == sorted(actions)

    def test_labels(self, h21):
        gens = generator_census(h21, ActionWindow(0.1, 7.0))
        assert any(g.label.startswith("H0/eta=") for g in gens)

    def test_degrees_negative_action(self, h21):
        gens = generator_census(h21, ActionWindow(-7.0, -0.1))
        for side in ("H0", "H"):
            assert sorted(g.grading.as_int() for g in gens if g.family.side == side) == [-2, -1]

    def test_sides_agree_on_positive_window(self, h32):
        gens = generator_census(h32, ActionWindow(0.1, 10.0))
        by_side = {side: sorted((g.grading, g.action) for g in gens if g.family.side == side)
                   for side in ("H0", "H")}
        assert by_side["H0"] and by_side["H0"] == by_side["H"]


def _assert_census_matches_reference(H, window):
    """Every generator's transverse index and grading equal the per-eta
    reference sign(eta) * index(A0, |eta|), bit for bit, where the index
    comes from a pass that stops at |eta| and signs every crossing afresh."""
    gens = generator_census(H, window)
    assert gens, window
    reference = {0.0: HalfInt(0)}  # keyed by the exact |eta|
    for g in gens:
        eta = abs(g.family.eta)
        if eta not in reference:
            reference[eta] = per_horizon_data(H.a0, eta, DEFAULT_TOL).index
        cz = reference[eta] if g.family.eta >= 0 else -reference[eta]
        grading = cz + g.sigma_index + HalfInt(1)
        assert g.family.cz_transverse.doubled == cz.doubled, g.label
        assert g.grading.doubled == grading.doubled, g.label


def _conjugated(H, rng):
    U = random_orthosymplectic(rng, H.k)
    a0 = U @ H.a0 @ U.T
    return QuadraticHamiltonian(H.n, H.k, (a0 + a0.T) / 2, H.a1)


class TestCensusEquivalence:
    """The one-pass census grades every generator exactly as the per-eta
    index would."""

    @pytest.mark.parametrize("H", criterion_grid(), ids=lambda H: f"n{H.n}k{H.k}")
    def test_criterion_grid(self, H):
        w = 3 * TWO_PI / min(H.frequencies) + 1e-6
        _assert_census_matches_reference(H, ActionWindow(-w, w))

    @pytest.mark.parametrize("freqs", [[1.0, 2.0], [1.0, 1.0], [1.0, 1.5, 3.0]])
    def test_resonant_frequencies(self, freqs):
        rng = np.random.default_rng(len(freqs))
        k = len(freqs)
        H = QuadraticHamiltonian.from_frequencies(
            k + 1, k, freqs, random_hyperbolic_blocks(rng, 1).matrix)
        for ham in (H, _conjugated(H, rng)):
            _assert_census_matches_reference(ham, ActionWindow(-4 * TWO_PI, 4 * TWO_PI))
            _assert_census_matches_reference(ham, ActionWindow(-TWO_PI - 1.0, 5 * TWO_PI))

    def test_conjugated_a0(self, rng):
        for n, k in ((3, 2), (4, 3), (5, 2)):
            H = _conjugated(random_hamiltonian(rng, n, k), rng)
            w = 4 * TWO_PI / min(_williamson(H.a0, DEFAULT_TOL)[1]) + 1e-6
            _assert_census_matches_reference(H, ActionWindow(-w, w))

    def test_windows_ending_on_critical_values(self, h32):
        values = critical_values(h32, ActionWindow(-20.0, 20.0))
        nonzero = [v for v in values if v != 0.0]
        for lo, hi in ((nonzero[0], nonzero[-1]), (nonzero[2], nonzero[-3]),
                       (values[len(values) // 2 + 1], nonzero[-1])):
            _assert_census_matches_reference(h32, ActionWindow(lo, hi))

    def test_asymmetric_windows(self, h32, h21):
        for H in (h32, h21):
            _assert_census_matches_reference(H, ActionWindow(-3.0, 25.0))
            _assert_census_matches_reference(H, ActionWindow(-40.0, -0.5))
            _assert_census_matches_reference(H, ActionWindow(0.5, 11.0))

    def test_fifty_fold_window(self, h42):
        w = 50 * TWO_PI + 1e-6
        _assert_census_matches_reference(h42, ActionWindow(-w, w))

    def test_far_asymmetric_windows(self, h42):
        """Near 1e3, on either side of 0 and across the resonance at
        320 pi, where the sum runs up from the window's first critical
        value or down from its last."""
        _assert_census_matches_reference(h42, ActionWindow(1e3 - 4.0, 1e3 + 9.0))
        _assert_census_matches_reference(h42, ActionWindow(-1e3 - 9.0, -1e3 + 2.0))

    def test_far_windows_follow_longs_closed_form(self, h42):
        """Near 1e5 a pass from 0 would sign about 3.7e4 crossings per eta,
        so the reference is Long's closed form, computed here."""
        for window in (ActionWindow(1e5 - 3.0, 1e5 + 12.0), ActionWindow(-1e5 - 12.0, -1e5 + 3.0)):
            gens = generator_census(h42, window)
            assert len(gens) >= 12, window
            _assert_longs_closed_form(h42, gens)

    def test_far_resonance_is_never_split(self, h42):
        """1.0 and 1.3 cross together at 20 pi j.  Near 1e6 the event times
        2 pi j / mu carry more round-off than the merge radius, so the
        enumeration may list two crossings of m = 1 there.  The census
        then refuses, since both frequencies resonate at each, or reads
        one family of m = 2; never two of m = 1."""
        t = 20 * np.pi * 15915
        try:
            fams = census(h42, ActionWindow(t - 0.5, t + 0.5))
        except ResonanceMismatch:
            return
        assert [f.m for f in fams if f.side == "H0"] == [2]

    def test_far_non_resonant_window(self, h42):
        """Near 1e6 and away from every resonance: five families of m = 1,
        graded by Long's closed form, although one ulp of eta moves a
        phase eta * mu past kernel_dim's cut."""
        gens = generator_census(h42, ActionWindow(1e6 - 3.0, 1e6 + 12.0))
        assert [g.family.m for g in gens if g.family.side == "H0" and g.pole == "max"] == [1] * 5
        _assert_longs_closed_form(h42, gens)

    def test_forty_eight_frequencies(self):
        """k = 48 frequencies in [1, 1.1], kept apart, one hyperbolic pair,
        on +-3 periods of the slowest: every generator as Long's closed
        form grades it."""
        rng = np.random.default_rng(48)
        k = 48
        freqs = [1.0 + 0.1 / k * (j + 0.1 + 0.8 * rng.random()) for j in range(k)]
        H = QuadraticHamiltonian.from_frequencies(
            k + 1, k, freqs, build_block("a", 1, 1.0).matrix)
        w = 3 * TWO_PI / min(freqs)
        gens = generator_census(H, ActionWindow(-w, w))
        assert len(gens) == 4 * (2 * 3 * k + 1)
        _assert_longs_closed_form(H, [g for g in gens if g.family.eta != 0.0])


def _assert_longs_closed_form(H, gens):
    """The grading of each generator of H, with distinct Williamson
    frequencies mu, is Long's closed form: the transverse index at
    eta > 0 is cz = k + sum over mu of 2 #{2 pi j / mu < eta} +
    #{2 pi j / mu = eta}, negated for eta < 0, and the grading adds the
    signature index and 1/2.  The mu are those the census reads, not the
    declared frequencies, which differ from them by round-off."""
    mus = _williamson(H.a0, DEFAULT_TOL)[1].tolist()
    for g in gens:
        eta, m = abs(g.family.eta), g.family.m
        cz = H.k
        for mu in mus:
            j = int(eta * mu / TWO_PI)  # 2 pi (j - 1) / mu < eta < 2 pi (j + 2) / mu
            times = [TWO_PI * i / mu for i in (j, j + 1)]
            cz += 2 * (j - 1 + sum(t < eta for t in times)) + sum(t == eta for t in times)
        if g.family.eta < 0:
            cz = -cz
        assert g.grading.as_int() == (cz - m + 1 if g.pole == "min" else cz + m), g.label


SIGNERS = ("_krein_signature", "signature", "spectrum_with_jordan")


def test_census_enumerates_each_crossing_once(h42, monkeypatch):
    """The census and the generator census build one crossing enumeration
    and sign nothing, on a 50x, a 100x and a 1000x window: A0 is positive
    definite, so its index counts crossings, also where 1.0 and 1.3 cross
    together.  No Jordan spectrum, Krein signature or signature is taken,
    through any module of the package."""
    calls = dict.fromkeys(SIGNERS + ("crossings",), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    originals = {name: getattr(symlin, name) for name in SIGNERS}
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "rfhquad"]
    for mod, name in itertools.product(modules, SIGNERS):
        if getattr(mod, name, None) is originals[name]:
            monkeypatch.setattr(mod, name, counting(name, originals[name]))
    monkeypatch.setattr(czindex._Crossings, "__init__",
                        counting("crossings", czindex._Crossings.__init__))
    for mult, crossings in ((50, 50 + 65 - 5), (100, 100 + 130 - 10), (1000, 1000 + 1300 - 100)):
        window = ActionWindow(-mult * TWO_PI - 1e-6, mult * TWO_PI + 1e-6)
        for run in (census, generator_census):
            calls.update(dict.fromkeys(calls, 0))
            run(h42, window)
            assert calls == {**dict.fromkeys(SIGNERS, 0), "crossings": 1}, run
        # distinct positive crossing times; 1.0 and 1.3 share those at 20 pi j
        assert len(critical_values(h42, ActionWindow(1e-6, window.hi))) == crossings


def test_census_far_from_zero_enumerates_its_window(h42, monkeypatch):
    """A window at 1e6 holds one critical value: the generator census
    lists the few events around it, not the 3.7e5 below it, and grades
    each family as Long's closed form, cz = k + sum over mu of
    2 #{2 pi j / mu < eta} + #{2 pi j / mu = eta}."""
    built = []
    init = czindex._Crossings.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(czindex._Crossings, "__init__", recording)
    gens = generator_census(h42, ActionWindow(1e6, 1e6 + 1.0))
    assert len(built) == 1 and sum(map(len, built[0].members)) <= 6
    assert len(gens) == 4
    _assert_longs_closed_form(h42, gens)


def _assert_one_formula(gens):
    """Each generator's grading is its transverse index (0 at eta = 0)
    plus its signature index plus 1/2."""
    for g in gens:
        cz = HalfInt(0) if g.family.eta == 0.0 else g.family.cz_transverse
        assert g.grading == cz + g.sigma_index + HalfInt(1), g.label


class TestGradedOncePerValue:
    """generator_census sums each critical value's gradings once and
    shares them between its two sphere families; every generator still
    carries the one formula."""

    @pytest.mark.parametrize("lo, hi", [(-20.0, 20.0), (0.0, 9.0), (-9.0, 0.0),
                                        (-40.0, -0.5), (0.5, 40.0)])
    def test_near_windows(self, h31, h32, lo, hi):
        for H in (h31, h32):
            gens = generator_census(H, ActionWindow(lo, hi))
            stationary = [g for g in gens if g.family.eta == 0.0]
            assert len(stationary) == 4 * (lo <= 0.0 <= hi) and len(gens) > 4
            _assert_one_formula(gens)
            # on the stationary pair alone the sides' gradings differ (n != k)
            by_side = {side: sorted(g.grading for g in stationary if g.family.side == side)
                       for side in ("H", "H0")}
            assert not stationary or by_side["H"] != by_side["H0"]

    def test_far_windows(self, h42):
        for window in (ActionWindow(1e3 - 4.0, 1e3 + 9.0), ActionWindow(-1e3 - 9.0, -1e3 + 2.0)):
            gens = generator_census(h42, window)
            assert len(gens) >= 12, window
            _assert_one_formula(gens)

    def test_odd_transverse_index_is_an_internal_error(self, h32, monkeypatch):
        """A running signature sum whose last entry is off by one grades
        the last crossing of the pass half-integral; the census names the
        first generator it reaches, the H-side maximum of the lowest
        critical value."""
        before = czindex._Crossings.before

        def off_by_one(path, weight, steps):
            *sums, last = before(path, weight, steps)
            return [*sums, last + 1]

        monkeypatch.setattr(czindex._Crossings, "before", off_by_one)
        with pytest.raises(InternalError,
                           match=r"non-integer grading -?\d+/2 for OrbitFamily\(eta=-.*"
                                 r"side='H'.* at max$"):
            generator_census(h32, ActionWindow(-8.0, 8.0))


def test_census_reads_a0_spectrum_once(rng, monkeypatch):
    """Each census and generator census decomposes A0 once with eigh, for
    definiteness and its factor L, and reads its Williamson frequencies
    with one eigvalsh of the complex i L^T J L, whether the frequencies
    are declared, and so checked, or not; no eigvals touches A0.  k = 1
    and n - k = 3 tell A0's calls from A1's, which stay one eigvals and
    one real eigvalsh: the sampler's hyperbolic A1 lie beyond the reach
    of the imaginary-axis test, so it takes no SVD."""
    calls = Counter()
    modules = [np.linalg] + [mod for name, mod in sys.modules.items()
                             if name.split(".")[0] == "rfhquad"]
    for name in ("eigvals", "eigvalsh", "eigh", "svd"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls[_name, np.shape(a), np.asarray(a).dtype.kind] += 1
            return _original(a, *args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    declared = QuadraticHamiltonian.from_frequencies(
        4, 1, [1.3], random_hyperbolic_blocks(rng, 3).matrix)
    window = ActionWindow(-20.0, 20.0)
    for H in (declared, _conjugated(declared, rng)):
        for run in (census, generator_census):
            calls.clear()
            run(H, window)
            assert calls == {("eigh", (2, 2), "f"): 1, ("eigvalsh", (2, 2), "c"): 1,
                             ("eigvalsh", (6, 6), "f"): 1, ("eigvals", (6, 6), "f"): 1}, \
                (run, H.frequencies)


def test_census_makes_no_dense_kernel_check(h42, monkeypatch):
    """The census and the generator census take no SVD and no matrix
    exponential, and count the crossings below their pass with at most
    one ``_count_before`` per frequency, on windows around 0, far from it
    and over k = 6 frequencies."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(symlin.ExpEvaluator, "at", counting("at", symlin.ExpEvaluator.at))
    monkeypatch.setattr(czindex, "_count_before", counting("count", czindex._count_before))
    h62 = QuadraticHamiltonian.from_frequencies(
        7, 6, [1.0, 1.02, 1.05, 1.07, 1.08, 1.1], build_block("a", 1, 1.0).matrix)
    for H, window in ((h42, ActionWindow(-60.0, 60.0)), (h42, ActionWindow(1e3, 1e3 + 30.0)),
                      (h42, ActionWindow(-1e5 - 20.0, -1e5)), (h62, ActionWindow(-30.0, 40.0))):
        for run in (census, generator_census):
            calls.clear()
            assert run(H, window), window
            assert calls["svd"] == calls["at"] == 0 and calls["count"] <= H.k, (window, calls)


def _assert_frozen_value(obj):
    """obj is a frozen dataclass equal to, and hashed like, the object its
    constructor builds from its own fields, by position and by keyword."""
    fields = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    for twin in (type(obj)(*fields), dataclasses.replace(obj)):
        assert obj == twin and hash(obj) == hash(twin) and repr(obj) == repr(twin)
    assert dataclasses.asdict(obj) == dataclasses.asdict(type(obj)(*fields))
    name = dataclasses.fields(obj)[0].name
    assert dataclasses.replace(obj, **{name: object()}) != obj
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)


def test_census_objects_are_frozen_values(h32):
    """Every family, generator and HalfInt a census builds is a slotted
    record, with no instance __dict__, that pickle and deepcopy rebuild
    equal, hashed alike and of its own type."""
    window = ActionWindow(-8.0, 8.0)
    gens = generator_census(h32, window)
    fams = census(h32, window)
    assert {f.topology for f in fams} == {"sigma0", "sigma", "sphere"}
    for obj in fams + tuple(g.family for g in gens) + tuple(gens):
        _assert_frozen_value(obj)
    assert len(set(gens)) == len(gens) and len(set(fams)) == len(fams)
    fam = OrbitFamily(1.0, 1, "H", 2, HalfInt(2))
    assert [f.name for f in dataclasses.fields(fam)] == ["eta", "m", "side", "k", "cz_transverse"]
    assert (fam.topology, fam.family_dim, fam.topology_name) == ("sphere", 1, "S^1")
    _assert_frozen_value(fam)
    halves = [h for g in gens for h in (g.grading, g.family.cz_transverse)]
    assert len(halves) == 2 * len(gens) and all(type(h) is HalfInt for h in halves)
    for obj in fams + tuple(g.family for g in gens) + tuple(gens) + tuple(halves):
        assert not hasattr(obj, "__dict__"), obj
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
            assert repr(twin) == repr(obj)


def test_census_carries_the_generators_families(h32, h42):
    """census(H, w) returns the families generator_census(H, w) caps, each
    with its transverse index: the (H0, H) pair at each critical value is
    equal, and hashed alike, to the family of the generators on that side."""
    for H, window in ((h32, ActionWindow(-8.0, 8.0)), (h42, ActionWindow(0.1, 30.0)),
                      (h42, ActionWindow(-25.0, -0.1))):
        fams = census(H, window)
        gens = generator_census(H, window)
        assert len(gens) == 2 * len(fams) > 0
        paired = [f for h0, h in zip(fams[::2], fams[1::2]) for f in (h, h, h0, h0)]
        for fam, g in zip(paired, gens, strict=True):
            assert fam == g.family and hash(fam) == hash(g.family), g.label
            assert type(fam.cz_transverse) is HalfInt, g.label


def _h0_gradings(H, window):
    """(min, max) gradings of the H0-side families, by action."""
    gens = [g for g in generator_census(H, window) if g.family.side == "H0"]
    by_eta = {}
    for g in gens:
        by_eta.setdefault(g.action, {})[g.pole] = g.grading.as_int()
    return [(p["min"], p["max"]) for _, p in sorted(by_eta.items())]


class TestOneResonanceDecision:
    """Frequencies that sit within the old census's phase test but apart
    for the index, or declared frequencies that differ from A0's by
    round-off: the census and the index read one crossing enumeration, so
    each either grades as Long's closed form does or raises."""

    A1 = build_block("a", 1, 1.0).matrix

    def test_near_double_frequency(self):
        """2(1 + 1e-10) crosses 6.3e-10 before 2 pi: apart from 1's crossing."""
        H = QuadraticHamiltonian.from_frequencies(3, 2, [1.0, 2 * (1 + 1e-10)], self.A1)
        assert _h0_gradings(H, ActionWindow(0.1, 3 * np.pi)) == [(3, 4), (5, 6), (7, 8), (9, 10)]

    def test_frequencies_merged_by_the_index_but_not_resonant(self):
        """1 and 1 + 2e-10 are one frequency within the cluster radius, but
        exp(2 pi J A0) - Id keeps only one of them in its kernel: reported,
        not graded as two families nor as one."""
        H = QuadraticHamiltonian.from_frequencies(3, 2, [1.0, 1.0 + 2e-10], self.A1)
        with pytest.raises(ResonanceMismatch):
            census(H, ActionWindow(0.1, 3 * np.pi))
        with pytest.raises(ResonanceMismatch):
            generator_census(H, ActionWindow(0.1, 3 * np.pi))

    def test_declared_frequency_off_by_round_off(self):
        """Declared frequencies are checked by validate (to 1e-8) and not
        read by the census: A0's own frequency 1 grades."""
        H = QuadraticHamiltonian(2, 1, np.eye(2), self.A1, frequencies=(1 + 1e-11,))
        assert _h0_gradings(H, ActionWindow(0.1, 13.0)) == [(2, 3), (4, 5)]

    def test_close_frequencies_need_no_jordan_spectrum(self):
        """1 and 1 + 5e-8 cross 3e-7 apart near 2 pi; their Jordan spectrum
        is ambiguous, the census's frequencies are not."""
        H = QuadraticHamiltonian.from_frequencies(3, 2, [1.0, 1.0 + 5e-8], self.A1)
        assert _h0_gradings(H, ActionWindow(0.1, 3 * np.pi)) == [(3, 4), (5, 6)]
