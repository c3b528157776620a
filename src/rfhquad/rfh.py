"""Rabinowitz Floer homology of the hyperboloid family.

Two long exact sequences over Z/2 deliver the full homology from known
compact inputs.  Dimensions are propagated through the sequences by an
interval solver on the ranks of the connecting maps; underdetermined or
inconsistent systems raise instead of guessing.  ``rfh_report(H)`` is the
one entry point: it returns the positive, negative, nonnegative and full
theories together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import gt

from .errors import Inconsistent, InputError, InternalError, Underdetermined
from .tentacular import QuadraticHamiltonian

__all__ = [
    "GradedZ2Space",
    "singular_homology",
    "rfh_pm_compact",
    "ExactSequenceProblem",
    "SolvedSequence",
    "solve_exact_sequence",
    "exact1_problem",
    "exact2_problem",
    "rfh_geq0",
    "RfhReport",
    "rfh_report",
    "alternating_sum",
]


def _integer_at_least(value, least: int) -> bool:
    """Whether value is an integer >= least: an integral float is one, a
    bool is not, and a string or None is no integer rather than an error."""
    try:
        return not isinstance(value, bool) and int(value) == value >= least
    except (TypeError, ValueError, OverflowError):
        return False


def _degree(value) -> int:
    """value as a degree: any integer, an integral float among them, but
    not a bool; anything else raises InputError."""
    if not _integer_at_least(value, float("-inf")):
        raise InputError(f"degree must be an integer, got {value!r}")
    return int(value)


class GradedZ2Space:
    """Finite-dimensional graded Z/2 vector space, held as degree -> dim."""

    def __init__(self, dims=None):
        self._dims = {}
        for deg, d in dict(dims or {}).items():
            deg = _degree(deg)
            if not _integer_at_least(d, 0):
                raise InputError(f"dimension at degree {deg} must be a nonnegative integer")
            if d:
                self._dims[deg] = int(d)

    def dim(self, degree: int) -> int:
        return self._dims.get(_degree(degree), 0)

    def as_dict(self) -> dict:
        return dict(sorted(self._dims.items()))

    def __eq__(self, other):
        if isinstance(other, GradedZ2Space):
            return self._dims == other._dims
        if isinstance(other, dict):
            return self == GradedZ2Space(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._dims.items())))

    def __bool__(self):
        return bool(self._dims)

    def __repr__(self):
        inner = ", ".join(f"{d}: {v}" for d, v in sorted(self._dims.items()))
        return f"GradedZ2Space({{{inner}}})"


# ---------------------------------------------------------------------------
# known homological inputs
# ---------------------------------------------------------------------------


def singular_homology(n: int, k: int) -> GradedZ2Space:
    """Z/2 singular homology of the level set S^(n+k-1) x R^(n-k), which is
    homotopy equivalent to the sphere."""
    if not (1 <= k <= n - 1):
        raise InputError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    return GradedZ2Space({0: 1, n + k - 1: 1})


def rfh_pm_compact(k: int) -> tuple:
    """Positive and negative homology of the compact model: one Z/2 class
    each, in degrees k+1 and -k."""
    if not _integer_at_least(k, 1):
        raise InputError(f"k must be a positive integer, got {k!r}")
    return GradedZ2Space({k + 1: 1}), GradedZ2Space({-k: 1})


# ---------------------------------------------------------------------------
# exact sequence solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactSequenceProblem:
    """A bounded long exact sequence of Z/2 spaces.

    terms: tuple of (label, dim or None); None marks an unknown.
    maps: annotations for the arrows term[i] -> term[i+1], each
    'unknown' or 'iso'.  The sequence must be closed off by zero terms at
    both ends.
    """

    terms: tuple
    maps: tuple = field(default=())

    def __post_init__(self):
        if len(self.terms) < 3:
            raise InputError("an exact sequence needs at least three terms")
        maps = self.maps or ("unknown",) * (len(self.terms) - 1)
        if len(maps) != len(self.terms) - 1:
            raise InputError("need exactly one map annotation per arrow")
        for ann in maps:
            if ann not in ("unknown", "iso"):
                raise InputError(f"bad map annotation {ann!r}")
        first, last = self.terms[0][1], self.terms[-1][1]
        if first != 0 or last != 0:
            raise InputError("sequence must start and end with explicit zero terms")
        object.__setattr__(self, "maps", tuple(maps))


@dataclass(frozen=True)
class SolvedSequence:
    dims: tuple  # (label, dim) for every term
    ranks: tuple  # solved rank of each arrow

    def dim_of(self, label) -> int:
        hits = [d for lab, d in self.dims if lab == label]
        if not hits:
            raise InputError(f"no term labelled {label!r}")
        if len(hits) > 1:
            raise InputError(f"label {label!r} is not unique")
        return hits[0]


def _intervals_step(lo, hi, rlo, rhi, maps, n):
    """One monotone tightening pass; returns True if a bound moved and no
    bound crossed its partner (a crossed bound admits no solution).

    Bounds only tighten, so a pair crossed during the pass stays crossed:
    the check is made once, after it."""
    changed = False
    for i in range(n - 1):
        # rank bounds from the two adjacent terms (a min() call here would
        # cost a quarter of the pass)
        if (v := hi[i] if hi[i] < hi[i + 1] else hi[i + 1]) < rhi[i]:
            rhi[i], changed = v, True
        if maps[i] == "iso":
            if (v := max(lo[i], lo[i + 1])) > rlo[i]:
                rlo[i], changed = v, True
            # iso forces equal dims
            if lo[i] != lo[i + 1]:
                lo[i] = lo[i + 1] = max(lo[i], lo[i + 1])
                changed = True
            if hi[i] != hi[i + 1]:
                hi[i] = hi[i + 1] = min(hi[i], hi[i + 1])
                changed = True
    for i in range(n):
        # exactness at interior term i: dim = rank(in) + rank(out)
        rin_lo = rlo[i - 1] if i > 0 else 0
        rin_hi = rhi[i - 1] if i > 0 else 0
        rout_lo = rlo[i] if i < n - 1 else 0
        rout_hi = rhi[i] if i < n - 1 else 0
        if (v := rin_lo + rout_lo) > lo[i]:
            lo[i], changed = v, True
        if (v := rin_hi + rout_hi) < hi[i]:
            hi[i], changed = v, True
        if i > 0:
            if (v := lo[i] - rout_hi) > rlo[i - 1]:
                rlo[i - 1], changed = v, True
            if (v := hi[i] - rout_lo) < rhi[i - 1]:
                rhi[i - 1], changed = v, True
        if i < n - 1:
            if (v := lo[i] - rin_hi) > rlo[i]:
                rlo[i], changed = v, True
            if (v := hi[i] - rin_lo) < rhi[i]:
                rhi[i], changed = v, True
    return changed and not (any(map(gt, lo, hi)) or any(map(gt, rlo, rhi)))


BIG = 10**9


def solve_exact_sequence(problem: ExactSequenceProblem) -> SolvedSequence:
    """Solve all unknown dimensions by interval propagation on ranks.

    Raises Underdetermined (naming the stuck terms) when propagation
    stalls with slack left, and Inconsistent when the constraints admit
    no solution.
    """
    n = len(problem.terms)
    labels = [lab for lab, _ in problem.terms]
    lo = [0] * n
    hi = [BIG] * n
    for i, (_, d) in enumerate(problem.terms):
        if d is not None:
            if not _integer_at_least(d, 0):
                raise InputError(f"bad dimension {d!r} at term {labels[i]!r}")
            lo[i] = hi[i] = int(d)
    rlo = [0] * (n - 1)
    rhi = [BIG] * (n - 1)
    maps = problem.maps

    for _ in range(64 * n + 64):
        if not _intervals_step(lo, hi, rlo, rhi, maps, n):
            break
    for i in range(n):
        if lo[i] > hi[i]:
            raise Inconsistent(f"no consistent dimension for term {labels[i]!r}")
    for i in range(n - 1):
        if rlo[i] > rhi[i]:
            raise Inconsistent(f"no consistent rank for arrow {labels[i]!r} -> {labels[i + 1]!r}")
    stuck = [labels[i] for i in range(n) if lo[i] != hi[i]]
    if stuck:
        raise Underdetermined(f"cannot determine dimensions of: {', '.join(map(str, stuck))}")
    stuck_r = [i for i in range(n - 1) if rlo[i] != rhi[i]]
    if stuck_r:
        arrows = ", ".join(f"{labels[i]} -> {labels[i + 1]}" for i in stuck_r)
        raise Underdetermined(f"cannot determine ranks of: {arrows}")
    return SolvedSequence(tuple(zip(labels, lo)), tuple(rlo))


def alternating_sum(dims) -> int:
    """Alternating sum of a finite list of dimensions; zero on any
    dimension list realized by a bounded exact sequence."""
    return sum((-1) ** i * d for i, d in enumerate(dims))


# ---------------------------------------------------------------------------
# the two sequences
# ---------------------------------------------------------------------------


def _degree_range(n: int, k: int) -> tuple:
    return k + 2, -n - 1


def exact1_problem(n: int, k: int) -> ExactSequenceProblem:
    """Sequence relating level-set homology, the nonnegative-action theory
    and the positive-action theory:

        ... -> H_(d+n-1)(Sigma) -> RFH>=0_d -> RFH+_d -> H_(d+n-2)(Sigma) -> ...

    The arrow out of the positive part in top degree is an isomorphism
    onto the fundamental-class term; that single seed determines the rest.
    """
    h_sigma = singular_homology(n, k)
    hplus, _ = rfh_pm_compact(k)
    d_hi, d_lo = _degree_range(n, k)
    terms = [("0-", 0)]  # outside the degree range everything is zero
    maps = []
    for d in range(d_hi, d_lo - 1, -1):
        terms.append((("H(Sigma)", d + n - 1), h_sigma.dim(d + n - 1)))
        terms.append((("RFH>=0", d), None))
        terms.append((("RFH+", d), hplus.dim(d)))
        maps.extend(["unknown", "unknown", "unknown"])
    terms.append(("0+", 0))
    maps.append("unknown")
    # seed: RFH+_{k+1} -> H_{k+n-1}(Sigma) is an isomorphism
    labels = [lab for lab, _ in terms]
    i = labels.index(("RFH+", k + 1))
    if labels[i + 1] != ("H(Sigma)", k + n - 1):
        raise InternalError("sequence layout broke")
    maps[i] = "iso"
    return ExactSequenceProblem(tuple(terms), tuple(maps))


def exact2_problem(n: int, k: int, geq0: GradedZ2Space) -> ExactSequenceProblem:
    """Sequence relating the negative, full, and nonnegative theories:

        ... -> RFH-_d -> RFH_d -> RFH>=0_d -> RFH-_(d-1) -> ...
    """
    _, hminus = rfh_pm_compact(k)
    d_hi, d_lo = _degree_range(n, k)
    terms = [("0-", 0)]
    maps = ["unknown"]
    for d in range(d_hi, d_lo - 1, -1):
        terms.append((("RFH-", d), hminus.dim(d)))
        terms.append((("RFH", d), None))
        terms.append((("RFH>=0", d), geq0.dim(d)))
        maps.extend(["unknown", "unknown", "unknown"])
    terms.append(("0+", 0))
    return ExactSequenceProblem(tuple(terms), tuple(maps))


def _collect(solved: SolvedSequence, name: str) -> GradedZ2Space:
    dims = {}
    for lab, d in solved.dims:
        if isinstance(lab, tuple) and lab[0] == name and d:
            dims[lab[1]] = dims.get(lab[1], 0) + d
    return GradedZ2Space(dims)


def rfh_geq0(n: int, k: int) -> GradedZ2Space:
    solved = solve_exact_sequence(exact1_problem(n, k))
    return _collect(solved, "RFH>=0")


@dataclass(frozen=True)
class RfhReport:
    n: int
    k: int
    plus: GradedZ2Space
    minus: GradedZ2Space
    geq0: GradedZ2Space
    full: GradedZ2Space


def rfh_report(H: QuadraticHamiltonian) -> RfhReport:
    """Every homology theory of the level set of H, solved through the two
    exact sequences; InputError unless 1 <= k <= n-1."""
    n, k = H.n, H.k
    plus, minus = rfh_pm_compact(k)
    geq0 = rfh_geq0(n, k)
    solved = solve_exact_sequence(exact2_problem(n, k, geq0))
    return RfhReport(n, k, plus, minus, geq0, _collect(solved, "RFH"))
