"""Acceptance self-test: ten numbered criteria, one PASS/FAIL line each.

Every criterion uses a fixed seed, so the suite is deterministic.  The
instance generators reject draws that would be numerically marginal
(near-coincident frequencies or near-resonances just below the rank
cutoffs); the acceptance thresholds themselves are never loosened.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .czindex import cz_index_data, cz_index_path, crossing_times, grading
from .hormander import block_signature, build_block, classify, normal_form
from .oracles import oracle_cz
from .orbits import TWO_PI, ActionWindow, census, crit_values
from .rfh import (
    ExactSequenceProblem,
    GradedZ2Space,
    alternating_sum,
    exact1_problem,
    exact2_problem,
    generator_census,
    rfh_geq0,
    rfh_report,
    solve_exact_sequence,
)
from .samples import (
    random_elliptic_form,
    random_hamiltonian,
    random_hyperbolic_blocks,
    random_orthosymplectic,
    random_symplectic,
)
from .symlin import ExpEvaluator, kernel_dim, signature, standard_J, symplectic_direct_sum
from .tentacular import QuadraticHamiltonian, validate

__all__ = ["CriterionResult", "run_all", "CRITERIA", "criterion_grid"]

BASE_SEED = 20260819


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {word}  {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _result(number, name, t0, failures, detail):
    dt = time.perf_counter() - t0
    if failures:
        shown = "; ".join(failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        return CriterionResult(number, name, False, shown + more, dt)
    return CriterionResult(number, name, True, detail, dt)


# ---------------------------------------------------------------------------
# shared instance grid
# ---------------------------------------------------------------------------


def _separated_hamiltonian(rng, n, k):
    """Random Hamiltonian whose frequencies are pairwise 0.05 apart and
    whose nonzero critical values in the basic window stay at least 0.05
    (in phase) away from every non-resonant frequency."""
    for _ in range(500):
        H = random_hamiltonian(rng, n, k)
        freqs = H.frequencies
        if any(b - a < 0.05 for a, b in zip(freqs, freqs[1:])):
            continue
        w = TWO_PI / min(freqs) + 1e-6
        etas = [e for e in crit_values(freqs, ActionWindow(-w, w)) if e > 1e-12]
        ok = True
        for eta in etas:
            for mu in freqs:
                d = abs(eta * mu - TWO_PI * round(eta * mu / TWO_PI))
                if 1e-9 < d < 0.05:
                    ok = False
        if ok:
            return H
    raise RuntimeError(f"could not draw a separated instance for n={n}, k={k}")


@lru_cache(maxsize=4)
def criterion_grid(seed: int = BASE_SEED) -> tuple:
    """The (n, k) grid 2 <= n <= 6, 1 <= k <= n-1, one instance each."""
    rng = np.random.default_rng(seed)
    return tuple(_separated_hamiltonian(rng, n, k)
                 for n in range(2, 7) for k in range(1, n))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(seed: int = BASE_SEED) -> CriterionResult:
    """Full homology on the whole grid: Z/2 at degrees 1-n and -k."""
    grid = criterion_grid(seed)  # cached; instance generation is not timed
    t0 = time.perf_counter()
    failures = []
    for H in grid:
        if not validate(H).all_ok:
            failures.append(f"n={H.n},k={H.k}: validation failed")
            continue
        expected = {}
        for d in (1 - H.n, -H.k):
            expected[d] = expected.get(d, 0) + 1
        got = rfh_report(H).full
        if got != GradedZ2Space(expected):
            failures.append(f"n={H.n},k={H.k}: got {got.as_dict()}, want {expected}")
    dt = time.perf_counter() - t0
    if dt >= 5.0:
        failures.append(f"grid runtime {dt:.2f}s exceeds 5s")
    return _result(1, "full homology over the (n,k) grid", t0, failures,
                   f"{len(grid)} Hamiltonians in {dt:.2f}s")


def criterion_2(seed: int = BASE_SEED) -> CriterionResult:
    """Lowest positive-action compact-side generator sits in degree k+1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    failures = []
    cases = 0
    for k in (1, 2, 3, 4):
        hams = [_separated_hamiltonian(rng, k + int(rng.integers(1, 3)), k)
                for _ in range(3)]
        if k >= 2:
            # repeated top frequency: the family at the lowest action is
            # a bigger sphere, the degree must not move
            lower = tuple(np.sort(rng.uniform(0.5, 3.0, size=k - 2))) if k > 2 else ()
            freqs = lower + (4.0, 4.0)
            a1 = random_hyperbolic_blocks(rng, 2).matrix
            hams.append(QuadraticHamiltonian.from_frequencies(k + 2, k, freqs, a1))
        for H in hams:
            cases += 1
            mu_max = max(H.frequencies)
            w = ActionWindow(1e-6, TWO_PI / mu_max + 1e-6)
            gens = [g for g in generator_census(H, w) if g.family.side == "H0"]
            if not gens:
                failures.append(f"k={k}: no compact-side generators in {w}")
                continue
            a_min = min(g.action for g in gens)
            lowest = [g for g in gens if abs(g.action - a_min) <= 1e-9]
            got = min(g.grading for g in lowest)
            if got != k + 1:
                failures.append(f"k={k}: lowest degree {got}, want {k + 1}")
    return _result(2, "lowest positive-action degree is k+1", t0, failures,
                   f"{cases} census cases, k up to 4")


def criterion_3(seed: int = BASE_SEED) -> CriterionResult:
    """cz_index_path(mu Id, 2 pi N / mu) = 2kN exactly."""
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for k in (1, 2, 3, 4):
        for N in (1, 2, 3, 4, 5):
            for mu in (0.5, 1.0, 3.0):
                cases += 1
                S = mu * np.eye(2 * k)
                T = TWO_PI * N / mu
                got = cz_index_path(S, T)
                if got != 2 * k * N:
                    failures.append(f"k={k},N={N},mu={mu}: got {got}, want {2 * k * N}")
    return _result(3, "scaled-identity closed form", t0, failures, f"{cases} exact cases")


def criterion_4(seed: int = BASE_SEED) -> CriterionResult:
    """Hyperbolic forms have index exactly zero for every horizon."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 4)
    failures = []
    for trial in range(50):
        dof = 1 + trial % 4
        nf = random_hyperbolic_blocks(rng, dof)
        G = random_symplectic(rng, dof, 0.3)
        S = G.T @ nf.matrix @ G
        S = (S + S.T) / 2
        for T in (1.0, math.pi, TWO_PI, 10.0):
            got = cz_index_path(S, T)
            if got != 0:
                failures.append(f"trial {trial}, dim {2 * dof}, T={T:.3f}: index {got}")
    return _result(4, "hyperbolic vanishing", t0, failures, "50 forms x 4 horizons, dims up to 8")


def criterion_5(seed: int = BASE_SEED) -> CriterionResult:
    """Analytic crossings match the dense-scan oracle: times to 1e-8,
    index exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    failures = []
    worst = 0.0
    for trial in range(100):
        dof = 1 + trial % 3
        T = float(rng.uniform(2.0, 4 * math.pi))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        for _ in range(50):
            near = [t for t in crossing_times(S, T + 0.02) if abs(t - T) < 1e-3]
            if not near:
                break
            T += 7e-3
        analytic = cz_index_data(S, T)
        times_a = sorted(crossing_times(S, T))
        orc = oracle_cz(S, T)
        if analytic.index != orc.index:
            failures.append(f"trial {trial}: index {analytic.index} vs oracle {orc.index}")
            continue
        if len(times_a) != len(orc.times):
            failures.append(f"trial {trial}: {len(times_a)} crossings vs oracle {len(orc.times)}")
            continue
        if times_a:
            d = max(abs(a - b) for a, b in zip(times_a, sorted(orc.times)))
            worst = max(worst, d)
            if d > 1e-8:
                failures.append(f"trial {trial}: crossing time off by {d:.2e}")
    return _result(5, "oracle equivalence", t0, failures,
                   f"100 elliptic forms, worst time gap {worst:.1e}")


def _random_mixed_blocks(rng) -> list:
    menu = ("a1", "a2", "b1", "c1")
    while True:
        count = int(rng.integers(2, 5))
        blocks = []
        for _ in range(count):
            pick = menu[int(rng.integers(0, len(menu)))]
            if pick == "a1":
                blocks.append(build_block("a", 1, complex(rng.uniform(0.3, 1.2), 0.0)))
            elif pick == "a2":
                blocks.append(build_block("a", 2, complex(rng.uniform(0.75, 1.2), 0.0)))
            elif pick == "b1":
                blocks.append(build_block("b", 1, complex(rng.uniform(0.3, 1.0),
                                                          rng.uniform(0.3, 2.0))))
            else:
                blocks.append(build_block("c", 1, complex(0.0, rng.uniform(0.35, 2.4)),
                                          gamma=int(rng.choice([-1, 1]))))
        pts = [(abs(b.lam.real), abs(b.lam.imag)) for b in blocks]
        sep = min((math.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]),
                  default=1.0)
        if sep >= 0.05:
            return blocks


def criterion_6(seed: int = BASE_SEED) -> CriterionResult:
    """classify() round-trips random assemblies; signatures add up."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 6)
    failures = []
    for trial in range(100):
        blocks = _random_mixed_blocks(rng)
        nf = normal_form(blocks)
        try:
            rec = classify(nf.matrix)
        except Exception as exc:
            failures.append(f"trial {trial}: classify raised {type(exc).__name__}: {exc}")
            continue
        if not _blocks_match(nf.blocks, rec.blocks):
            failures.append(f"trial {trial}: block data not recovered")
            continue
        total = 0
        for b in nf.blocks:
            p, q = block_signature(b)
            total += p - q
        if total != signature(nf.matrix):
            failures.append(f"trial {trial}: signature sum {total} != {signature(nf.matrix)}")
    return _result(6, "normal-form round-trip", t0, failures, "100 mixed assemblies")


def _blocks_match(expected, got, lam_tol: float = 1e-6) -> bool:
    if len(expected) != len(got):
        return False
    for b, c in zip(expected, got):
        if (b.kind, b.m, b.gamma) != (c.kind, c.m, c.gamma):
            return False
        if abs(b.lam - c.lam) > lam_tol:
            return False
    return True


def criterion_7(seed: int = BASE_SEED) -> CriterionResult:
    """Resonance kernels: full matrix and elliptic factor agree, dim 2m."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for H in criterion_grid(seed):
        w = TWO_PI / min(H.frequencies) + 1e-6
        fams = [f for f in census(H, ActionWindow(-w, w))
                if f.side == "H" and f.topology == "sphere"]
        etas = [f.eta for f in fams]
        dns = kernel_dim(ExpEvaluator(standard_J(H.n) @ H.full_matrix).at(etas) - np.eye(2 * H.n))
        dks = kernel_dim(ExpEvaluator(standard_J(H.k) @ H.a0).at(etas) - np.eye(2 * H.k))
        for fam, dn, dk in zip(fams, dns, dks):
            checked += 1
            if not (dn == dk == 2 * fam.m):
                failures.append(
                    f"n={H.n},k={H.k},eta={fam.eta:.4f}: kernels {dn},{dk}, want {2 * fam.m}")
    return _result(7, "orbit kernel correspondence", t0, failures,
                   f"{checked} critical values over the grid")


def criterion_8(seed: int = BASE_SEED) -> CriterionResult:
    """Exact-sequence solver: alternating sums, two hand problems,
    idempotent re-solve."""
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 7):
        for k in range(1, n):
            for prob in (exact1_problem(n, k), exact2_problem(n, k, rfh_geq0(n, k))):
                solved = solve_exact_sequence(prob)
                s = alternating_sum([d for _, d in solved.dims])
                if s != 0:
                    failures.append(f"n={n},k={k}: alternating sum {s}")
                refill = ExactSequenceProblem(tuple(solved.dims), prob.maps)
                if solve_exact_sequence(refill).dims != solved.dims:
                    failures.append(f"n={n},k={k}: re-solve changed the answer")
    pa = ExactSequenceProblem((("0l", 0), ("A", None), ("B", 7), ("0r", 0)))
    da = solve_exact_sequence(pa).dim_of("A")
    if da != 7:
        failures.append(f"0->A->B->0 gave dim A = {da}, want 7")
    px = ExactSequenceProblem((("0l", 0), ("L", 1), ("X", None), ("R", 1), ("0r", 0)))
    dx = solve_exact_sequence(px).dim_of("X")
    if dx != 2:
        failures.append(f"0->Z2->X->Z2->0 gave dim X = {dx}, want 2")
    return _result(8, "exact-sequence solver", t0, failures,
                   "40 solved sequences + 2 hand problems")


def criterion_9(seed: int = BASE_SEED) -> CriterionResult:
    """Stationary generators carry degrees (1-n, k) and (1-k, k)."""
    t0 = time.perf_counter()
    failures = []
    for H in criterion_grid(seed):
        fams = census(H, ActionWindow(-0.5, 0.5))
        by_side = {f.side: f for f in fams if f.eta == 0.0}
        if set(by_side) != {"H", "H0"}:
            failures.append(f"n={H.n},k={H.k}: stationary families missing")
            continue
        table = {
            ("H", "min"): 1 - H.n,
            ("H", "max"): H.k,
            ("H0", "min"): 1 - H.k,
            ("H0", "max"): H.k,
        }
        for (side, pole), want in table.items():
            got = grading(by_side[side], pole)
            if got != want:
                failures.append(f"n={H.n},k={H.k} {side}/{pole}: {got}, want {want}")
    return _result(9, "stationary degree table", t0, failures,
                   f"{len(criterion_grid(seed))} Hamiltonians, 4 degrees each")


def criterion_10(seed: int = BASE_SEED) -> CriterionResult:
    """Exact properties: direct-sum additivity, negation, grading
    integrality, spectrum symmetry; >= 100 instances each."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed + 10)
    failures = []

    def some_form(max_dof):
        dof = 1 + int(rng.integers(0, max_dof))
        if rng.random() < 0.5:
            return random_elliptic_form(rng, dof, horizon=9.0)
        return random_hyperbolic_blocks(rng, dof).matrix

    for trial in range(100):
        S1, S2 = some_form(2), some_form(2)
        T = float(rng.uniform(1.0, 8.0))
        lhs = cz_index_path(symplectic_direct_sum(S1, S2), T)
        rhs = cz_index_path(S1, T) + cz_index_path(S2, T)
        if lhs != rhs:
            failures.append(f"additivity trial {trial}: {lhs} != {rhs}")

    for trial in range(100):
        S = some_form(3)
        T = float(rng.uniform(1.0, 8.0))
        if cz_index_path(-S, T) != -cz_index_path(S, T):
            failures.append(f"negation trial {trial}")

    count = 0
    while count < 100:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        H = _separated_hamiltonian(rng, n, k)
        w = TWO_PI / min(H.frequencies) + 1e-6
        for g in generator_census(H, ActionWindow(-w, w)):
            count += 1
            if not g.grading.is_integer:
                failures.append(f"non-integer grading {g.grading} at {g.label}")

    for trial in range(100):
        A = normal_form(_random_mixed_blocks(rng)).matrix
        U = random_orthosymplectic(rng, A.shape[0] // 2)
        A = U @ A @ U.T
        ev = np.linalg.eigvals(standard_J(A.shape[0] // 2) @ A)
        scale = max(1.0, float(np.abs(ev).max()))
        # defective eigenvalues scatter into rings of radius ~sqrt(eps);
        # 1e-6 dominates the rings and stays far below the 0.05 separation
        for image in (-ev, np.conj(ev)):
            if not _multiset_close(ev, image, 1e-6 * scale):
                failures.append(f"spectrum symmetry trial {trial}")
                break

    return _result(10, "exact property suite", t0, failures,
                   "4 properties x >= 100 instances")


def _multiset_close(xs, ys, tol) -> bool:
    pool = list(ys)
    for x in xs:
        j = min(range(len(pool)), key=lambda i: abs(x - pool[i]))
        if abs(x - pool[j]) > tol:
            return False
        pool.pop(j)
    return True


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_all(numbers=None, stream=None, seed: int = BASE_SEED) -> list:
    """Run the requested criteria (all by default), print one line each,
    and return the results."""
    stream = stream or sys.stdout
    results = []
    for num in sorted(numbers or CRITERIA):
        if num not in CRITERIA:
            raise KeyError(f"no criterion {num}")
        fn = CRITERIA[num]
        t0 = time.perf_counter()
        try:
            res = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            res = CriterionResult(num, fn.__doc__.strip().split("\n")[0], False,
                                  f"raised {type(exc).__name__}: {exc}",
                                  time.perf_counter() - t0)
        results.append(res)
        print(res.line, file=stream)
    return results
