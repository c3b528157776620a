"""Conley-Zehnder indices of the symplectic paths t |-> exp(t J S).

The index of the symplectic path t |-> exp(t J S), t in [0, T], is computed
by the signature-weighted crossing count

    cz = sgn(S)/2 + sgn(S restricted to ker(exp(T J S) - Id))/2
         + sum over interior crossings of sgn(S restricted to the kernel),

with half-weight contributions at both endpoints t = 0 and t = T (this
endpoint convention is fixed here once and used consistently; all degree
formulas downstream depend on it).  Crossings are located analytically
from the purely imaginary eigenvalues of J S, so hyperbolic directions
contribute no crossings at all.

The crossings are enumerated in one pass over a window of times, from a
list of frequencies with multiplicities: the Jordan spectrum of J S for a
general form, the Williamson frequencies of A0 for the orbit census, which
takes its critical values and resonance counts from the same enumeration.
The kernel at t = 2 pi j / mu is the sum of the mu i eigenspaces of J S
over the frequencies resonant there, which are S-orthogonal
(Robbin-Salamon 1993), so each frequency is signed once, on the
eigenvectors its Jordan spectrum item carries.  Every index is one
running signature sum (``_Crossings.before``), which counts the crossings
below a pass per frequency, as Long (2002) does, and adds the listed
ones: ``cz_index_data`` and ``crossing_times`` list from 0,
``cz_index_path`` about one period below T, the census its window.  A0
is positive definite, so the census signs each mu by 2 mult_mu.

Half-integers are kept exact as doubled integers; no index or grading is
ever computed in floating point.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import (
    CrossingDegenerate,
    DegenerateInput,
    DegenerateRestriction,
    InputError,
    NonIntegerResult,
)
from .symlin import (
    DEFAULT_TOL,
    TWO_PI,
    Tolerances,
    _is_real,
    _krein_signature,
    _spectral_norm,
    hamiltonian_orbits,
    signature,
    spectrum_with_jordan,
    standard_J,
    sym_matrix,
)

__all__ = [
    "HalfInt",
    "cz_index_path",
    "cz_index_data",
    "crossing_times",
]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class HalfInt:
    """Exact element of (1/2) Z, stored as the doubled integer.

    A slotted record: ``__init__`` checks the integer, then stores it
    through the slot's own setter, bound once below, which bypasses the
    frozen class's ``__setattr__``."""

    doubled: int

    def __init__(self, doubled: int):
        if type(doubled) is not int:  # the common case is already normalized
            if isinstance(doubled, bool) or not isinstance(doubled, (int, np.integer)):
                raise InputError(f"HalfInt needs an integer, got {doubled!r}")
            doubled = int(doubled)
        _set_doubled(self, doubled)

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise NonIntegerResult(f"{self} is not an integer")
        return self.doubled // 2

    @staticmethod
    def _coerce(other):
        if isinstance(other, HalfInt):
            return other.doubled
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, np.integer)):
            return 2 * int(other)
        return NotImplemented

    def __add__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else HalfInt(self.doubled + d)

    __radd__ = __add__

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __eq__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled == d

    def __lt__(self, other):
        d = self._coerce(other)
        return NotImplemented if d is NotImplemented else self.doubled < d

    def __hash__(self):
        return hash(Fraction(self.doubled, 2))

    def __str__(self):
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    def __repr__(self):
        return f"HalfInt({self})"


_set_doubled = HalfInt.doubled.__set__


# ---------------------------------------------------------------------------
# crossing enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CzPathData:
    sgn_start: int  # sgn(S), weighted 1/2
    interior: tuple  # tuple[(time, signature)], full weight
    endpoint: tuple | None  # (time, signature) at t = T, weighted 1/2
    index: HalfInt  # sgn_start/2 + the interior signatures + endpoint's/2


def _merged_frequencies(pairs, scale: float, tol: Tolerances) -> tuple:
    """Ascending (mu, multiplicity) pairs with each frequency within
    tol.eig_cluster * scale of a kept one folded into it: the kept one is
    the lowest of its run and carries the summed multiplicity."""
    radius = tol.eig_cluster * scale
    merged = []
    for mu, mult in pairs:
        if merged and abs(mu - merged[-1][0]) <= radius:
            merged[-1] = (merged[-1][0], merged[-1][1] + mult)
        else:
            merged.append((float(mu), int(mult)))
    return tuple(merged)


def _imaginary_frequencies(JS, tol) -> tuple:
    """(mu, vectors) for each imaginary eigenvalue i mu of JS with mu > 0,
    vectors its orthonormal eigenvectors, one per Jordan block: their
    count is the multiplicity of mu: the kind 'c' orbits of the Jordan
    spectrum, each read off its item at -i mu.  An orbit of kind 'zero' may
    or may not cross, so it raises, as in classify."""
    orbits = hamiltonian_orbits(JS, spectrum_with_jordan(JS, tol), tol)
    if any(kind == "zero" for kind, _ in orbits):
        raise DegenerateInput("eigenvalue of J S within backward error of 0; form is degenerate")
    return tuple((-it.eigenvalue.imag, it.vectors.conj()) for kind, it in orbits if kind == "c")


def _events(mus, lo: float, hi: float) -> list:
    """Sorted (t, mu) for the times t = 2 pi j / mu up to hi, j from 1 or
    from about lo on."""
    events = []
    for mu in mus:
        j = max(1, int(lo * mu / TWO_PI))
        t = TWO_PI * j / mu
        while t <= hi:
            events.append((t, mu))
            j += 1
            t = TWO_PI * j / mu
    events.sort()
    return events


def _count_before(mu: float, t: float) -> int:
    """#{j >= 1 : 2 pi j / mu < t}, counted by arithmetic on the float
    expression ``_events`` lists, so it is exactly the number of events
    of mu a pass from 0 lists before t."""
    j = max(0, int(t * mu / TWO_PI))
    while j > 0 and TWO_PI * j / mu >= t:
        j -= 1
    while TWO_PI * (j + 1) / mu < t:
        j += 1
    return j


class _Crossings:
    """The crossings of exp(t J S) on (0, horizon], enumerated once and
    answered at the horizon.

    ``frequencies`` lists (mu, multiplicity) for the distinct frequencies
    of the imaginary eigenvalues of J S; the caller supplies them (the
    Jordan spectrum of J S in ``_form_crossings``, the Williamson
    frequencies of A0 in the census).  ``vectors`` maps each mu to its
    orthonormal mu i eigenvectors of J S, which signing reads; the census
    signs nothing and gives none.  Crossing times are 2 pi j / mu, listed
    up to horizon + tol.crossing; an event within tol.crossing of the
    first event of a merged crossing joins it, with its kernel and
    multiplicity.  ``times`` holds each merged crossing's first time and
    ``members`` its frequencies.

    Nothing is signed until crossing data is asked for, then each
    frequency once per call, against one |S|_2 taken for the call (when
    anything is signed): the crossing form splits over the
    S-orthogonal eigenspaces of J S, so a merged crossing's signature is
    the sum over its members.  A merged crossing within tol.crossing of
    the horizon is the endpoint; two there cannot both be, and the
    query raises.

    With ``start`` > 0 the crossings before ``start`` may be left out;
    those kept are merged exactly as a pass from 0 merges them.
    """

    def __init__(self, S, frequencies, horizon: float, tol: Tolerances, start: float = 0.0,
                 vectors=None):
        horizon = float(horizon)
        if not (np.isfinite(horizon) and horizon > 0):
            raise InputError(f"path length T must be positive, got {horizon!r}")
        self.S, self.horizon, self.tol, self.vectors = S, horizon, tol, vectors
        self.multiplicities = dict(frequencies)  # mu -> number of i mu eigenvectors
        mus, end = list(self.multiplicities), horizon + tol.crossing
        if mus and TWO_PI / max(mus) <= tol.crossing:
            # so that no crossing is taken for the start of the path, and a
            # merged crossing meets each frequency at most once
            raise InputError(f"frequency {max(mus)} crosses every {TWO_PI / max(mus)}, "
                             f"within the crossing tolerance {tol.crossing}")
        events = None
        if start > 0 and mus:
            # from one period of the fastest frequency early, skipping to the
            # first event more than tol.crossing after the one before it, both
            # past lo, where every frequency's events are listed: a pass from 0
            # starts a merged crossing there too.  Should the skipped events
            # reach start, the pass starts from 0 instead.
            lo = start - TWO_PI / max(mus)
            late = _events(mus, lo, end)
            first = next((i for i in range(bisect_left(late, (lo,)) + 1, len(late))
                          if late[i][0] - late[i - 1][0] > tol.crossing), len(late))
            if first == 0 or late[first - 1][0] < start:
                events = late[first:]
        if events is None:
            events = _events(mus, 0.0, end)
        self.times, self.members = [], []  # per merged crossing: first time, frequencies
        for t, mu in events:
            if self.times and t - self.times[-1] <= tol.crossing:
                self.members[-1].append(mu)
            else:
                self.times.append(t)
                self.members.append([mu])

    def multiplicity(self, g: int) -> int:
        """Summed multiplicity of the frequencies resonant at merged crossing g."""
        return sum(self.multiplicities[mu] for mu in self.members[g])

    def before(self, weight, steps) -> list:
        """Entry g: the summed signature of every merged crossing before
        listed crossing g, counted from 0; one more entry follows the last
        of ``steps``, the signatures of the first listed crossings.  Those
        before the first listed one (or horizon + tol.crossing when none
        is) are whole merged crossings of a pass from 0, counted by one
        ``_count_before`` per frequency mu and weighed by ``weight(mu)``,
        its signature, which a frequency counted 0 is not asked for."""
        t = self.times[0] if self.times else self.horizon + self.tol.crossing
        counts = [(mu, _count_before(mu, t)) for mu in self.multiplicities]
        return list(accumulate(steps, initial=sum(c * weight(mu) for mu, c in counts if c)))

    def _frequency_signature(self, mu: float, s_norm: float) -> int:
        """Signature of S on the mu i eigenspace of J S, from its
        eigenvectors, s_norm being |S|_2.  A degenerate form raises, naming
        the first crossing time of mu, 2 pi / mu.
        """
        try:
            return _krein_signature(self.S, self.vectors[mu], s_norm, self.tol)
        except DegenerateRestriction as exc:
            raise CrossingDegenerate(f"degenerate crossing form at t = {TWO_PI / mu}: {exc}") from exc

    def _split(self) -> tuple:
        """(stop, end) at the horizon T: merged crossings before ``stop``
        are interior, and crossing ``end`` (or None) is the endpoint."""
        T, tol = self.horizon, self.tol.crossing
        stop = bisect_left(self.times, True, key=lambda t: t - T >= -tol)
        end = bisect_left(self.times, True, stop, key=lambda t: t - T > tol)
        if end - stop > 1:
            raise CrossingDegenerate(
                f"crossings at t = {self.times[stop]} and t = {self.times[stop + 1]} "
                f"are both within {tol} of T = {T}")
        return stop, (end - 1 if end > stop else None)

    def data(self) -> CzPathData:
        """Crossing data at the horizon T, its doubled index sgn(S) + R(T-) +
        R(T+), R the running signature sum: the endpoint weighs half."""
        sgn_start = signature(self.S, self.tol) if self.S.size else 0
        stop, end = self._split()
        signatures, s_norm = {}, None  # mu -> signature of S on the mu i eigenspace

        def sign(mu):
            nonlocal s_norm
            if mu not in signatures:
                if s_norm is None:
                    s_norm = _spectral_norm(self.S)
                signatures[mu] = self._frequency_signature(mu, s_norm)
            return signatures[mu]

        signed = [(t, sum(map(sign, ms)))
                  for t, ms in zip(self.times[:stop if end is None else end + 1], self.members)]
        sums = self.before(sign, [sig for _, sig in signed])
        return CzPathData(sgn_start, tuple(signed[:stop]), None if end is None else signed[end],
                          HalfInt(sgn_start + sums[stop] + sums[-1]))

    def crossing_times(self) -> tuple:
        stop, end = self._split()
        return tuple(self.times[:stop]) + (() if end is None else (self.times[end],))


def _form_crossings(S, T: float, tol: Tolerances, lead: float | None = None) -> _Crossings:
    """The crossings of exp(t J S) on (0, T], from T - ``lead`` on (from 0
    without one), at the frequencies of the Jordan spectrum of J S.  A
    bool or a string T is refused, not read as the float it makes."""
    S = sym_matrix(S)
    if S.shape[0] % 2 != 0:
        raise InputError("S must act on an even-dimensional space")
    if not _is_real(T):
        raise InputError(f"path length T must be a real number, got {T!r}")
    freqs = _imaginary_frequencies(standard_J(S.shape[0] // 2) @ S, tol)
    return _Crossings(S, [(mu, V.shape[1]) for mu, V in freqs], T, tol,
                      0.0 if lead is None else T - lead, vectors=dict(freqs))


def cz_index_data(S, T: float, tol: Tolerances = DEFAULT_TOL) -> CzPathData:
    """Crossing data of the path exp(t J S) on [0, T], T > 0."""
    return _form_crossings(S, T, tol).data()


def cz_index_path(S, T: float, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Conley-Zehnder index of t |-> exp(t J S) on [0, T], off a pass that
    lists from T - tol.crossing on, so as to list an endpoint below T."""
    return _form_crossings(S, T, tol, tol.crossing).data().index


def crossing_times(S, T: float, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """All crossing times in (0, T], endpoint included when resonant.

    Only locates the crossings; no signature is computed.
    """
    return _form_crossings(S, T, tol).crossing_times()

