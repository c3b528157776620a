"""Random instance generators for the self-test suite and property tests.

All sampling keeps the exponentials well conditioned: real parts of
hyperbolic eigenvalues stay small enough that exp(eta J A) does not swamp
the kernel-rank cutoffs used downstream.  Deeper Jordan blocks, whose
sufficient bounds force large real parts, are only emitted when heavy
blocks are explicitly requested (they are fine for purely algebraic
checks but not inside exponentials over long windows).
"""

from __future__ import annotations

import numpy as np

from .hormander import HormanderBlock, NormalForm, build_block, normal_form
from .orbits import TWO_PI
from .symlin import DEFAULT_TOL, ExpEvaluator, standard_J, symplectic_direct_sum
from .tentacular import QuadraticHamiltonian

__all__ = [
    "random_passing_block",
    "random_hyperbolic_blocks",
    "random_hamiltonian",
    "random_symplectic",
    "random_orthosymplectic",
    "random_elliptic_form",
]


def random_passing_block(rng: np.random.Generator, dof: int,
                         allow_heavy: bool = False) -> HormanderBlock:
    """One hyperbolic block of the given dof that meets the sufficient
    spectral bounds, with eigenvalue real parts kept exponent-friendly."""
    if dof == 1:
        return build_block("a", 1, complex(rng.uniform(0.3, 1.2), 0.0))
    if dof == 2:
        if rng.random() < 0.5:
            re = rng.uniform(0.3, 1.0)
            im = rng.uniform(0.3, 2.0)
            return build_block("b", 1, complex(re, im))
        return build_block("a", 2, complex(rng.uniform(0.75, 1.2), 0.0))
    if dof == 3 and allow_heavy:
        return build_block("a", 3, complex(rng.uniform(2.05, 2.4), 0.0))
    raise ValueError(f"no generator for dof={dof}, allow_heavy={allow_heavy}")


def random_hyperbolic_blocks(rng: np.random.Generator, dof: int,
                             allow_heavy: bool = False) -> NormalForm:
    """A normal form with the requested total dof, random block partition."""
    blocks = []
    left = dof
    while left > 0:
        choices = [1] if left == 1 else [1, 2]
        if allow_heavy and left >= 3:
            choices.append(3)
        size = int(rng.choice(choices))
        blocks.append(random_passing_block(rng, size, allow_heavy))
        left -= size
    return normal_form(blocks)


def random_hamiltonian(rng: np.random.Generator, n: int, k: int,
                       freq_lo: float = 0.5, freq_hi: float = 5.0) -> QuadraticHamiltonian:
    """Random valid Hamiltonian with k elliptic frequencies in the given
    band and a hyperbolic part built from passing blocks."""
    freqs = np.sort(rng.uniform(freq_lo, freq_hi, size=k))
    if n == k:
        a1 = np.zeros((0, 0))
    else:
        a1 = random_hyperbolic_blocks(rng, n - k).matrix
    return QuadraticHamiltonian.from_frequencies(n, k, tuple(freqs), a1)


def random_symplectic(rng: np.random.Generator, dof: int,
                      magnitude: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(J R) with R symmetric of norm about
    the given magnitude; stays well conditioned for moderate magnitudes."""
    m = 2 * dof
    R = rng.normal(size=(m, m))
    R = (R + R.T) / 2
    R *= magnitude / max(1.0, np.linalg.norm(R, 2))
    return ExpEvaluator(standard_J(dof) @ R).at([1.0])[0]


def random_orthosymplectic(rng: np.random.Generator, dof: int) -> np.ndarray:
    """Orthogonal symplectic matrix: the realification of a Haar-random
    complex unitary.  Conjugation by it preserves both symmetry and the
    symplectic form, so spectra and signatures are exactly invariant."""
    z = rng.normal(size=(dof, dof)) + 1j * rng.normal(size=(dof, dof))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    out = np.zeros((2 * dof, 2 * dof))
    out[:dof, :dof] = q.real
    out[:dof, dof:] = -q.imag
    out[dof:, :dof] = q.imag
    out[dof:, dof:] = q.real
    return out


def random_elliptic_form(rng: np.random.Generator, dof: int,
                         mu_lo: float = 0.35, mu_hi: float = 2.4,
                         horizon: float = 30.0) -> np.ndarray:
    """Positive or mixed-sign elliptic quadratic form with well-separated
    crossing times up to the horizon, conjugated by a random
    orthosymplectic map.

    Frequencies are resampled until all crossing times 2 pi j / mu below
    the horizon stay pairwise separated by at least 5e-3, so analytic and
    scanning crossing detectors must agree on the count.
    """
    for _ in range(600):
        mus = rng.uniform(mu_lo, mu_hi, size=dof)
        times = []
        for mu in mus:
            j = 1
            while TWO_PI * j / mu <= horizon:
                times.append(TWO_PI * j / mu)
                j += 1
        times.sort()
        if all(b - a >= 5e-3 for a, b in zip(times, times[1:])):
            break
    else:
        raise RuntimeError("could not separate crossing times")
    gammas = rng.choice([-1, 1], size=dof)
    blocks = [build_block("c", 1, complex(0.0, mu), gamma=int(g))
              for mu, g in zip(mus, gammas)]
    A = symplectic_direct_sum(*[b.matrix for b in blocks])
    U = random_orthosymplectic(rng, dof)
    return U @ A @ U.T
