#!/usr/bin/env python3
"""Print one sha256 over oracle_cz's answers on a fixed evidence set, and
one over cz_index_data's answers on the same (S, T) of the set.

Two checkouts that print the same digests give oracle_cz and
cz_index_data the same answers, bit for bit, on every call of the set:
the repr of each answer (its crossing times at full float precision), or
the type and message of the exception a call raises, is hashed in order.
Run it in each checkout, from the checkout's root:

    python scripts/oracle_digest.py

It imports rfhquad from the checkout's own src/, and the index_crosscheck
pools from its perfbench/.  The set:

- the index_crosscheck pools of seeds 0-3, at the pool's own grids;
- the 100 forms of selftest's criterion 5;
- 100 random elliptic forms, every odd one conjugated by a symplectic
  map, each at grids 400, 2000 and 20000, with the calls the grid rule
  refuses;
- the 400 default_rng(11) draws of tests/test_oracles.py's spurious-dip
  test, at grid 20000;
- the (c, 2) + eps Id forms (a Krein collision; Pade at eps = 0), plain
  and conjugated, on [0, 9] and [0, 4 pi] at grids 4000 and 20000.
"""

import hashlib
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from rfhquad import build_block, crossing_times, cz_index_data, oracle_cz
from rfhquad.samples import random_elliptic_form, random_symplectic
from rfhquad.selftest import BASE_SEED
from rfhquad.symlin import sym_matrix

import workloads


def _conjugated(S, G):
    return sym_matrix(G.T @ S @ G)


def calls():
    """(S, T, grid) of every call, in order; grid None for the default."""
    name = "index_crosscheck"
    for seed in range(4):
        rng = np.random.default_rng([seed, list(workloads.ALL).index(name)])
        for inp in workloads.ALL[name].generate(rng):
            yield inp.S, inp.T, inp.grid

    rng = np.random.default_rng(BASE_SEED + 5)  # as selftest.criterion_5 draws them
    for trial in range(100):
        dof = 1 + trial % 3
        T = float(rng.uniform(2.0, 4 * math.pi))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        for _ in range(50):
            if not any(abs(t - T) < 1e-3 for t in crossing_times(S, T + 0.02)):
                break
            T += 7e-3
        yield S, T, None

    rng = np.random.default_rng(32)
    for i in range(100):
        dof = 1 + i % 3
        T = float(rng.uniform(0.5, 4 * math.pi))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        if i % 2:
            S = _conjugated(S, random_symplectic(rng, dof, float(rng.uniform(0.3, 0.9))))
        for grid in (400, 2000, 20000):
            yield S, T, grid

    rng = np.random.default_rng(11)
    for i in range(400):
        dof = 1 + i % 3
        T = float(rng.uniform(2.0, 25.0))
        S = random_elliptic_form(rng, dof, horizon=T + 0.1)
        if i % 2 == 0:
            S = _conjugated(S, random_symplectic(rng, dof, float(rng.uniform(0.3, 0.9))))
        yield S, T, 20000

    for eps in (0.0, 1e-4, 1e-3, 1e-2):
        S = build_block("c", 2, 1j, gamma=1).matrix + eps * np.eye(4)
        for form in (S, _conjugated(S, random_symplectic(np.random.default_rng(0), 2, 0.3))):
            for T in (9.0, 4 * math.pi):
                for grid in (4000, 20000):
                    yield form, T, grid


def _answer(call):
    """The repr of call()'s answer, or the type and message of its refusal,
    and whether it refused."""
    try:
        return repr(call()), False
    except Exception as exc:  # a refusal is part of the answer
        return f"{type(exc).__name__}: {exc}", True


def main() -> None:
    oracle, index = hashlib.sha256(), hashlib.sha256()
    count = refused = index_refused = 0
    for S, T, grid in calls():
        got, no = _answer(lambda: oracle_cz(S, T) if grid is None else oracle_cz(S, T, grid))
        oracle.update(got.encode() + b"\n")
        refused += no
        got, no = _answer(lambda: cz_index_data(S, T))
        index.update(got.encode() + b"\n")
        index_refused += no
        count += 1
    print(f"{oracle.hexdigest()}  {count} calls, {refused} refused")
    print(f"{index.hexdigest()}  {count} cz_index_data calls, {index_refused} refused")


if __name__ == "__main__":
    main()
