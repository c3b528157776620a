#!/usr/bin/env python3
"""Print sha256 digests over the orbit census's answers on a fixed
evidence set, one line per part of the set.

Two checkouts that print the same digests give generator_census, census,
validate and the CLI the same answers, bit for bit, on every call of the
set: the repr of each answer, or the type and message of the exception a
call raises, is hashed in order; for the CLI, its stdout, stderr and exit
code.  Run it in each checkout, from the checkout's root:

    python scripts/census_digest.py

It imports rfhquad from the checkout's own src/, and the workload pools
from its perfbench/.  The set:

- census_wide: generator_census and census on the census_wide pools of
  seeds 0-3;
- resonant: both on the frequency sets [1, 1], [1, 2], [1, 1.5, 3] and
  [2, 2, 1], declared, and as A0 conjugated by random_orthosymplectic
  without them, on symmetric and asymmetric windows, windows with 0 at or
  inside an end, far windows, the default window and windows past the
  census cap or the float range;
- cli: every subcommand in the spec_mix pools of seeds 0-3 and the
  jordan2 probe's check and classify at the same seeds, with and without
  --json;
- validate: validate's report on A1 holding an imaginary Jordan block of
  size 1-9, conjugated by orthosymplectic and symplectic maps, and a
  quadruple near the imaginary axis, at three eig_cluster values.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np

from rfhquad import (
    ActionWindow,
    QuadraticHamiltonian,
    Tolerances,
    build_block,
    census,
    generator_census,
    validate,
)
from rfhquad import cli
from rfhquad.samples import random_orthosymplectic, random_symplectic

import workloads

SEEDS = range(4)
RESONANT = ([1.0, 1.0], [1.0, 2.0], [1.0, 1.5, 3.0], [2.0, 2.0, 1.0])
WINDOWS = ((-20.0, 20.0), (-40.0, 40.0), (-3.0, 17.5), (-26.1, 9.0), (0.0, 12.0),
           (-12.0, 0.0), (-1e-3, 1e-3), (1000.0, 1040.0), (-2040.0, -2000.0),
           (1e6, 1e6 + 60.0), (-1e5, 1e5), (-1e308, 1e308), (1e307, 1.7e308), None)
TOLERANCES = (Tolerances(), Tolerances(eig_cluster=1e-3), Tolerances(eig_cluster=0.05))


def _pool(name, seed):
    return workloads.ALL[name].generate(np.random.default_rng([seed, list(workloads.ALL).index(name)]))


def _answer(call) -> tuple:
    """The repr of call()'s answer, or the type and message of its refusal,
    and whether it refused."""
    try:
        return repr(call()), False
    except Exception as exc:  # a refusal is part of the answer
        return f"{type(exc).__name__}: {exc}", True


def _census_wide_calls():
    for seed in SEEDS:
        for inp in _pool("census_wide", seed):
            yield inp.H, inp.window


def _resonant_calls():
    rng = np.random.default_rng(35)
    a1 = build_block("a", 1, 0.7).matrix
    for freqs in RESONANT:
        k = len(freqs)
        plain = QuadraticHamiltonian.from_frequencies(k + 1, k, freqs, a1)
        U = random_orthosymplectic(rng, k)
        a0 = U @ plain.a0 @ U.T
        for H in (plain, QuadraticHamiltonian(k + 1, k, (a0 + a0.T) / 2, a1)):
            for ends in WINDOWS:
                yield H, None if ends is None else ActionWindow(*ends)


def _cli_calls():
    for seed in SEEDS:
        for name in ("spec_mix", workloads.PROBE.name):
            for inp in _pool(name, seed):
                yield [inp.sub, "-"], inp.text
                yield [inp.sub, "-", "--json"], inp.text


def _run_cli(argv, text) -> str:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return f"{code!r}\n{out.getvalue()}\n{err.getvalue()}"


def _validate_calls():
    for m in range(1, 10):
        B = build_block("c", m, 1j, 1).matrix
        for seed in range(3):
            rng = np.random.default_rng([35, m, seed])
            U, P = random_orthosymplectic(rng, m), random_symplectic(rng, m, magnitude=0.4)
            for A1 in (U @ B @ U.T, P.T @ B @ P):
                yield QuadraticHamiltonian(m + 1, 1, np.eye(2), (A1 + A1.T) / 2)
    for re in (5e-4, 5e-3, 2e-2, 0.2):
        for m in (1, 2, 3):
            yield QuadraticHamiltonian(2 * m + 1, 1, np.eye(2), build_block("b", m, re + 1j).matrix)


def _census_runs(calls):
    for H, window in calls:
        yield lambda: generator_census(H, window)
        yield lambda: census(H, window)


def _validate_runs():
    for H in _validate_calls():
        for tol in TOLERANCES:
            yield lambda: validate(H, tol)


def _digest(name, runs) -> None:
    digest, count, refused = hashlib.sha256(), 0, 0
    for run in runs:
        got, no = _answer(run)
        digest.update(got.encode() + b"\n")
        count += 1
        refused += no
    print(f"{digest.hexdigest()}  {name}: {count} calls, {refused} refused")


def main() -> None:
    _digest("census_wide", _census_runs(_census_wide_calls()))
    _digest("resonant", _census_runs(_resonant_calls()))
    _digest("validate", _validate_runs())
    digest, count, failed = hashlib.sha256(), 0, 0
    for argv, text in _cli_calls():
        got = _run_cli(argv, text)
        digest.update(got.encode() + b"\n")
        count += 1
        failed += not got.startswith("0\n")
    print(f"{digest.hexdigest()}  cli: {count} calls, {failed} nonzero exits")


if __name__ == "__main__":
    main()
