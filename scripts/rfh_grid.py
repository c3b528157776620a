#!/usr/bin/env python3
"""Tabulate the graded homology over a grid of (n, k) pairs.

Each row is computed from one sample Hamiltonian of shape (n, k); the
degrees depend only on (n, k).  The table doubles as a quick visual
check that the two nonzero classes sit at 1-n and -k and collide exactly
when k = n-1.
"""

import argparse

import numpy as np

from rfhquad import rfh_report
from rfhquad.samples import random_hamiltonian


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    print(f"{'n':>3} {'k':>3}  {'RFH':<22} {'RFH>=0':<14} {'RFH+':<10} RFH-")
    for n in range(2, args.n_max + 1):
        for k in range(1, n):
            r = rfh_report(random_hamiltonian(rng, n, k))

            def fmt(space):
                return ", ".join(f"{'Z2' if d == 1 else f'Z2^{d}'}@{deg}"
                                 for deg, d in space.as_dict().items()) or "0"

            print(f"{n:>3} {k:>3}  {fmt(r.full):<22} {fmt(r.geq0):<14} "
                  f"{fmt(r.plus):<10} {fmt(r.minus)}")


if __name__ == "__main__":
    main()
