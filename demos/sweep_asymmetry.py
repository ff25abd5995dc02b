#!/usr/bin/env python
"""
Sweep the coupling-ratio axis of the anisotropic XY chain.  The plotted
variable is the ratio g of the two exchange couplings; g = 1 is the
isotropic (critical) point, g != 1 flows to one of the two Ising-like
sinks.
"""
import argparse

from qrgflow import gamma_of_g, sweep


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=11)
    parser.add_argument("--lo", type=float, default=0.0)
    parser.add_argument("--hi", type=float, default=3.0)
    parser.add_argument("--iterations", type=int, nargs="+", default=[0, 2, 6])
    parser.add_argument("--measure", default="chsh_max",
                        choices=["concurrence", "qd_optimal", "mid", "gd", "min", "chsh_max"])
    return parser.parse_args()


def main():
    args = parse_args()
    table = sweep("xy", args.lo, args.hi, args.points,
                  args.iterations, measures=(args.measure,))

    print(f"{args.measure} across the coupling-ratio axis")
    print("g       gamma    " + "  ".join(f"n={n:<2d}      " for n in table.iterations))
    for j, g in enumerate(table.grid):
        row = "  ".join(f"{table.values[i, j, 0]:.6f}" for i in range(len(table.iterations)))
        print(f"{g:5.2f}   {gamma_of_g(float(g)):+.3f}   {row}")

    print()
    print("The g = 1 column is iteration-invariant; its neighbours peel away")
    print("toward the g = 0 / g -> inf limits as the block grows.")


if __name__ == "__main__":
    main()
