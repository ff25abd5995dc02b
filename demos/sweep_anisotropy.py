#!/usr/bin/env python
"""
Sweep the anisotropy axis of the XXZ chain and watch the correlation
measures sharpen into a step at the isotropic point as the block
iteration deepens.
"""
import argparse

from qrgflow import sweep


def parse_args():
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=11,
                        help="grid points across the anisotropy window")
    parser.add_argument("--lo", type=float, default=0.0)
    parser.add_argument("--hi", type=float, default=2.0)
    parser.add_argument("--iterations", type=int, nargs="+", default=[0, 2, 6],
                        help="iteration depths to tabulate")
    parser.add_argument("--measure", default="qd_optimal",
                        choices=["concurrence", "qd_optimal", "mid", "gd", "min", "chsh_max"])
    return parser.parse_args()


def main():
    args = parse_args()
    table = sweep("xxz", args.lo, args.hi, args.points,
                  args.iterations, measures=(args.measure,))

    header = "delta   " + "  ".join(f"n={n:<2d} (N={3 ** (n + 1)})" for n in table.iterations)
    print(f"{args.measure} across the anisotropy axis")
    print(header)
    for j, delta in enumerate(table.grid):
        row = "  ".join(f"{table.values[i, j, 0]:.6f}    " for i in range(len(table.iterations)))
        print(f"{delta:5.2f}   {row}")

    print()
    print("Everything left of delta=1 flows to one plateau; everything right")
    print("of it drains toward the uncorrelated product state.")


if __name__ == "__main__":
    main()
