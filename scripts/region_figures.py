#!/usr/bin/env python3
"""Emit the existence-region data behind both parameter-region figures.

Figure 1: values of the two top valuations for which the no-sabotage
equilibrium exists, at several levels of the adjusted bottom stake w.
Figure 2: magnitudes of the two bottom valuations for which the
all-sabotage equilibrium exists, at several thetas and a fixed top
stake t.  One CSV per parameter value, suitable for contour plotting.
"""

import argparse
from pathlib import Path

import numpy as np

from groupcontest import region_csv, region_sample


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="region_data", help="output directory")
    parser.add_argument("--points", type=int, default=100, help="grid points per axis")
    parser.add_argument("--lo", type=float, default=0.05)
    parser.add_argument("--hi", type=float, default=5.0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    axis = np.linspace(args.lo, args.hi, args.points)

    for w in (0.5, 0.8, 1.2, 2.0):
        grid = region_sample(1, w, axis, axis)
        inside = int((grid.margin >= 0).sum())
        path = out / f"figure1_w{w}.csv"
        path.write_text(region_csv(grid))
        print(f"{path}: {inside}/{len(grid)} points inside")

    for theta in (0.5, 1.0, 2.0, 4.0):
        grid = region_sample(2, 1.0, axis, axis, theta=theta)
        inside = int((grid.margin >= 0).sum())
        path = out / f"figure2_t1.0_theta{theta}.csv"
        path.write_text(region_csv(grid))
        print(f"{path}: {inside}/{len(grid)} points inside")


if __name__ == "__main__":
    main()
