"""Energy of coordinate spheres in a static black-hole slice.

For the round sphere of areal radius r in the time-symmetric slice of
mass m, the time-symmetric energy has the closed form

    E(r) = 8 pi r (1 - sqrt(1 - 2m/r)),

so the mass-normalized value E/(8 pi) starts at 2m just outside the
horizon and decreases monotonically to the total mass m as r grows.
This script evaluates the functional on the working grid at a ladder of
radii and prints it next to the closed form, then shows that the zero
time function is actually critical (the optimality residual vanishes).
"""

import numpy as np

from quasilocal import make_grid, schwarzschild_sphere

MASS = 1.0
RADII = (2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0)


def closed_form(m, r):
    return 8.0 * np.pi * r * (1.0 - np.sqrt(1.0 - 2.0 * m / r))


def main():
    grid = make_grid(32)
    tau = np.zeros(grid.n_nodes)
    print(f"mass m = {MASS}, time function tau = 0, grid n = {grid.n_nodes}")
    print(f"{'r':>6} {'E':>16} {'closed form':>16} {'E/(8 pi)':>10} {'|residual|':>11}")
    for r in RADII:
        at_tau = schwarzschild_sphere(grid, MASS, r).evaluate(tau)
        total = at_tau.energy.total
        print(
            f"{r:6.1f} {total:16.10f} {closed_form(MASS, r):16.10f}"
            f" {total / (8.0 * np.pi):10.6f} {at_tau.residual_norm:11.2e}"
        )
    print()
    print("E/(8 pi) -> m from above as r grows; the horizon limit is 2m.")


if __name__ == "__main__":
    main()
