"""Run every certification suite and print the reports.

Four suites back the package's comparison statements:

  identities   pointwise structure of the lifted geometry (mean-curvature
               decomposition, projection relation, gauge one-form, graph
               Hessian scaling)
  lemma41      criticality machinery: the flux identity behind the
               first-variation formula, cross-checked against finite
               differences of the gauge-fixed energy
  theorem1     the comparison lower bound at a critical time function,
               sampled over a coefficient box, with its equality case
  theorem3     positivity along the scaling family s -> s*tau, including
               the derivative identity, with F'(s) the energy's weak first
               variation along tau

Each report states margins (signed slack against the allowance); a
negative allowance encodes a strict hypothesis that must hold with room
to spare.  Everything is deterministic.
"""

import numpy as np

from quasilocal import (
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    format_report,
    make_grid,
    round_sphere,
    schwarzschild_sphere,
)


def main():
    grid = make_grid(32)
    boost = 0.3 * grid.x

    print(format_report(check_identities(round_sphere(grid), boost)))
    print(format_report(check_lemma41(round_sphere(grid), boost)))

    d = schwarzschild_sphere(grid, 1.0, 4.0)
    print(format_report(check_theorem1(d, np.zeros(grid.n_nodes))))
    print(format_report(check_theorem3(d)))

    flat = schwarzschild_sphere(grid, 0.0, 1.0)
    print("flat data violates the strict mean-curvature hypothesis:")
    print(format_report(check_theorem3(flat)))


if __name__ == "__main__":
    main()
