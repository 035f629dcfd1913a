"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so a full run reads as a
checklist.  Everything runs on the n = 32 working grid in well under a
minute; random families come from conftest and are seeded, so the suite
is deterministic.
"""

import numpy as np

from conftest import legendre_mode, random_time_profile, regular_random_metric
from reference import comparison_f, gauss_curvature_from_shape
from quasilocal.cli import main
from quasilocal.embedding import (
    embed_lifted,
    embed_r3,
    extrinsic_data,
    mean_curvature,
)
from quasilocal.energy import breve_gauge, generalized_mean_curvature, qle
from quasilocal.geometry import (
    divergence_from_x_component,
    laplacian,
    make_grid,
    round_sphere,
)
from quasilocal.optimize import (
    TauCoefficients,
    convexity_guard,
    energy_gradient,
    tau_from_coefficients,
)
from quasilocal.physdata import minkowski_surface_data, schwarzschild_sphere
from quasilocal.verify import check_lemma41, check_theorem1, check_theorem3

GRID = make_grid(32)
SPHERE_ENERGY = 32.0 * np.pi * (1.0 - np.sqrt(0.5))


def announce(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def lifted_sample(seed, tries=10):
    """Seeded (metric, tau) pair retried into the embeddable region."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        met = regular_random_metric(GRID, rng)
        tau = random_time_profile(GRID, rng)
        try:
            return met, tau, embed_lifted(met, tau)
        except ValueError:
            continue
    raise AssertionError(f"no embeddable sample within {tries} draws at seed {seed}")


def test_criterion_01_round_sphere_exactness():
    worst_profile = worst_curv = worst_gauss = 0.0
    for r in (1.0, 2.5):
        surf = embed_r3(round_sphere(GRID, r))
        worst_profile = max(
            worst_profile,
            np.max(np.abs(surf.v - r * (1.0 - GRID.x))),
        )
        worst_curv = max(worst_curv, np.max(np.abs(mean_curvature(surf) - 2.0 / r)))
        worst_gauss = max(
            worst_gauss, np.max(np.abs(gauss_curvature_from_shape(surf) - 1.0 / r**2))
        )
    announce(1, "round-sphere exactness", worst_profile <= 1e-9 and worst_curv <= 1e-9
             and worst_gauss <= 1e-8)


def test_criterion_02_schwarzschild_energy():
    total = qle(schwarzschild_sphere(GRID, 1.0, 4.0), np.zeros(GRID.n_nodes)).total
    announce(2, "Schwarzschild closed form", abs(total - SPHERE_ENERGY) <= 1e-8 * SPHERE_ENERGY)


def test_criterion_03_minkowski_zero_point():
    sigma = round_sphere(GRID)
    profiles = (
        np.zeros(GRID.n_nodes),
        legendre_mode(GRID, 1, 0.3),
        legendre_mode(GRID, 1, 0.3) + legendre_mode(GRID, 2, 0.1),
    )
    worst = max(abs(qle(minkowski_surface_data(sigma, t), t).total) for t in profiles)
    announce(3, "flat-space zero point", worst <= 1e-8)


def test_criterion_04_mean_curvature_identity():
    worst = 0.0
    for seed in range(50):
        met, tau, lift = lifted_sample(seed)
        data = extrinsic_data(lift)
        h0 = mean_curvature(embed_r3(met))
        w_v = embed_r3(met).v_prime / GRID.sin_theta
        taux = GRID.dx(tau)
        defect = (w_v * laplacian(met, tau) + taux * divergence_from_x_component(met, w_v)) ** 2
        gap = data.mean_sq - (h0**2 - defect / (w_v**2 + taux**2))
        worst = max(worst, np.max(np.abs(gap)))
    announce(4, "mean-curvature identity (50 samples)", worst <= 1e-8)


def test_criterion_05_flux_and_first_variation():
    report = check_lemma41(round_sphere(GRID), 0.3 * GRID.x)
    flux = next(c for c in report.checks if c.label == "flux")
    announce(5, "flux identity and first variation", report.passed and flux.margin >= -1e-8)


def test_criterion_06_generalized_mean_curvature():
    worst = 0.0
    for seed in range(50):
        met, tau, lift = lifted_sample(seed)
        s1 = np.sqrt(1.0 + lift.grad_sq)
        h_gen = generalized_mean_curvature(breve_gauge(lift), met, tau)
        worst = max(worst, np.max(np.abs(h_gen / s1 - lift.projected.mean_curvature)))
    announce(6, "generalized mean curvature (50 samples)", worst <= 1e-8)


def test_criterion_07_gradient_consistency():
    d = schwarzschild_sphere(GRID, 1.0, 4.0)
    ell_sq = np.arange(1, 9, dtype=float) ** 2
    step = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        coeffs = 0.3 * rng.uniform(-1.0, 1.0, 8) / ell_sq
        point = TauCoefficients(tuple(coeffs))
        assert convexity_guard(d.metric, tau_from_coefficients(GRID, point)) > 0.0
        grad = energy_gradient(d, point)
        fd = np.empty(8)
        for l in range(8):
            bump = np.zeros(8)
            bump[l] = step
            plus = qle(d, tau_from_coefficients(GRID, TauCoefficients(tuple(coeffs + bump)))).total
            minus = qle(d, tau_from_coefficients(GRID, TauCoefficients(tuple(coeffs - bump)))).total
            fd[l] = (plus - minus) / (2.0 * step)
        worst = max(worst, np.linalg.norm(fd - grad) / np.linalg.norm(fd))
    announce(7, "gradient vs finite differences (20 points)", worst <= 1e-5)


def test_criterion_08_energy_comparison():
    report = check_theorem1(schwarzschild_sphere(GRID, 1.0, 4.0), np.zeros(GRID.n_nodes))
    gap = next(c for c in report.checks if c.label == "gap")
    equality = dict(report.equality_cases)["shift+3"]
    announce(8, "energy comparison (36-point box)",
             report.passed and gap.margin >= -1e-8 and equality <= 1e-9)


def test_criterion_09_positivity_family():
    report = check_theorem3(schwarzschild_sphere(GRID, 1.0, 4.0))
    by_label = {c.label: c for c in report.checks}
    ok = (
        report.passed
        and by_label["zero-value"].margin >= -1e-10
        and by_label["zero-derivative"].margin >= -1e-7
        and by_label["ode"].margin >= -1e-7
        and by_label["monotonicity"].margin >= -1e-8
        and by_label["reference-derivative"].margin >= -1e-6
    )
    announce(9, "positivity along the scaling family", ok)


def test_criterion_10_spectral_convergence():
    totals = []
    for n in (16, 48):
        grid = make_grid(n)
        totals.append(qle(schwarzschild_sphere(grid, 1.0, 4.0), 0.3 * grid.x).total)
    announce(10, "grid-size independence", abs(totals[0] - totals[1]) <= 1e-8)


def test_criterion_11_pointwise_comparison_minimum():
    rng = np.random.default_rng(2026)
    xs = np.arange(-10.0, 10.0, 1e-3)
    worst_cells = 0.0
    for _ in range(100):
        x0 = rng.uniform(-8.0, 8.0)
        h_small = rng.uniform(0.1, 3.0)
        h_big = h_small + rng.uniform(0.05, 3.0)
        minimizer = xs[int(np.argmin(comparison_f(xs, x0, h_big, h_small)))]
        worst_cells = max(worst_cells, abs(minimizer - x0) / 1e-3)
    announce(11, "pointwise comparison minimum (100 triples)", worst_cells <= 1.0)


def test_criterion_12_deterministic_reports(tmp_path, capsys):
    paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for path in paths:
        argv = ["verify", "--suite", "theorem1", "--schwarzschild", "m=1,r=4",
                "--out", str(path)]
        assert main(argv) == 0
    capsys.readouterr()
    announce(12, "byte-identical reports", paths[0].read_bytes() == paths[1].read_bytes())
