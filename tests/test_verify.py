"""Certification suites: reports, identities, and both comparison results."""

import math

import numpy as np
import pytest

import quasilocal
from conftest import legendre_mode
from quasilocal.geometry import (
    AxisymMetric,
    OneForm,
    make_grid,
    round_sphere,
)
from quasilocal.physdata import PhysicalData, schwarzschild_sphere
from quasilocal.verify import (
    CheckOutcome,
    TheoremReport,
    chebyshev_s_grid,
    check_identities,
    check_lemma41,
    check_theorem1,
    check_theorem3,
    coefficient_box,
    format_report,
)


def outcome(report, label):
    matches = [c for c in report.checks if c.label == label]
    assert len(matches) == 1
    return matches[0]


def detail(report, label):
    values = dict(report.details)
    assert label in values
    return values[label]


def oblate_metric(grid):
    # P = sqrt(1 - 0.3 sin^2), Q = 1; meets the round sphere at the poles
    return AxisymMetric(grid, np.sqrt(0.7 + 0.3 * grid.x**2), np.ones(grid.n_nodes))


class TestTheoremReport:
    def test_pass_iff_worst_margin_clears_allowance(self):
        good = CheckOutcome("a", 0.5, 1e-8)
        bad = CheckOutcome("b", -1e-6, 1e-8)
        passing = TheoremReport(name="t", samples=1, checks=(good,))
        failing = TheoremReport(name="t", samples=1, checks=(good, bad))
        assert passing.passed and passing.worst_margin >= -passing.worst.allowance
        assert not failing.passed and failing.worst_margin < -failing.worst.allowance
        assert failing.worst.label == "b"

    def test_strict_allowance_requires_positive_margin(self):
        assert not CheckOutcome("strict", 0.0, -1e-9).ok
        assert not CheckOutcome("strict", -1e-12, -1e-9).ok
        assert CheckOutcome("strict", 1e-8, -1e-9).ok

    def test_tolerances_mirror_checks(self):
        report = TheoremReport(
            name="t",
            samples=2,
            checks=(CheckOutcome("a", 0.0, 1e-8), CheckOutcome("b", 0.0, 1e-6)),
        )
        assert report.tolerances == (("a", 1e-8), ("b", 1e-6))

    def test_format_is_deterministic_and_complete(self):
        report = TheoremReport(
            name="demo",
            samples=3,
            checks=(CheckOutcome("gap", 0.25, 1e-8),),
            equality_cases=(("shift+3", 1e-12),),
            details=(("skipped-samples", 0.0),),
        )
        text = format_report(report)
        assert text == format_report(report)
        assert "suite = demo" in text
        assert "samples = 3" in text
        assert "pass = true" in text
        assert "margin.gap = 0.25" in text
        assert "allowance.gap = 1e-08" in text
        assert "equality.shift+3 = " in text
        assert "detail.skipped-samples = 0" in text


class TestCheckIdentities:
    def test_round_sphere_at_rest(self):
        grid = make_grid(32)
        report = check_identities(round_sphere(grid), np.zeros(32))
        assert report.name == "identities"
        assert report.samples == 1
        assert report.passed
        assert -report.worst_margin < 1e-10

    def test_round_sphere_boosted(self):
        grid = make_grid(32)
        report = check_identities(round_sphere(grid), 0.3 * grid.x)
        assert report.passed
        assert -report.worst_margin < 1e-8

    def test_oblate_metric(self):
        grid = make_grid(32)
        report = check_identities(oblate_metric(grid), 0.1 * legendre_mode(grid, 2), tolerance=1e-7)
        assert report.passed
        assert -report.worst_margin < 1e-7

    def test_covers_six_identities(self):
        grid = make_grid(16)
        report = check_identities(round_sphere(grid), 0.1 * grid.x)
        labels = [c.label for c in report.checks]
        assert labels == [
            "mean-curvature-norm",
            "generalized-mean",
            "projection",
            "gauge-one-form",
            "inverse-metric",
            "graph-hessian",
        ]


class TestCheckLemma41:
    def test_rest_profile_identically_zero(self):
        grid = make_grid(32)
        report = check_lemma41(round_sphere(grid), np.zeros(32))
        assert report.passed
        assert report.worst_margin == 0.0

    def test_boosted_sphere_default_variations(self):
        grid = make_grid(32)
        report = check_lemma41(round_sphere(grid), 0.3 * grid.x)
        assert report.passed
        assert report.samples == 3
        assert -outcome(report, "flux").margin <= 1e-8
        for i in (1, 2, 3):
            assert -outcome(report, f"variation-{i}").margin <= 1e-6

    def test_flux_identity_two_mode_profile(self):
        grid = make_grid(32)
        tau = 0.2 * legendre_mode(grid, 1) + 0.1 * legendre_mode(grid, 3)
        report = check_lemma41(round_sphere(grid), tau)
        assert -outcome(report, "flux").margin <= 1e-8

    def test_custom_variation_list(self):
        grid = make_grid(32)
        report = check_lemma41(
            round_sphere(grid), 0.2 * grid.x, variations=[legendre_mode(grid, 1)]
        )
        assert report.samples == 1
        assert len(report.checks) == 2


class TestLiftsAreShared:
    """Each lift the identity suites hold has its extrinsic data computed once."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(quasilocal.embedding, name)

        def counting(*args):
            calls.append(None)
            return original(*args)

        modules = (quasilocal.embedding, quasilocal.energy, quasilocal.physdata, quasilocal.verify)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("suite", [check_identities, check_lemma41])
    def test_one_extrinsic_data_call(self, suite, monkeypatch):
        grid = make_grid(32)
        m = oblate_metric(grid)
        extrinsic = self.count_calls(monkeypatch, "extrinsic_data")
        assert suite(m, 0.2 * legendre_mode(grid, 1)).passed
        assert len(extrinsic) == 1


class TestCheckTheorem1:
    def test_schwarzschild_box(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, np.zeros(32))
        assert report.passed
        assert report.name == "theorem1"
        assert report.samples == 36
        assert detail(report, "skipped-samples") == 0.0
        # the inequality holds strictly well away from the equality set
        assert outcome(report, "gap").margin > 1e-2

    def test_equality_at_constant_shift(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, np.zeros(32))
        cases = dict(report.equality_cases)
        assert abs(cases["shift+3"]) <= 1e-9
        assert -outcome(report, "equality").margin <= 1e-9

    def test_closed_form_matches_energy(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, np.zeros(32))
        assert -outcome(report, "closed-form").margin < 1e-10

    def test_hypothesis_margins_reported(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, np.zeros(32))
        expected = 0.5 * (1.0 - np.sqrt(0.5))
        assert abs(outcome(report, "mean-curvature-gap").margin - expected) < 1e-12
        assert abs(detail(report, "reference-mean-curvature-min") - 0.5) < 1e-12
        assert abs(detail(report, "physical-mean-curvature-max") - 0.5 * np.sqrt(0.5)) < 1e-12

    def test_noncritical_base_point_fails_criticality(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, 0.2 * legendre_mode(grid, 2))
        assert not report.passed
        assert not outcome(report, "criticality").ok

    def test_guard_violating_samples_are_counted(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(
            d,
            np.zeros(32),
            tau_samples=[0.3 * grid.x, 3.0 * legendre_mode(grid, 3)],
        )
        assert report.samples == 1
        assert detail(report, "skipped-samples") == 1.0
        assert report.passed

    def test_box_family_shape(self):
        grid = make_grid(8)
        box = coefficient_box(grid)
        assert len(box) == 36
        assert all(f.shape == (8,) for f in box)


class TestCheckTheorem3:
    def test_schwarzschild_defaults(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem3(d)
        assert report.passed
        assert report.name == "theorem3"
        assert report.samples == 3
        assert outcome(report, "zero-value").margin >= -1e-10
        assert outcome(report, "zero-derivative").margin >= -1e-7
        assert outcome(report, "ode").margin >= -1e-7
        assert outcome(report, "positivity").margin >= -1e-8
        assert outcome(report, "monotonicity").margin >= -1e-8
        assert outcome(report, "reference-derivative").margin >= -1e-6
        assert outcome(report, "guard").margin > 0.05

    def test_energy_increases_strictly_off_constants(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem3(d, tau_samples=[0.3 * grid.x])
        assert detail(report, "strict-increase-min") > 0.05

    def test_flat_data_hypothesis_failure_is_reported(self):
        # H0 equals |H| for the flat round sphere: strict domination fails
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 0.0, 1.0)
        report = check_theorem3(d)
        assert not report.passed
        assert not outcome(report, "mean-curvature-gap").ok
        assert abs(outcome(report, "mean-curvature-gap").margin) < 1e-9

    def test_nonvanishing_alpha_fails_hypothesis(self):
        grid = make_grid(32)
        d = PhysicalData(
            metric=round_sphere(grid),
            norm_H=np.full(32, 1.5),
            alpha_H=OneForm(theta=0.01 * grid.sin_theta),
            provenance="synthetic",
        )
        report = check_theorem3(d, tau_samples=[0.1 * grid.x])
        assert not report.passed
        assert not outcome(report, "alpha-rest").ok

    def test_constant_profile_gives_flat_family(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem3(d, tau_samples=[np.zeros(32)])
        assert report.passed
        assert math.isinf(detail(report, "strict-increase-min"))
        cases = dict(report.equality_cases)
        assert abs(cases["constant-profile"]) <= 1e-10

    def test_s_grid_endpoints(self):
        s = chebyshev_s_grid()
        assert s.shape == (33,)
        assert s[0] == 0.0
        assert abs(s[-1] - 1.0) < 1e-15
        assert np.all(np.diff(s) > 0)

    def test_report_serialization_round_trip_stability(self):
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        first = format_report(check_theorem3(d, tau_samples=[0.2 * grid.x]))
        second = format_report(check_theorem3(d, tau_samples=[0.2 * grid.x]))
        assert first == second
