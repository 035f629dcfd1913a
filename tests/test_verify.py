"""Certification suites: reports, identities, and both comparison results."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasilocal
from conftest import (
    NORMAL_BUNDLE,
    count_constructed,
    count_formed,
    legendre_mode,
    random_time_profile,
    regular_random_metric,
)
from reference import spectral_s_derivative
from test_symmetries import DIMENSION
from quasilocal.geometry import (
    AxisymMetric,
    FieldShapeError,
    Grid,
    InvalidParameterError,
    make_grid,
    round_sphere,
)
from quasilocal.embedding import Evaluation, NonEmbeddableError, evaluate
from quasilocal.energy import qle
from quasilocal.optimize import convexity_guard
from quasilocal.physdata import PhysicalData, minkowski_surface_data, schwarzschild_sphere
from quasilocal.verify import (
    CheckOutcome,
    TheoremReport,
    _default_profiles,
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

    def test_format_is_deterministic_and_complete(self):
        report = TheoremReport(
            name="demo",
            samples=3,
            checks=(CheckOutcome("gap", 0.25, 1e-8),),
            details=(("skipped-samples", 0.0),),
        )
        text = format_report(report)
        assert text == format_report(report)
        assert "suite = demo" in text
        assert "samples = 3" in text
        assert "pass = true" in text
        assert "margin.gap = 0.25" in text
        assert "allowance.gap = 1e-08" in text
        assert "detail.skipped-samples = 0" in text
        assert len(text.splitlines()) == 9


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
        report = check_identities(oblate_metric(grid), 0.1 * legendre_mode(grid, 2))
        assert report.passed
        assert -report.worst_margin < 1e-7

    def test_covers_five_identities(self):
        grid = make_grid(16)
        report = check_identities(round_sphere(grid), 0.1 * grid.x)
        labels = [c.label for c in report.checks]
        assert labels == [
            "mean-curvature-norm",
            "projection",
            "gauge-one-form",
            "inverse-metric",
            "graph-hessian",
        ]


class TestSuitesAdmitTheirTimeFunction:
    """Every suite admits its time functions through their Evaluation, before anything is lifted."""

    @pytest.mark.parametrize("suite", [check_identities, check_lemma41])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tau_is_rejected(self, suite, value):
        tau = np.zeros(16)
        tau[3] = value
        with pytest.raises(InvalidParameterError, match="^tau must be finite, got .* at node 3"):
            suite(round_sphere(make_grid(16)), tau)

    @pytest.mark.parametrize("suite", [check_identities, check_lemma41])
    def test_tau_beyond_the_length_range_is_rejected(self, suite):
        with pytest.raises(InvalidParameterError, match=r"^\|tau\| must be at most"):
            suite(round_sphere(make_grid(16)), np.full(16, 1e300))


    @pytest.mark.parametrize("suite", ["theorem1", "theorem3"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "^tau must be finite, got nan at row 1, node 3 "),
            (np.inf, "^tau must be finite, got inf at row 1, node 3 "),
            (1e300, r"^\|tau\| must be at most 1e\+38; tau\[1, 3\] = 1e\+300 "),
            (None, r"^tau at row 1 has shape \(17,\), expected \(16,\) for this grid$"),
        ],
    )
    def test_explicit_sample_is_rejected_naming_its_row(self, suite, value, message):
        # a NaN sample used to be skipped by the guard, inf and 1e300 to overflow;
        # a wrong shape (value None) was named without its row
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        bad = np.zeros(grid.n_nodes if value is not None else grid.n_nodes + 1)
        if value is not None:
            bad[3] = value
        samples = [0.1 * grid.x, bad]
        with pytest.raises((InvalidParameterError, FieldShapeError), match=message):
            if suite == "theorem1":
                check_theorem1(d, np.zeros(grid.n_nodes), tau_samples=samples)
            else:
                check_theorem3(d, tau_samples=samples)


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

    def test_varies_only_along_resolved_modes(self):
        # on 4 nodes P3 = P_{n-1} is not resolved: the variations are along P1 and P2
        grid = make_grid(4)
        report = check_lemma41(round_sphere(grid), 0.1 * grid.x)
        assert report.passed
        assert report.samples == 2
        assert [c.label for c in report.checks] == ["flux", "variation-1", "variation-2"]


class TestLiftsThatAreNotPhysicalData:
    """The identities hold on every lift whose projection embeds.

    At 0.7 P2 on the unit sphere the lift's mean curvature vector is
    timelike at the equator, so the lift cannot be physical data, but the
    breve frame and the identities tying the lift to its projection stand.
    """

    def test_identities_and_lemma41_pass(self):
        grid = make_grid(64)
        m, tau = round_sphere(grid), legendre_mode(grid, 2, 0.7)
        assert evaluate(m, tau).mean_sq.min() <= 0.0
        identities = check_identities(m, tau)
        lemma41 = check_lemma41(m, tau)
        assert identities.passed and -identities.worst_margin < 1e-8
        assert lemma41.passed and -lemma41.worst_margin < 1e-8

    def test_theorem3_family_with_timelike_mean_curvature(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau = legendre_mode(grid, 2, 2.8)
        assert evaluate(d.metric, tau).mean_sq.min() <= 0.0
        report = check_theorem3(d, tau_samples=[tau])
        assert report.passed
        assert report.samples == 1


class TestLiftsAreShared:
    """Each lift forms each normal-bundle field it reads once, and no other.

    The comparison at tau = 0 is kept by the data: PhysicalData.compared_at
    forms their lift at tau = 0 once and binds it once, however many
    suites run.
    """

    @pytest.mark.parametrize(
        "suite, read",
        [
            (check_identities, ("lap_vt", "mean_sq", "breve_h", "breve_alpha")),
            (check_lemma41, ("lap_vt", "breve_h", "breve_alpha")),
        ],
        ids=["identities", "lemma41"],
    )
    def test_each_normal_bundle_field_read_is_formed_once(self, suite, read, monkeypatch):
        grid = make_grid(32)
        m = oblate_metric(grid)
        formed = count_formed(monkeypatch, Evaluation, NORMAL_BUNDLE)
        assert suite(m, 0.2 * legendre_mode(grid, 1)).passed
        assert {name: len(evs) for name, evs in formed.items()} == {
            name: int(name in read) for name in NORMAL_BUNDLE
        }

    def test_theorem3_forms_lu_once_and_the_breve_frame_on_the_rest_lift_only(self, monkeypatch):
        # Lu belongs to the metric, shared by the rest lift and the family
        # stack; the stack's closed form reads <H, H> alone, and only the
        # data's rest data, formed as minkowski_surface_data forms them,
        # frame the rest lift
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        lu = count_formed(monkeypatch, AxisymMetric, ("lu",))["lu"]
        formed = count_formed(monkeypatch, Evaluation, NORMAL_BUNDLE)
        report = check_theorem3(d)
        assert report.passed
        assert lu == [d.metric]
        rest, family = (grid.n_nodes,), (report.samples * len(chebyshev_s_grid()), grid.n_nodes)
        assert {name: [ev.tau.shape for ev in evs] for name, evs in formed.items()} == {
            "lap_vt": [rest, family],
            "mean_sq": [rest, family],
            "breve_h": [rest],
            "breve_h4": [rest],
            "breve_alpha": [rest],
        }

    def test_suites_lift_the_zero_field_once_and_bind_it_once_per_data(self, monkeypatch):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        m = d.metric
        zero_lifts, bindings = [], []
        evaluation_init = Evaluation.__init__
        binding_init = quasilocal.energy.DataEvaluation.__init__

        def lift(ev, metric, tau):
            evaluation_init(ev, metric, tau)
            if not np.any(ev.tau):
                zero_lifts.append(ev)

        def bind(de, data, ev):
            binding_init(de, data, ev)
            bindings.append((data, ev))

        monkeypatch.setattr(Evaluation, "__init__", lift)
        monkeypatch.setattr(quasilocal.energy.DataEvaluation, "__init__", bind)
        radius = count_formed(monkeypatch, AxisymMetric, ("area_radius",))["area_radius"]

        def theorem1(data):
            return check_theorem1(data, np.zeros(32))

        runs = [theorem1, check_theorem3, theorem1]
        reports = [run(d) for run in runs]
        reference, at_tau0 = d.compared_at(np.zeros(32))
        assert zero_lifts == [reference.lift]
        assert [data for data, ev in bindings if ev is reference.lift] == [d]
        assert at_tau0.ev is reference.lift
        again = d.compared_at(np.zeros(32))
        assert again[0] is reference and again[1] is at_tau0
        assert radius == [m]
        # the rest lift, then per call theorem1's two sample stacks (on d
        # and on the rest data) and theorem3's family and s = 1 rows
        assert len(bindings) == 1 + 2 + 2 + 2
        # other data on the same metric keep their own comparison at tau = 0
        other = PhysicalData(metric=m, norm_H=d.norm_H, alpha_H=d.alpha_H)
        assert format_report(check_theorem3(other)) == format_report(reports[1])
        assert zero_lifts == [reference.lift, other.compared_at(np.zeros(32))[0].lift]
        for run, report in zip(runs, reports):
            fresh = schwarzschild_sphere(grid, 1.0, 4.0)
            assert format_report(report) == format_report(run(fresh))

    def test_each_comparison_suite_reaches_sigma_0_through_compared_at_once(self, monkeypatch):
        d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
        calls = []
        compared_at = PhysicalData.compared_at

        def counting(data, tau0):
            calls.append((data, np.asarray(tau0).tobytes()))
            return compared_at(data, tau0)

        monkeypatch.setattr(PhysicalData, "compared_at", counting)
        zero = np.zeros(32).tobytes()
        assert check_theorem1(d, np.zeros(32)).passed
        assert calls == [(d, zero)]
        assert check_theorem3(d).passed
        assert calls == [(d, zero), (d, zero)]

    def test_a_metric_is_freed_by_reference_counting_once_both_suites_ran_on_its_data(self):
        # nothing the suites keep refers back to the data or the metric, so
        # no cycle waits for the garbage collector
        gc.disable()
        try:
            d = schwarzschild_sphere(make_grid(32), 1.0, 4.0)
            assert check_theorem1(d, np.zeros(32)).passed and check_theorem3(d).passed
            metric = weakref.ref(d.metric)
            del d
            assert metric() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_minkowski_surface_data_lifts_anew_as_the_rest_data_do(self, zero):
        # the rest data are kept for the suites alone: every other caller
        # owns its data, lift and bound arrays, with the same bits
        grid = make_grid(32)
        m = oblate_metric(grid)
        d = minkowski_surface_data(m, 0.2 * grid.x)
        rest = d.compared_at(np.zeros(32))[0]
        data = minkowski_surface_data(m, np.full(32, zero))
        assert data is not rest and data.lift is not rest.lift
        assert np.signbit(data.lift.tau).all() == np.signbit(zero)
        for name in ("norm_H", "alpha_H"):
            assert getattr(data, name).tobytes() == getattr(rest, name).tobytes()
        field = quasilocal.energy.residual
        assert field(data, np.zeros(32)).tobytes() == field(rest, np.zeros(32)).tobytes()
        assert d.compared_at(np.zeros(32))[0] is rest

    @pytest.mark.parametrize("signs", ["all", "one"])
    def test_compared_at_lifts_a_negative_zero_anew(self, signs):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau0 = np.zeros(32)
        if signs == "all":
            tau0[:] = -0.0
        else:
            tau0[7] = -0.0
        reference, at_tau0 = d.compared_at(tau0)
        rest, at_rest = d.compared_at(np.zeros(32))
        assert reference is not rest and reference.lift is not rest.lift
        assert at_tau0 is not at_rest and at_tau0.ev is reference.lift
        assert reference.lift.tau.tobytes() == tau0.tobytes()
        assert at_tau0.energy.total == at_rest.energy.total
        assert at_tau0.residual.tobytes() == at_rest.residual.tobytes()
        assert d.compared_at(tau0)[0] is not reference

    def test_writes_into_a_callers_zero_lift_leave_the_suites_alone(self):
        grid = make_grid(32)
        m = oblate_metric(grid)
        d = minkowski_surface_data(m, np.zeros(32))

        def reports():
            return [format_report(check_theorem1(d, np.zeros(32))), format_report(check_theorem3(d))]

        expected = reports()
        data = minkowski_surface_data(m, np.zeros(32))
        quasilocal.energy.residual(data, np.zeros(32))[:] = 1.0
        data.lift.mean_sq[:] = -1.0
        # the suites' data own their zero lift too, and compare with the
        # rest data that compared_at keeps
        quasilocal.energy.residual(d, np.zeros(32))[:] = 1.0
        d.lift.mean_sq[:] = -1.0
        assert reports() == expected

    def test_rest_data_are_read_only(self):
        grid = make_grid(32)
        d = minkowski_surface_data(oblate_metric(grid), 0.2 * grid.x)
        rest = d.compared_at(np.zeros(32))[0]
        for name in ("norm_H", "alpha_H"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(rest, name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rest.lift.tau[0] = 1.0


class TestTheorem3SharesEachSample:
    def test_one_lift_per_time_function(self, monkeypatch):
        # the rest profile, then every sample's s-family as one stack, whose
        # s = 1 rows also serve the monotonicity energies
        grid = make_grid(32)
        rows = []
        original = quasilocal.embedding.embed_r3

        def counting(m):
            rows.append(np.atleast_2d(m.P).shape[0])
            return original(m)

        monkeypatch.setattr(quasilocal.embedding, "embed_r3", counting)
        report = check_theorem3(schwarzschild_sphere(grid, 1.0, 4.0))
        assert report.passed
        assert rows == [1, report.samples * len(chebyshev_s_grid())]


class TestEachTimeFunctionIsEvaluatedOnce:
    def test_theorem1_derives_each_time_function_once(self, monkeypatch):
        # tau0, then the 36 box samples and the equality case tau0 + 3r as
        # one stack that serves the guard and the energies; an Evaluation
        # forms tau_x and tau_theta as it is constructed
        grid = make_grid(32)
        evaluations = count_constructed(monkeypatch, Evaluation)
        assert check_theorem1(schwarzschild_sphere(grid, 1.0, 4.0), np.zeros(32)).passed
        assert sum(len(np.atleast_2d(ev.tau)) for ev in evaluations) == 38

    def test_theorem3_derives_each_time_function_once(self, monkeypatch):
        # the rest profile (lifted by d.compared_at), then the 3 profiles'
        # s-families as one stack: the profiles themselves are admitted and
        # differentiated, never lifted as a stack of their own
        grid = make_grid(32)
        evaluations = count_constructed(monkeypatch, Evaluation)
        assert check_theorem3(schwarzschild_sphere(grid, 1.0, 4.0)).passed
        assert [len(np.atleast_2d(ev.tau)) for ev in evaluations] == [1, 3 * len(chebyshev_s_grid())]

    def test_theorem3_evaluates_the_physical_energy_at_s_1_only(self, monkeypatch):
        # the rest profile (bound by d.compared_at), then the s = 1 row of each of the 3 families
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        formed = count_formed(monkeypatch, quasilocal.energy.DataEvaluation, ("energy",))["energy"]
        assert check_theorem3(d).passed
        rows = [len(np.atleast_2d(bound.ev.tau)) for bound in formed if bound.norm_H is d.norm_H]
        assert sum(rows) == 4


def energy_gaps(d, tau0):
    """E(Sigma, tau) - E(Sigma, tau0) - E(Sigma_tau0, tau) from whole energies, row by row.

    tau runs over theorem1's default samples, admitted by the guard as it
    admits them, and then its equality case tau0 + 3r.  Returns the gaps
    and the largest |term| that enters them.
    """
    m = d.metric
    reference = minkowski_surface_data(m, tau0)
    energy_tau0 = qle(d, reference.lift).total
    samples = reference.lift.tau + coefficient_box(m.grid)
    members = evaluate(m, np.concatenate([samples, [reference.lift.tau + 3.0 * m.area_radius]]))
    keep = convexity_guard(m, members) > 0.0
    keep[-1] = True
    trial = members.rows(keep)
    on_d, on_reference = qle(d, trial), qle(reference, trial)
    terms = [on_d.reference_term, on_d.physical_term, on_reference.physical_term, energy_tau0]
    return on_d.total - energy_tau0 - on_reference.total, max(np.max(np.abs(t)) for t in terms)


class TestTheorem1GapIsADifferenceOfPhysicalTerms:
    """The energies at tau share their reference term, which theorem1 never forms on its samples."""

    @staticmethod
    def reported(report):
        return outcome(report, "gap").margin, detail(report, "largest-gap"), outcome(report, "equality").margin

    @staticmethod
    def expected(gaps):
        return float(np.min(gaps[:-1])), float(np.max(gaps[:-1])), -abs(float(gaps[-1]))

    @pytest.mark.parametrize("case", ["rest", "lift"])
    def test_reference_term_is_formed_on_the_tau0_lift_only(self, case, monkeypatch):
        grid = make_grid(32)
        if case == "rest":
            d, tau0 = schwarzschild_sphere(grid, 1.0, 4.0), np.zeros(32)
        else:
            tau0 = 0.2 * grid.x
            d = minkowski_surface_data(oblate_metric(grid), tau0)
        references = count_formed(monkeypatch, Evaluation, ("reference",))["reference"]
        curvatures = count_formed(monkeypatch, AxisymMetric, ("mean_curvature",))["mean_curvature"]
        check_theorem1(d, tau0)
        assert [ev.tau.tobytes() for ev in references] == [tau0.tobytes()]
        if case == "rest":
            assert references == [d.compared_at(tau0)[0].lift]
        assert curvatures == [references[0].projected]

    @pytest.mark.parametrize("mass, radius", [(1.0, 4.0), (0.0, 1.0)], ids=["schwarzschild", "flat"])
    def test_gaps_are_the_energy_differences_to_the_bit_on_the_pinned_data(self, mass, radius):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, mass, radius)
        gaps, _ = energy_gaps(d, np.zeros(32))
        assert self.reported(check_theorem1(d, np.zeros(32))) == self.expected(gaps)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gaps_are_the_energy_differences_on_lift_data(self, seed):
        grid = make_grid(32)
        rng = np.random.default_rng(seed)
        m = regular_random_metric(grid, rng)
        d = minkowski_surface_data(m, random_time_profile(grid, rng))
        tau0 = random_time_profile(grid, rng)
        gaps, largest = energy_gaps(d, tau0)
        tolerance = 16.0 * np.finfo(float).eps * largest
        for got, want in zip(self.reported(check_theorem1(d, tau0)), self.expected(gaps)):
            assert abs(got - want) <= tolerance

    def test_samples_that_do_not_embed_still_raise(self, monkeypatch):
        # the gap reads no projection, so the suite reads it to admit the samples
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        original = quasilocal.embedding.embed_r3

        def refusing_stacks(m):
            if m.P.ndim == 2:
                raise NonEmbeddableError(3, float(grid.nodes[3]), -1.0, row=0)
            return original(m)

        monkeypatch.setattr(quasilocal.embedding, "embed_r3", refusing_stacks)
        with pytest.raises(NonEmbeddableError, match="at row 0, node 3"):
            check_theorem1(d, np.zeros(32))


class TestDefaultFamiliesAreGridConstants:
    """The default sample families are built once per grid, read-only, and sample as given rows do."""

    @staticmethod
    def data(grid):
        return {
            "schwarzschild": (schwarzschild_sphere(grid, 1.0, 4.0), np.zeros(grid.n_nodes)),
            "lift": (minkowski_surface_data(round_sphere(grid), 0.2 * grid.x), 0.2 * grid.x),
        }

    @pytest.mark.parametrize("n", [16, 32])
    def test_default_reports_equal_the_explicit_rows(self, n):
        grid = make_grid(n)
        for d, tau0 in self.data(grid).values():
            given = tuple(tau0 + f for f in coefficient_box(grid))
            assert format_report(check_theorem1(d, tau0)) == format_report(
                check_theorem1(d, tau0, tau_samples=given)
            )
            profiles = tuple(_default_profiles(grid))
            assert format_report(check_theorem3(d)) == format_report(check_theorem3(d, tau_samples=profiles))

    def test_families_keep_their_bits(self):
        # sha256 of the n = 32 stacks: the families' rows keep their bits
        # whichever synthesis path forms them
        grid = make_grid(32)
        digest = {
            coefficient_box: "6256c110539b113987c7a88d6352dbe7bef3a2255b0bdd9e0ae8a06e1c3bae30",
            _default_profiles: "373fc43bdd8a5cc4b6804a8f728635da62719a66884b9fafebc0e721c9f24c5a",
        }
        for family, expected in digest.items():
            assert hashlib.sha256(family(grid).tobytes()).hexdigest() == expected

    @pytest.mark.parametrize("n", [4, 5, 16])
    @pytest.mark.parametrize("family", [coefficient_box, _default_profiles])
    def test_families_carry_only_resolved_modes(self, family, n):
        grid = make_grid(n)
        for row in family(grid):
            beyond = grid.legendre_coeffs(row)[grid.highest_mode + 1 :]
            assert np.max(np.abs(beyond)) <= 1e-14, beyond

    def test_theorem3_on_four_nodes_samples_two_profiles(self):
        # 0.1 P2 + 0.05 P3 carries P3 = P_{n-1}, which 4 nodes do not resolve
        report = check_theorem3(schwarzschild_sphere(make_grid(4), 1.0, 4.0))
        assert report.samples == 2

    @pytest.mark.parametrize("family", [coefficient_box, _default_profiles])
    def test_family_is_shared_and_read_only(self, family):
        grid = make_grid(16)
        stack = family(grid)
        assert family(grid) is stack
        assert family(make_grid(32)).shape == (len(stack), 32)
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0

    def test_s_grid_is_shared_and_read_only(self):
        s = chebyshev_s_grid()
        assert chebyshev_s_grid() is s
        with pytest.raises(ValueError):
            s[0] = 1.0

    def test_second_suite_run_synthesizes_nothing(self, monkeypatch):
        grid = make_grid(32)
        d, tau0 = self.data(grid)["schwarzschild"]
        check_theorem1(d, tau0)
        check_theorem3(d)
        calls = []
        original = Grid.time_function

        def counting(self, coeffs):
            calls.append(None)
            return original(self, coeffs)

        monkeypatch.setattr(Grid, "time_function", counting)
        assert check_theorem1(d, tau0).passed
        assert check_theorem3(d).passed
        assert calls == []


class TestWorstSample:
    def test_theorem1_names_the_sample_that_set_the_gap(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        samples = [0.5 * grid.x, 0.05 * grid.x, 0.2 * grid.x]
        report = check_theorem1(d, np.zeros(32), tau_samples=samples)
        worst = int(detail(report, "worst-gap-sample"))
        alone = check_theorem1(d, np.zeros(32), tau_samples=[samples[worst]])
        assert outcome(alone, "gap").margin == pytest.approx(outcome(report, "gap").margin, abs=1e-12)
        assert worst == 1  # the smallest excursion has the smallest gap

    def test_theorem3_names_the_sample_that_set_the_ode_margin(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        # F(s) grows like a s^2, so the ode margin, about 0.02 a, is least
        # for the smallest profile
        samples = [a * legendre_mode(grid, 2) for a in (0.1, 0.05, 0.2)]
        report = check_theorem3(d, tau_samples=samples)
        assert detail(report, "worst-ode-sample") == 1.0
        alone = check_theorem3(d, tau_samples=[samples[1]])
        assert outcome(report, "ode").margin > 1e-4
        assert outcome(alone, "ode").margin == pytest.approx(outcome(report, "ode").margin, rel=1e-6)

    def test_index_counts_skipped_samples(self):
        # a sample failing the guard keeps its place in tau_samples
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem1(d, np.zeros(32), tau_samples=[3.0 * legendre_mode(grid, 4), 0.2 * grid.x])
        assert detail(report, "skipped-samples") == 1.0
        assert detail(report, "worst-gap-sample") == 1.0

    def test_theorem3_skipped_sample_leaves_the_admitted_family(self):
        # the admitted rows keep the derivatives the guard computed
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        good = 0.1 * legendre_mode(grid, 2)
        report = check_theorem3(d, tau_samples=[3.0 * legendre_mode(grid, 4), good])
        alone = check_theorem3(d, tau_samples=[good])
        assert detail(report, "skipped-samples") == 1.0
        assert detail(report, "worst-ode-sample") == 1.0
        for label in ("zero-derivative", "ode", "positivity", "reference-derivative"):
            assert outcome(report, label).margin == pytest.approx(outcome(alone, label).margin, abs=1e-12)

    def test_no_admitted_sample_gives_minus_one(self):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        bad = [3.0 * legendre_mode(grid, 4)]
        assert detail(check_theorem1(d, np.zeros(32), tau_samples=bad), "worst-gap-sample") == -1.0
        assert detail(check_theorem3(d, tau_samples=bad), "worst-ode-sample") == -1.0


class TestScaleInvariantAllowances:
    """Every allowance is c r^p, r = sqrt(area / 4 pi) and p the length dimension of its quantity."""

    @staticmethod
    def reports(mass, radius, scale=1.0):
        # time functions are lengths too: the samples scale with the sphere
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, mass, radius)
        box = [scale * f for f in coefficient_box(grid)]
        profiles = [scale * p for p in (0.3 * grid.x, 0.1 * legendre_mode(grid, 2))]
        return {
            "theorem1": check_theorem1(d, np.zeros(32), tau_samples=box),
            "theorem3": check_theorem3(d, tau_samples=profiles),
        }

    def test_both_suites_pass_at_radius_1e4(self):
        for name, report in self.reports(0.1, 1e4).items():
            assert report.passed, name

    def test_both_suites_pass_at_radius_1e8(self):
        # |H0| - |H| is 2e-17 and the guard's K = 1/r^2 is 1e-16 here: they
        # clear floors of 1e-9 r^-1 and 1e-9 r^-2, as they do on the unit sphere
        for name, report in self.reports(0.1, 1e8).items():
            assert report.passed, name

    @pytest.mark.parametrize("radius", [1e-3, 1e4, 1e8])
    def test_allowances_scale_as_their_quantities(self, radius):
        # the quadrature radius equals the sphere's radius only to rounding
        unit = self.reports(0.025, 1.0)
        for name, report in self.reports(0.025 * radius, radius, radius).items():
            for c, c_unit in zip(report.checks, unit[name].checks):
                want = c_unit.allowance * radius ** DIMENSION[c.label]
                assert c.allowance == pytest.approx(want, rel=1e-14), (name, c.label)

    @pytest.mark.parametrize("scale", [1e-3, 1e4, 1e8])
    def test_rescaled_sphere_keeps_its_check_flags(self, scale):
        reference = self.reports(0.5, 4.0)
        for name, report in self.reports(0.5 * scale, 4.0 * scale, scale).items():
            assert [c.ok for c in report.checks] == [c.ok for c in reference[name].checks], name

    def test_flat_sphere_still_fails_the_strict_hypothesis(self):
        for name, report in self.reports(0.0, 1e4).items():
            assert not outcome(report, "mean-curvature-gap").ok, name


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

    @pytest.mark.parametrize("scale", [0.0, 0.2])
    def test_criticality_is_the_residual_norm_at_tau0(self, scale):
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        tau0 = scale * legendre_mode(grid, 2)
        report = check_theorem1(d, tau0)
        assert outcome(report, "criticality").margin == -d.compared_at(tau0)[1].residual_norm

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

    def test_tau0_of_another_grid_is_named(self):
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        with pytest.raises(FieldShapeError, match="tau0"):
            check_theorem1(d, np.zeros(15))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_tau0_is_rejected_as_the_cli_does(self, value):
        d = schwarzschild_sphere(make_grid(16), 1.0, 4.0)
        with pytest.raises(InvalidParameterError, match="^tau must be finite"):
            check_theorem1(d, np.full(16, value))

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
            alpha_H=0.01 * grid.sin_theta,
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
        assert outcome(report, "zero-value").margin >= -1e-10

    def test_a_small_sphere_fails_the_reference_derivative_without_nan(self):
        # from r = 1e-8 down the closed form's radicand rounds negative: sqrt warned, margin nan
        report = check_theorem3(schwarzschild_sphere(make_grid(32), 0.0, 1e-8))
        assert not report.passed
        assert outcome(report, "reference-derivative").margin == -math.inf

    def test_s_grid_endpoints(self):
        s = chebyshev_s_grid()
        assert s.shape == (33,)
        assert s[0] == 0.0
        assert abs(s[-1] - 1.0) < 1e-15
        assert np.all(np.diff(s) > 0)

    def test_no_sample_fails_positivity(self):
        # as theorem1's gap does: an empty sample set certifies nothing
        grid = make_grid(32)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        report = check_theorem3(d, tau_samples=[])
        assert report.samples == 0
        assert not report.passed
        assert report.worst.label == "positivity"
        assert outcome(report, "positivity").margin == -math.inf
        assert not check_theorem1(d, np.zeros(32), tau_samples=[]).passed

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_first_variation_matches_the_spectral_s_derivative(self, n):
        # F(s) = E(rest, s tau) and its reference term G(s) on the default
        # profiles, as check_theorem3 pairs them: each member with its own
        # profile.  The Chebyshev route agreed to 4e-12 to 8e-11 (|F'| up
        # to 0.14, |G'| up to 0.19) and read up to 4e-11 at s = 0
        grid = make_grid(n)
        m = schwarzschild_sphere(grid, 1.0, 4.0).metric
        rest = minkowski_surface_data(m, np.zeros(n))
        s = chebyshev_s_grid()
        for tau in _default_profiles(grid):
            family = rest.evaluate(s[:, None] * tau)
            slope, reference_slope = (
                v[:, 0] for v in family.first_variation(tau[:, None], grid.dx(tau)[:, None])
            )
            assert slope[0] == 0.0
            assert np.max(np.abs(slope - spectral_s_derivative(family.energy.total))) <= 2e-10
            assert np.max(np.abs(reference_slope - spectral_s_derivative(family.ev.reference))) <= 2e-10

    def test_report_serialization_round_trip_stability(self):
        grid = make_grid(16)
        d = schwarzschild_sphere(grid, 1.0, 4.0)
        first = format_report(check_theorem3(d, tau_samples=[0.2 * grid.x]))
        second = format_report(check_theorem3(d, tau_samples=[0.2 * grid.x]))
        assert first == second
