import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ringflow.optimize as optimize
import ringflow.series as series
from ringflow import (Band, InfeasibleConstraint, InvalidParameter,
                      NegativeWithdrawalWarning, NoExtremum, OutOfDomain,
                      SafetyThresholds, SeriesOptions, WithdrawalModel,
                      WithdrawalSchedule, admissible_table, build_report,
                      classify_pressure_drop, drawdown_table,
                      find_coupling_point, invert_withdrawal,
                      max_admissible_withdrawal, pressure_at_coupling,
                      tap_pressure)
import bisect_reference as reference
from bisect_reference import bisect_root
from test_properties import options, rings, schedules


def no_kernel(*args, **kwargs):
    raise AssertionError("the field was evaluated")


class TestFindCouplingPoint:
    def test_reference_time_brackets_published_claim(self, cfg, schedule):
        point = find_coupling_point(100.0, schedule, cfg)
        assert 12000.0 < point.position_m < 13000.0
        assert point.position_m == pytest.approx(12675.5, abs=1.0)
        assert point.pressure_pa > 125000.0
        assert point.time_s == 100.0

    def test_large_time_limit(self, cfg, empty_schedule):
        # base gradient zero of the saturated field: L*(1 - 1/sqrt(3))
        point = find_coupling_point(1e9, empty_schedule, cfg)
        expected = cfg.length_m * (1.0 - 1.0 / math.sqrt(3.0))
        assert point.position_m == pytest.approx(expected, abs=1.0)

    @pytest.mark.parametrize("step", [50.0, 100.0, 500.0])
    def test_grid_step_invariance(self, cfg, schedule, step):
        reference = find_coupling_point(100.0, schedule, cfg).position_m
        got = find_coupling_point(100.0, schedule, cfg,
                                  grid_step=step).position_m
        assert abs(got - reference) <= 0.5

    def test_position_invariant_under_base_flow_scaling(self, cfg, schedule):
        # G0 scales the base gradient uniformly; its zero cannot move
        from ringflow import PipelineConfig
        scaled = PipelineConfig(cfg.length_m, cfg.sound_speed_m_s,
                                cfg.linearization_a, 200000.0, 20.0)
        a = find_coupling_point(100.0, schedule, cfg).position_m
        b = find_coupling_point(100.0, schedule, scaled).position_m
        assert abs(a - b) <= 0.5

    def test_t0_has_no_extremum(self, cfg, schedule):
        with pytest.raises(NoExtremum):
            find_coupling_point(0.0, schedule, cfg)

    def test_negative_time_rejected(self, cfg, schedule):
        with pytest.raises(OutOfDomain):
            find_coupling_point(-5.0, schedule, cfg)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, cfg, schedule, t):
        with pytest.raises(OutOfDomain):
            find_coupling_point(t, schedule, cfg)

    @pytest.mark.parametrize("step", [0.0, -10.0, 30000.0, math.nan])
    def test_bad_grid_step_rejected(self, cfg, schedule, step):
        with pytest.raises(InvalidParameter):
            find_coupling_point(100.0, schedule, cfg, grid_step=step)

    def test_scan_step_cap(self, cfg, schedule, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_SCAN_STEPS", 300)
        assert find_coupling_point(100.0, schedule, cfg, grid_step=100.0)
        monkeypatch.setattr(series, "_gradient", no_kernel)
        with pytest.raises(InvalidParameter, match="more than 300 steps"):
            find_coupling_point(100.0, schedule, cfg, grid_step=99.0)

    @pytest.mark.parametrize("step", [1e-4, 5e-324])
    def test_fine_scan_is_refused_unevaluated(self, cfg, schedule,
                                             monkeypatch, step):
        # 3 * 10^8 grid points, or an infinite count, against 10^5.
        monkeypatch.setattr(series, "_gradient", no_kernel)
        with pytest.raises(InvalidParameter, match="more than 100000 steps"):
            find_coupling_point(100.0, schedule, cfg, grid_step=step)

    def test_loaded_field_scan_reports_both_candidates(self, cfg, schedule):
        # The sink carves a dip at the tap, leaving one maximum per side;
        # the coupling point is the higher one.
        point = find_coupling_point(100.0, schedule, cfg,
                                    include_withdrawals=True)
        roots = reference.crossings(100.0, schedule, cfg,
                                    include_withdrawals=True)
        assert roots == [pytest.approx(8646.15, abs=0.01), point.position_m]
        assert point.position_m == pytest.approx(17068.47, abs=0.01)
        other = series.pressure(roots[0], 100.0, schedule, cfg)
        assert point.pressure_pa >= other

    def test_maximum_before_the_first_grid_step(self):
        # A 5 km heaviside ring early on: the maximum at 870.4 m lies in
        # (0, grid_step), which a scan starting at grid_step never saw.
        from ringflow import DecayMode, PipelineConfig
        cfg = PipelineConfig(5000.0, 341.863091, 0.03808752919,
                             181385.4601, 18.13592994)
        schedule = WithdrawalSchedule.from_pairs([(210.0, 5.316411284)])
        opts = SeriesOptions(decay_mode=DecayMode.A,
                             withdrawal_model=WithdrawalModel.HEAVISIDE)
        coarse = find_coupling_point(1.730769533, schedule, cfg, opts,
                                     grid_step=965.7474513)
        fine = find_coupling_point(1.730769533, schedule, cfg, opts,
                                   grid_step=100.0)
        assert coarse.position_m == pytest.approx(870.43, abs=0.01)
        assert coarse.position_m == pytest.approx(fine.position_m, abs=0.01)

    def test_concavity_stencil_stays_on_the_ring(self):
        # So early and with so many modes, the maximum sits closer to the
        # inlet than the stencil step h = L/3000; the stencil moves inward.
        from ringflow import DecayMode, PipelineConfig
        cfg = PipelineConfig(5000.0, 341.863091, 0.03808752919,
                             181385.4601, 18.13592994)
        opts = SeriesOptions(truncation_n=20000, decay_mode=DecayMode.A)
        point = find_coupling_point(3e-7, WithdrawalSchedule(()), cfg, opts)
        assert 0.0 < point.position_m < cfg.length_m / 3000.0

    @pytest.mark.parametrize("curvature", [2.0, 0.0])
    def test_convex_stencil_is_refused(self, cfg, schedule, monkeypatch,
                                       curvature):
        # The crossing's second difference must be negative: a flat or
        # upward-curved stencil is no maximum.
        monkeypatch.setattr(
            series, "_pressure_field",
            lambda *args: np.array([[125000.0, curvature, 0.0, 0.0]]))
        with pytest.raises(NoExtremum, match=r"^stationary point at "
                           r"1\d{4}\.\d\d m failed the concavity check$"):
            find_coupling_point(100.0, schedule, cfg)


BISECT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
TOLERANCE = optimize.POSITION_TOLERANCE_M

#: Brackets [lo, lo + width] of 0.01-1000 m on a ring of up to 10 km.
brackets = st.tuples(st.floats(0.0, 1e4), st.floats(0.01, 1000.0)).map(
    lambda b: (b[0], b[0] + b[1]))


class Counted:
    """A gradient over positions that counts its calls."""

    def __init__(self, gradient):
        self.gradient, self.calls = gradient, 0

    def __call__(self, xs):
        self.calls += 1
        return self.gradient(np.atleast_1d(np.asarray(xs, dtype=float)))


def assert_same_root(gradient, lo, hi):
    """The tree walk gives the reference root, reading the field once per
    _TREE_DEPTH of the reference's halvings."""
    tree, scalar = Counted(gradient), Counted(gradient)
    got = optimize._bisect_root(tree, lo, hi)
    want = bisect_root(scalar, lo, hi)
    assert got == want and type(got) is float
    assert tree.calls == -(-scalar.calls // optimize._TREE_DEPTH)
    return got


class TestBisectRoot:
    """optimize._bisect_root against the one-point-per-call reference."""

    @BISECT_SETTINGS
    @given(brackets, st.floats(-0.5, 1.5), st.floats(1e-6, 1e6))
    def test_affine_gradient(self, bracket, fraction, slope):
        lo, hi = bracket
        root = lo + fraction * (hi - lo)
        assert_same_root(lambda x: slope * (root - x), lo, hi)

    @BISECT_SETTINGS
    @given(brackets, st.lists(st.booleans(), max_size=20))
    def test_root_on_a_tree_midpoint(self, bracket, path):
        # Walk ``path`` (True: the right half) with the reference's
        # arithmetic; the gradient is exactly 0 at the last midpoint.
        lo, hi = bracket
        root = None
        for right in path + [None]:
            if not hi - lo > TOLERANCE:
                break
            root = 0.5 * (lo + hi)
            if right is not None:
                lo, hi = (root, hi) if right else (lo, root)
        assume(root is not None)
        assert assert_same_root(lambda x: root - x, *bracket) == root

    @BISECT_SETTINGS
    @given(brackets, st.floats(-0.1, 1.1))
    def test_nan_gradient(self, bracket, fraction):
        # NaN beyond ``cut``, everywhere when it lies left of the bracket.
        lo, hi = bracket
        cut = lo + fraction * (hi - lo)
        assert_same_root(
            lambda x: np.where(x > cut, math.nan, 0.5 * (lo + hi) - x),
            lo, hi)

    @BISECT_SETTINGS
    @given(st.floats(0.0, 1e4), st.floats(0.0, TOLERANCE))
    def test_narrow_bracket_reads_nothing(self, lo, width):
        hi = lo + width
        assume(hi - lo <= TOLERANCE)
        assert optimize._bisect_root(no_kernel, lo, hi) \
            == bisect_root(no_kernel, lo, hi) == 0.5 * (lo + hi)

    @BISECT_SETTINGS
    @given(brackets, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_several_crossings(self, bracket, fractions):
        lo, hi = bracket
        roots = [lo + f * (hi - lo) for f in fractions]
        assert_same_root(
            lambda x: np.prod([r - x for r in roots], axis=0), lo, hi)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_coupling_point_equals_the_reference(self, data):
        cfg = data.draw(rings())
        args = (data.draw(st.floats(0.05, 600.0)),
                data.draw(schedules(cfg)), cfg, data.draw(options()))
        kwargs = dict(grid_step=data.draw(st.floats(10.0, 1000.0)),
                      include_withdrawals=data.draw(st.booleans()))

        def outcome():
            try:
                return find_coupling_point(*args, **kwargs)
            except NoExtremum as exc:
                return str(exc)

        got = outcome()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "_bisect_root", bisect_root)
            assert got == outcome()
        if isinstance(got, str):
            return
        # The answer is a crossing of highest pressure.  Its pressure came
        # from a field evaluation of another shape, whose sums may round
        # the last bit otherwise.
        roots = reference.crossings(*args, **kwargs)
        t, schedule, cfg, opts = args
        if not kwargs["include_withdrawals"]:
            schedule = series.EMPTY_SCHEDULE
        pressures = series._pressure_field(roots, t, schedule, cfg, opts)[0]
        highest = pressures[roots.index(got.position_m)]
        assert highest == pressures.max()
        assert got.pressure_pa == pytest.approx(highest, rel=1e-12)


def test_kernel_calls_on_the_reference_scenario(scenario, monkeypatch):
    # A 100 m scan step narrowed to 0.01 m takes 14 halvings: one scan,
    # ceil(14 / 4) tree reads and one concavity stencil.  The loaded field
    # has a tap term in each and two crossings to refine, but still one
    # stencil evaluation.
    calls, kernel = [], series._mode_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(series, "_mode_sum", counted)
    find_coupling_point(100.0, scenario.schedule, scenario.pipeline,
                        scenario.series)
    assert len(calls) <= 6
    calls.clear()
    find_coupling_point(100.0, scenario.schedule, scenario.pipeline,
                        scenario.series, include_withdrawals=True)
    assert len(calls) <= 20
    calls.clear()
    build_report(scenario)
    assert len(calls) <= 12


def test_one_basis_per_evaluation(scenario, monkeypatch):
    # Each call checks its times and builds one mode basis, which all its
    # mode sums share; the report's four evaluations build one each.
    builds, sums = [], []
    basis, kernel = series._basis, series._mode_sum

    def counted_basis(*args):
        builds.append(1)
        return basis(*args)

    def counted_kernel(*args):
        sums.append(1)
        return kernel(*args)

    monkeypatch.setattr(series, "_basis", counted_basis)
    monkeypatch.setattr(series, "_mode_sum", counted_kernel)
    cfg, opts = scenario.pipeline, scenario.series
    tap = scenario.tap_position()
    calls = [
        (lambda: find_coupling_point(100.0, scenario.schedule, cfg, opts),
         1, 6),
        (lambda: series.sample(5000.0, 100.0, scenario.schedule, cfg, opts),
         1, None),
        (lambda: drawdown_table(scenario, (0.0, tap), (50.0, 300.0),
                                (10.0, 11.0)), 1, None),
        (lambda: admissible_table(scenario, (50.0, 300.0), 100000.0),
         1, None),
        (lambda: build_report(scenario), 4, 12),
    ]
    for call, want_builds, want_sums in calls:
        builds.clear()
        sums.clear()
        call()
        assert len(builds) == want_builds
        assert want_sums is None or len(sums) == want_sums


class TestPressureAtCoupling:
    def test_anchor(self, cfg):
        assert pressure_at_coupling(100.0, 2.0, 12000.0, cfg) == \
            pytest.approx(125587.0, abs=2.0)

    @pytest.mark.parametrize("g_new", [0.0, 2.0, 9.5])
    def test_t0_is_nominal(self, cfg, g_new):
        assert pressure_at_coupling(0.0, g_new, 12000.0, cfg) == \
            pytest.approx(125000.0, abs=1e-9)

    def test_strictly_decreasing_in_withdrawal(self, cfg):
        levels = [pressure_at_coupling(100.0, g, 12000.0, cfg)
                  for g in (0.0, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_matches_full_series_at_tap(self, cfg, schedule):
        # cos(0) = 1 specialization must equal the generic field
        from ringflow import pressure
        direct = pressure(12000.0, 150.0, schedule, cfg)
        specialized = tap_pressure(schedule.total(), 150.0, 12000.0, cfg)
        assert specialized == pytest.approx(direct, rel=1e-12)

    def test_domain_checks(self, cfg):
        with pytest.raises(OutOfDomain):
            pressure_at_coupling(100.0, 1.0, 0.0, cfg)
        with pytest.raises(OutOfDomain):
            pressure_at_coupling(-1.0, 1.0, 12000.0, cfg)
        with pytest.raises(InvalidParameter):
            pressure_at_coupling(100.0, -1.0, 12000.0, cfg)


class TestInvertWithdrawal:
    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 5.0, 10.0])
    @pytest.mark.parametrize("t", [50.0, 100.0, 300.0])
    def test_round_trip(self, cfg, g, t):
        target = pressure_at_coupling(t, g, 12000.0, cfg)
        assert invert_withdrawal(target, t, 12000.0, cfg) == \
            pytest.approx(g, rel=1e-9)

    def test_zero_round_trip(self, cfg):
        target = pressure_at_coupling(200.0, 0.0, 9000.0, cfg)
        with warnings.catch_warnings():
            # round-off can land the implied increment at -1e-14
            warnings.simplefilter("ignore", NegativeWithdrawalWarning)
            got = invert_withdrawal(target, 200.0, 9000.0, cfg)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_published_anchor(self, cfg):
        assert invert_withdrawal(125587.0, 100.0, 12000.0, cfg) == \
            pytest.approx(2.0, abs=1e-3)

    def test_negative_result_warns(self, cfg):
        with pytest.warns(NegativeWithdrawalWarning):
            got = invert_withdrawal(140000.0, 100.0, 12000.0, cfg)
        assert got < 0.0

    def test_printed_kernel_differs(self, cfg):
        target = pressure_at_coupling(100.0, 2.0, 12000.0, cfg)
        printed = invert_withdrawal(target, 100.0, 12000.0, cfg,
                                    printed_form=True)
        assert printed != pytest.approx(2.0, rel=1e-3)

    def test_requires_positive_time(self, cfg):
        with pytest.raises(InvalidParameter):
            invert_withdrawal(120000.0, 0.0, 12000.0, cfg)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_requires_finite_time(self, cfg, t):
        with pytest.raises(InvalidParameter):
            invert_withdrawal(120000.0, t, 12000.0, cfg)


class TestMaxAdmissibleWithdrawal:
    def test_reference_anchor(self, cfg):
        got = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0, cfg)
        assert got.total == pytest.approx(18.39, abs=0.05)
        assert got.binding_time_s == pytest.approx(300.0)
        assert not got.cap_binding
        assert got.inlet_pressure_pa == pytest.approx(100000.0, abs=1e-6)

    def test_affine_and_bisection_agree(self, cfg):
        affine = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0,
                                           cfg, method="affine")
        bisect = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0,
                                           cfg, method="bisection")
        assert bisect.total == pytest.approx(affine.total, rel=1e-4)

    def test_bisection_terminates_for_huge_totals(self, cfg):
        # After 2 s the drop has barely reached the inlet: the admissible
        # total (~1e12) is too large for floating point to resolve 1e-6.
        affine = max_admissible_withdrawal(2.0, 100000.0, None, 15000.0, cfg)
        bisect = max_admissible_withdrawal(2.0, 100000.0, None, 15000.0,
                                           cfg, method="bisection")
        assert bisect.total == pytest.approx(affine.total, rel=1e-9)

    def test_floor_at_nominal_means_zero(self, cfg):
        got = max_admissible_withdrawal(300.0, 125000.0, None, 12000.0, cfg)
        assert got.total == pytest.approx(0.0, abs=1e-12)

    def test_cap_binds(self, cfg):
        got = max_admissible_withdrawal(300.0, 100000.0, 5.0, 12000.0, cfg)
        assert got.total == 5.0
        assert got.cap_binding

    def test_infeasible_floor(self, cfg):
        with pytest.raises(InfeasibleConstraint):
            max_admissible_withdrawal(300.0, 130000.0, None, 12000.0, cfg)

    def test_nonincreasing_in_horizon(self, cfg):
        short = max_admissible_withdrawal(100.0, 100000.0, None, 12000.0, cfg)
        long = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0, cfg)
        assert long.total <= short.total

    def test_nondecreasing_in_cap(self, cfg):
        five = max_admissible_withdrawal(300.0, 100000.0, 5.0, 12000.0, cfg)
        ten = max_admissible_withdrawal(300.0, 100000.0, 10.0, 12000.0, cfg)
        free = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0, cfg)
        assert five.total <= ten.total <= free.total

    def test_bad_inputs(self, cfg):
        with pytest.raises(InvalidParameter):
            max_admissible_withdrawal(0.0, 100000.0, None, 12000.0, cfg)
        with pytest.raises(OutOfDomain):
            max_admissible_withdrawal(300.0, 100000.0, None, 30000.0, cfg)
        with pytest.raises(InvalidParameter):
            max_admissible_withdrawal(300.0, 100000.0, -1.0, 12000.0, cfg)
        with pytest.raises(InvalidParameter):
            max_admissible_withdrawal(300.0, 100000.0, None, 12000.0, cfg,
                                      method="newton")

    @pytest.mark.parametrize("horizon,p_min", [
        (math.nan, 100000.0), (math.inf, 100000.0),
        (300.0, math.nan), (300.0, -math.inf)])
    def test_rejects_non_finite(self, cfg, horizon, p_min):
        with pytest.raises(InvalidParameter, match="finite"):
            max_admissible_withdrawal(horizon, p_min, None, 12000.0, cfg)

    def test_nan_cap_rejected(self, cfg):
        # NaN passed a g_max < 0 check and meant "no cap".
        with pytest.raises(InvalidParameter, match="g_max"):
            max_admissible_withdrawal(300.0, 100000.0, math.nan, 12000.0,
                                      cfg)

    def test_heaviside_uses_point_mode_drop(self, cfg):
        heaviside = SeriesOptions(withdrawal_model=WithdrawalModel.HEAVISIDE)
        got = max_admissible_withdrawal(300.0, 100000.0, None, 12000.0, cfg,
                                        heaviside)
        assert got == max_admissible_withdrawal(300.0, 100000.0, None,
                                                12000.0, cfg)


def draw_outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as exc:          # compared by class and message
        return type(exc), str(exc)


def assert_same_draw(*args, **kwargs):
    """The bisection gives the reference's AdmissibleWithdrawal, every
    float the same (repr tells -0.0 and NaN apart), or the same error."""
    kwargs["method"] = "bisection"
    got = draw_outcome(max_admissible_withdrawal, *args, **kwargs)
    want = draw_outcome(reference.max_admissible_withdrawal, *args, **kwargs)
    if isinstance(want, optimize.AdmissibleWithdrawal):
        assert got.total == want.total and type(got.total) is float
    assert repr(got) == repr(want)


@st.composite
def drop_vectors(draw):
    """TIME_SAMPLES per-unit drops: piecewise linear through 2-8 knots,
    rising and falling, some negative; sorted; near-flat, wobbling inside
    the monotone check's 1e-9 tolerance; or with one NaN."""
    n = optimize.TIME_SAMPLES
    knots = draw(st.lists(st.floats(-1e3, 1e6), min_size=2, max_size=8))
    drops = np.interp(np.linspace(0.0, 1.0, n),
                      np.linspace(0.0, 1.0, len(knots)), knots)
    shape = draw(st.sampled_from(("knots", "sorted", "near-flat", "nan")))
    if shape == "sorted":
        drops = np.sort(drops)
    elif shape == "near-flat":
        wobble = draw(st.floats(1e-13, 1e-8)) * np.sin(
            draw(st.floats(0.1, 3.0)) * np.arange(n))
        drops = draw(st.floats(1e-3, 1e6)) * (1.0 + wobble)
    elif shape == "nan":
        drops[draw(st.integers(0, n - 1))] = math.nan
    return drops


caps = st.none() | st.floats(0.0, 1e3) | st.just(math.inf)


class TestAdmissibleBisection:
    """method="bisection" against the reference, which tests every drop."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_random_rings_equal_the_reference(self, data):
        cfg = data.draw(rings())
        # Floors from 0 to just above nominal (infeasible).
        assert_same_draw(
            data.draw(st.floats(0.5, 1000.0)),
            cfg.nominal_pressure() * data.draw(st.floats(0.0, 1.01)),
            data.draw(caps), cfg.length_m * data.draw(st.floats(0.01, 0.99)),
            cfg, data.draw(options()))

    @BISECT_SETTINGS
    @given(drop_vectors(), st.floats(0.0, 1.0), caps)
    def test_drop_vectors_equal_the_reference(self, cfg, drops, fraction,
                                              cap):
        # The drops go straight to both searches.  A NaN drop is always
        # the binding one, so its bracket is NaN and neither loop runs.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series, "_unit_drop", lambda *args: drops[:, None])
            assert_same_draw(300.0, cfg.nominal_pressure() * fraction, cap,
                             12000.0, cfg)

    @BISECT_SETTINGS
    @given(drop_vectors(), st.floats(0.0, 1e12), st.floats(-1e6, 1e6))
    def test_largest_drop_decides_feasibility(self, drops, g, floor):
        # The loop's one-float test against the reference's test of every
        # drop, NaN drops included, at any g >= 0.
        nominal = 125000.0
        assert (nominal - g * float(drops.max()) >= floor) \
            == bool(np.all(nominal - g * drops >= floor))


class TestClassifyPressureDrop:
    @pytest.mark.parametrize("drop,band", [
        (0.08, Band.OPTIMAL),
        (0.10, Band.OPTIMAL),
        (0.15, Band.PERMISSIBLE),
        (0.20, Band.PERMISSIBLE),
        (0.22, Band.CAUTION),
        (0.25, Band.CAUTION),
        (0.30, Band.UNSAFE),
        (-0.05, Band.OPTIMAL),
    ])
    def test_bands(self, drop, band):
        got = classify_pressure_drop(125000.0, 125000.0 * (1.0 - drop))
        assert got.band is band
        assert got.drop_fraction == pytest.approx(drop)

    def test_monotone_in_drop(self):
        order = [Band.OPTIMAL, Band.PERMISSIBLE, Band.CAUTION, Band.UNSAFE]
        last = 0
        for drop in [x / 100.0 for x in range(-10, 41)]:
            band = classify_pressure_drop(
                125000.0, 125000.0 * (1.0 - drop)).band
            index = order.index(band)
            assert index >= last
            last = index

    def test_custom_thresholds(self):
        tight = SafetyThresholds(0.05, 0.08, 0.12)
        assert classify_pressure_drop(100000.0, 93000.0, tight).band is \
            Band.PERMISSIBLE

    def test_requires_positive_nominal(self):
        with pytest.raises(InvalidParameter):
            classify_pressure_drop(0.0, 100.0)

    @pytest.mark.parametrize("nominal,current", [
        (math.nan, 100.0), (math.inf, 100.0), (125000.0, math.nan),
        (125000.0, math.inf), (125000.0, -math.inf)])
    def test_rejects_non_finite_pressures(self, nominal, current):
        with pytest.raises(InvalidParameter, match="must be finite"):
            classify_pressure_drop(nominal, current)
