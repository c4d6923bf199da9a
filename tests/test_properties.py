"""Property tests of the (times x positions) field kernel.

Random rings, withdrawal schedules, series options, positions and times:
every array cell matches its scalar wrapper, t = 0 rows are exactly zero,
the heaviside gate acts identically on both paths, the mode sums from
complex powers stay within N*eps*sum|w_n| of the trig matrix's and of a
long double reference for 4 to 10^5 modes, and the withdrawal
inversion round-trips in both decay modes.  Each single path is checked
against the rule it implements: drawdown cells are one-tap point-mode
pressures, admissible rows are tap pressures, the oracle comparison
equals a per-snapshot recomputation, the regularized gradient is exactly
0 at every tap, and both inlet-floor consumers reject the same inputs
alike.  The callers that share one mode basis between several fields
(``sample`` and the drawdown and admissible tables) equal those fields
evaluated one by one, bit for bit.  The inlet drop never falls in time in
decay mode alpha, and does in mode a beyond alpha.  The accelerated
route's adaptive truncation (N_eff) gives the full-truncation field.  In
point mode the model's own invariants hold on random rings: ring closure
P(0, t) == P(L, t) exactly, a field affine in the rates (its withdrawal
response linear), and a one-tap response symmetric about its tap; the
acceptance tests check them on the reference ring.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringflow.series as series
from ringflow import (DecayMode, GradientMode, InvalidParameter,
                      NegativeWithdrawalWarning, OracleGrid, PipelineConfig,
                      RingflowError, SafetyThresholds, Scenario,
                      SeriesOptions, WithdrawalModel, WithdrawalSchedule,
                      admissible_table, compare_with_series, drawdown_table,
                      gradient_table, invert_withdrawal,
                      max_admissible_withdrawal, pressure_at_coupling,
                      pressure_gradient, simulate, tap_pressure)
from ringflow.optimize import TIME_SAMPLES, _inlet_floor
from ringflow.oracle import comparison_mask

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def rings(draw, length=None):
    length = length or draw(st.floats(5000.0, 60000.0))
    a = draw(st.floats(0.01, 0.2))
    base_flow = draw(st.floats(0.0, 20.0))
    return PipelineConfig(
        length_m=length,
        sound_speed_m_s=draw(st.floats(300.0, 420.0)),
        linearization_a=a,
        inlet_pressure_pa=a * base_flow * length
        + draw(st.floats(5.0e4, 2.0e5)),
        base_flow=base_flow)


@st.composite
def schedules(draw, cfg):
    fractions = draw(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=3,
                              unique=True))
    positions = sorted({f * cfg.length_m for f in fractions})
    return WithdrawalSchedule.from_pairs(
        (x, draw(st.floats(0.0, 20.0))) for x in positions)


def options(**fixed):
    values = dict(
        truncation_n=st.integers(1, 100),
        decay_mode=st.sampled_from(DecayMode),
        withdrawal_model=st.sampled_from(WithdrawalModel),
        gradient_mode=st.sampled_from(GradientMode),
        closed_form_acceleration=st.booleans())
    values.update({k: st.just(v) for k, v in fixed.items()})
    return st.builds(SeriesOptions, **values)


times = st.lists(st.one_of(st.just(0.0), st.floats(0.01, 600.0)),
                 min_size=1, max_size=4)


@st.composite
def problems(draw, max_positions, **fixed):
    cfg = draw(rings())
    schedule = draw(schedules(cfg))
    fractions = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        min_size=1, max_size=max_positions))
    taps = [p.position_m for p in schedule.points]
    xs = [f * cfg.length_m for f in fractions] + taps[:1]
    return cfg, schedule, draw(options(**fixed)), np.array(xs), draw(times)


def scales(cfg, schedule, ts):
    """Magnitudes of the pressure, response and gradient terms."""
    total = schedule.total()
    c_sq = cfg.sound_speed_m_s**2
    response = total * (c_sq * max(ts) / cfg.length_m
                        + 2.0 * c_sq / (cfg.length_m * cfg.alpha()))
    gradient = (cfg.linearization_a * cfg.base_flow * math.pi**2
                + 4.0 * math.pi * c_sq * total
                / (cfg.length_m**2 * cfg.alpha()))
    return cfg.inlet_pressure_pa + response, response, gradient


@SETTINGS
@given(problems(max_positions=12))
def test_array_cells_match_scalar_wrappers(problem):
    cfg, schedule, opts, xs, ts = problem
    p_scale, r_scale, g_scale = scales(cfg, schedule, ts)
    field = series._pressure_field(xs, ts, schedule, cfg, opts)
    response = series._response_kernel(xs, ts, schedule, cfg, opts)
    gradient = series._gradient(xs, ts, schedule, cfg, opts)
    assert field.shape == response.shape == gradient.shape \
        == (len(ts), len(xs))
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            assert abs(field[i, j] - series.pressure(
                x, t, schedule, cfg, opts)) <= 1e-12 * p_scale
            assert abs(response[i, j] - series.withdrawal_response(
                x, t, schedule, cfg, opts)) <= 1e-12 * r_scale
            assert abs(gradient[i, j] - series.continuous_gradient(
                x, t, schedule, cfg, opts)) <= 1e-12 * g_scale


@SETTINGS
@given(problems(max_positions=200), st.integers(1, 3))
def test_t0_rows_are_exactly_zero(problem, power):
    cfg, schedule, opts, xs, ts = problem
    ts = ts + [0.0]
    zero = np.array(ts) == 0.0
    theta = 2.0 * math.pi * xs / cfg.length_m
    basis = series._basis(ts, opts.decay_rate(cfg), opts)
    sums = series._mode_sum(theta, basis, opts, power)
    assert np.all(sums[zero] == 0.0)
    assert np.all(series._response_kernel(xs, ts, schedule, cfg, opts)[zero]
                  == 0.0)
    assert np.all(series._gradient(xs, ts, schedule, cfg, opts,
                                   GradientMode.FULL)[zero] == 0.0)
    assert np.all(series._pressure_field(xs, ts, schedule, cfg, opts)[zero]
                  == cfg.nominal_pressure())


@pytest.mark.parametrize("power", [1, 2, 3])
def test_blocked_kernel_matches_one_matrix(monkeypatch, power):
    theta = np.linspace(0.0, 2.0 * math.pi, 301)
    times = [0.0, 0.5, 40.0]
    opts = SeriesOptions(truncation_n=70)
    basis = series._basis(times, 0.06, opts)
    whole = series._mode_sum(theta, basis, opts, power)
    monkeypatch.setattr(series, "_TRIG_ELEMENTS", 1000)
    blocked = series._mode_sum(theta, basis, opts, power)
    assert np.allclose(blocked, whole, rtol=0.0, atol=1e-13)
    # A single angle with more modes than one block holds is one block.
    monkeypatch.setattr(series, "_TRIG_ELEMENTS", 10)
    assert series._mode_sum(theta[7:8], basis, opts, power)[:, 0] \
        == pytest.approx(whole[:, 7], rel=0.0, abs=1e-13)


def kernel_angles() -> np.ndarray:
    """0, pi and 2*pi, their neighbours in [0, 2*pi], points 1e-9 from
    them, and 16 seeded angles."""
    ends = np.array([0.0, math.pi, 2.0 * math.pi])
    angles = np.concatenate((
        ends, np.nextafter(ends, -1.0), np.nextafter(ends, 7.0), ends - 1e-9,
        ends + 1e-9, np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, 16)))
    return np.unique(angles[(angles >= 0.0) & (angles <= 2.0 * math.pi)])


def plain_sums(monkeypatch, power, modes, per_angle, crossover):
    """Plain-route mode sums over ``kernel_angles`` with every block summed
    by the trig matrix (crossover inf) or the complex powers (-inf), one
    angle per call or all in one, and the bound modes * eps * sum_n |w_n|
    of each time's row."""
    monkeypatch.setattr(series, "_POWERS_FROM", crossover)
    opts = SeriesOptions(truncation_n=modes, closed_form_acceleration=False)
    basis = series._basis([0.05, 2.0, 600.0], 0.06, opts)
    theta = kernel_angles()
    parts = np.split(theta, theta.size) if per_angle else [theta]
    sums = np.hstack([series._mode_sum(u, basis, opts, power) for u in parts])
    weights = basis.weights[power]
    return basis, theta, sums, modes * np.finfo(float).eps \
        * np.abs(weights).sum(axis=1, keepdims=True)


#: Mode counts, each with whether its angles go one per call.
KERNEL_SIZES = [(4, False), (100, False), (3000, False), (100_000, True)]


@pytest.mark.parametrize("modes, per_angle", KERNEL_SIZES)
@pytest.mark.parametrize("power", [1, 2, 3])
def test_power_sums_match_the_trig_matrix(monkeypatch, power, modes,
                                          per_angle):
    *_, matrix, bound = plain_sums(monkeypatch, power, modes, per_angle,
                                   math.inf)
    *_, powers, _ = plain_sums(monkeypatch, power, modes, per_angle,
                               -math.inf)
    assert np.all(np.abs(powers - matrix) <= bound)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double has no more precision than double")
@pytest.mark.parametrize("modes, per_angle", KERNEL_SIZES)
@pytest.mark.parametrize("power", [1, 2, 3])
def test_power_sums_match_a_long_double_reference(monkeypatch, power, modes,
                                                  per_angle):
    basis, theta, powers, bound = plain_sums(monkeypatch, power, modes,
                                             per_angle, -math.inf)
    trig = np.sin if power % 2 else np.cos
    n = basis.n.astype(np.longdouble)
    weights = basis.weights[power].astype(np.longdouble)
    exact = np.stack([weights @ trig(n * u) for u in
                      theta.astype(np.longdouble)], axis=1)
    assert np.all(np.abs(powers - exact) <= bound)


@SETTINGS
@given(problems(max_positions=12,
                withdrawal_model=WithdrawalModel.HEAVISIDE,
                gradient_mode=GradientMode.FULL))
def test_heaviside_gate_is_the_same_on_both_paths(problem):
    # At x the gated field carries exactly the taps at or upstream of x.
    cfg, schedule, opts, xs, ts = problem
    _, r_scale, g_scale = scales(cfg, schedule, ts)
    response = series._response_kernel(xs, ts, schedule, cfg, opts)
    gradient = series._gradient(xs, ts, schedule, cfg, opts)
    for j, x in enumerate(xs):
        reached = WithdrawalSchedule(
            tuple(p for p in schedule.points if x >= p.position_m))
        if not reached.points:
            assert np.all(response[:, j] == 0.0)
        for i, t in enumerate(ts):
            scalar = series.withdrawal_response(x, t, schedule, cfg, opts)
            assert scalar == series.withdrawal_response(x, t, reached, cfg,
                                                        opts)
            assert abs(response[i, j] - scalar) <= 1e-12 * r_scale
            scalar = series.continuous_gradient(x, t, schedule, cfg, opts)
            assert scalar == series.continuous_gradient(x, t, reached, cfg,
                                                        opts)
            assert abs(gradient[i, j] - scalar) <= 1e-12 * g_scale


@SETTINGS
@given(rings(), st.sampled_from(DecayMode), st.floats(0.001, 0.999),
       st.floats(0.05, 600.0), st.floats(0.0, 50.0))
def test_inversion_round_trip(cfg, decay_mode, fraction, t, g_new):
    opts = SeriesOptions(decay_mode=decay_mode)
    x_new = fraction * cfg.length_m
    target = pressure_at_coupling(t, g_new, x_new, cfg, opts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeWithdrawalWarning)
        back = invert_withdrawal(target, t, x_new, cfg, opts)
    assert back == pytest.approx(g_new,
                                 abs=1e-8 * (1.0 + cfg.base_flow + g_new))


def scenario_of(cfg, schedule, opts):
    return Scenario(cfg, schedule, opts, SafetyThresholds())


@SETTINGS
@given(problems(max_positions=6),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3))
def test_drawdown_cells_are_one_tap_point_mode_pressures(problem, levels):
    cfg, schedule, opts, xs, ts = problem
    tap = schedule.points[0].position_m
    table = drawdown_table(scenario_of(cfg, schedule, opts), xs.tolist(), ts,
                           levels, tap_m=tap)
    point = replace(opts, withdrawal_model=WithdrawalModel.POINT)
    assert len(table.rows) == len(xs) * len(ts) * len(levels)
    for x, t, g, p in table.rows:
        one = WithdrawalSchedule.from_pairs([(tap, g)])
        p_scale, _, _ = scales(cfg, one, ts)
        assert abs(p - series.pressure(x, t, one, cfg, point)) \
            <= 1e-12 * p_scale


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rings(), st.data())
def test_comparison_equals_per_snapshot_recomputation(cfg, data):
    fractions = data.draw(st.lists(st.floats(0.0, 0.999), min_size=1,
                                   max_size=3, unique=True))
    schedule = WithdrawalSchedule.from_pairs(
        (x, data.draw(st.floats(0.5, 20.0)))
        for x in sorted({f * cfg.length_m for f in fractions}))
    opts = data.draw(options())
    dt = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    steps = data.draw(st.lists(st.integers(5, 40), min_size=1, max_size=3,
                               unique=True))
    grid = OracleGrid(cells=data.draw(st.integers(64, 256)), dt_s=dt,
                      horizon_s=dt * max(steps))
    run = simulate(cfg, schedule, grid, [dt * k for k in sorted(steps)])
    got = compare_with_series(run, cfg, schedule, opts)
    mask = comparison_mask(cfg, schedule, grid)
    point = replace(opts, withdrawal_model=WithdrawalModel.POINT)
    assert got.excluded_cells == np.count_nonzero(~mask)
    assert len(got.entries) == len(run.times)
    for entry, t, snap in zip(got.entries, run.times, run.snapshots):
        reference = run.nominal_pa + series.response_profile(
            run.positions, t, schedule, cfg, point)
        diff = snap[mask] - reference[mask]
        scale = np.linalg.norm(reference[mask] - run.nominal_pa)
        assert entry.time_s == t
        assert entry.rel_l2 == pytest.approx(np.linalg.norm(diff) / scale,
                                             rel=1e-9)
        assert entry.max_abs_pa == pytest.approx(np.max(np.abs(diff)),
                                                 rel=1e-9)


@SETTINGS
@given(st.integers(4, 60), st.integers(100, 1500), st.data())
def test_gradient_is_zero_at_every_tap(cells, dx, data):
    # Whole-metre steps, so every grid position k * dx is exact.
    dx = float(dx)
    cfg = data.draw(rings(length=cells * dx))
    indices = data.draw(st.lists(st.integers(0, cells - 1), min_size=1,
                                 max_size=3, unique=True))
    schedule = WithdrawalSchedule.from_pairs(
        (k * dx, data.draw(st.floats(0.0, 20.0))) for k in sorted(indices))
    ts = data.draw(times)
    for mode in GradientMode:
        for model in WithdrawalModel:
            opts = SeriesOptions(gradient_mode=mode, withdrawal_model=model)
            table = gradient_table(scenario_of(cfg, schedule, opts), ts, dx)
            for point in schedule.points:
                x = point.position_m
                assert [row[2] for row in table.rows if row[0] == x] \
                    == [0.0] * len(ts)
                assert all(pressure_gradient(x, t, schedule, cfg, opts)
                           == 0.0 for t in ts)


@SETTINGS
@given(rings(), options(), st.floats(0.01, 0.99),
       st.lists(st.floats(0.01, 600.0), min_size=1, max_size=6),
       st.floats(0.05, 0.95))
def test_admissible_rows_match_tap_pressure(cfg, opts, fraction, ts, floor):
    tap = fraction * cfg.length_m
    scenario = scenario_of(cfg, WithdrawalSchedule.from_pairs([(tap, 1.0)]),
                           opts)
    p_min = floor * cfg.nominal_pressure()
    drops = [series._unit_drop(0.0, t, tap, cfg, opts)[0, 0] for t in ts]
    bad = [t for t, drop in zip(ts, drops) if drop <= 0.0]
    if bad:
        message = f"per-unit inlet drop is not positive at t={bad[0]:g}"
        assert raised(lambda: admissible_table(scenario, ts, p_min)) \
            == (InvalidParameter, message)
        return
    table = admissible_table(scenario, ts, p_min)
    assert [row[0] for row in table.rows] == ts
    for t, p_tap, g_total in table.rows:
        one = WithdrawalSchedule.from_pairs([(tap, g_total)])
        p_scale, _, _ = scales(cfg, one, ts)
        assert abs(p_tap - tap_pressure(g_total, t, tap, cfg, opts)) \
            <= 1e-12 * p_scale


@SETTINGS
@given(problems(max_positions=6),
       st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3),
       st.floats(0.05, 0.95))
def test_shared_basis_equals_single_evaluations(problem, levels, floor):
    cfg, schedule, opts, xs, ts = problem
    for x in xs:
        for t in ts:
            got = series.sample(x, t, schedule, cfg, opts)
            assert got.pressure_pa == series.pressure(x, t, schedule, cfg,
                                                      opts)
            assert got.gradient_pa_per_m == pressure_gradient(x, t, schedule,
                                                              cfg, opts)
    tap = schedule.points[0].position_m
    base = series._pressure_field(xs, ts, series.EMPTY_SCHEDULE, cfg, opts)
    drop = series._unit_drop(xs, ts, tap, cfg, opts)
    table = drawdown_table(scenario_of(cfg, schedule, opts), xs.tolist(), ts,
                           levels, tap_m=tap)
    assert table.rows == tuple(
        (x, t, g, base[i, j] - g * drop[i, j])
        for i, t in enumerate(ts) for g in levels
        for j, x in enumerate(xs.tolist()))
    positive = [t for t in ts if t > 0.0]
    if not positive or tap == 0.0:
        return
    one = scenario_of(cfg, WithdrawalSchedule.from_pairs([(tap, 1.0)]), opts)
    p_min = floor * cfg.nominal_pressure()
    budget, drops = _inlet_floor(p_min, tap, positive, cfg, opts)
    if np.any(drops <= 0.0):
        return
    totals = budget / drops
    p_tap = (series._pressure_field(tap, positive, series.EMPTY_SCHEDULE, cfg,
                                    opts)[:, 0]
             - totals * series._unit_drop(tap, positive, tap, cfg, opts)[:, 0])
    assert admissible_table(one, positive, p_min).rows == tuple(
        zip(positive, p_tap.tolist(), totals.tolist()))


@SETTINGS
@given(rings(), st.floats(0.0, 1.0),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=20))
def test_inlet_drop_never_falls_in_alpha_mode(cfg, fraction, alpha_ts):
    # dD/dt = (c^2/L)(1 + 2 sum_n cos(n*theta) exp(-n^2*alpha*t)) >= 0, as
    # the periodic heat kernel is positive.  alpha*t >= 0.01 keeps N_eff
    # below the default 100 modes, where the series has converged.
    ts = np.sort(alpha_ts) / cfg.alpha()
    drops = series._unit_drop(0.0, ts, fraction * cfg.length_m, cfg,
                              SeriesOptions())[:, 0]
    scale = cfg.sound_speed_m_s**2 / cfg.length_m * (ts[-1]
                                                     + 2.0 / cfg.alpha())
    assert np.all(np.diff(drops) >= -1e-12 * scale)


def test_inlet_drop_falls_in_a_mode_beyond_alpha():
    # With the decay rate a above alpha the cosine term first outweighs
    # the depletion: opposite the tap D(t) falls to about -103 Pa per unit
    # by 50 s, then rises.  max_admissible_withdrawal then binds at the
    # sampled maximum, and the bisection agrees.
    cfg = PipelineConfig(60000.0, 383.3, 0.05, 140000.0, 10.0)
    opts = SeriesOptions(decay_mode=DecayMode.A)
    assert cfg.alpha() < cfg.linearization_a
    horizon, tap, p_min = 300.0, 30000.0, 0.8 * cfg.nominal_pressure()
    ts = horizon * np.arange(1, TIME_SAMPLES + 1) / TIME_SAMPLES
    drops = series._unit_drop(0.0, ts, tap, cfg, opts)[:, 0]
    assert np.min(np.diff(drops)) < -1e-3 * abs(drops[-1])
    bind = int(np.argmax(drops))
    got = max_admissible_withdrawal(horizon, p_min, None, tap, cfg, opts)
    assert got.binding_time_s == ts[bind]
    assert got.per_unit_drop_pa == drops[bind] > 0.0
    bisected = max_admissible_withdrawal(horizon, p_min, None, tap, cfg,
                                         opts, method="bisection")
    assert bisected.total == pytest.approx(got.total, abs=1e-5)


def raised(call):
    with pytest.raises(RingflowError) as info:
        call()
    return type(info.value), str(info.value)


@SETTINGS
@given(rings(), st.sampled_from(["tap at 0", "tap at L", "floor"]),
       st.floats(1.0, 1.0e4))
def test_inlet_floor_consumers_reject_alike(cfg, case, excess):
    nominal = cfg.nominal_pressure()
    tap = {"tap at 0": 0.0, "tap at L": cfg.length_m}.get(
        case, 0.4 * cfg.length_m)
    p_min = nominal + excess if case == "floor" else 0.8 * nominal
    scenario = scenario_of(cfg, WithdrawalSchedule.from_pairs([(tap, 1.0)]),
                           SeriesOptions())
    table = raised(lambda: admissible_table(scenario, [300.0], p_min))
    assert table == raised(lambda: max_admissible_withdrawal(
        300.0, p_min, None, tap, cfg))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rings(), st.data())
def test_adaptive_truncation_matches_every_mode(cfg, data):
    # N_eff drops only corrections below 1e-20; summing every one of the
    # truncation_n modes must give the same field to 1e-15 of its scale.
    schedule = data.draw(schedules(cfg))
    opts = data.draw(st.builds(
        SeriesOptions, truncation_n=st.integers(1, 200),
        decay_mode=st.sampled_from(DecayMode),
        withdrawal_model=st.sampled_from(WithdrawalModel),
        gradient_mode=st.just(GradientMode.FULL)))
    ts = data.draw(st.lists(st.floats(0.05, 600.0), min_size=1, max_size=4))
    fractions = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                   max_size=8))
    xs = [f * cfg.length_m for f in fractions] + [0.0, cfg.length_m] \
        + [p.position_m for p in schedule.points]
    p_scale, _, g_scale = scales(cfg, schedule, ts)

    def fields():
        return (series._pressure_field(xs, ts, schedule, cfg, opts),
                series._gradient(xs, ts, schedule, cfg, opts))

    adaptive = fields()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_NEGLIGIBLE_EXPONENT", math.inf)
        every = fields()
    for got, want, scale in zip(adaptive, every, (p_scale, g_scale)):
        assert np.all(np.abs(got - want) <= 1e-15 * scale)


def test_adaptive_truncation_count():
    opts = SeriesOptions(truncation_n=100)
    plain = replace(opts, closed_form_acceleration=False)
    # ceil(sqrt(ln(1e20) / (0.01 * 100))) = ceil(6.79); t = 0 is ignored.
    assert series._modes(np.array([0.0, 300.0, 100.0]), 0.01, opts) == 7
    assert series._modes(np.array([100.0]), 0.01, plain) == 100
    assert series._modes(np.array([0.0]), 0.01, opts) == 100
    # rate * t_min underflows to 0, or is so small that the bound is inf.
    assert series._modes(np.array([5e-324]), 0.01, opts) == 100
    assert series._modes(np.array([1e-320]), 1.0, opts) == 100
    assert series._modes(np.array([1e-6]), 1e-6, opts) == 100


# ---------------------------------------------------------------------------
# Model invariants in point mode.
# ---------------------------------------------------------------------------

point_options = options(withdrawal_model=WithdrawalModel.POINT)


@SETTINGS
@given(rings(), st.data())
def test_ring_closure_is_exact(cfg, data):
    # (x - x_i) mod L and the forced half-wave zeros make x = 0 and x = L
    # the same point of the ring.
    schedule = data.draw(schedules(cfg))
    opts = data.draw(point_options)
    for t in data.draw(times):
        assert series.pressure(0.0, t, schedule, cfg, opts) \
            == series.pressure(cfg.length_m, t, schedule, cfg, opts)


@SETTINGS
@given(problems(max_positions=12, withdrawal_model=WithdrawalModel.POINT),
       st.lists(st.floats(0.0, 20.0), min_size=3, max_size=3),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_response_is_affine_in_the_rates(problem, other, a, b):
    # The field is affine in the rates, so its response R is linear:
    # R(a*r + b*s) == a*R(r) + b*R(s) for rates r and s at the same taps.
    cfg, schedule, opts, xs, ts = problem
    positions = [p.position_m for p in schedule.points]
    first = [p.rate for p in schedule.points]
    second = other[:len(positions)]

    def response(rates):
        return series._response_kernel(
            xs, ts, WithdrawalSchedule.from_pairs(zip(positions, rates)),
            cfg, opts)

    mixed = [a * r + b * s for r, s in zip(first, second)]
    _, r_scale, _ = scales(cfg, WithdrawalSchedule.from_pairs(
        zip(positions, mixed)), ts)
    error = np.abs(response(mixed)
                   - (a * response(first) + b * response(second)))
    assert np.all(error <= 1e-12 * r_scale)


@SETTINGS
@given(rings(), point_options, st.floats(0.0, 0.999), st.floats(0.01, 20.0),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), times)
def test_one_tap_response_is_symmetric_about_its_tap(cfg, opts, fraction,
                                                     rate, offsets, ts):
    tap = fraction * cfg.length_m
    schedule = WithdrawalSchedule.from_pairs([(tap, rate)])
    length = cfg.length_m
    distances = np.array(offsets) * length
    after = series._response_kernel((tap + distances) % length, ts,
                                    schedule, cfg, opts)
    before = series._response_kernel((tap - distances) % length, ts,
                                     schedule, cfg, opts)
    _, r_scale, _ = scales(cfg, schedule, ts)
    assert np.all(np.abs(after - before) <= 1e-12 * r_scale)
