"""Correctness gate, run outside every timed phase.

* ``golden``: ``report`` and the README's example commands on
  ``scenarios/reference.yaml`` must reproduce, byte for byte, the outputs
  stored in ``bench/golden/`` (captured from the program as first
  benchmarked).  ``python3 bench/checks.py --capture`` rewrites them.
* ``spot``: a seeded sample of field values, gradients in both modes and
  ``response_profile`` values is re-evaluated by a short, independent
  transcription of the series formula (:class:`Field`) and must agree
  within ``SPOT_RTOL``; so must a seeded sample of the cells that
  ``pressure``, ``gradient-table`` and ``node`` queries emit, within their
  printed precision ``EMIT_RTOL``.
* ``inputs``: the same seed must give byte-identical generated inputs and
  another seed different ones.

The gate also measures the oracle's accuracy on fixed problems (the README
validation plus ``ACCURACY_CASES``), reported as ``worst_rel_l2``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"

#: Relative tolerance of the independent field evaluation, as a share of
#: the scenario's pressure or gradient scale.
SPOT_RTOL = 1e-9
#: Emitted cells carry 6 significant digits: half a unit in the last one.
EMIT_RTOL = 5e-6

REFERENCE = "scenarios/reference.yaml"
#: (golden file, argv) for ``report`` and each README example command.
GOLDEN_COMMANDS = (
    ("node.txt", ["node", "--time", "100"]),
    ("max-draw.txt", ["max-draw", "--pmin", "100000", "--horizon", "300"]),
    ("report.json", ["report", "--output", "{out}"]),
    ("gradient-table.txt", ["gradient-table", "--times", "100,200",
                            "--dx", "1000"]),
    ("drawdown.txt", ["drawdown", "--levels", "11,12,13,14", "--times",
                      "0,50,100,150,200,250,300", "--positions", "0"]),
    ("classify.txt", ["classify", "--nominal", "125000", "--current",
                      "100000"]),
    ("validate.txt", ["validate", "--cells", "3000", "--dt", "0.05",
                      "--times", "50,300"]),
)

#: Fixed oracle problems on the reference pipeline with the tap moved off
#: the grid nodes: (tap position m, cells, dt s, snapshot times s).
ACCURACY_CASES = ((12345.0, 1500, 0.1, (25.0, 100.0)),
                  (7777.0, 1000, 0.1, (20.0, 60.0)))


def golden_outputs(root: Path, workdir: Path) -> dict:
    """Run the golden commands in-process; returns name -> (exit code,
    output text)."""
    from ops import run_cli_inprocess

    results = {}
    for name, argv in GOLDEN_COMMANDS:
        out_file = workdir / name
        argv = [a.format(out=out_file) for a in argv]
        argv += ["--scenario", str(root / REFERENCE)]
        outcome = run_cli_inprocess(argv)
        text = outcome.out
        if out_file.exists():
            text = out_file.read_text(encoding="utf-8")
            out_file.unlink()
        results[name] = (outcome.code, text)
    return results


def check_goldens(root: Path, workdir: Path) -> tuple[list, float]:
    """Failed golden names, and the worst rel_l2 of the README
    validation."""
    failed = []
    worst = math.nan
    for name, (code, text) in golden_outputs(root, workdir).items():
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        if code != 0 or text != expected:
            failed.append(name)
        if name == "validate.txt":
            rows = [line.split(",") for line in text.splitlines()
                    if line and not line.startswith("#")]
            col = rows[0].index("rel_l2")
            worst = max(float(r[col]) for r in rows[1:])
    return failed, worst


def reference_accuracy(root: Path) -> float:
    """Worst oracle-versus-series rel_l2 over ``ACCURACY_CASES``."""
    import ringflow as rf

    text = (root / REFERENCE).read_text(encoding="utf-8")
    cfg = rf.load_scenario(text).pipeline
    worst = 0.0
    for tap, cells, dt, times in ACCURACY_CASES:
        schedule = rf.WithdrawalSchedule.from_pairs([(tap, 11.0)])
        grid = rf.OracleGrid(cells=cells, dt_s=dt, horizon_s=max(times))
        run = rf.simulate(cfg, schedule, grid, list(times))
        worst = max(worst, rf.compare_with_series(run, cfg, schedule)
                    .worst_rel_l2())
    return worst


# ---------------------------------------------------------------------------
# independent field evaluation
# ---------------------------------------------------------------------------

class Field:
    """P(x, t) and dP/dx of one scenario, written out term by term.

    P = P1 - a*G0*L + (2*a*G0*L/pi) * S3(pi*x/L)
        - sum_i G_i * [c^2*t/L + (2*c^2/(L*alpha)) * S2(u_i)]
    dP/dx = 2*a*G0 * S2(pi*x/L)
            [+ sum_i G_i * (4*pi*c^2/(L^2*alpha)) * S1(u_i) in full mode]

    with u_i = 2*pi*((x - x_i) mod L)/L, S_k(u) = sum_n trig(n*u) E_n / n^k
    (sin for odd k, cos for even k) and E_n = 1 - exp(-n^2 * rate * t).
    With closed-form acceleration each sum is its closed form minus the
    n <= N exponential corrections.  The heaviside model drops tap i where
    x < x_i.
    """

    def __init__(self, pipe: dict, taps, opts: dict):
        self.length, self.c = pipe["length_m"], pipe["sound_speed_m_s"]
        self.a, self.p1, self.g0 = (pipe["linearization_a_per_s"],
                                    pipe["inlet_pressure_pa"],
                                    pipe["base_flow"])
        self.taps = taps
        self.modes = int(opts.get("truncation", 100))
        self.alpha = (2.0 * math.pi ** 2 * self.c ** 2
                      / (self.a * self.length ** 2))
        self.rate = self.a if opts.get("decay_mode") == "a" else self.alpha
        self.accelerated = opts.get("closed_form_acceleration",
                                    "true") == "true"
        self.heaviside = opts.get("withdrawal_model") == "heaviside"
        self.full = opts.get("gradient_mode") == "full"

    def _sum(self, u, t, power):
        if t == 0.0:
            return 0.0
        trig = math.sin if power % 2 else math.cos
        closed = {3: u * (math.pi - u) * (2.0 * math.pi - u) / 12.0,
                  2: math.pi ** 2 / 6.0 - math.pi * u / 2.0 + u * u / 4.0,
                  1: (math.pi - u) / 2.0 if u > 0.0 else 0.0}[power]
        total = 0.0
        for n in range(1, self.modes + 1):
            decay = math.exp(-n * n * self.rate * t)
            weight = decay if self.accelerated else 1.0 - decay
            total += trig(n * u) * weight / n ** power
        return closed - total if self.accelerated else total

    def _active(self, x):
        """(tap rate, u) of each tap that acts at ``x``."""
        return [(g, 2.0 * math.pi * (((x - xi) % self.length) / self.length))
                for xi, g in self.taps if not (self.heaviside and x < xi)]

    def response(self, x, t):
        c2, length = self.c ** 2, self.length
        return -sum(g * (c2 * t / length + (2.0 * c2 / (length * self.alpha))
                         * self._sum(u, t, 2))
                    for g, u in self._active(x))

    def pressure(self, x, t):
        coeff = 2.0 * self.a * self.g0 * self.length / math.pi
        return (self.p1 - self.a * self.g0 * self.length
                + coeff * self._sum(math.pi * x / self.length, t, 3)
                + self.response(x, t))

    def gradient(self, x, t, full=None):
        """The smooth gradient; ``full`` adds the tap terms (default: the
        scenario's gradient mode)."""
        grad = 2.0 * self.a * self.g0 * self._sum(math.pi * x / self.length,
                                                  t, 2)
        if (self.full if full is None else full) and t > 0.0:
            scale = 4.0 * math.pi * self.c ** 2 / (self.length ** 2
                                                   * self.alpha)
            grad += sum(scale * g * self._sum(u, t, 1)
                        for g, u in self._active(x))
        return grad

    def reported_gradient(self, x, t):
        """The gradient as reported: 0 exactly at a tap."""
        return 0.0 if any(xi == x for xi, _ in self.taps) \
            else self.gradient(x, t)

    def pressure_scale(self):
        return abs(self.p1 - self.a * self.g0 * self.length)

    def gradient_scale(self):
        """A bound on |dP/dx|: S2 <= pi^2/6 and |S1| <= pi/2."""
        return (2.0 * self.a * self.g0 * math.pi ** 2 / 6.0
                + sum(abs(g) for _, g in self.taps) * 2.0 * math.pi ** 2
                * self.c ** 2 / (self.length ** 2 * self.alpha))


def _tolerance(want, scale, rtol=0.0) -> float:
    """``rtol`` of ``want`` plus ``SPOT_RTOL`` of the scenario's ``scale``."""
    return rtol * abs(want) + SPOT_RTOL * scale


def _series_options(opts: dict):
    import ringflow as rf

    return rf.SeriesOptions(
        truncation_n=int(opts.get("truncation", 100)),
        decay_mode=rf.DecayMode(opts.get("decay_mode", "alpha")),
        withdrawal_model=rf.WithdrawalModel(
            opts.get("withdrawal_model", "point")),
        gradient_mode=rf.GradientMode(opts.get("gradient_mode", "base_only")),
        closed_form_acceleration=opts.get(
            "closed_form_acceleration", "true") == "true")


def _valid(meta) -> bool:
    pipe, taps, _ = meta
    return bool(taps) and pipe["length_m"] > 0 and all(
        math.isfinite(g) and 0 <= x < pipe["length_m"] for x, g in taps)


def library_spot_check(inputs, rng, samples: int) -> list:
    """Direct library calls on the workload's scenarios: ``pressure``,
    ``continuous_gradient`` in both modes and ``response_profile``."""
    import ringflow as rf
    from ops import oracle_objects
    from ringflow.series import continuous_gradient, response_profile

    bad = []
    metas = [m for m in inputs.meta if _valid(m)]
    for _ in range(samples):
        meta = rng.choice(metas)
        field = Field(*meta)
        cfg, schedule = oracle_objects(meta)
        series = _series_options(meta[2])
        xs = [rng.uniform(0.0, meta[0]["length_m"]) for _ in range(5)]
        t = math.exp(rng.uniform(math.log(0.05), math.log(600.0)))
        p_scale, g_scale = field.pressure_scale(), field.gradient_scale()
        pairs = [("pressure", rf.pressure(xs[0], t, schedule, cfg, series),
                  field.pressure(xs[0], t), p_scale)]
        for full in (False, True):
            mode = rf.GradientMode.FULL if full else rf.GradientMode.BASE_ONLY
            pairs.append((f"gradient-{mode.value}",
                          continuous_gradient(xs[0], t, schedule, cfg,
                                              series, mode=mode),
                          field.gradient(xs[0], t, full), g_scale))
        profile = response_profile(xs, t, schedule, cfg, series)
        pairs += [("response_profile", float(got), field.response(x, t),
                   p_scale) for x, got in zip(xs, profile)]
        bad += [{"what": what, "x": xs[0], "t": t, "got": got, "want": want}
                for what, got, want, scale in pairs
                if not abs(got - want) <= _tolerance(want, scale)]
    return bad


def emitted_rows(text: str, fmt: str) -> list[dict]:
    """Rows of an emitted table, CSV or JSON, as column -> cell."""
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _emitted_cells(query, meta, rows, rng) -> list:
    """(cell name, emitted text, independent value, agrees) for sampled
    cells of one emitted table."""
    pipe, taps, opts = meta
    field = Field(pipe, taps, opts)
    p_scale, g_scale = field.pressure_scale(), field.gradient_scale()
    f = query.flags

    def cell(what, text, want, scale, slack=0.0):
        tol = _tolerance(want, scale, EMIT_RTOL) + slack
        return what, text, want, abs(float(text) - want) <= tol

    if query.kind == "pressure":
        x, t = float(f["x"]), float(f["time"])
        return [cell("p_pa", rows[0]["p_pa"], field.pressure(x, t), p_scale),
                cell("dP_dx_pa_per_m", rows[0]["dP_dx_pa_per_m"],
                     field.reported_gradient(x, t), g_scale)]
    if query.kind == "gradient-table":
        times = [float(v) for v in f["times"].split(",")]
        out = []
        for k in rng.sample(range(len(rows)), min(4, len(rows))):
            x = (k // len(times)) * float(f["dx"])
            out.append(cell(f"dP_dx row {k}", rows[k]["dP_dx_pa_per_m"],
                            field.reported_gradient(x, times[k % len(times)]),
                            g_scale))
        return out
    # node, on the base field unless withdrawals are included: dP/dx must
    # fall from + to - across the emitted coupling point, within the 0.01 m
    # the scan refines to plus the rounding of the emitted position, and
    # the emitted pressure must be the field there.  That rounding moves
    # the pressure by up to |dP/dx| times its size.
    loaded = "include-withdrawals" in f
    field = Field(pipe, taps if loaded else [], opts)
    x, t = float(rows[0]["x_new_m"]), float(f["time"])
    step = 0.01 + 2.0 * EMIT_RTOL * x
    around = (field.gradient(x - step, t, full=loaded),
              field.gradient(x + step, t, full=loaded))
    slack = 2.0 * abs(field.gradient(x, t, full=loaded)) * EMIT_RTOL * x
    return [cell("p_pa at x_new_m", rows[0]["p_pa"], field.pressure(x, t),
                 p_scale, slack),
            ("dP/dx either side of x_new_m", rows[0]["x_new_m"], around,
             around[0] >= 0.0 >= around[1])]


def emitted_spot_check(inputs, items, rng, per_kind: int) -> list:
    """Cells that ``plan`` queries emit (``pressure``, ``gradient-table``
    and ``node``), re-run outside the timed phase and compared with
    :class:`Field` within the emitted precision, ``EMIT_RTOL``."""
    from ops import plan_text
    from ringflow.errors import RingflowError

    bad = []
    for kind in ("pressure", "gradient-table", "node"):
        pool = [q for q in items
                if getattr(q, "kind", None) == kind and q.tag == "result"]
        for q in rng.sample(pool, min(per_kind, len(pool))):
            try:
                text = plan_text(q, inputs.scenarios[q.scenario])
            except RingflowError:
                continue                  # a documented outcome, not a value
            rows = emitted_rows(text, q.fmt)
            for what, got, want, agrees in _emitted_cells(
                    q, inputs.meta[q.scenario], rows, rng):
                if not agrees:
                    bad.append({"query": kind, "what": what,
                                "flags": q.flags, "got": got, "want": want})
    return bad


def spot_check(inputs, items, seed: int, samples: int = 40,
               per_kind: int = 8) -> list:
    """Library values and emitted cells of the workload's own inputs that
    disagree with :class:`Field`; each entry names the point."""
    rng = random.Random(f"spot-{seed}")
    return (library_spot_check(inputs, rng, samples)
            + emitted_spot_check(inputs, items, rng, per_kind))


def inputs_repeatable(make, seed: int) -> bool:
    """Same seed, same bytes; another seed, other bytes."""
    from inputs import fingerprint

    first = fingerprint(make(seed))
    return first == fingerprint(make(seed)) != fingerprint(make(seed + 1))


def _capture(root: Path) -> None:
    workdir = root / ".bench_out"
    workdir.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, text) in golden_outputs(root, workdir).items():
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: python3 bench/checks.py --capture")
    ROOT = BENCH.parent
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    os.chdir(ROOT)
    _capture(ROOT)
