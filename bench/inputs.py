"""Seeded input generators for the ringflow benchmark.

Everything the program receives is built here from the ``--seed`` value:
scenario YAML texts, CLI/library queries, oracle cases and the robustness
census.  Every draw derives from the seed, so one seed gives byte-identical
inputs (see :func:`fingerprint`).

Queries are generated in *rounds* of a fixed subcommand mix, shuffled.
Their parameters come from :class:`Draw`, which spreads each parameter
evenly over its range, so runs of different seeds see nearly the same cost
mix while the inputs themselves differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field

#: Ring lengths are whole kilometres, so every ``DX_CHOICES`` entry divides
#: them and gradient tables are valid by construction.
DX_CHOICES = (10.0, 20.0, 25.0, 40.0, 50.0, 100.0, 125.0, 200.0, 250.0,
              500.0, 1000.0)

#: Error-path inputs and the exit code each one is documented to give.
#: ``argv`` kinds only exist on the command line, not in the library.
ERROR_KINDS = {
    "negative-time": 2,
    "x-outside-ring": 2,
    "dx-not-divisor": 2,
    "pmin-above-nominal": 2,
    "malformed-yaml": 1,
    "unknown-key": 2,
    "negative-length": 2,
    "classify-nominal-zero": 2,
    "negative-level": 2,
    "bad-format-argv": 1,
    "bad-list-argv": 1,
}
ARGV_ONLY = ("bad-format-argv", "bad-list-argv")


@dataclass
class Query:
    """One planning question: a subcommand, its flags and a scenario."""

    kind: str                     # CLI subcommand name
    scenario: int                 # index into Inputs.scenarios, -1 for none
    flags: dict                   # flag name (no dashes) -> text value
    fmt: str = "csv"
    output: str | None = None     # relative output path, or None
    expect: tuple = (0,)          # documented exit codes
    tag: str = "result"           # result | error:<kind> | defect:<id>

    def argv(self, scenario_paths, workdir) -> list[str]:
        """Command-line arguments; outputs go under ``workdir``."""
        out = [self.kind]
        if self.scenario >= 0:
            out += ["--scenario", scenario_paths[self.scenario]]
        for name, value in self.flags.items():
            out += [f"--{name}"] if value is None else [f"--{name}", value]
        if self.kind not in ("report", "echo-config") \
                and "format" not in self.flags:
            out += ["--format", self.fmt]
        if self.output:
            out += ["--output", f"{workdir}/{self.output}"]
        return out


@dataclass
class OracleCase:
    """One validate operation: a scenario plus an oracle grid."""

    scenario: int
    cells: int
    dt_s: float
    times: tuple
    horizon_s: float | None = None   # default: the last snapshot
    expect: tuple = (0, 3)           # 3: beyond the validate tolerance
    tag: str = "result"


@dataclass
class Inputs:
    scenarios: list = field(default_factory=list)   # YAML texts
    meta: list = field(default_factory=list)        # (pipe, taps, opts) each
    rounds: list = field(default_factory=list)      # list[list[Query|OracleCase]]
    census: list = field(default_factory=list)      # list[Query|OracleCase]
    #: Generates the next round from the same seeded stream, so a run never
    #: has to repeat an operation however fast the program is.
    next_round: object = None

    def extend(self) -> list:
        """Append the next round and return it."""
        self.rounds.append(self.next_round())
        return self.rounds[-1]


def _num(value: float) -> str:
    return format(value, ".10g")


def _yaml_num(value: float) -> str:
    return ".inf" if value == math.inf else _num(value)


def _primes():
    n = 2
    while True:
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            yield n
        n += 1


class Draw:
    """Seeded draws that cover their range evenly over any run of queries.

    The k-th draw of a named parameter is ``frac(offset + k * step)``: a
    Kronecker sequence whose offset comes from the seed and whose step is
    the fractional part of the square root of a prime, a different prime
    per name.  A stretch of queries thus has nearly the same mix of costs
    whatever the seed, while the values themselves change with it.
    """

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self._state: dict[str, list] = {}
        self._primes = _primes()

    def u(self, name: str) -> float:
        if name not in self._state:
            step = math.sqrt(next(self._primes)) % 1.0
            self._state[name] = [self.rng.random(), step, 0]
        state = self._state[name]
        offset, step, k = state
        state[2] += 1
        return (offset + k * step) % 1.0

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u(name)

    def log_uniform(self, name: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(name, math.log(lo), math.log(hi)))

    def integer(self, name: str, lo: int, hi: int) -> int:
        """Uniform over lo..hi inclusive."""
        return lo + int(self.u(name) * (hi - lo + 1))

    def choice(self, name: str, options):
        return options[int(self.u(name) * len(options))]

    def chance(self, name: str, p: float) -> bool:
        return self.u(name) < p


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def nominal(pipe: dict) -> float:
    return (pipe["inlet_pressure_pa"]
            - pipe["linearization_a_per_s"] * pipe["base_flow"]
            * pipe["length_m"])


def _pipeline(d: Draw, scope: str) -> dict:
    length = 1000.0 * round(d.log_uniform(f"{scope}.length", 5.0, 60.0))
    a = d.uniform(f"{scope}.a", 0.02, 0.1)
    p1 = d.uniform(f"{scope}.p1", 1.0e5, 2.0e5)
    # Keep the start-up drop a*G0*L within 30 % of the inlet pressure.
    g0 = d.uniform(f"{scope}.g0", 0.1, 1.0) * min(20.0,
                                                  0.3 * p1 / (a * length))
    return {"length_m": length,
            "sound_speed_m_s": d.uniform(f"{scope}.c", 300.0, 450.0),
            "linearization_a_per_s": a, "inlet_pressure_pa": p1,
            "base_flow": g0}


def _taps(d: Draw, scope: str, pipe: dict, count: int) -> list:
    length = pipe["length_m"]
    # Cap the total so the linepack drop after 600 s stays near half nominal.
    cap = 0.5 * nominal(pipe) * length / (pipe["sound_speed_m_s"] ** 2 * 600)
    positions = sorted(d.rng.sample(range(int(0.02 * length),
                                          int(0.98 * length)), count))
    return [(float(x), d.uniform(f"{scope}.rate", 0.1, 1.0) * cap / count)
            for x in positions]


def scenario_text(pipe: dict, taps, series: dict | None = None,
                  extra: str = "") -> str:
    lines = ["pipeline:"]
    lines += [f"  {k}: {_num(v)}" for k, v in pipe.items()]
    lines.append("withdrawals:")
    lines += [f"  - {{position_m: {_num(x)}, rate: {_yaml_num(g)}}}"
              for x, g in taps]
    if series:
        lines.append("series:")
        lines += [f"  {k}: {v}" for k, v in series.items()]
    return "\n".join(lines) + "\n" + extra


#: Non-default values of each documented series option.
_OPTION_SPACE = {"truncation": ("10", "25", "50", "200"),
                 "decay_mode": ("a",), "withdrawal_model": ("heaviside",),
                 "gradient_mode": ("full",),
                 "closed_form_acceleration": ("false",)}


def _series_options(d: Draw, scope: str) -> dict:
    """Half the scenarios keep every default; the rest change each option
    with probability 0.3."""
    if d.chance(f"{scope}.defaults", 0.5):
        return {}
    return {key: d.choice(f"{scope}.{key}.value", values)
            for key, values in _OPTION_SPACE.items()
            if d.chance(f"{scope}.{key}", 0.3)}


def random_scenario(d: Draw, scope: str, taps: int | None = None,
                    series: dict | None = None) -> tuple[dict, list, dict]:
    pipe = _pipeline(d, scope)
    count = taps if taps is not None else d.integer(f"{scope}.taps", 1, 3)
    opts = _series_options(d, scope) if series is None else series
    return pipe, _taps(d, scope, pipe, count), opts


class ScenarioPool:
    """Scenario texts: half the queries reuse a small seeded pool, the
    other half get a fresh scenario, so a cache keyed on the scenario would
    see both hits and misses."""

    POOL = 48

    def __init__(self, d: Draw, inputs: Inputs):
        self.d = d
        self.texts = inputs.scenarios
        self.meta = inputs.meta
        self.pool = [self.add(*random_scenario(d, "pool"))
                     for _ in range(self.POOL)]

    def add(self, pipe, taps, opts=None, extra: str = "") -> int:
        self.texts.append(scenario_text(pipe, taps, opts, extra))
        self.meta.append((pipe, taps, opts or {}))
        return len(self.texts) - 1

    def pick(self, single_tap: bool = False, point_model: bool = False,
             defaults: bool = False) -> int:
        """A pool or fresh scenario; optionally one tap, no heaviside model,
        or every series option at its default."""
        def fits(i: int) -> bool:
            _, taps, opts = self.meta[i]
            return ((not single_tap or len(taps) == 1)
                    and (not point_model
                         or opts.get("withdrawal_model") != "heaviside")
                    and (not defaults or not opts))
        if self.d.chance("pick.pool", 0.5):
            candidates = [i for i in self.pool if fits(i)]
            if candidates:
                return self.d.choice("pick.index", candidates)
        pipe, taps, opts = random_scenario(self.d, "fresh",
                                           taps=1 if single_tap else None,
                                           series={} if defaults else None)
        if point_model:
            opts.pop("withdrawal_model", None)
        return self.add(pipe, taps, opts)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _time(d: Draw, name: str) -> float:
    """Log-uniform over 0.05-600 s: early times need all modes, late ones
    about one, which is what adaptive truncation would exploit."""
    return d.log_uniform(name, 0.05, 600.0)


def _times(d: Draw, scope: str, most: int) -> str:
    count = d.integer(f"{scope}.ntimes", 1, most)
    return ",".join(_num(_time(d, f"{scope}.time")) for _ in range(count))


def _tap_flag(taps) -> dict:
    return {} if len(taps) == 1 else {"at": _num(taps[0][0])}


def _node(d: Draw, pool: ScenarioPool) -> Query:
    idx = pool.pick()
    pipe = pool.meta[idx][0]
    # 30 to 3000 scan points, from grid steps of 10-1000 m.
    step = min(d.log_uniform("node.step", 10.0, 1000.0),
               pipe["length_m"] / 3.0)
    t = _time(d, "node.time")
    flags = {"time": _num(t), "grid-step": _num(step)}
    # The loaded field may have several crossings, or none; so may the
    # base field before the truncated series settles (t < 1 s).
    loaded = d.chance("node.loaded", 0.25)
    if loaded:
        flags["include-withdrawals"] = None
    return Query("node", idx, flags,
                 expect=(0, 3) if loaded or t < 1.0 else (0,))


def _pressure(d: Draw, pool: ScenarioPool) -> Query:
    idx = pool.pick()
    x = d.uniform("pressure.x", 0.0, pool.meta[idx][0]["length_m"])
    return Query("pressure", idx,
                 {"x": _num(x), "time": _num(_time(d, "pressure.time"))})


def _gradient_table(d: Draw, pool: ScenarioPool) -> Query:
    idx = pool.pick()
    length = pool.meta[idx][0]["length_m"]
    # 30 to 3000 positions per time.
    target = d.log_uniform("gradient.points", 30.0, 3000.0)
    dx = min((s for s in DX_CHOICES if length / s <= 3000.0),
             key=lambda s: abs(math.log(length / s / target)))
    return Query("gradient-table", idx,
                 {"times": _times(d, "gradient", 2), "dx": _num(dx)})


def _drawdown(d: Draw, pool: ScenarioPool) -> Query:
    idx = pool.pick()
    pipe, taps, _ = pool.meta[idx]
    levels = d.integer("drawdown.nlevels", 1, 4)
    flags = {"levels": ",".join(
                 _num(d.uniform("drawdown.level", 0.0, 2.0) * taps[0][1])
                 for _ in range(levels)),
             "times": _times(d, "drawdown", 4)}
    if d.chance("drawdown.positions", 0.5):
        count = d.integer("drawdown.npositions", 1, 3)
        flags["positions"] = ",".join(
            _num(d.uniform("drawdown.x", 0.0, pipe["length_m"]))
            for _ in range(count))
    flags.update(_tap_flag(taps))
    return Query("drawdown", idx, flags)


def _max_draw(d: Draw, pool: ScenarioPool) -> Query:
    # The heaviside model is a known defect here (see known_defects.py).
    idx = pool.pick(point_model=True)
    pipe, taps, _ = pool.meta[idx]
    flags = {"pmin": _num(d.uniform("maxdraw.pmin", 0.5, 0.98)
                          * nominal(pipe)),
             "horizon": _num(d.log_uniform("maxdraw.horizon", 10.0, 600.0)),
             "method": d.choice("maxdraw.method",
                                ("affine", "affine", "bisection"))}
    if d.chance("maxdraw.capped", 0.3):
        flags["gmax"] = _num(d.uniform("maxdraw.gmax", 0.0, 50.0))
    flags.update(_tap_flag(taps))
    return Query("max-draw", idx, flags)


def _classify(d: Draw, pool: ScenarioPool) -> Query:
    p = d.uniform("classify.nominal", 1.0e5, 2.0e5)
    flags = {"nominal": _num(p),
             "current": _num(p * d.uniform("classify.ratio", 0.6, 1.05))}
    idx = pool.pick() if d.chance("classify.scenario", 0.5) else -1
    return Query("classify", idx, flags)


def _report(d: Draw, pool: ScenarioPool) -> Query:
    idx = pool.pick(single_tap=True)
    pipe, _, opts = pool.meta[idx]
    flags = {"time": _num(d.log_uniform("report.time", 1.0, 600.0))}
    if d.chance("report.pmin", 0.5):
        flags["pmin"] = _num(d.uniform("report.floor", 0.5, 0.95)
                             * nominal(pipe))
    # With decay rate a > alpha the inlet drop can be non-positive, which the
    # admissible table rejects as a validation error.
    return Query("report", idx, flags,
                 expect=(0, 2) if opts.get("decay_mode") == "a" else (0,))


def _echo_config(d: Draw, pool: ScenarioPool) -> Query:
    return Query("echo-config", pool.pick(), {})


def _validate_small(d: Draw, pool: ScenarioPool) -> Query:
    """Default series options and grids fine enough to stay well inside the
    validate tolerance: a run beyond it exits 3 without a JSON error line, a
    known defect.  Coarse truncation or the plain route alone can break the
    tolerance."""
    idx = pool.pick(defaults=True)
    horizon = d.log_uniform("cli-validate.horizon", 30.0, 60.0)
    count = d.integer("cli-validate.ntimes", 1, 2)
    times = sorted({_num(d.uniform("cli-validate.time", 0.5, 1.0) * horizon)
                    for _ in range(count)}, key=float)
    flags = {"cells": str(d.integer("cli-validate.cells", 2000, 3000)),
             "dt": "0.05", "times": ",".join(times)}
    return Query("validate", idx, flags)


def error_query(d: Draw, pool: ScenarioPool, kind: str) -> Query:
    """A query whose input is invalid in the way ``kind`` names."""
    code = ERROR_KINDS[kind]
    tag = f"error:{kind}"
    if kind in ("malformed-yaml", "unknown-key", "negative-length"):
        pipe, taps, opts = random_scenario(d, "error")
        if kind == "negative-length":
            pipe["length_m"] = -pipe["length_m"]
        extra = {"malformed-yaml": "pipeline: [unclosed\n",
                 "unknown-key": "extras: {colour: red}\n"}.get(kind, "")
        idx = pool.add(pipe, taps, opts, extra)
        return Query("node", idx, {"time": "100"}, expect=(code,), tag=tag)
    idx = pool.pick(point_model=True)
    pipe, taps, _ = pool.meta[idx]
    flags = {
        "negative-time": ("pressure", {"x": "0", "time": "-5"}),
        "x-outside-ring": ("pressure", {"x": _num(1.5 * pipe["length_m"]),
                                        "time": "50"}),
        "dx-not-divisor": ("gradient-table", {"times": "100", "dx": "7.3"}),
        "pmin-above-nominal": ("max-draw",
                               {"pmin": _num(1.1 * nominal(pipe)),
                                "horizon": "300", **_tap_flag(taps)}),
        "classify-nominal-zero": ("classify", {"nominal": "0",
                                               "current": "5"}),
        "negative-level": ("drawdown", {"levels": "-1", "times": "50",
                                        **_tap_flag(taps)}),
        "bad-format-argv": ("node", {"time": "50", "format": "xml"}),
        "bad-list-argv": ("gradient-table", {"times": "1,two",
                                             "dx": "1000"}),
    }
    subcommand, args = flags[kind]
    return Query(subcommand, -1 if subcommand == "classify" else idx, args,
                 expect=(code,), tag=tag)


#: Queries per round, by generator: one of each subcommand.  ``plan`` uses
#: the same mix without ``validate``.
_CLI_ROUND = (_node, _pressure, _gradient_table, _drawdown, _max_draw,
              _classify, _report, _echo_config, _validate_small)
_PLAN_ROUND = tuple(gen for gen in _CLI_ROUND if gen is not _validate_small)


def _error_kinds(library: bool) -> list:
    return [k for k in ERROR_KINDS if not (library and k in ARGV_ONLY)]


def _query_round(d: Draw, pool: ScenarioPool, library: bool) -> list:
    template = _PLAN_ROUND if library else _CLI_ROUND
    queries = [gen(d, pool) for gen in template]
    queries += [error_query(d, pool, d.choice("error.kind",
                                              _error_kinds(library)))
                for _ in range(2)]
    for q in queries:
        q.fmt = d.choice("format", ("csv", "json"))
        if not library and q.tag == "result" and d.chance("output", 0.2):
            q.output = f"out-{d.rng.randrange(10**6)}.txt"
    d.rng.shuffle(queries)
    return queries


def query_inputs(seed: int, rounds: int, library: bool) -> Inputs:
    """Inputs of the ``cli`` (library=False) or ``plan`` (library=True)
    workload: the robustness census, then ``rounds`` rounds; more rounds
    come from ``Inputs.extend``."""
    from known_defects import defect_queries

    d = Draw(f"ringflow-{'plan' if library else 'cli'}-{seed}")
    inputs = Inputs()
    pool = ScenarioPool(d, inputs)
    inputs.census = ([error_query(d, pool, k) for k in _error_kinds(library)]
                     + defect_queries(d, pool, library))
    inputs.next_round = lambda: _query_round(d, pool, library)
    for _ in range(rounds):
        inputs.extend()
    return inputs


# ---------------------------------------------------------------------------
# oracle cases
# ---------------------------------------------------------------------------

def _oracle_case(d: Draw, pool: ScenarioPool) -> OracleCase:
    """Grids of 1000-4000 cells and dt 0.02-0.1 s, horizons 10-60 s with
    1-3 snapshots.

    The cost, cells times time steps, is drawn first, log-uniform over
    4e5-3e6 cell-steps, and the grid is fitted to it.  Drawn apart, the
    three grid parameters multiply into a 120-fold cost range whose upper
    tail a 30 s run samples too thinly, so its latency quantiles swung with
    the seed.
    """
    idx = pool.add(*random_scenario(d, "oracle", series={}))
    cells = int(d.log_uniform("oracle.cells", 1000.0, 4000.0))
    steps = d.log_uniform("oracle.cost", 4.0e5, 3.0e6) / cells   # 100-3000
    dt = d.log_uniform("oracle.dt", max(0.02, 10.0 / steps),
                       min(0.1, 60.0 / steps))
    horizon = steps * dt
    count = d.integer("oracle.nsnaps", 0, 2)
    snaps = {round(d.uniform("oracle.snap", 0.25, 1.0) * horizon, 3)
             for _ in range(count)}
    return OracleCase(idx, cells, dt,
                      tuple(sorted(snaps | {round(horizon, 3)})))


def oracle_inputs(seed: int, rounds: int) -> Inputs:
    from known_defects import defect_cases

    d = Draw(f"ringflow-validate-{seed}")
    inputs = Inputs()
    pool = ScenarioPool(d, inputs)
    inputs.census = defect_cases(d, pool)

    def next_round():
        cases = [_oracle_case(d, pool) for _ in range(4)]
        d.rng.shuffle(cases)
        return cases

    inputs.next_round = next_round
    for _ in range(rounds):
        inputs.extend()
    return inputs


def fingerprint(inputs: Inputs) -> str:
    """Hash of every generated byte: equal inputs give equal hashes."""
    blob = json.dumps({"scenarios": inputs.scenarios,
                       "rounds": [[asdict(q) for q in r]
                                  for r in inputs.rounds],
                       "census": [asdict(q) for q in inputs.census]},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
