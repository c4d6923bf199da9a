#!/usr/bin/env python3
"""ringflow benchmark.

    python3 bench/run.py --workload {cli,plan,validate} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed``.  Each workload is a closed
loop with one client, timed for ``--seconds``, and BLAS/OpenMP threads are
pinned to one for the benchmark and its child processes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``bench/README.md``).  The line before it is a JSON detail record: sample
counts, the tail percentile used, the robustness census item by item, the
failures and the gate results.  Both are also written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

#: Single-threaded numerics for the benchmark and every child process.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

#: Tail percentile per workload: the highest one with at least ten samples
#: beyond it at the first benchmarked commit.  It stays fixed so that runs
#: compare like with like; a run with fewer samples falls back down
#: ``_LADDER`` and says so in its detail record.
TAIL_PERCENTILE = {"cli": 75.0, "plan": 95.0, "validate": 90.0}
_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

SETUP_REPEATS = 9
#: Subcommands run once each to warm up; the ``cli`` workload starts one
#: process, for the first of them.
WARM_UP_KINDS = ("classify", "pressure", "echo-config", "max-draw")
#: Rounds generated in set-up; a run that needs more generates them
#: between operations, so no operation is ever repeated.
ROUNDS = {"cli": 12, "plan": 150, "validate": 100}


@dataclass
class Phase:
    """One closed-loop phase: per-operation latencies and failures.

    ``raw`` latencies are wall times; ``latencies`` are on the speed
    probe's scale (see ``speed.py``), as is ``elapsed``.
    """

    raw: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (op id, problem)
    raw_elapsed: float = 0.0
    elapsed: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


def closed_loop(w: Workload, seconds: float, tracer=None,
                ops: int | None = None) -> Phase:
    """Run items 0, 1, ... of ``w`` until ``seconds`` of operation time
    have passed, or exactly ``ops`` operations when that is given.  Checks,
    speed probes and new rounds of inputs come between operations and are
    not timed."""
    phase = Phase()
    starts = []
    speed = w.speed
    w.ensure(0)
    start = time.perf_counter()
    untimed = 0.0
    op = 0
    speed.probe()
    while True:
        t0 = time.perf_counter()
        outcome = tracer.operation(op, w.run, op) if tracer else w.run(op)
        t1 = time.perf_counter()
        problem = w.check(op, outcome)
        if speed.due(t1):
            speed.probe()
        w.ensure(op + 1)
        untimed += time.perf_counter() - t1
        starts.append(t0)
        phase.raw.append(t1 - t0)
        if problem:
            phase.failures.append((op, problem))
        op += 1
        phase.raw_elapsed = time.perf_counter() - start - untimed
        if (op >= ops) if ops is not None else (phase.raw_elapsed >= seconds):
            break
    speed.probe()
    phase.latencies = [lat * speed.factor(t)
                       for lat, t in zip(phase.raw, starts)]
    phase.elapsed = phase.raw_elapsed * sum(phase.latencies) / sum(phase.raw)
    return phase


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def import_process(env, *flags) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", "import ringflow.cli"],
                          env=env, capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs plus how to run and check one item of them."""

    name = ""
    library = True

    def __init__(self, seed: int, workdir: Path):
        from speed import SpeedProbe
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.speed = SpeedProbe()

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs and warm up: timed as ``setup_s``."""
        if self.library:
            import_process(self.env)        # interpreter start and imports
        self.inputs = self.make_inputs(self.seed)
        self.items = [q for r in self.inputs.rounds for q in r]
        self.prepare(0)
        self.warm_up()

    def ensure(self, j: int) -> None:
        """Generate rounds until item ``j`` exists."""
        while j >= len(self.items):
            known = len(self.inputs.scenarios)
            self.items += self.inputs.extend()
            self.prepare(known)

    def prepare(self, start: int) -> None:
        """Per-scenario set-up for scenarios ``start`` onwards."""

    def warm_up(self) -> None:
        """First use of each light subcommand; light, so that set-up time
        does not swing with the seed."""
        seen = set()
        kinds = WARM_UP_KINDS[:1] if self.name == "cli" else WARM_UP_KINDS
        for j, q in enumerate(self.items):
            if q.kind in kinds and q.kind not in seen \
                    and q.tag == "result":
                seen.add(q.kind)
                self.run(j)

    def run(self, j: int, items=None):
        raise NotImplementedError

    def check(self, j: int, outcome, items=None) -> str | None:
        from ops import problem
        return problem((items or self.items)[j], outcome)

    def census(self, tracer=None, first_op: int = 0) -> list:
        """Run every census probe once; returns one record per probe."""
        from known_defects import BY_ID
        records = []
        items = self.inputs.census
        for k, item in enumerate(items):
            def one(j):
                return self.run(j, items)
            outcome = tracer.operation(first_op + k, one, k) if tracer \
                else one(k)
            why = self.check(k, outcome, items)
            defect = BY_ID.get(item.tag.removeprefix("defect:"))
            records.append({"tag": item.tag, "expect": list(item.expect),
                            "code": outcome.code,
                            "error": outcome.error or None,
                            "ok": why is None, "problem": why,
                            **({"defect": defect["summary"]} if defect
                               else {})})
        return records


class QueryWorkload(Workload):
    def make_inputs(self, seed: int):
        from inputs import query_inputs
        return query_inputs(seed, ROUNDS[self.name], self.library)


class PlanWorkload(QueryWorkload):
    """Queries answered in-process: scenario text in, emitted text out."""

    name = "plan"

    def run(self, j: int, items=None):
        from ops import run_plan
        q = (items or self.items)[j]
        text = self.inputs.scenarios[q.scenario] if q.scenario >= 0 else None
        return run_plan(q, text)


class CliWorkload(QueryWorkload):
    """One ``python -m ringflow`` process per query, one at a time."""

    name = "cli"
    library = False
    in_process = False

    def prepare(self, start: int) -> None:
        if start == 0:
            self.paths = []
        for i, text in enumerate(self.inputs.scenarios[start:], start):
            path = self.workdir / f"s{i}.yaml"
            path.write_text(text, encoding="utf-8")
            self.paths.append(str(path))

    def run(self, j: int, items=None):
        from ops import run_cli_inprocess, run_process
        q = (items or self.items)[j]
        argv = q.argv(self.paths, self.workdir)
        if self.in_process:
            outcome = run_cli_inprocess(argv)
        else:
            outcome = run_process([sys.executable, "-m", "ringflow", *argv],
                                  self.env, self.workdir)
        if q.output and outcome.code == 0 and not outcome.error:
            target = self.workdir / q.output
            stdout = outcome.out
            outcome.out = target.read_text(encoding="utf-8") \
                if target.exists() else ""
            target.unlink(missing_ok=True)
            if stdout:
                outcome.out = ""            # --output must keep stdout empty
        return outcome


class ValidateWorkload(Workload):
    """In-process ``simulate`` plus ``compare_with_series``."""

    name = "validate"

    def make_inputs(self, seed: int):
        from inputs import oracle_inputs
        return oracle_inputs(seed, ROUNDS[self.name])

    def prepare(self, start: int) -> None:
        from ops import oracle_objects
        if start == 0:
            self.objects, self.rel_l2_seen = [], []
        self.objects += [oracle_objects(m) for m in self.inputs.meta[start:]]

    def warm_up(self) -> None:
        from inputs import OracleCase
        from ops import run_oracle
        run_oracle(OracleCase(0, 1000, 0.1, (10.0,)), *self.objects[0])

    def run(self, j: int, items=None):
        from ops import run_oracle
        case = (items or self.items)[j]
        return run_oracle(case, *self.objects[case.scenario])

    def check(self, j: int, outcome, items=None) -> str | None:
        why = super().check(j, outcome, items)
        if why is None and items is None and outcome.value is not None:
            self.rel_l2_seen.append(outcome.value.worst_rel_l2())
        return why


WORKLOADS = {w.name: w for w in (CliWorkload, PlanWorkload, ValidateWorkload)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(latencies, workload: str) -> tuple[float, float]:
    """(percentile used, its value): the workload's fixed percentile, or the
    next lower one on the ladder that leaves ten samples beyond it."""
    n = len(latencies)
    ladder = [p for p in _LADDER if p <= TAIL_PERCENTILE[workload]]
    pct = next((p for p in ladder if n * (1.0 - p / 100.0) >= 10.0),
               ladder[-1])
    return pct, percentile(latencies, pct)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "ringflow").rglob("*.py")))


def import_metrics(env) -> dict:
    """``import.*`` from fresh processes: wall time of ``import ringflow.cli``
    and the ``-X importtime`` self time of each package, medians of 3."""
    walls, groups, failed = [], [], 0
    for _ in range(3):
        start = time.perf_counter()
        plain = import_process(env)
        walls.append(time.perf_counter() - start)
        timed = import_process(env, "-X", "importtime")
        failed += (plain.returncode != 0) + (timed.returncode != 0)
        sums = dict.fromkeys(("numpy", "scipy", "yaml", "ringflow"), 0)
        for line in timed.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += int(self_us)
        groups.append(sums)

    def med(key):
        return statistics.median(g[key] for g in groups) / 1e3

    return {"import.total_ms": statistics.median(walls) * 1e3,
            "import.numpy_ms": med("numpy"), "import.scipy_ms": med("scipy"),
            "import.yaml_ms": med("yaml"),
            "import.ringflow_self_ms": med("ringflow"),
            "import.failed": float(failed),
            "import.undocumented_errors": float(failed)}


def share(items, predicate) -> float:
    items = list(items)
    return sum(1 for i in items if predicate(i)) / len(items) if items else 0.0


def input_shares(w: Workload, phase: Phase) -> dict:
    """Properties of the operations actually run."""
    ran = w.items[:len(phase.latencies)]
    if w.name == "validate":
        return {"cells_median": statistics.median(c.cells for c in ran)}
    seen, repeats = set(), []
    for q in ran:
        if q.scenario >= 0:
            text = w.inputs.scenarios[q.scenario]
            repeats.append(text in seen)
            seen.add(text)

    def early(q):
        times = [float(v) for k in ("time", "times", "horizon")
                 for v in q.flags.get(k, "").split(",") if v]
        return bool(times) and min(times) < 1.0

    timed_queries = [q for q in ran if q.tag == "result"
                     and {"time", "times", "horizon"} & set(q.flags)]
    return {"repeat_share": share(repeats, bool),
            "early_time_share": share(timed_queries, early),
            "error_path_share": share(ran, lambda q: q.tag != "result")}


def gate(w: Workload) -> dict:
    from checks import (check_goldens, inputs_repeatable, reference_accuracy,
                        spot_check)
    golden_failed, readme_rel_l2 = check_goldens(ROOT, w.workdir)
    reference_rel_l2 = max(readme_rel_l2, reference_accuracy(ROOT))
    spot_bad = spot_check(w.inputs, w.items, w.seed)
    repeatable = inputs_repeatable(w.make_inputs, w.seed)
    return {"golden_failed": golden_failed, "spot_failed": spot_bad[:5],
            "inputs_repeatable": repeatable,
            "reference_rel_l2": reference_rel_l2,
            "ok": not golden_failed and not spot_bad and repeatable}


def end_to_end(w: Workload, seconds: float, setups: list) -> tuple:
    """The ``--trace 0`` run: untraced timed phase, census, gate."""
    phase = closed_loop(w, seconds)
    census = w.census()
    checks = gate(w)
    lat = phase.latencies
    pct, tail_value = tail(lat, w.name)
    who = resource.RUSAGE_CHILDREN if w.name == "cli" \
        else resource.RUSAGE_SELF
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "ops_per_s": phase.ops_per_s,
        "setup_s": statistics.median(raw * f for raw, f in setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": share(census, lambda r: r["ok"]),
        # Fixed problems: the worst over seeded grids swings with the seed.
        "worst_rel_l2": checks["reference_rel_l2"],
    }
    detail = {"raw": {"latency_p50_ms": statistics.median(phase.raw) * 1e3,
                      "ops_per_s": len(lat) / phase.raw_elapsed,
                      "setup_s": statistics.median(r for r, _ in setups)},
              "speed_factor_median": statistics.median(
                  w.speed.factor(t) for t in w.speed.times),
              "tail_percentile": pct, "samples": len(lat),
              "beyond_tail": sum(1 for v in lat if v > tail_value),
              "ladder_ms": {p: percentile(lat, p) * 1e3 for p in _LADDER},
              "items_generated": len(w.items),
              "census": census, "gate": checks,
              "failures": [f"{w.items[op].tag}: {why}"
                           for op, why in phase.failures[:20]],
              **input_shares(w, phase)}
    return metrics, detail, [phase], checks["ok"]


def per_layer(w: Workload, seconds: float) -> tuple:
    """The ``--trace 1`` run.

    An untraced phase runs for its share of ``seconds``, then a traced phase
    runs the very same operations; their throughput ratio is the tracing
    overhead.  On ``cli`` a first phase times real processes and the other
    two call ``ringflow.cli.run`` in-process on the same mix.  The census
    then runs traced, so known defects show in the per-layer failure
    counts.
    """
    from trace import LAYERS, OP_SPAN, Tracer, analyse

    phases = []
    if w.name == "cli":
        processes = closed_loop(w, seconds / 3)
        phases.append(processes)
        w.in_process = True
        w.warm_up()
    share_s = seconds / (3 if w.name == "cli" else 2)
    untraced = closed_loop(w, share_s)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(w, share_s, tracer, ops=len(untraced.latencies))
        census = w.census(tracer, first_op=len(traced.latencies))
    finally:
        tracer.restore()
    phases += [untraced, traced]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{w.name}.npz")

    ops = len(traced.latencies)
    failed_ops = [op for op, _ in traced.failures] + [
        ops + k for k, r in enumerate(census) if not r["ok"]]
    result = analyse(tracer, ops, failed_ops)
    st = result["stats"]

    # Span times go on the speed probe's scale, like the phase latencies.
    scale = sum(traced.latencies) / sum(traced.raw)

    def ms(key):                       # per timed operation
        return st.get(f"{key}.busy_ns", 0.0) * scale / 1e6 / ops

    def self_ms(key):
        return st.get(f"{key}.self_ns", 0.0) * scale / 1e6 / ops

    def per_op(key):
        return st.get(key, 0.0) / ops

    def ratio(num, den):
        return st.get(num, 0.0) / st[den] if st.get(den) else 0.0

    m = import_metrics(w.env)
    m["cli.run.busy_ms"] = ms("cli.run")
    m["cli.process_overhead_ms"] = (
        (statistics.fmean(phases[0].latencies)
         - statistics.fmean(untraced.latencies)) * 1e3
        if w.name == "cli" else 0.0)
    m["scenario.load_scenario.busy_ms"] = ms("scenario.load_scenario")
    m["scenario.emit.busy_ms"] = ms("scenario.emit")
    m["scenario.emit.rows"] = per_op("scenario.emit.count")
    for fn in ("gradient_table", "drawdown_table", "admissible_table",
               "build_report"):
        m[f"scenario.{fn}.self_ms"] = self_ms(f"scenario.{fn}")
    for fn in ("find_coupling_point", "max_admissible_withdrawal"):
        m[f"optimize.{fn}.calls"] = per_op(f"optimize.{fn}.calls")
        m[f"optimize.{fn}.busy_ms"] = ms(f"optimize.{fn}")
        m[f"optimize.{fn}.self_ms"] = self_ms(f"optimize.{fn}")
    m["optimize.series_calls_per_call"] = ratio("optimize.series_calls",
                                                "optimize.calls")
    m["series.calls"] = per_op("series.calls")
    m["series.points"] = per_op("series.count")
    m["series.busy_ms"] = ms("series")
    m["series.ns_per_point"] = scale * ratio("series.busy_ns", "series.count")
    m["series.response_profile.busy_ms"] = ms("series.response_profile")
    m["oracle.simulate.busy_ms"] = ms("oracle.simulate")
    m["oracle.cell_steps"] = per_op("oracle.simulate.count")
    m["oracle.cell_steps_per_s"] = 1e9 / scale * ratio(
        "oracle.simulate.count", "oracle.simulate.busy_ns")
    m["oracle.compare_with_series.busy_ms"] = ms("oracle.compare_with_series")
    m["oracle.max_residual_rel"] = result["peaks"].get(
        "oracle.max_residual_rel", 0.0)
    m["oracle.worst_rel_l2"] = max(getattr(w, "rel_l2_seen", None) or [0.0])
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms(layer)
        m[f"{layer}.failed"] = float(result["failed"].get(layer, 0))
        m[f"{layer}.undocumented_errors"] = float(
            result["undocumented"].get(layer, 0))
    m["trace.op_ms"] = ms(OP_SPAN)
    m["trace.layers_self_frac"] = (
        sum(st.get(f"{layer}.self_ns", 0.0) for layer in LAYERS)
        / st[f"{OP_SPAN}.busy_ns"])
    m["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    m["src.lines"] = float(src_lines())

    checks = gate(w)
    detail = {"samples": {"untraced": len(untraced.latencies),
                          "traced": ops},
              "census": census, "gate": checks,
              "failures": [f"{w.items[op].tag} {w.items[op].kind}: {why}"
                           for p in phases for op, why in p.failures[:20]],
              "spans": len(tracer.cols["name"]),
              "failed_by_layer": result["failed"],
              "undocumented_by_layer": result["undocumented"]}
    return m, detail, phases, checks["ok"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/ringflow/__init__.py", "scenarios/reference.yaml"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found; run from a ringflow source "
                  "checkout", file=sys.stderr)
            return 2
    os.environ.update(PINNED_THREADS)       # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            w.speed.probe()
            start = time.perf_counter()
            w.setup()
            setup_runs.append((start, time.perf_counter() - start))
        w.speed.probe()
        setups = [(raw, w.speed.factor(start)) for start, raw in setup_runs]
        if args.trace:
            metrics, detail, phases, correct = per_layer(w, args.seconds)
        else:
            metrics, detail, phases, correct = end_to_end(w, args.seconds,
                                                          setups)
    finally:
        w.speed.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = _units(args.trace)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "threads": PINNED_THREADS,
              "setup_s_each": setups, **detail}
    result = {"correct": bool(correct),
              "attempted": sum(len(p.latencies) for p in phases),
              "failed": sum(len(p.failures) for p in phases),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result},
                                       indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


def _units(trace: int) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
