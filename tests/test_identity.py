"""Output identity against the ledger ``tests/identity.json``.

The ledger holds one SHA-256 digest per output:

* every ``plan`` query of seeds 1-3 (the census and 45 rounds each), run
  through ``bench/ops.run_plan``, over its exit code, the name of an
  undocumented exception and its stdout;
* for each scenario text of ``plan`` seed 4's 45 rounds that loads, its
  ``dump_scenario`` text and, for a one-tap scenario, the text of
  ``dump_json(build_report(s))`` or the class of the error it raises.

The digests pin a build: numpy's matrix products may sum in another order
with another BLAS or on a CPU with other SIMD extensions, which changes
last bits and so, at a 6-digit rounding edge, an emitted byte.  The ledger
records numpy, its BLAS and the extensions numpy found.  On that build
every differing output fails the test, by name; on any other the test is
skipped, and the skip reason names the outputs that differ.

Recapture the ledger only with a change that declares an output change:
``PYTHONPATH=src python tests/test_identity.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy
import pytest

from ringflow import build_report, dump_scenario, load_scenario
from ringflow.errors import RingflowError
from ringflow.scenario import dump_json

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent / "identity.json"
PLAN_SEEDS = (1, 2, 3)
SCENARIO_SEED = 4
ROUNDS = 45


def build() -> dict:
    """numpy, its BLAS and the SIMD extensions numpy found on this CPU."""
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": config.get("SIMD Extensions", {}).get("found")}


def _digest(*parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()


def digests(rounds: int = ROUNDS) -> dict:
    """The ledger's sections, computed now; ``bench`` must be importable."""
    from inputs import query_inputs
    from ops import run_plan

    queries = {}
    for seed in PLAN_SEEDS:
        inputs = query_inputs(seed, rounds, True)
        named = [(f"census {i:02d}", query)
                 for i, query in enumerate(inputs.census)]
        named += [(f"round {r:02d} query {i:02d}", query)
                  for r, round_ in enumerate(inputs.rounds)
                  for i, query in enumerate(round_)]
        for name, query in named:
            text = inputs.scenarios[query.scenario] \
                if query.scenario >= 0 else None
            outcome = run_plan(query, text)
            queries[f"plan {seed} {name} {query.kind} {query.fmt}"] = \
                _digest(outcome.code, outcome.error, outcome.out)
    scenarios, reports = {}, {}
    texts = query_inputs(SCENARIO_SEED, rounds, True).scenarios
    for index, text in enumerate(texts):
        try:
            scenario = load_scenario(text)
        except RingflowError:
            continue
        name = f"plan {SCENARIO_SEED} scenario {index:03d}"
        scenarios[name] = _digest(dump_scenario(scenario))
        if len(scenario.schedule) == 1:
            try:
                report = dump_json(build_report(scenario))
            except RingflowError as exc:
                report = type(exc).__name__
            reports[name] = _digest(report)
    return {"queries": queries, "scenarios": scenarios, "reports": reports}


def test_outputs_equal_the_ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    now = digests()
    differ = [f"{section}: {name}" for section, recorded in now.items()
              for name in sorted(recorded.keys() | ledger[section].keys())
              if recorded.get(name) != ledger[section].get(name)]
    if differ and build() != ledger["build"]:
        pytest.skip(f"on {build()}, not the ledger's {ledger['build']}, "
                    f"{len(differ)} outputs differ: " + "; ".join(differ))
    assert not differ, f"{len(differ)} outputs differ from the ledger: " \
        + "; ".join(differ)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "bench"))
    LEDGER.write_text(json.dumps({"build": build(), **digests()}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
