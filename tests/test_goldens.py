"""The benchmark's byte goldens, checked on every test run.

``bench/golden`` holds the outputs of ``report`` and of the README's
example commands on ``scenarios/reference.yaml``.  This runs the
benchmark's own read-only check, so a changed output byte fails the test
suite and not only the benchmark gate.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_goldens_are_reproduced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import checks

    failed, _ = checks.check_goldens(ROOT, tmp_path)
    assert failed == []
