"""What a process imports: the numpy-free front door and the lazy exports
of the package."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ringflow
import ringflow.optimize
from ringflow.cli import run

REF = str(Path(__file__).resolve().parent.parent / "scenarios"
          / "reference.yaml")

#: ``pressure --x 100 --time 50`` on the reference scenario, as the CLI
#: wrote it while every module was imported up front.
PRESSURE_TEXT = ("# scenario=70d5dc407302\n"
                 "x_m,t_s,p_pa,dP_dx_pa_per_m\n"
                 "100,50,123612,1.58865\n")

#: ``echo-config`` on the reference scenario, as PyYAML's dumper wrote it.
ECHO_CONFIG_TEXT = """\
pipeline:
  length_m: 30000.0
  sound_speed_m_s: 383.3
  linearization_a_per_s: 0.05
  inlet_pressure_pa: 140000.0
  base_flow: 10.0
withdrawals:
- position_m: 12000.0
  rate: 11.0
series:
  truncation: 100
  decay_mode: alpha
  withdrawal_model: point
  gradient_mode: base_only
  closed_form_acceleration: true
safety:
  optimal_max: 0.1
  permissible_max: 0.2
  unsafe_min: 0.25
"""

#: Runs each argv of the JSON list in argv[1] through ``cli.run`` in one
#: process and prints, per query, the exit code, whether numpy is loaded,
#: stdout, stderr and whether PyYAML is loaded.
_FRONT_DOOR = textwrap.dedent("""
    import contextlib, io, json, sys
    from ringflow.cli import run
    results = []
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        results.append([code, "numpy" in sys.modules, out.getvalue(),
                        err.getvalue(), "yaml" in sys.modules])
    print(json.dumps(results))
""")

#: Makes ``import yaml`` fail in the process it starts.
_NO_YAML = "import sys; sys.modules['yaml'] = None\n"


def _run_in_fresh_process(queries, prelude=""):
    src = str(Path(ringflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", prelude + _FRONT_DOOR,
                           json.dumps(queries)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_front_door_leaves_numpy_unloaded(tmp_path):
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text("pipeline: [unclosed\n", encoding="utf-8")
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(Path(REF).read_text(encoding="utf-8")
                       + "extra: 1\n", encoding="utf-8")
    negative = tmp_path / "negative.yaml"
    negative.write_text(Path(REF).read_text(encoding="utf-8").replace(
        "length_m: 30000", "length_m: -30000"), encoding="utf-8")
    assert "length_m: -30000" in negative.read_text(encoding="utf-8")
    numpy_free = [
        (["classify", "--nominal", "125000", "--current", "100000"], 0),
        (["classify", "--scenario", REF, "--nominal", "125000",
          "--current", "100000"], 0),
        (["echo-config", "--scenario", REF], 0),
        (["node", "--scenario", str(malformed), "--time", "100"], 1),
        (["node", "--scenario", str(unknown), "--time", "100"], 1),
        (["pressure", "--scenario", str(negative), "--x", "100",
          "--time", "50"], 2),
        (["classify", "--nominal", "0", "--current", "100"], 2),
        (["node", "--scenario", REF, "--time", "100", "--format", "xml"], 1),
        (["pressure", "--scenario", REF, "--x", "100"], 1),
    ]
    pressure = ["pressure", "--scenario", REF, "--x", "100", "--time", "50"]
    results = _run_in_fresh_process([argv for argv, _ in numpy_free]
                                    + [pressure])
    for (argv, code), (got, numpy_loaded, out, err, _) in zip(numpy_free,
                                                               results):
        assert (got, numpy_loaded) == (code, False), (argv, err)
        assert (out == "") == (code != 0) and (err == "") == (code == 0)
    code, numpy_loaded, out, err, _ = results[-1]
    assert (code, numpy_loaded, out, err) == (0, True, PRESSURE_TEXT, "")


def test_scenario_layout_leaves_yaml_unloaded(tmp_path):
    """With PyYAML unimportable, every subcommand on the reference scenario,
    and ``node`` on a malformed and on an unknown-key text, exits and
    writes as it does in this process."""
    reference = Path(REF).read_text(encoding="utf-8")
    malformed = tmp_path / "malformed.yaml"
    malformed.write_text(reference + "pipeline: [unclosed\n",
                         encoding="utf-8")
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(reference + "extras: {colour: red}\n",
                       encoding="utf-8")
    scenario = ["--scenario", REF]
    queries = [
        ["node", *scenario, "--time", "100"],
        ["pressure", *scenario, "--x", "100", "--time", "50"],
        ["gradient-table", *scenario, "--times", "100,200", "--dx", "1000"],
        ["drawdown", *scenario, "--levels", "11,12", "--times", "0,300",
         "--positions", "0", "--format", "json"],
        ["max-draw", *scenario, "--pmin", "100000", "--horizon", "300"],
        ["classify", *scenario, "--nominal", "125000", "--current", "100000"],
        ["validate", *scenario, "--cells", "200", "--dt", "0.5",
         "--times", "10"],
        ["report", *scenario],
        ["echo-config", *scenario],
        ["node", "--scenario", str(malformed), "--time", "100"],
        ["node", "--scenario", str(unknown), "--time", "100"],
    ]
    results = _run_in_fresh_process(queries, _NO_YAML)
    for argv, (code, _, out, err, _) in zip(queries, results):
        here, there = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(here), \
                contextlib.redirect_stderr(there):
            assert run(argv) == code, (argv, err)
        assert (out, err) == (here.getvalue(), there.getvalue()), argv
    assert [code for code, *_ in results] == [0] * 9 + [1, 2]
    assert results[1][2] == PRESSURE_TEXT
    assert results[8][2] == ECHO_CONFIG_TEXT


def test_flow_sections_leave_yaml_unloaded(tmp_path):
    """A section written as one flow mapping is read without PyYAML: an
    unknown one is refused with exit 2 and one JSON line naming it."""
    reference = Path(REF).read_text(encoding="utf-8")
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text(reference + "extras: {colour: red}\n",
                       encoding="utf-8")
    truncated = tmp_path / "truncated.yaml"
    truncated.write_text(reference + "series: {truncation: 50}\n",
                         encoding="utf-8")
    results = _run_in_fresh_process([
        ["node", "--scenario", str(unknown), "--time", "100"],
        ["pressure", "--scenario", str(truncated), "--x", "100",
         "--time", "50"]])
    (code, _, out, err, yaml_loaded), pressure = results
    assert (code, out, yaml_loaded) == (2, "", False)
    assert len(err.splitlines()) == 1
    assert "scenario.extras: unknown key" in json.loads(err)["message"]
    assert (pressure[0], pressure[4]) == (0, False)
    assert pressure[2].startswith("# scenario=")


def test_names_are_their_home_objects():
    for name in ringflow.__all__:
        if name == "__version__":
            continue
        value = getattr(ringflow, name)
        home = "ringflow.scenario" if name == "DISCREPANCIES" \
            else value.__module__
        assert vars(sys.modules[home])[name] is value, name
        assert ringflow._LAZY.get(name, home) == home, name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from ringflow import *", namespace)
    assert set(ringflow.__all__) <= set(namespace)
    assert set(ringflow.__all__) <= set(dir(ringflow))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ringflow.no_such_name
    assert not hasattr(ringflow, "_pressure_field")


def test_lazy_name_follows_its_home_module(monkeypatch):
    original = ringflow.find_coupling_point
    assert original is ringflow.optimize.find_coupling_point

    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(ringflow.optimize, "find_coupling_point", patched)
    assert ringflow.find_coupling_point is patched
    monkeypatch.undo()
    assert ringflow.find_coupling_point is original
    assert "find_coupling_point" not in vars(ringflow)
