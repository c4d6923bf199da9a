"""Known defects of the program, kept in the benchmark's robustness census.

Each defect gives an outcome outside its documented set today, so it counts
as a failed census probe and lowers ``ok_frac``.  A change that fixes one
raises ``ok_frac`` by one probe.  ``expect`` is the documented outcome a fix
should give (exit codes 0-3, see the CLI docstring).

The timed workloads never contain these inputs: their operations must all
succeed, so that a regression shows as a failed operation.
"""

from __future__ import annotations

from inputs import OracleCase, Query, nominal, random_scenario

DEFECTS = (
    {"id": "max-draw-heaviside", "expect": (0, 2),
     "summary": "max-draw on a heaviside scenario divides by a zero inlet "
                "drop: ZeroDivisionError traceback, exit 1"},
    {"id": "time-nan", "expect": (1, 2),
     "summary": "pressure --time nan is accepted: exit 0 with NaN, invalid "
                "JSON"},
    {"id": "time-inf", "expect": (1, 2),
     "summary": "node --time inf is accepted: exit 0 with t_s=inf"},
    {"id": "yaml-inf-rate", "expect": (1, 2),
     "summary": "a withdrawal rate of .inf passes validation: exit 0 with "
                "p_pa=-inf"},
    {"id": "output-unwritable", "expect": (1,),
     "summary": "--output into a missing directory: FileNotFoundError "
                "traceback, exit 1 without a JSON error line"},
    {"id": "validate-beyond-tolerance", "expect": (3,),
     "summary": "validate beyond its tolerance exits 3 with the table on "
                "stdout and no JSON error line on stderr"},
    {"id": "oracle-inf-rate", "expect": (2,),
     "summary": "simulate accepts an infinite rate: non-finite rel_l2"},
    {"id": "oracle-dt-nan", "expect": (2,),
     "summary": "OracleGrid accepts dt_s=nan; simulate then raises "
                "ValueError"},
)

BY_ID = {d["id"]: d for d in DEFECTS}

#: Missing directory for the output-unwritable probe, relative to the
#: directory the benchmark runs its CLI processes in.
MISSING_DIR = "no-such-dir"


def _expect(defect_id: str) -> dict:
    return {"expect": BY_ID[defect_id]["expect"], "tag": f"defect:{defect_id}"}


def defect_queries(d, pool, library: bool) -> list:
    """Census queries for the ``cli`` or ``plan`` workload."""
    pipe, taps, _ = random_scenario(d, "census", taps=1, series={})
    heaviside = pool.add(pipe, taps, {"withdrawal_model": "heaviside"})
    pmin = 0.8 * nominal(pipe)
    plain = pool.add(*random_scenario(d, "census", taps=1, series={}))
    pipe, taps, _ = random_scenario(d, "census", taps=1, series={})
    inf_rate = pool.add(pipe, [(taps[0][0], float("inf"))])
    probes = [
        Query("max-draw", heaviside,
              {"pmin": format(pmin, ".10g"), "horizon": "300"},
              **_expect("max-draw-heaviside")),
        Query("pressure", plain, {"x": "100", "time": "nan"}, fmt="json",
              **_expect("time-nan")),
        Query("node", plain, {"time": "inf"}, **_expect("time-inf")),
        Query("pressure", inf_rate, {"x": "100", "time": "50"},
              **_expect("yaml-inf-rate")),
    ]
    if not library:
        probes += [
            Query("classify", -1, {"nominal": "125000", "current": "100000"},
                  output=f"{MISSING_DIR}/classify.csv",
                  **_expect("output-unwritable")),
            Query("validate", plain, {"cells": "64", "dt": "1", "times": "2"},
                  **_expect("validate-beyond-tolerance")),
        ]
    return probes


def defect_cases(d, pool) -> list:
    """Census oracle cases for the ``validate`` workload: documented
    rejections first, then the known defects."""
    def case(rate=None, outside=False):
        pipe, taps, _ = random_scenario(d, "census", taps=1, series={})
        x, g = taps[0]
        x = 1.5 * pipe["length_m"] if outside else x
        return pool.add(pipe, [(x, g if rate is None else rate)])

    return [
        OracleCase(case(), 32, 0.1, (10.0,), expect=(2,),
                   tag="error:too-few-cells"),
        OracleCase(case(), 1000, -0.1, (10.0,), expect=(2,),
                   tag="error:negative-dt"),
        OracleCase(case(), 1000, 0.1, (10.0, 20.0), horizon_s=10.0,
                   expect=(2,), tag="error:snapshot-after-horizon"),
        OracleCase(case(outside=True), 1000, 0.1, (10.0,), expect=(2,),
                   tag="error:tap-outside-ring"),
        OracleCase(case(rate=float("inf")), 1000, 0.1, (10.0,),
                   **_expect("oracle-inf-rate")),
        OracleCase(case(), 1000, float("nan"), (10.0,),
                   **_expect("oracle-dt-nan")),
    ]
