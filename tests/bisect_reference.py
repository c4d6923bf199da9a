"""Reference coupling-point bisection.

This is the bisection as ringflow shipped it before the midpoint tree: one
``grad`` call, and so one field evaluation, per halving.
``ringflow.optimize._bisect_root`` must return the same float for every
gradient and bracket, and ``find_coupling_point`` the same
``CouplingPoint``; ``tests/test_optimize.py`` checks that.
"""

from ringflow.optimize import POSITION_TOLERANCE_M


def bisect_root(grad, lo: float, hi: float) -> float:
    """Bisect a + to - crossing of ``grad`` (positions -> gradient row)."""
    while hi - lo > POSITION_TOLERANCE_M:
        mid = 0.5 * (lo + hi)
        value = grad(mid)[0]
        if value > 0.0:
            lo = mid
        elif value < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)
