"""Adaptive Gauss-Legendre quadrature on numpy alone.

:func:`integral` is the package's one quadrature: ``rheology`` derives f from
Z with it (``derive_f_numeric``) and ``gas`` builds H from a state law with it
(``enthalpy_from_statelaw``).  It loads no scipy, and numpy.polynomial only on
its first call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

#: Order n of the panel rule of :func:`integral`: each panel takes the n- and
#: the (n+1)-point Gauss-Legendre rule.
GAUSS_N = 14
#: Bound on the summed error estimate of :func:`integral`, relative to
#: max(|value|, 1).
RTOL = 1.0e-12
#: Most panels one :func:`integral` call evaluates.  Each halving towards a
#: kink, a jump or an end singularity evaluates two, so this allows about 150
#: halvings, and keeps the nodes of a divergent integral far from underflow.
MAX_PANELS = 300


@functools.cache
def _gauss_rule():
    """The nodes of the n- and (n+1)-point Gauss-Legendre rules on [-1, 1]
    side by side, as the rows [1, x] (so that [c, h] @ rows places them on
    the panel c -/+ h), and their weights as the two columns of a matrix.
    Built on first use: importing the package loads no numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    (x_n, w_n), (x_m, w_m) = leggauss(GAUSS_N), leggauss(GAUSS_N + 1)
    x = np.concatenate([x_n, x_m])
    weights = np.zeros((x.size, 2))
    weights[:GAUSS_N, 0], weights[GAUSS_N:, 1] = w_n, w_m
    return np.stack([np.ones_like(x), x]), weights


def integral(fun: Callable[[float], float], a: float, b: float, name: str) -> float:
    """int_a^b fun(J) dJ for finite ends a, b >= 0 by adaptive Gauss-Legendre panels,
    on numpy alone.  ``fun`` takes one float; it is called once per node.

    Maps: with both ends positive, J = m e^u with m = max(a, b), so u runs
    from log(a/m) to log(b/m) and the larger end sits at u = 0, where the
    nodes round least.  With one end 0, J = e s^2, with e the other end and
    s from 0 to 1, which makes an integrable fun ~ J^(-1/2) smooth.

    Panels: a panel's value is its (n+1)-point sum and its error estimate
    the gap to its n-point sum (n = :data:`GAUSS_N`).  The integral is done
    when the summed estimate is at most :data:`RTOL` max(|value|, 1).
    Until then the panels of smallest estimate are kept while they use at
    most half of what the bound leaves, and the others are halved; each
    level of panels is one numpy evaluation.

    Raises:
        ValueError: If an end is negative, infinite or NaN.
        RuntimeError: Naming the interval, if fun is NaN or infinite at a
            node, the summed estimate is not finite, or :data:`MAX_PANELS`
            panels are spent without meeting the bound, which is where a
            divergent integral such as int_0^1 J^(-1.5) dJ ends.  Each of
            these checks fails on NaN.
    """
    if a == b:
        return 0.0
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError(f"quadrature of {name} needs finite ends >= 0, got [{a}, {b}]")
    rows, weights = _gauss_rule()
    log_map = a > 0.0 and b > 0.0
    if log_map:
        top = max(a, b)
        lo, hi = math.log(a / top), math.log(b / top)
    else:
        top = a + b
        lo, hi = (0.0, 1.0) if a == 0.0 else (1.0, 0.0)
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo))]  # (centre, signed half-width)
    value = error = 0.0  # of the panels kept
    spent = 0
    while True:
        t = np.array(panels) @ rows
        if log_map:
            J = jac = top * np.exp(t)
        else:
            J, jac = top * t * t, 2.0 * top * t
        nodes = J.ravel().tolist()
        values = list(map(fun, nodes))
        if not all(map(math.isfinite, values)):
            J_bad, f_bad = next((j, v) for j, v in zip(nodes, values) if not math.isfinite(v))
            raise RuntimeError(
                f"quadrature of {name} on [{a}, {b}]: {name}({J_bad}) = {f_bad}"
            )
        sums = ((np.array(values).reshape(t.shape) * jac) @ weights).tolist()
        total, total_error, level = value, error, []
        for (c, h), (low, high) in zip(panels, sums):
            estimate, gap = h * high, abs(h * (high - low))
            total += estimate
            total_error += gap
            level.append((gap, c, h, estimate))
        scale = max(abs(total), 1.0)
        if total_error <= RTOL * scale:
            return total
        spent += len(panels)
        if not (spent < MAX_PANELS and math.isfinite(total_error)):
            raise RuntimeError(
                f"quadrature of {name} did not converge on [{a}, {b}]: "
                f"value {total}, error {total_error}"
            )
        room = 0.5 * (RTOL * scale - error)
        panels = []
        for gap, c, h, estimate in sorted(level):
            if gap <= room:
                room -= gap
                value += estimate
                error += gap
            else:
                panels += [(c - 0.5 * h, 0.5 * h), (c + 0.5 * h, 0.5 * h)]
