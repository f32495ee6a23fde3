"""Adaptive quadrature on numpy alone.

:func:`integral` is the package's one quadrature: ``rheology`` derives f from
Z with it (``derive_f_numeric``) and ``gas`` builds H from a state law with it
(``enthalpy_from_statelaw``).  It loads no scipy, and numpy.polynomial only on
its first call with both ends positive.
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
#: kink or a jump evaluates two, so this allows about 150 halvings.
MAX_PANELS = 300
#: Finest level of the tanh-sinh rule of :func:`integral` on an interval with
#: an end at 0: level m spaces its nodes 2^-m apart in t, and level 9 has
#: 6,145 nodes.
MAX_LEVEL = 9
#: The tanh-sinh nodes of level m run over |t| <= min(3 + m/2, T_MAX): the
#: lattice widens as it refines, so that a growing outermost term shows a
#: divergent end before the nodes come near underflow.  At |t| = 6 the node
#: nearest 0 is about 1e-275 of the interval.
T_MAX = 6.0


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
    """int_a^b fun(J) dJ for finite ends a, b >= 0, on numpy alone.  ``fun``
    takes one float; it is called once per node.

    With both ends positive the rule is adaptive Gauss-Legendre panels
    (:func:`_panels`); with one end 0 it is tanh-sinh (:func:`_tanh_sinh`),
    which meets :data:`RTOL` at an integrable end singularity such as
    fun ~ J^a for a down to about -0.95; closer to -1 its nodes cannot reach
    the tail, and it raises.  Tanh-sinh wants fun smooth inside the
    interval: a kink or a jump there, with an end at 0, raises too.

    Raises:
        ValueError: If an end is negative, infinite or NaN.
        RuntimeError: Naming the interval, if fun is NaN or infinite at a
            node, or the error estimate does not meet :data:`RTOL`
            max(|value|, 1) within the rule's budget, which is where a
            divergent integral such as int_0^1 J^(-1.5) dJ ends.  Each of
            these checks fails on NaN.
    """
    if a == b:
        return 0.0
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError(f"quadrature of {name} needs finite ends >= 0, got [{a}, {b}]")
    if a > 0.0 and b > 0.0:
        return _panels(fun, a, b, name)
    return _tanh_sinh(fun, a, b, name)


def _values(fun: Callable[[float], float], J: np.ndarray, a: float, b: float, name: str):
    """fun at each node of J as an array of J's shape, or the error that
    names the first node where it is not finite."""
    nodes = J.ravel().tolist()
    values = list(map(fun, nodes))
    if not all(map(math.isfinite, values)):
        J_bad, f_bad = next((j, v) for j, v in zip(nodes, values) if not math.isfinite(v))
        raise RuntimeError(f"quadrature of {name} on [{a}, {b}]: {name}({J_bad}) = {f_bad}")
    return np.array(values).reshape(J.shape)


def _panels(fun: Callable[[float], float], a: float, b: float, name: str) -> float:
    """int_a^b fun for a, b > 0 by adaptive Gauss-Legendre panels.

    Map: J = m e^u with m = max(a, b), so u runs from log(a/m) to log(b/m)
    and the larger end sits at u = 0, where the nodes round least.

    Panels: a panel's value is its (n+1)-point sum and its error estimate
    the gap to its n-point sum (n = :data:`GAUSS_N`).  The integral is done
    when the summed estimate is at most :data:`RTOL` max(|value|, 1).
    Until then the panels of smallest estimate are kept while they use at
    most half of what the bound leaves, and the others are halved; each
    level of panels is one numpy evaluation.  :data:`MAX_PANELS` bounds the
    panels spent.
    """
    rows, weights = _gauss_rule()
    top = max(a, b)
    lo, hi = math.log(a / top), math.log(b / top)
    panels = [(0.5 * (lo + hi), 0.5 * (hi - lo))]  # (centre, signed half-width)
    value = error = 0.0  # of the panels kept
    spent = 0
    while True:
        t = np.array(panels) @ rows
        J = top * np.exp(t)
        sums = ((_values(fun, J, a, b, name) * J) @ weights).tolist()
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


def _tanh_sinh(fun: Callable[[float], float], a: float, b: float, name: str) -> float:
    """int_a^b fun for one end 0 and the other, e, positive, by the tanh-sinh
    rule of Takahasi & Mori (1974), Publ. RIMS 9, 721-741.

    Map: J = e / (1 + exp(-pi sinh t)) for t on the real line, so J and the
    weight dJ/dt fall doubly exponentially towards either end.  A
    singularity fun ~ J^a, a > -1, at 0 then leaves the integrand in t
    smooth and doubly exponentially small in its tail.

    Levels: level m sums the nodes t = k 2^-m, |t| <= min(3 + m/2,
    :data:`T_MAX`), times their spacing; each level keeps every node of the
    last and adds the new ones.  The error estimate is the gap between two
    levels, and the truncated tail's estimate the outermost terms of the
    lattice (per unit of t).  The integral is done when both are at most
    :data:`RTOL` max(|value|, 1).  A tail above that bound which does not
    shrink as the lattice widens (a divergent end, or one the nodes cannot
    reach before underflow) raises, as does reaching :data:`MAX_LEVEL`.
    """
    top, sign = a + b, (1.0 if a == 0.0 else -1.0)
    total = 0.0  # the sum over every node so far, without the spacing
    value = reach = tail = math.nan  # of the level before
    for level in range(MAX_LEVEL + 1):
        h, last, last_reach, last_tail = 0.5**level, value, reach, tail
        reach = min(3.0 + 0.5 * level, T_MAX)
        k = np.arange(-round(reach / h), round(reach / h) + 1)
        if level:  # the odd nodes inside the last lattice, and all beyond it
            k = k[(k % 2 == 1) | (np.abs(k) * h > last_reach)]
        t = k * h
        q = np.exp(-math.pi * np.sinh(t))
        J = top / (1.0 + q)
        terms = _values(fun, J, a, b, name) * (math.pi * np.cosh(t) * J * (q / (1.0 + q)))
        total += float(np.sum(terms))
        value = sign * h * total
        if reach != last_reach:  # the lattice widened: its outermost terms are new
            tail = abs(float(terms[0])) + abs(float(terms[-1]))
        error, bound = abs(value - last), RTOL * max(abs(value), 1.0)
        if error <= bound and tail <= bound:
            return value
        if level == MAX_LEVEL or not math.isfinite(value) or tail > bound and tail >= last_tail:
            raise RuntimeError(
                f"quadrature of {name} did not converge on [{a}, {b}]: "
                f"value {value}, error {error}, tail {tail}"
            )
