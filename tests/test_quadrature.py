"""The quadrature behind derive_f_numeric and enthalpy_from_statelaw: its
Gauss-Legendre panels, its tanh-sinh rule for an end at 0, and its failures."""

import math

import pytest

from granupore.quadrature import integral


@pytest.mark.parametrize(
    "fun, a, b, exact",
    [
        (lambda J: J**-0.5, 0.0, 2.0, 2.0 * math.sqrt(2.0)),  # end 0: tanh-sinh
        (lambda J: J**-0.5, 2.0, 0.0, -2.0 * math.sqrt(2.0)),
        (lambda J: 1.0 / J, 1e-8, 1.0, 8.0 * math.log(10.0)),  # both > 0: panels in log J
        (lambda J: J**3, 10.0, 0.003, (0.003**4 - 1e4) / 4.0),
        (math.sin, 0.0, 2.0 * math.pi, 0.0),
        (lambda J: 1.0 if J < 0.3 else 2.0, 0.01, 1.0, 1.69),  # a jump
        (lambda J: 0.0, 0.5, 0.5, 0.0),
    ],
)
def test_values(fun, a, b, exact):
    assert integral(fun, a, b, "Z") == pytest.approx(exact, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("a", [-0.5, -0.6, -0.7, -0.8, -0.85, -0.9, -0.93, -0.949])
def test_end_singularity_to_the_tolerance(a):
    # int_0^1 J^a dJ = 1/(1+a), within RTOL with 5x slack, in either direction
    assert integral(lambda J: J**a, 0.0, 1.0, "Z") == pytest.approx(1.0 / (1.0 + a), rel=5e-12)
    assert integral(lambda J: J**a, 3.0, 0.0, "Z") == pytest.approx(
        -(3.0 ** (1.0 + a)) / (1.0 + a), rel=5e-12
    )


@pytest.mark.parametrize("a", [-0.96, -0.99])
def test_end_singularity_out_of_reach_raises(a):
    # the nodes stop near 1e-275: the tail left out is 1e-11 relative at
    # a = -0.96 and 1e-3 at -0.99, so neither may return
    with pytest.raises(RuntimeError, match=r"did not converge on \[0\.0, 1\.0\]: .* tail"):
        integral(lambda J: J**a, 0.0, 1.0, "Z")


def test_panel_budget_spent_raises():
    # a 1/|J - c| pole inside positive ends never meets the tolerance
    with pytest.raises(RuntimeError, match=r"^quadrature of Z did not converge on \[0\.01, 1\.0\]"):
        integral(lambda J: 1.0 / abs(J - 0.3), 0.01, 1.0, "Z")


def test_end_zero_wants_a_smooth_integrand():
    with pytest.raises(RuntimeError, match=r"did not converge on \[0\.0, 1\.0\]"):
        integral(lambda J: 1.0 if J < 0.3 else 2.0, 0.0, 1.0, "Z")


@pytest.mark.parametrize(
    "fun, a, b, match",
    [
        (lambda J: J**-1.5, 0.0, 1.0, r"did not converge on \[0\.0, 1\.0\]"),
        (lambda J: J**-1.5, 1.0, 0.0, r"did not converge on \[1\.0, 0\.0\]"),
        (lambda J: math.nan if J > 0.5 else 1.0, 0.01, 1.0, r"on \[0\.01, 1\.0\]: Z\(.*\) = nan"),
        (lambda J: math.inf, 0.01, 1.0, r"on \[0\.01, 1\.0\]: Z\(.*\) = inf"),
        (lambda J: -math.inf if J > 0.9 else 1.0, 0.0, 1.0, r"on \[0\.0, 1\.0\]: Z\(.*\) = -inf"),
    ],
    ids=["divergent", "divergent-reversed", "nan-on-part", "infinite", "infinite-on-part"],
)
def test_failures_are_loud(fun, a, b, match):
    with pytest.raises(RuntimeError, match=match):
        integral(fun, a, b, "Z")


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (1.0, math.nan), (0.01, math.inf)])
def test_ends_must_be_finite_and_non_negative(a, b):
    with pytest.raises(ValueError, match="finite ends >= 0"):
        integral(lambda J: 1.0, a, b, "Z")
