"""Public functions refuse input outside their domain before any work, each
with its own error and message."""

import math

import pytest

from rpc3bp.core import (CollisionError, Params, hamiltonian_rotating,
                         lift_to_shell)
from rpc3bp.integrate import flow
from rpc3bp.melnikov import (
    MelnikovSeries,
    melnikov_coeff_contour,
    melnikov_coeff_quadrature,
    uhat_fourier_coeff,
)
from rpc3bp.splitting import find_tangency

P = Params(0.3, 1.5)

REFUSALS = {
    "flow-nonfinite-start": (
        lambda: flow([1.3, 0.0, math.nan, 1.0], 1.0, 1e-12, P),
        ValueError, "z0 must be a finite state"),
    "hamiltonian-r-zero": (
        lambda: hamiltonian_rotating([0.0, 0.0, 0.1, 1.0], P),
        CollisionError, "r must be positive"),
    "lift-r-negative": (
        lambda: lift_to_shell(-1.0, 0.1, P),
        ValueError, "section point needs r > 0"),
    "uhat-jmax-zero": (
        lambda: uhat_fourier_coeff(1, 1.0, P, jmax=0),
        ValueError, "jmax must be at least 1"),
    "quadrature-l-zero": (
        lambda: melnikov_coeff_quadrature(0, P),
        ValueError, "l must be a positive integer"),
    "contour-l-zero": (
        lambda: melnikov_coeff_contour(0, P),
        ValueError, "l must be a positive integer"),
    "contour-jmax-one": (
        lambda: melnikov_coeff_contour(1, P, jmax=1),
        ValueError, "jmax must be at least 2"),
    "series-unknown-method": (
        lambda: MelnikovSeries.compute(P, "bogus"),
        ValueError, "unknown method 'bogus'"),
    "tangency-below-2.6": (
        lambda: find_tangency(2.5, (0.3, 0.5)),
        ValueError, "tangency solve documented for g0 >= 2.6"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refuses_input_outside_its_domain(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message) as exc:
        call()
    assert type(exc.value) is error
