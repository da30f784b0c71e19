"""Composite Gauss-Legendre panels: exactness, symmetry, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingrg._quadrature import (
    dyadic_edges,
    integrate,
    panel_nodes,
    symmetric_nodes,
)


def test_edges_monotone_and_cover():
    e = dyadic_edges(50.0, 1e-4)
    assert e[0] == 0.0
    assert e[-1] == 50.0
    assert (np.diff(e) > 0).all()
    assert (np.diff(e) <= math.pi + 1e-12).all()


def test_edges_dyadic_near_zero():
    e = dyadic_edges(10.0, 1e-3)
    inner = e[1:6]
    np.testing.assert_allclose(inner[1:] / inner[:-1], 2.0, rtol=0, atol=1e-12)


def test_edges_validation():
    with pytest.raises(ValueError):
        dyadic_edges(-1.0, 1e-3)
    with pytest.raises(ValueError):
        dyadic_edges(1.0, 1e-3, max_width=4.0)


def test_polynomial_exactness():
    # Order-n GL is exact for degree 2n-1 on each panel.
    e = dyadic_edges(3.0, 0.01)
    x, w = panel_nodes(e, 8)
    for deg in (0, 3, 10, 15):
        exact = 3.0 ** (deg + 1) / (deg + 1)
        assert np.dot(w, x ** deg) == pytest.approx(exact, rel=1e-13)


def test_symmetric_nodes_mirror():
    x, w = symmetric_nodes(5.0, 1e-3, 10)
    assert x.size == w.size
    np.testing.assert_allclose(x, -x[::-1], rtol=0, atol=0)
    np.testing.assert_allclose(w, w[::-1], rtol=0, atol=0)
    assert not np.any(x == 0.0)
    assert np.dot(w, np.ones_like(x)) == pytest.approx(10.0, rel=1e-14)


def test_integrate_gaussian():
    val = integrate(lambda k: np.exp(-k * k), 8.0, 1e-4, order=16)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_integrate_kink():
    # |sin k| on [-pi, pi] = 4; the origin kink sits on a panel edge.
    val = integrate(lambda k: np.abs(np.sin(k)), math.pi, 1e-6, order=16)
    assert val == pytest.approx(4.0, rel=1e-10)


def test_integrate_deterministic():
    f = lambda k: np.cos(3 * k) / (1 + k * k)
    a = integrate(f, 20.0, 1e-5, order=14)
    b = integrate(f, 20.0, 1e-5, order=14)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(kmax=st.floats(0.5, 200.0), power=st.integers(0, 6))
def test_monomial_property(kmax, power):
    e = dyadic_edges(kmax, 1e-4)
    x, w = panel_nodes(e, 10)
    exact = kmax ** (power + 1) / (power + 1)
    assert np.dot(w, x ** power) == pytest.approx(exact, rel=1e-11)
