from __future__ import annotations

import pytest

from sextic_strata.errors import NotSquareError
from sextic_strata.fields import GF, QQ
from sextic_strata.forms import dim_forms, monomial_basis, monomial_index


@pytest.fixture(scope="session")
def f101():
    return GF(101)


@pytest.fixture(scope="session")
def f3():
    return GF(3)


@pytest.fixture(scope="session")
def f2():
    return GF(2)


@pytest.fixture(scope="session")
def qq():
    return QQ


def _reference_mult_map(f, b):
    """Multiplication by f on degree-b forms as plain lists, one cell at a time:
    the column of monomial m holds the coefficients of f*m."""
    a = max(f.degree, 0)
    idx = monomial_index(a + b)
    cols = monomial_basis(b)
    M = [[f.field.zero()] * len(cols) for _ in range(dim_forms(a + b))]
    for j, m in enumerate(cols):
        for e, c in f.coeffs.items():
            M[idx[(e[0] + m[0], e[1] + m[1], e[2] + m[2])]][j] = c
    return M


@pytest.fixture(scope="session")
def reference_mult_map():
    return _reference_mult_map


def _evaluate(f, point):
    """The value of the form f at `point`, summed term by term: the per-cell
    reference for the probe products of `presentation.is_injective`."""
    F = f.field
    x, y, z = (F.normalize(v) for v in point)
    return F.normalize(sum(c * x ** a * y ** b * z ** e for (a, b, e), c in f.coeffs.items()))


@pytest.fixture(scope="session")
def evaluate():
    return _evaluate


def _require_square(P):
    if not P.is_square:
        raise NotSquareError(f"presentation is {P.matrix.nrows}x{P.matrix.ncols}")


def _reference_h0(P, t):
    """h^0(F(t)) as generator sums of `dim_forms`, the reference for the
    closed form `presentation.h0`."""
    _require_square(P)
    return sum(dim_forms(d + t) for d in P.target) - sum(dim_forms(s + t) for s in P.source)


def _reference_h1(P, t):
    """h^1(F(t)) as generator sums of `dim_forms`, the reference for the
    closed form `presentation.h1`."""
    _require_square(P)
    return sum(dim_forms(-3 - s - t) for s in P.source) - sum(dim_forms(-3 - d - t) for d in P.target)


@pytest.fixture(scope="session")
def reference_h0():
    return _reference_h0


@pytest.fixture(scope="session")
def reference_h1():
    return _reference_h1
