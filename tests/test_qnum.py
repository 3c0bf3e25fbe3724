"""Scalar kernel: q-powers, brackets, factorials, jet limits/derivatives."""

import numpy as np
import pytest

from unrolled_sl2.jets import PoleError, as_jet
from unrolled_sl2.qnum import QContext, qbracket, qfact, qint, qpow

RS = [2, 3, 4, 5, 6]


def test_context_invariants():
    for r in RS:
        ctx = QContext(r)
        assert qpow(ctx, 2 * r) == pytest.approx(1.0)
        assert qpow(ctx, r) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        QContext(1)
    with pytest.raises(ValueError):
        QContext(3, tol=-1.0)


def test_qpow_examples():
    assert qpow(QContext(2), 0.5) == pytest.approx(np.exp(1j * np.pi / 4))
    assert qpow(QContext(3), 3) == pytest.approx(-1.0)
    ctx = QContext(5)
    d = qpow(ctx, ctx.eps()).derivative(1)
    assert d == pytest.approx(1j * np.pi / 5)
    # arrays and vector jets entrywise
    w = np.array([0.5, 3.0, -1.2 + 0.3j])
    assert np.allclose(qpow(ctx, w), [qpow(ctx, x) for x in w], rtol=1e-15, atol=0)
    dv = qpow(ctx, w + ctx.eps()).derivative(1)
    assert np.allclose(dv, 1j * np.pi / 5 * qpow(ctx, w), rtol=1e-12, atol=0)


def test_bracket_examples():
    assert qbracket(QContext(2), 1) == pytest.approx(2j)
    for r in RS:
        ctx = QContext(r)
        assert abs(qbracket(ctx, r)) < 1e-12
        assert abs(qint(ctx, r)) < 1e-12
    # [2]! at r=3: frozen from sin(2pi/3)/sin(pi/3) * sin(pi/3)/sin(pi/3) = 1
    assert qfact(QContext(3), 2) == pytest.approx(1.0)
    assert qfact(QContext(3), 0) == pytest.approx(1.0)


def test_bracket_periodicity_and_oddness():
    rng = np.random.default_rng(0)
    for r in RS:
        ctx = QContext(r)
        for x in rng.uniform(-5, 5, size=12) + 1j * rng.uniform(-1, 1, size=12):
            assert qbracket(ctx, x + 2 * r) == pytest.approx(qbracket(ctx, x), abs=1e-12)
            assert qbracket(ctx, -x) == pytest.approx(-qbracket(ctx, x), abs=1e-12)


def test_bracket_difference_identity():
    """[k][1+i-k+e] - [1+i-k][k-e] = [1+i][e] on real grids."""
    rng = np.random.default_rng(1)
    for r in RS:
        ctx = QContext(r)
        for _ in range(20):
            i, k, e = rng.uniform(-3, 3, size=3)
            lhs = qint(ctx, k) * qint(ctx, 1 + i - k + e) - qint(ctx, 1 + i - k) * qint(ctx, k - e)
            rhs = qint(ctx, 1 + i) * qint(ctx, e)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_jet_limit_examples():
    ctx = QContext(3)
    e = ctx.eps()
    # {eps}/{r eps} -> 1/r, oracle: numeric quotient at eps = 1e-6
    val = (qbracket(ctx, e) / qbracket(ctx, ctx.r * e)).limit()
    t = 1e-6
    oracle = (2j * np.sin(np.pi * t / ctx.r)) / (2j * np.sin(np.pi * t))
    assert val == pytest.approx(oracle, rel=1e-5)
    assert val == pytest.approx(1 / 3, rel=1e-10)
    assert as_jet(7.0, ctx.jet_order).limit() == pytest.approx(7.0)
    with pytest.raises(PoleError):
        (1 / qbracket(ctx, e)).limit()


def test_jet_derivative_examples():
    for r in RS:
        ctx = QContext(r)
        e = ctx.eps()
        assert qpow(ctx, e).derivative(1) == pytest.approx(1j * np.pi / r)
        # {eps}' at 0 -> 2 pi i / r, oracle: central finite difference h = 1e-6
        h = 1e-6
        fd = ((2j * np.sin(np.pi * h / r)) - (2j * np.sin(-np.pi * h / r))) / (2 * h)
        d = qbracket(ctx, e).derivative(1)
        assert d == pytest.approx(fd, rel=1e-6)
        assert d == pytest.approx(2j * np.pi / r, rel=1e-12)
    assert as_jet(5.0 + 0j, 6).derivative(1) == 0


def test_limit_commutes_with_arithmetic():
    ctx = QContext(4)
    e = ctx.eps()
    a = qbracket(ctx, 0.3 + e)
    b = qpow(ctx, 1.1 - 2 * e)
    assert (a * b).limit() == pytest.approx(a.limit() * b.limit())
    assert (a + b).limit() == pytest.approx(a.limit() + b.limit())


def test_jet_evaluation_matches_numeric_kernel():
    ctx = QContext(5)
    e = ctx.eps()
    t = 1e-3
    for x0 in (0.37, -1.2 + 0.4j):
        assert qpow(ctx, x0 + e)(t) == pytest.approx(qpow(ctx, x0 + t), rel=1e-12)
        assert qbracket(ctx, x0 + e)(t) == pytest.approx(qbracket(ctx, x0 + t), rel=1e-12)
        assert qint(ctx, x0 + e)(t) == pytest.approx(qint(ctx, x0 + t), rel=1e-12)
