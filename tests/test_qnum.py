"""Scalar kernel: q-powers, brackets, factorials, jet limits/derivatives."""

import math

import numpy as np
import pytest

from unrolled_sl2 import deform, ribbon
from unrolled_sl2.jets import Jet, PoleError, as_jet
from unrolled_sl2.qnum import QContext, qbracket, qint, qpow
from unrolled_sl2.rep import Projective, Simple, Typical, _stack, make_module, summand_weights

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


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and positive"):
        QContext(3, tol=tol)


def test_jet_order_must_be_positive():
    """The order sets only eps(); the deformation route seeds its own jets."""
    with pytest.raises(ValueError, match="jet order must be positive, got 0"):
        QContext(4, jet_order=0)
    assert QContext(4, jet_order=2).eps().order == 2


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
    # a jet truncated at eps^6 evaluated at t = 1e-3 is exact to about 1e-18;
    # the 1e-12 agreement asked for here needs at least that order
    ctx = QContext(5, jet_order=6)
    e = ctx.eps()
    t = 1e-3
    for x0 in (0.37, -1.2 + 0.4j):
        assert qpow(ctx, x0 + e)(t) == pytest.approx(qpow(ctx, x0 + t), rel=1e-12)
        assert qbracket(ctx, x0 + e)(t) == pytest.approx(qbracket(ctx, x0 + t), rel=1e-12)
        assert qint(ctx, x0 + e)(t) == pytest.approx(qint(ctx, x0 + t), rel=1e-12)


# ---------------------------------------------------------------------------
# Jet.exp and Jet.sin, and so qpow on a jet: same bits as the plain Taylor loop


def _series(x, taylor):
    """f(x) for a jet x by the plain Taylor loop about its eps^0 slice, with
    taylor(z0, k) = f^(k)(z0) / k! evaluated afresh for every k and a fresh
    power h^k per k; only exactly-zero leading slices are trimmed."""
    n = x.val + x.order
    c = np.zeros((n, *x.shape), dtype=complex)
    c[x.val:] = x.c
    hz = (np.flatnonzero(c.reshape(n, -1)[1:].any(axis=1)) + 1).tolist()
    out = np.zeros(c.shape, dtype=complex)
    out[0] = taylor(c[0], 0)
    hk = np.zeros(c.shape, dtype=complex)
    hk[0] = 1.0
    for k in range(1, (n - 1) // hz[0] + 1 if hz else 1):
        new = np.zeros(c.shape, dtype=complex)
        for i in hz:
            new[i:] += hk[:n - i] * c[i]
        hk = new
        out += taylor(c[0], k) * hk
    return Jet(out, 0).normalized(0.0)


def _exp_series(x):
    return _series(x, lambda z0, k: np.exp(z0) / math.factorial(k))


def _sin_series(x):
    cyc = (np.sin, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z))
    return _series(x, lambda z0, k: cyc[k % 4](z0) / math.factorial(k))


def _qpow_series(ctx, x):
    """q^x by the plain Taylor loop, with the real parts of the eps^0 slice
    of a valuation-0 jet beyond 2r taken modulo 2r."""
    if x.val == 0:
        p, c = 2 * ctx.r, x.c.copy()
        c[0] = np.where(np.abs(c[0].real) > p, c[0] - p * np.floor(c[0].real / p), c[0])
        x = Jet(c, 0)
    return _exp_series((1j * np.pi / ctx.r) * x)


def _assert_same_bits(got, want):
    assert (got.val, got.c.shape) == (want.val, want.c.shape)
    assert np.array_equal(got.c, want.c)
    assert np.array_equal(np.signbit(got.c.view(float)), np.signbit(want.c.view(float)))


def _random_jet(rng, shape, top, order, re0, val=0):
    """A jet whose slices above eps^(val + top) are zero, with real parts of
    its leading slice of size re0."""
    c = np.zeros((order, *shape), dtype=complex)
    for k in range(min(top + 1, order)):
        c[k] = rng.normal(size=shape) * (re0 if k == 0 else 1.0) + 1j * rng.normal(size=shape)
    return Jet(c, val)


@pytest.mark.parametrize("shape", [(), (5,), (2, 4, 3)], ids=["scalar", "vector", "batched"])
@pytest.mark.parametrize("top", [1, 2, 3, 7], ids=["linear", "quadratic", "cubic", "full"])
def test_exp_sin_and_qpow_match_the_taylor_loop_to_the_bit(shape, top):
    """Real parts of 1e4 take qpow's period reduction first; valuation 1
    starts h at eps^1 with no eps^0 slice."""
    rng = np.random.default_rng(top)
    for r in range(2, 8):
        for order in (3, 6, 8):
            ctx = QContext(r, jet_order=order)
            for re0 in (1.0, 1e4):
                for val in (0, 1):
                    x = _random_jet(rng, shape, top, order, re0, val)
                    _assert_same_bits(qpow(ctx, x), _qpow_series(ctx, x))
                    if re0 == 1.0:
                        _assert_same_bits(x.exp(), _exp_series(x))
                        _assert_same_bits(x.sin(), _sin_series(x))


def test_exp_and_sin_keep_zero_slices_and_their_trim():
    """A missing c1 or c2, zero entries, and results whose eps^0 slice is
    exactly zero (sin(0), and an exp that underflows), where only the
    exactly-zero leading slices are trimmed."""
    ctx = QContext(3)
    e = ctx.eps()
    for x in (0.3 + 0 * e, 0.3 + 2 * e * e, 0.3 - e + 0.5 * e * e, e, -e + e * e * e,
              Jet(np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]), 0)):
        _assert_same_bits(qpow(ctx, x), _qpow_series(ctx, x))
        _assert_same_bits(x.exp(), _exp_series(x))
        _assert_same_bits(x.sin(), _sin_series(x))
    under = Jet(np.array([800j, 1.0, 0.0]), 0)
    _assert_same_bits(qpow(ctx, under), _qpow_series(ctx, under))
    assert qpow(ctx, under).is_zero()
    assert e.sin().val == 1


def _family_phase_exponents(monkeypatch, ctx, module_of):
    """The jets that the crossings and twists of every deformation family
    pass to qpow, on the batched module module_of(i, l): crossings with two
    float modules each way, with itself, and both twists."""
    cfg = ribbon.get_config(ctx)
    seen = []
    monkeypatch.setattr(ribbon, "qpow", lambda ctx, x: seen.append(x) or qpow(ctx, x))
    closed = [make_module(ctx, lab) for lab in (Simple(ctx.r - 2, 1), Projective(0, -1))]
    for i in range(ctx.r - 1):
        for l in (-1, 0, 1):
            mod = module_of(i, l)
            for sign in (1, -1):
                for z in closed:
                    ribbon.crossing(cfg, mod, z, sign)
                    ribbon.crossing(cfg, z, mod, sign)
                ribbon.crossing(cfg, mod, mod, sign)
                ribbon.twist_matrix(cfg, mod, sign)
    jets = [x for x in seen if isinstance(x, Jet)]
    assert len(jets) == 3 * (ctx.r - 1) * 2 * 6
    return jets


@pytest.mark.parametrize("r", RS)
def test_family_cartan_and_twist_phases_match_the_taylor_loop(monkeypatch, r):
    """The family's exponents are two-slice jets (eps^0 and eps^1), linear
    against a float module and quadratic on its self-crossing and twist;
    the same gates on a module at the context's full jet order keep the
    quadratic eps^2 slices covered.  All match the Taylor loop to the bit."""
    ctx = QContext(r)
    deform._family_at.cache_clear()  # cold entries, so that each twist is built here
    for x in _family_phase_exponents(monkeypatch, ctx, lambda i, l: deform._family(ctx, i, l)[0]):
        assert (x.val, x.order) == (0, 2)
        _assert_same_bits(qpow(ctx, x), _qpow_series(ctx, x))
    full = _family_phase_exponents(monkeypatch, ctx, lambda i, l: make_module(
        ctx, Typical(_stack(summand_weights(ctx, i, l, ctx.eps())))))
    assert {int(np.count_nonzero(x.c[2])) > 0 for x in full} == {False, True}
    for x in full:
        assert x.val == 0 and not x.c[3:].any()
        _assert_same_bits(qpow(ctx, x), _qpow_series(ctx, x))
