"""Jet arithmetic: ring behavior, valuations, limits, analytic functions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unrolled_sl2.jets import Jet, OrderError, PoleError, as_jet, jet


def test_seed_and_constant():
    e = jet(6)
    assert e.val == 1
    assert e(0.25) == pytest.approx(0.25)
    c = as_jet(7.0, 6)
    assert c.limit() == pytest.approx(7.0)


def test_add_mul_valuations():
    e = jet(6)
    x = e * e + 3 * e  # 3 eps + eps^2
    assert x.normalized().val == 1
    y = x - 3 * e  # eps^2
    assert y.normalized().val == 2
    assert (x * y).normalized().val == 3


def test_division_shifts_valuation():
    e = jet(6)
    q = (e * e + e) / e  # 1 + eps
    assert q.val == 0
    assert q.limit() == pytest.approx(1.0)


def test_reciprocal_series():
    e = jet(8)
    g = (1 + e).reciprocal()
    t = 1e-3
    assert g(t) == pytest.approx(1 / (1 + t), rel=1e-12)


def test_inverses_keep_a_small_genuine_constant():
    """reciprocal and inv trim only exactly-zero leading slices."""
    c = np.array([1e-10, 1, 1, 1, 1, 1])
    for x in (Jet(c, 0).reciprocal(), Jet(c.reshape(6, 1, 1), 0).inv()):
        assert x.val == 0
        assert complex(x.c[0].ravel()[0]) == pytest.approx(1e10)


def test_pole_errors():
    """A known negative leading slice that survives the floor is a pole,
    even when the slice read lies past the jet's precision."""
    e = jet(6)
    for x in (1 / e, Jet([1.0], -1), Jet([1.0, 2.0], -1), Jet([1e-20, 1.0], -2)):
        with pytest.raises(PoleError):
            x.limit(atol=1e-10)
        with pytest.raises(PoleError):
            x.derivative(1, atol=1e-10)


def test_exp_and_sin_match_numeric():
    e = jet(8)
    z = 0.3 + 0.1j
    f = (z + e).exp()
    g = (z + e).sin()
    t = 1e-2
    assert f(t) == pytest.approx(np.exp(z + t), rel=1e-10)
    assert g(t) == pytest.approx(np.sin(z + t), rel=1e-10)
    # entrywise on jets of any shape
    zs = np.array([[0.3 + 0.1j, -1.2], [0.0, 2.5j]])
    assert np.allclose((zs + e).exp()(t), np.exp(zs + t), rtol=1e-10, atol=0)
    assert np.allclose((zs + e).sin()(t), np.sin(zs + t), rtol=1e-10, atol=0)


def test_analytic_functions_trim_only_exact_zeros():
    """exp and sin keep a small genuine leading coefficient, on their input and
    on their result; only exactly-zero leading slices are dropped."""
    s = Jet([1e-12, 1, 0, 0, 0, 0], 0).sin()
    assert s.val == 0 and complex(s.c[0]) == pytest.approx(1e-12, rel=1e-12)
    assert jet(6).sin().val == 1  # sin(0) is exactly zero
    with pytest.raises(PoleError):
        Jet([1e-12, 1, 1], -1).exp()


def test_exp_of_positive_valuation():
    e = jet(6)
    f = e.exp()
    assert f.limit() == pytest.approx(1.0)
    assert f.derivative(1) == pytest.approx(1.0)
    assert f.derivative(2) == pytest.approx(1.0)  # 2! * 1/2


def test_derivative_order_error():
    """A jet's zero slices say nothing beyond val + order: an all-zero jet
    refuses a derivative past it like any other, and a floored eps^-1
    slice leaves eps^0 unknown rather than zero."""
    e = jet(4)
    with pytest.raises(OrderError):
        e.derivative(7)
    with pytest.raises(OrderError):
        Jet([0, 0], 0).derivative(2)
    with pytest.raises(OrderError):
        Jet([1, 2], 0).derivative(2)
    with pytest.raises(OrderError):
        Jet([1e-20], -1).limit(atol=1e-10)
    assert Jet([0, 0], 0).derivative(1) == 0


def test_normalized_zero_is_zero_through_what_was_known():
    """normalized() gives its all-zero result as zero through exponent
    min(upto, val + order - 1), whether the floor or exact zeros made it."""
    x = Jet([1e-12, 1e-13, 5.0], 0)
    for z, top in ((x.normalized(atol=1e-9, upto=1), 1),
                   (Jet([1e-12], 0).normalized(atol=1e-9, upto=1), 0),
                   (Jet([0, 0, 0], -1).normalized(), 1), (Jet([0, 0], 0).normalized(upto=3), 1)):
        assert z.is_zero() and (z.val, z.order) == (top, 1)


def test_zero_times_a_pole_is_zero():
    """A zero known through eps^1, times 1/eps, is a zero known through eps^0."""
    e = jet(3)
    z = ((1 + e) - (1 + e)).normalized(upto=1)
    assert (z * e.reciprocal()).limit() == 0
    assert (z / e).limit() == 0
    with pytest.raises(OrderError):
        (z / e).derivative(1)


def test_matrix_jets_matmul_and_inv():
    e = jet(6)
    a = as_jet(np.array([[1.0, 2.0], [0.0, 1.0]]), 6) + e * np.array([[0.0, 1.0], [1.0, 0.0]])
    b = a.inv()
    prod = a @ b
    ident = as_jet(np.eye(2), 6)
    diff = prod - ident
    assert diff.norm() < 1e-12


def test_matrix_jet_kron():
    x = as_jet(np.array([[0.0, 1.0], [0.0, 0.0]]), 4)
    y = as_jet(np.array([[2.0]]), 4)
    k = x.kron(y)
    assert k.shape == (2, 2)
    assert k.c[0][0, 1] == pytest.approx(2.0)


def test_scalar_jet_broadcasts_across_entries():
    """A scalar jet added to a vector jet lands on every entry, order by order."""
    s = Jet(np.arange(1.0, 7.0), 0)
    for n in (6, 4):
        got = s + Jet(np.zeros((6, n)), 0)
        assert got.val == 0 and got.shape == (n,)
        for k in range(n):
            assert np.array_equal(got.c[:, k], np.arange(1.0, 7.0))
    e = jet(6)
    w = np.array([1.0, -2.0, 0.5j]) + e  # the weight vector of a recolored module
    assert np.allclose(w(1e-3), np.array([1.0, -2.0, 0.5j]) + 1e-3, rtol=0, atol=1e-15)


def test_matrix_jet_indexes_like_each_slice():
    """Indexing, reshaping and swapping axes of a jet act on every coefficient slice alike."""
    rng = np.random.default_rng(5)
    c = rng.normal(size=(3, 4, 6)) + 1j * rng.normal(size=(3, 4, 6))
    x = Jet(c, -1)
    idx = np.array([5, 0, 3, 3])
    cases = [(x[1, 2], lambda s: s[1, 2]),
             (x[:, idx], lambda s: s[:, idx]),
             (x[idx % 4], lambda s: s[idx % 4]),
             (x[1:3, 2:5], lambda s: s[1:3, 2:5]),
             (x.reshape(2, 12), lambda s: s.reshape(2, 12)),
             (x.reshape((8, 3)), lambda s: s.reshape(8, 3)),
             (x.T, lambda s: s.T),
             (x.reshape(2, 2, 6).swapaxes(0, 2), lambda s: s.reshape(2, 2, 6).swapaxes(0, 2)),
             (x.reshape(2, 2, 6).swapaxes(-3, 1), lambda s: s.reshape(2, 2, 6).swapaxes(-3, 1))]
    for got, op in cases:
        assert got.val == -1 and got.order == 3
        for k in range(3):
            assert np.array_equal(got.c[k], op(c[k]))


def _cauchy(a, b, prod):
    """Naive double-loop Cauchy product, slice by slice; a plain array is a constant."""
    ja, jb = isinstance(a, Jet), isinstance(b, Jet)
    ca = a.c if ja else [np.asarray(a, dtype=complex)]
    cb = b.c if jb else [np.asarray(b, dtype=complex)]
    n = min(a.order if ja else b.order, b.order if jb else a.order)
    out = []
    for k in range(n):
        acc = 0
        for i in range(len(ca)):
            for j in range(len(cb)):
                if i + j == k:
                    acc = acc + prod(ca[i], cb[j])
        out.append(acc)
    return np.array(out), (a.val if ja else 0) + (b.val if jb else 0)


def test_products_match_a_naive_cauchy_product():
    """*, @, kron and combine against the double loop over slice pairs."""
    rng = np.random.default_rng(11)

    def rj(order, val, *shape):
        return Jet(rng.normal(size=(order, *shape)) + 1j * rng.normal(size=(order, *shape)), val)

    def rm(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def check(got, a, b, prod):
        want, val = _cauchy(a, b, prod)
        assert got.val == val and got.c.shape == want.shape
        assert np.max(np.abs(got.c - want)) <= 1e-13 * np.max(np.abs(want))

    mul, mm = (lambda x, y: x * y), (lambda x, y: x @ y)
    s5, s7 = rj(5, -1), rj(7, 2)        # scalar jets, unequal orders and valuations
    v6, m4, m6 = rj(6, 1, 3), rj(4, 0, 3, 3), rj(6, -2, 3, 3)
    M, v, x = rm(3, 3), rm(3), 0.7 - 0.2j
    for a, b in [(s5, s7), (s7, s5), (s5, m6), (m6, s5), (v6, m4), (m4, v6),
                 (m4, M), (s5, M), (v6, M), (s7, x)]:
        check(a * b, a, b, mul)
    for a, b in [(M, m4), (M, s5), (x, v6)]:
        check(a * b, a, b, mul)                                # a plain left operand
    for a, b in [(m4, m6), (m6, m4), (m4, v6), (v6, m6), (m4, M), (v6, M), (m6, v)]:
        check(a @ b, a, b, mm)
    for a, b in [(M, m4), (M, v6), (v, m6)]:
        check(a @ b, a, b, mm)
    k23, k32 = rj(5, 1, 2, 3), rj(3, -1, 3, 2)
    check(k23.kron(k32), k23, k32, np.kron)
    check(k32.kron(M), k32, M, np.kron)
    # the tangle contraction: a gate over the middle strands of a batched state
    state, gate, G, S = rj(6, 0, 2, 3, 8), rj(4, 1, 5, 3), rm(5, 3), rm(2, 3, 8)
    over = lambda gt, st: np.einsum("xy,lyr->lxr", gt, st)
    for g in (gate, G):
        check(state.combine(g, lambda st, gt: np.matmul(gt, st)), state, g,
              lambda st, gt: over(gt, st))
        check(g @ state, g, state, over)
    check(gate @ S, gate, S, over)                             # a jet gate on a plain state


def test_batched_plain_gate_on_an_unbatched_jet_state():
    """A plain gate with summand axes, (B, 1, m, n), on an unbatched jet state
    (L, n, c) broadcasts B ahead of the state's axes in every slice."""
    rng = np.random.default_rng(13)
    gate = rng.normal(size=(2, 1, 3, 4)) + 1j * rng.normal(size=(2, 1, 3, 4))
    state = Jet(rng.normal(size=(5, 6, 4, 2)) + 1j * rng.normal(size=(5, 6, 4, 2)), 1)
    got = gate @ state
    assert got.val == 1 and got.c.shape == (5, 2, 6, 3, 2)
    for k in range(5):
        want = gate @ state.c[k]
        assert np.max(np.abs(got.c[k] - want)) <= 1e-14 * np.max(np.abs(want))


def test_plain_operand_adds_into_the_eps0_slice():
    """+ and - take a plain scalar or array as a constant jet of the other
    operand's order: the sum has valuation min(val, 0) and that order, adds
    the plain operand into the eps^0 slice and keeps every other slice, for
    valuations below, at and above 0 and where the sum cancels.  Nothing is
    trimmed; normalized(0.0) drops the slices that cancelled exactly."""
    rng = np.random.default_rng(23)

    def rc(order, *shape):
        return rng.normal(size=(order, *shape)) + 1j * rng.normal(size=(order, *shape))

    def coef(j, m):
        return j.c[m - j.val] if 0 <= m - j.val < j.order else 0j

    M, x = rc(1, 2, 2)[0], 0.7 - 0.2j
    cases = []
    for val in (-2, 0, 3):
        for shape, plain in [((), x), ((2, 2), M), ((), M), ((2, 2), x)]:
            cases.append((Jet(rc(5, *shape), val), plain))
    c = rc(5, 2, 2)
    c[0], c[1] = M, 0.0
    cases.append((Jet(c, 0), -M))                              # cancels slices 0 and 1
    c = rc(5)
    c[0], c[2] = 0.0, x
    cases.append((Jet(c, -2), -x))                             # zero lead, cancels at eps^0
    cases.append((Jet(rc(5), 6), x))                           # the constant outruns the jet
    for a, b in cases:
        sums = [(a + b, 1, 1), (b + a, 1, 1), (a - b, 1, -1), (b - a, -1, 1)]
        for got, sa, sb in sums:
            assert got.val == min(a.val, 0) and got.order == a.order
            for m in range(got.val, got.val + got.order):
                want = sa * coef(a, m) + (sb * b if m == 0 else 0j)
                assert np.array_equal(coef(got, m), np.broadcast_to(want, got.shape))
    cancelled = cases[-3][0] + cases[-3][1]
    assert cancelled.val == 0 and not cancelled.c[:2].any()
    assert cancelled.normalized(0.0).val == 2
    assert (cases[-2][0] + cases[-2][1]).normalized(0.0).val == -1


def test_sum_keeps_its_round_off_until_the_reader_drops_it():
    """0.1 + 0.2 - 0.3 leaves 5.55e-17 at eps^0: the sum keeps it, a limit
    without a floor reads it, and a reader with a floor or of a higher slice
    drops it."""
    e = jet(4)
    x = ((0.1 + e) + 0.2) - 0.3
    assert x.val == 0 and x.c[0] == (0.1 + 0.2) - 0.3  # 5.55e-17
    assert x.limit() == (0.1 + 0.2) - 0.3
    assert x.limit(atol=1e-15) == 0
    assert x.derivative(1) == 1
    assert x.normalized().reciprocal().val == -1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
@example(n=0, za=0j, zb=1e-9 + 0j)  # small constant beside large higher orders
def test_evaluation_is_ring_homomorphism(n, za, zb):
    """Evaluating jets at small eps agrees with composing plain numbers."""
    order = 7
    e = jet(order)
    a = za + e ** (n + 1)
    b = zb + 2 * e
    t = 1e-3
    lhs = ((a * b + a - b)(t))
    rhs = (za + t ** (n + 1)) * (zb + 2 * t) + (za + t ** (n + 1)) - (zb + 2 * t)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_limit_commutes_with_sum_product():
    e = jet(6)
    a = 2.0 + e * 3
    b = -1.5 + e * e
    assert (a + b).limit() == pytest.approx(a.limit() + b.limit())
    assert (a * b).limit() == pytest.approx(a.limit() * b.limit())


def test_cancellation_normalization_avoids_spurious_pole():
    e = jet(6)
    # (1 + eps) - 1 has an exactly-representable cancellation
    x = (1 + e) - 1
    assert x.normalized().val == 1
    # dividing by eps afterwards is finite
    assert (x / e).limit() == pytest.approx(1.0)
