"""Tangle grammar, typing, evaluation engine, and endomorphism decomposition."""

import numpy as np
import pytest

from unrolled_sl2.qnum import QContext
from unrolled_sl2.rep import (
    DeformX, LinearMap, OneDim, Projective, Simple, Typical, dual, hom_space,
    intertwiner_residual, make_module, summand_weights,
)
from unrolled_sl2 import tangle
from unrolled_sl2.ribbon import (
    braiding_matrix, coev_left, coev_right, ev_right, get_config, hopf_closed_form,
    modified_dim, scalar_of,
)
from unrolled_sl2.tangle import (
    BasisError, Braid, Coev, Ev, Insert, TangleExpr, TangleSyntaxError,
    TwistSlice, TypeMismatchError, decompose_endo, eval_tangle, hopf_tangle,
    nilpotent_endo, parse_tangle, power_hopf_tangle, random_braid_tangle,
    renormalized_invariant, twist_loop_tangle,
)


def test_parse_preset_and_desugared_word_identical():
    a = parse_tangle("open P(1,0) | hopf V(0.37)")
    b = parse_tangle("open P(1,0) | insert 2 V(0.37); br+ 1; br+ 1; evR 2")
    assert a == b
    assert a.open_color == Projective(1, 0)
    assert a.slices[0] == Insert(2, Typical(0.37))


def test_parse_explicit_word_with_defaults():
    t = parse_tangle("open V(0.5) | coevR; br+ 1; br+ 1; evR")
    assert t.open_color == Typical(0.5)
    assert t.slices[0] == Coev(2, "R")
    assert t.slices[-1] == Ev(1, "R")


def test_parse_errors():
    with pytest.raises(TypeMismatchError):
        parse_tangle("open V(0.5) | br+ 3")
    with pytest.raises(TangleSyntaxError) as ei:
        parse_tangle("open V(0.5) | frobnicate 1")
    assert ei.value.offset == 14
    with pytest.raises(TangleSyntaxError):
        parse_tangle("open Q(1) | hopf V(0.3)")
    with pytest.raises(TypeMismatchError):
        # cap over mismatched colors
        parse_tangle("open V(0.5) | insert 2 S(0,0); evL 2")


@pytest.mark.parametrize("alpha", [0.37, -1.2, 2.0, 0.3 + 0.1j, -0.41 - 1.1j, 2.5j])
def test_str_parses_back(alpha):
    """str(expr) parses back to expr over real and complex generic colors."""
    for expr in (hopf_tangle(Typical(alpha), Typical(0.37)),
                 hopf_tangle(Projective(1, 0), Typical(alpha)),
                 hopf_tangle(DeformX(0, 1, 0.25), Typical(alpha))):
        assert parse_tangle(str(expr)) == expr
    assert tangle.parse_color(f" V( {alpha.real} {alpha.imag:+}I ) ") == Typical(alpha)
    for bad in ("V()", "V(nan)", "V(1+)", "V(0.3+0.1k)", "X(0,0,)"):
        with pytest.raises(TangleSyntaxError):
            tangle.parse_color(bad)


def test_open_color_module_is_built_once(monkeypatch):
    """A cup of the open color reuses the open strand's module."""
    cfg = get_config(QContext(2))
    built, make = [], tangle.make_module
    monkeypatch.setattr(tangle, "make_module", lambda ctx, lab: built.append(lab) or make(ctx, lab))
    eval_tangle(cfg, parse_tangle("open V(0.37) | coevL; br+ 1; br+ 1; br+ 1; evR 2"))
    assert built == [Typical(0.37)]


def test_parse_powerhopf_and_twistloop():
    t = parse_tangle("open V(0.5) | powerhopf 2 S(1,0)")
    assert t == power_hopf_tangle(Typical(0.5), 2, Simple(1, 0))
    assert sum(isinstance(s, Braid) for s in t.slices) == 4
    t2 = parse_tangle("open V(0.5) | twistloop -")
    assert t2.slices == (TwistSlice(1, -1),)
    assert power_hopf_tangle(Typical(0.5), 1, Simple(1, 0)) == parse_tangle(
        "open V(0.5) | hopf S(1,0)")
    tm = parse_tangle("open V(0.5) | powerhopf -1 P(0,0)")
    assert all(s.sign == -1 for s in tm.slices if isinstance(s, Braid))


def test_empty_tangle_is_identity():
    ctx = QContext(3)
    cfg = get_config(ctx)
    t = TangleExpr(Typical(0.41), ())
    lm = eval_tangle(cfg, t)
    assert np.max(np.abs(lm.matrix - np.eye(ctx.r))) < 1e-12


def _dense_hopf(cfg, closed, open_):
    """(Id x ev_r)(c_{V,W} x Id)(c_{W,V} x Id)(Id x coev) as dense matrices."""
    IW, IV = np.eye(open_.dim), np.eye(closed.dim)
    steps = [np.kron(IW, coev_left(cfg, closed)),
             np.kron(braiding_matrix(cfg, open_, closed), IV),
             np.kron(braiding_matrix(cfg, closed, open_), IV),
             np.kron(IW, ev_right(cfg, closed))]
    out = steps[0]
    for step in steps[1:]:
        out = step @ out
    return out


def test_hopf_preset_matches_ribbon_composite_and_closed_form():
    ctx = QContext(3)
    cfg = get_config(ctx)
    for z_lab, beta in [(Typical(0.71), 0.37), (Simple(1, -1), 0.91), (Projective(0, 1), 0.44)]:
        t = hopf_tangle(Typical(beta), z_lab)
        lm = eval_tangle(cfg, t)
        direct = _dense_hopf(cfg, make_module(ctx, z_lab), make_module(ctx, Typical(beta)))
        assert np.max(np.abs(lm.matrix - direct)) < 1e-10
        got = scalar_of(lm.matrix, ctx.r, ctx.tol)
        assert got == pytest.approx(hopf_closed_form(ctx, z_lab, beta), rel=1e-9)


def test_hopf_word_builds_no_dual(monkeypatch):
    """Duals are built only for strands that a gate acts on."""
    calls = []
    dual = tangle.dual

    def counting(m):
        calls.append(m.label)
        return dual(m)

    ctx = QContext(3)
    cfg = get_config(ctx)
    monkeypatch.setattr(tangle, "dual", counting)
    eval_tangle(cfg, hopf_tangle(Typical(0.37), Simple(1, 0)))
    assert calls == []
    # braiding the open strand with a dual strand builds that strand's dual
    eval_tangle(cfg, parse_tangle("open V(0.5) | coevR; br+ 1; br+ 1; evR"))
    assert calls == [Typical(0.5)]


def test_reidemeister_two():
    ctx = QContext(4)
    cfg = get_config(ctx)
    t = parse_tangle("open V(0.62) | insert 2 P(1,0); br+ 1; br- 1; evR 2")
    lm = eval_tangle(cfg, t)
    # br+ then br- cancels, leaving the trivial loop = categorical dimension 0
    # so instead test the pure braid pair on a 2-strand word via powerhopf 0
    t0 = power_hopf_tangle(Typical(0.62), 0, Projective(1, 0))
    lm0 = eval_tangle(cfg, t0)
    assert np.max(np.abs(lm.matrix - lm0.matrix)) < 1e-10


def test_yang_baxter_at_map_level():
    ctx = QContext(3)
    cfg = get_config(ctx)
    from unrolled_sl2.ribbon import braiding_matrix
    A = make_module(ctx, Typical(0.37))
    B = make_module(ctx, Simple(1, 0))
    C = make_module(ctx, Projective(0, 0))
    IA, IB, IC = (np.eye(m.dim) for m in (A, B, C))
    cAB = braiding_matrix(cfg, A, B)
    cAC = braiding_matrix(cfg, A, C)
    cBC = braiding_matrix(cfg, B, C)
    lhs = np.kron(cBC, IA) @ np.kron(IB, cAC) @ np.kron(cAB, IC)
    rhs = np.kron(IC, cAB) @ np.kron(cAC, IB) @ np.kron(IA, cBC)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1, np.max(np.abs(rhs)))


def test_schur_scalar_on_simple_open_colors():
    ctx = QContext(3)
    cfg = get_config(ctx)
    rng = np.random.default_rng(5)
    for _ in range(6):
        t = random_braid_tangle(rng, Typical(0.83), Simple(1, 1))
        lm = eval_tangle(cfg, t)
        scalar_of(lm.matrix, ctx.r, 1e-7)  # raises if not scalar


def test_renormalized_invariant_examples():
    ctx = QContext(3)
    cfg = get_config(ctx)
    lam = 0.57
    # unknot
    t = TangleExpr(Typical(lam), ())
    assert renormalized_invariant(cfg, t) == pytest.approx(modified_dim(ctx, Typical(lam)))
    # unknot with a positive twist: d * twist scalar
    from unrolled_sl2.ribbon import twist_matrix
    tw = twist_loop_tangle(Typical(lam), 1)
    th = scalar_of(twist_matrix(cfg, make_module(ctx, Typical(lam))), ctx.r, ctx.tol)
    assert renormalized_invariant(cfg, tw) == pytest.approx(
        modified_dim(ctx, Typical(lam)) * th, rel=1e-10)
    # Hopf link cut at the beta strand
    alpha, beta = 1.21, 0.37
    h = hopf_tangle(Typical(beta), Typical(alpha))
    want = modified_dim(ctx, Typical(beta)) * hopf_closed_form(ctx, Typical(alpha), beta)
    assert renormalized_invariant(cfg, h) == pytest.approx(want, rel=1e-9)


def test_decompose_endo_basics():
    ctx = QContext(3)
    cfg = get_config(ctx)
    p = make_module(ctx, Projective(1, 0))
    d = decompose_endo(np.eye(p.dim), p)
    assert (d.a, d.b) == (pytest.approx(1.0), pytest.approx(0.0))
    x = nilpotent_endo(p)
    d2 = decompose_endo(x, p)
    assert (d2.a, d2.b) == (pytest.approx(0.0), pytest.approx(1.0))
    assert np.max(np.abs(x @ x)) < 1e-12
    from unrolled_sl2.tangle import NotEndomorphismError
    with pytest.raises(NotEndomorphismError):
        bad = np.eye(p.dim)
        bad[0, 1] = 0.3
        decompose_endo(bad, p)


@pytest.mark.parametrize("r,i,l", [(r, i, l) for r in range(2, 8) for i in range(r - 1)
                                   for l in range(-2, 3)])
def test_closed_form_nilpotent_endo(r, i, l):
    """x, read off the basis layout, lies in End(P) as the hom-space solver
    finds it, squares to zero, intertwines, and a Id + b x decomposes to (a, b)."""
    ctx = QContext(r)
    p = make_module(ctx, Projective(i, l))
    x = nilpotent_endo(p)
    endo = hom_space(p, p)
    assert len(endo) == 2
    basis = np.array([m.matrix.ravel() for m in endo]).T
    coef = np.linalg.lstsq(basis, x.ravel(), rcond=None)[0]
    assert np.max(np.abs(basis @ coef - x.ravel())) < 1e-12
    assert not np.any(x @ x)
    assert intertwiner_residual(LinearMap(p, p, x)) < 1e-12
    rng = np.random.default_rng([r, i, l + 2])
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    d = decompose_endo(a * np.eye(p.dim) + b * x, p)
    assert (d.a, d.b) == (a, b)


@pytest.mark.parametrize("label,name", [(Typical(0.37), "V(0.37)"), (Simple(1, 0), "S(1,0)"),
                                        (DeformX(1, 0, 0.3), "X(1,0,0.3)")])
def test_basis_error_on_non_cover(label, name):
    """nilpotent_endo and decompose_endo refuse a non-cover with one message."""
    p = make_module(QContext(3), label)
    for call in (lambda: nilpotent_endo(p), lambda: decompose_endo(np.eye(p.dim), p)):
        with pytest.raises(BasisError) as ei:
            call()
        assert str(ei.value) == f"not a projective cover: {name}"


def test_hopf_on_projective_open_color_has_zero_head_scalar():
    """Generic or projective closed colors act with vanishing identity part."""
    ctx = QContext(3)
    cfg = get_config(ctx)
    for j, l in [(0, 0), (1, 0), (0, 1), (1, -1)]:
        p = make_module(ctx, Projective(j, l))
        for z in (Typical(0.77), Projective(0, 1)):
            t = hopf_tangle(Projective(j, l), z)
            lm = eval_tangle(cfg, t)
            d = decompose_endo(lm.matrix, p)
            assert abs(d.a) < 1e-9


# Knot oracles on generic colours: closed forms at r = 2 and the Markov move.
# Each knot is cut open at a strand of the generic colour V(alpha); the open
# strand itself is capped, so these words exercise the open-strand cap.

_TREFOIL = "coevL; br+ 1; br+ 1; br+ 1; evR 2"  # closure of s1^3, writhe 3
_TREFOIL_3 = "coevL 2; coevL 3; br+ 1; br+ 2; br+ 1; br+ 2; evR 3; evR 2"  # (s1 s2)^2, writhe 4
_FIGURE_EIGHT = "coevL 2; coevL 3; br+ 2; br- 1; br+ 2; br- 1; evR 3; evR 2"  # writhe 0


def _knot_scalar(cfg, alpha, word):
    lm = eval_tangle(cfg, parse_tangle(f"open V({alpha}) | {word}"))
    return scalar_of(lm.matrix, lm.source.dim, cfg.ctx.tol, lm.scale)


@pytest.mark.parametrize("alpha", [0.37, -1.21])
def test_knots_at_r2_give_the_alexander_polynomial(alpha):
    """At r = 2 the framing-corrected scalar of a knot on V(alpha) is its
    Alexander polynomial at t = q^(2(alpha + r - 1)): t - 1 + 1/t for the
    trefoil and -t + 3 - 1/t for the figure-eight.  theta is the twist scalar."""
    cfg = get_config(QContext(2))
    theta = _knot_scalar(cfg, alpha, "tw+ 1")
    t = np.exp(1j * np.pi / 2 * 2 * (alpha + 1))
    for word, writhe, delta in [(_TREFOIL, 3, t - 1 + 1 / t), (_TREFOIL_3, 4, t - 1 + 1 / t),
                                (_FIGURE_EIGHT, 0, -t + 3 - 1 / t)]:
        got = _knot_scalar(cfg, alpha, word) / theta ** writhe
        assert abs(got - delta) <= 1e-11 * abs(delta), word


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_trefoil_is_invariant_under_the_markov_move(r):
    """The trefoil as the closure of s1^3 and of (s1 s2)^2 agrees once each
    is divided by theta to its writhe."""
    cfg = get_config(QContext(r))
    theta = _knot_scalar(cfg, 0.37, "tw+ 1")
    two = _knot_scalar(cfg, 0.37, _TREFOIL) / theta ** 3
    three = _knot_scalar(cfg, 0.37, _TREFOIL_3) / theta ** 4
    assert abs(two - three) <= 1e-13 * abs(two)


def _same_jet(x, y, rel):
    """Two jets agree on the coefficients of every order both know."""
    val, top = min(x.val, y.val), min(x.val + x.order, y.val + y.order)

    def coefs(j):
        c = np.zeros((top - val, *j.shape), dtype=complex)
        c[j.val - val:] = j.c[:top - j.val]
        return c
    cx, cy = coefs(x), coefs(y)
    return np.max(np.abs(cx - cy)) <= rel * np.max(np.abs(cx))


_BATCH_WORDS = [
    "hopf V(0.41-0.3i)", "hopf S({top},1)", "hopf P(0,-1)",
    "insert 2 V(0.73-0.14i); br+ 1; br- 2; br+ 1; br- 1; br- 2; br+ 1; tw- 1; evR 2",
    "insert 2 S(0,-1); br- 1; tw+ 1; br- 1; tw- 1; tw+ 1; evR 2",
]
_UNTOUCHED = "insert 2 V(0.3); tw+ 2; br- 2; br- 2; evR 2"  # no gate acts on the open strand


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_batched_open_module_equals_each_summand(r):
    """eval_tangle with the open strand recolored by both summand weights at
    once equals the two evaluations one weight at a time: the matrix, and
    each summand's scale and scale0.  A word whose open strand no gate
    touches gives one matrix without a batch axis."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    i, l = r - 2, 1
    lams = summand_weights(ctx, i, l)
    batched = make_module(ctx, Typical(np.array(lams) + ctx.eps()))
    singles = [make_module(ctx, Typical(lam + ctx.eps())) for lam in lams]
    for body in _BATCH_WORDS + [_UNTOUCHED]:
        expr = parse_tangle(f"open P({i},{l}) | " + body.format(top=r - 2))
        lm = eval_tangle(cfg, expr, open_module=batched)
        assert len(lm.matrix.shape) == (2 if body == _UNTOUCHED else 3)
        for t, single in enumerate(singles):
            one = eval_tangle(cfg, expr, open_module=single)
            mat = lm.matrix if body == _UNTOUCHED else lm.matrix[t]
            assert _same_jet(mat, one.matrix, 1e-14), body
            for got, want in ((lm.scale, one.scale), (lm.scale0, one.scale0)):
                assert np.broadcast_to(got, 2)[t] == pytest.approx(want, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# the store of discrete-coloured strand modules


def _same_bits(got, want):
    """Equal arrays, to the bit, zero signs included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def _discrete_colours(r):
    return [Simple(r - 2, 1), Simple(0, -1), Projective(0, 1), Projective(r - 2, -1), OneDim(2)]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_stored_module_is_one_read_only_object_per_value(r):
    """A warm lookup of a discrete colour returns the stored object, whose
    arrays, and the pivot gates kept with it, refuse an in-place write.  The
    dual is an entry of its own, the dual of the stored plain module."""
    store = tangle._stored_module
    cfg = get_config(QContext(r))
    tol = cfg.ctx.tol
    store.cache_clear()
    for n, lab in enumerate(_discrete_colours(r), 1):
        m = store(r, tol, lab, False)
        assert store(r, tol, lab, False) is m and m.label == lab
        d = store(r, tol, lab, True)
        assert store(r, tol, lab, True) is d and d is not m
        assert store.cache_info().currsize == 2 * n
        want = dual(make_module(QContext(r), lab))
        for got, ref in ((d.E, want.E), (d.F, want.F), (d.weights, want.weights)):
            _same_bits(got, ref)
        for mod in (m, d):
            gates = (ev_right(cfg, mod), coev_right(cfg, mod))
            assert ev_right(cfg, mod) is gates[0] and coev_right(cfg, mod) is gates[1]
            for a in (mod.E, mod.F, mod.weights, *gates):
                assert not a.flags.writeable
            with pytest.raises(ValueError):
                mod.E[0, 0] = 1
            with pytest.raises(ValueError):
                mod.weights[0] = 0


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_continuous_colours_are_built_per_call(r, monkeypatch):
    """Typical and DeformX colours carry a continuous parameter: every
    evaluation builds their modules afresh and stores none of them."""
    cfg = get_config(QContext(r))
    built, make = [], tangle.make_module
    monkeypatch.setattr(tangle, "make_module",
                        lambda ctx, lab: built.append(make(ctx, lab)) or built[-1])
    expr = parse_tangle("open X(0,1,0.25) | insert 2 V(0.37-0.2i); br+ 1; br- 2; br- 2; "
                        "br+ 1; tw- 1; evR 2")
    tangle._stored_module.cache_clear()
    eval_tangle(cfg, expr)
    eval_tangle(cfg, expr)
    assert [m.label for m in built] == [DeformX(0, 1, 0.25), Typical(0.37 - 0.2j)] * 2
    assert all(a is not b for i, a in enumerate(built) for b in built[:i])
    assert tangle._stored_module.cache_info().currsize == 0


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_store_is_keyed_by_r_and_tol(r, monkeypatch):
    """A context that differs only in its jet order shares the stored modules;
    one with another tolerance builds its own."""
    cfgs = [get_config(QContext(r)), get_config(QContext(r, jet_order=7)),
            get_config(QContext(r, tol=1e-10))]
    built, make = [], tangle.make_module
    monkeypatch.setattr(tangle, "make_module",
                        lambda ctx, lab: built.append((ctx.tol, lab)) or make(ctx, lab))
    expr = hopf_tangle(Projective(r - 2, 1), Simple(0, -1))
    tangle._stored_module.cache_clear()
    lms = [eval_tangle(cfg, expr) for cfg in cfgs]
    assert built == [(tol, lab) for tol in (1e-9, 1e-10)
                     for lab in (Projective(r - 2, 1), Simple(0, -1))]
    assert lms[1].source is lms[0].source and lms[2].source is not lms[0].source
    assert lms[2].source.ctx == cfgs[2].ctx
    _same_bits(lms[1].matrix, lms[0].matrix)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_store_gives_bit_identical_results(r):
    """Cold, warm and rebuilt stores give the same bits on float-on-P
    (decompose_endo of eval_tangle on the cover) and on the jet route."""
    from unrolled_sl2.deform import log_tangle_invariant

    cfg = get_config(QContext(r))
    i, l = r - 2, -1
    route = [hopf_tangle(Projective(i, l), z)
             for z in (Simple(0, 1), Projective(0, 1), OneDim(-1), Typical(0.37 + 0.11j))]
    route += [parse_tangle(f"open P({i},{l}) | insert 2 {z}; tw+ 1; br+ 1; br+ 2; br- 2; "
                           "tw- 2; br- 1; evR 2") for z in ("S(0,-1)", "P(0,1)")]
    capped = parse_tangle(f"open P({i},{l}) | coevR; br+ 1; br- 1; tw+ 1; evR")

    def results():
        out = []
        for expr in route + [capped]:
            lm = eval_tangle(cfg, expr)
            d = decompose_endo(lm, lm.source)
            out.append([lm.matrix, d.a, d.b])
        for expr in route:
            res = log_tangle_invariant(cfg, expr)
            out.append([res.trace, res.a, res.b, res.residual_cross_check])
        return out

    tangle._stored_module.cache_clear()
    cold = results()
    warm = results()
    tangle._stored_module.cache_clear()
    rebuilt = results()
    for runs in zip(cold, warm, rebuilt):
        for want, *others in zip(*runs):
            for got in others:
                _same_bits(got, want)
