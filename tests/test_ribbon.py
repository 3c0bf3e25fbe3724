"""Ribbon data: calibration, braiding axioms, dualities, modified trace/dimension."""

import dataclasses

import numpy as np
import pytest

from unrolled_sl2 import rep
from unrolled_sl2.jets import Jet
from unrolled_sl2.qnum import QContext, qpow
from unrolled_sl2.rep import (
    DeformX, LinearMap, OneDim, Projective, SelfExt, Simple, Typical, _stack, direct_sum, dual,
    hom_space, make_deformable, make_module, mat_norm, tensor,
)
from unrolled_sl2.ribbon import (
    CalibrationError, NonScalarError, NotProjectiveError, RibbonConfig,
    braiding_matrix, calibrate, crossing, ev_left, ev_right, coev_left, coev_right,
    get_config, hopf_closed_form, modified_dim, modified_trace, scalar_of,
    twist_matrix,
)
from unrolled_sl2.tangle import (
    Braid, Coev, Ev, Insert, TangleExpr, TwistSlice, eval_tangle, hopf_tangle, parse_tangle,
)

RS = [2, 3, 4, 5]


@pytest.mark.parametrize("r", RS + [6])
def test_calibration_selects_a_convention(r):
    cfg = calibrate(QContext(r))
    assert cfg.max_rel_error < 1e-9
    assert cfg.pivot_exponent == 1 - r


@pytest.mark.parametrize("r", [2, 3])
def test_calibration_rejects_the_opposite_pivot(r, monkeypatch):
    """Negative control: the anchors tell pivot r-1 apart from the convention 1-r."""
    monkeypatch.setattr(RibbonConfig, "pivot_exponent", property(lambda self: self.ctx.r - 1))
    with pytest.raises(CalibrationError):
        calibrate(QContext(r))


@pytest.mark.parametrize("r", RS)
def test_hopf_closed_forms_battery(r):
    ctx = QContext(r)
    cfg = get_config(ctx)
    rng = np.random.default_rng(11)
    betas = rng.uniform(0.1, 1.9, 4) + 1j * rng.uniform(-0.4, 0.4, 4)
    alphas = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
    for beta in betas:
        labels = [Typical(a) for a in alphas]
        labels += [Simple(i, k) for i in range(r - 1) for k in (-1, 0, 1)]
        labels += [Projective(i, k) for i in range(r - 1) for k in (-1, 0, 1)]
        for lab in labels:
            lm = eval_tangle(cfg, hopf_tangle(Typical(beta), lab))
            got = scalar_of(lm.matrix, lm.source.dim, ctx.tol)
            want = hopf_closed_form(ctx, lab, beta)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (r, lab, beta)


def test_braiding_on_characters_is_scalar():
    ctx = QContext(3)
    cfg = get_config(ctx)
    for k, kp in [(1, 1), (2, -1), (-1, 0)]:
        a = make_module(ctx, OneDim(k))
        b = make_module(ctx, OneDim(kp))
        c = braiding_matrix(cfg, a, b)
        assert c[0, 0] == pytest.approx(qpow(ctx, k * ctx.r * kp * ctx.r / 2))


def test_braiding_intertwines_diagonal_action():
    ctx = QContext(3)
    cfg = get_config(ctx)
    m = make_module(ctx, Typical(0.73))
    n = make_module(ctx, Projective(1, 0))
    c = braiding_matrix(cfg, m, n)
    mn = tensor(m, n)
    nm = tensor(n, m)
    for gen in ("E", "F", "H", "K"):
        lhs = c @ np.asarray(getattr(mn, gen))
        rhs = np.asarray(getattr(nm, gen)) @ c
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1, np.max(np.abs(rhs)))


def test_braiding_naturality_against_nilpotent():
    ctx = QContext(3)
    cfg = get_config(ctx)
    p = make_module(ctx, Projective(0, 0))
    v = make_module(ctx, Typical(0.41))
    endo = hom_space(p, p)
    x = endo[0].matrix if np.max(np.abs(endo[0].matrix - np.eye(p.dim) * endo[0].matrix[0, 0])) > 1e-8 else endo[1].matrix
    c = braiding_matrix(cfg, p, v)
    lhs = c @ np.kron(x, np.eye(v.dim))
    rhs = np.kron(np.eye(v.dim), x) @ c
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1, np.max(np.abs(rhs)))


def _inverse_pairs(ctx):
    """(labels, tolerance): float pairs, and a jet pair with a projective."""
    r = ctx.r
    return [((Typical(0.3), Simple(r - 2, 1)), 1e-10),
            ((Typical(0.3 - 0.2j), Projective(r - 2, 0)), 1e-10),
            ((Typical(0.37 + ctx.eps()), Projective(0, 1)), 1e-9)]


def _max_abs(x):
    return x.norm() if isinstance(x, Jet) else float(np.max(np.abs(x)))


def test_inverse_braiding():
    """The closed-form inverse crossing inverts the crossing, on float and jet modules."""
    for r in RS + [6]:
        ctx = QContext(r)
        cfg = get_config(ctx)
        for (a, b), tol in _inverse_pairs(ctx):
            m, n = make_module(ctx, a), make_module(ctx, b)
            c = braiding_matrix(cfg, m, n, 1)
            cinv = braiding_matrix(cfg, n, m, -1)
            assert isinstance(cinv, Jet) == m.is_jet
            assert _max_abs(cinv @ c - np.eye(m.dim * n.dim)) < tol, (r, a, b)
            assert _max_abs(c @ cinv - np.eye(m.dim * n.dim)) < tol, (r, a, b)


@pytest.mark.parametrize("r", RS + [6])
def test_inverse_twist(r):
    """The negative curl (partial trace of the inverse crossing) inverts the twist."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    for labels, tol in _inverse_pairs(ctx):
        for lab in labels:
            m = make_module(ctx, lab)
            th = twist_matrix(cfg, m, 1)
            assert _max_abs(twist_matrix(cfg, m, -1) @ th - np.eye(m.dim)) < tol, lab


def test_zigzags():
    ctx = QContext(3)
    cfg = get_config(ctx)
    for lab in (Typical(0.37), Projective(1, 0), Simple(1, -1)):
        m = make_module(ctx, lab)
        d = m.dim
        ev, cov = ev_left(cfg, m), coev_left(cfg, m)
        evr, covr = ev_right(cfg, m), coev_right(cfg, m)
        I = np.eye(d)
        z1 = np.kron(I, ev) @ np.kron(cov, I)          # (1 x ev)(coev x 1) = id_M
        z2 = np.kron(ev, I) @ np.kron(I, cov)          # on the dual
        z3 = np.kron(evr, I) @ np.kron(I, covr)        # (ev' x 1)(1 x coev') = id_M
        z4 = np.kron(I, evr) @ np.kron(covr, I)        # on the dual
        for z in (z1, z2, z3, z4):
            assert np.max(np.abs(z - I)) < 1e-10


def test_twist_scalars_and_unit():
    ctx = QContext(3)
    cfg = get_config(ctx)
    unit = make_module(ctx, Simple(0, 0))
    th = twist_matrix(cfg, unit)
    assert th[0, 0] == pytest.approx(1.0)
    v = make_module(ctx, Typical(0.62))
    thv = twist_matrix(cfg, v)
    c = scalar_of(thv, v.dim, ctx.tol)  # scalar by simplicity; value recorded only
    # derived partial-trace value: q^((mu^2 + 2(1-r) mu)/2) at mu = alpha + r - 1
    mu = 0.62 + ctx.r - 1
    assert c == pytest.approx(qpow(ctx, (mu * mu + 2 * (1 - ctx.r) * mu) / 2))


def test_ribbon_compatibility_and_naturality():
    ctx = QContext(3)
    cfg = get_config(ctx)
    m = make_module(ctx, Typical(0.53))
    n = make_module(ctx, Simple(1, 0))
    mn = tensor(m, n)
    th_mn = twist_matrix(cfg, mn)
    cc = braiding_matrix(cfg, n, m) @ braiding_matrix(cfg, m, n)
    rhs = np.kron(twist_matrix(cfg, m), twist_matrix(cfg, n)) @ cc
    assert np.max(np.abs(th_mn - rhs)) < 1e-9 * max(1, np.max(np.abs(rhs)))
    # naturality of the twist against an intertwiner
    p = make_module(ctx, Projective(0, 1))
    x = hom_space(p, p)[1].matrix
    thp = twist_matrix(cfg, p)
    assert np.max(np.abs(thp @ x - x @ thp)) < 1e-9


def test_modified_dim_examples():
    ctx2 = QContext(2)
    assert modified_dim(ctx2, Typical(0.5)) == pytest.approx(-np.sqrt(2))
    assert abs(modified_dim(ctx2, Projective(0, 0))) < 1e-12
    ctx3 = QContext(3)
    assert modified_dim(ctx3, Projective(0, 0)) == pytest.approx(-1.0)
    with pytest.raises(NotProjectiveError):
        modified_dim(ctx3, Simple(1, 0))
    with pytest.raises(NotProjectiveError):
        modified_dim(ctx3, Typical(1.0))  # integer weight outside r*Z


def test_modified_dim_jet_limit_matches_projective():
    for r in (2, 3, 5):
        ctx = QContext(r)
        for i in range(r - 1):
            for l in (-2, 0, 1):
                dj = modified_dim(ctx, DeformX(i, l, ctx.eps()))
                lim = dj.limit()
                want = modified_dim(ctx, Projective(i, l))
                assert abs(lim - want) < 1e-8


@pytest.mark.parametrize("r", range(2, 7))
def test_modified_dim_takes_either_label_of_the_cover(r):
    """DeformX(i, l, 0) is the projective cover P(i, l), and its modified
    dimension is the same closed form."""
    ctx = QContext(r)
    for i in range(r - 1):
        for l in (-1, 0, 1):
            want = modified_dim(ctx, Projective(i, l))
            assert modified_dim(ctx, DeformX(i, l, 0.0)) == want
            assert modified_dim(ctx, DeformX(i, l, 0)) == want


def test_modified_trace():
    ctx = QContext(4)
    v = make_module(ctx, Typical(0.81))
    assert modified_trace(v, np.eye(v.dim)) == pytest.approx(modified_dim(ctx, Typical(0.81)))
    v0 = make_module(ctx, Typical(0.0))
    assert modified_trace(v0, np.eye(v0.dim)) == pytest.approx((-1) ** (ctx.r - 1))
    s = direct_sum(make_module(ctx, Typical(0.3)), make_module(ctx, Typical(1.7)))
    f = np.kron(np.diag([2.0, -1.5]), np.eye(ctx.r))
    want = 2 * modified_dim(ctx, Typical(0.3)) - 1.5 * modified_dim(ctx, Typical(1.7))
    assert modified_trace(s, f) == pytest.approx(want)
    with pytest.raises(NonScalarError):
        bad = np.eye(v.dim)
        bad[0, 1] = 0.1
        modified_trace(v, bad)


def test_modified_trace_uses_the_round_off_scale_of_a_linear_map():
    """A residual inside tol times the map's round-off scale is admitted; the
    same matrix without its scale is refused."""
    ctx = QContext(3)
    v = make_module(ctx, Typical(0.81))
    mat = 2.0 * np.eye(v.dim)
    mat[0, 1] = 1e-7  # above tol * |mat|, below tol * scale
    with pytest.raises(NonScalarError):
        modified_trace(v, mat)
    got = modified_trace(v, LinearMap(v, v, mat, scale=1e3))
    assert got == pytest.approx(2.0 * modified_dim(ctx, Typical(0.81)))
    with pytest.raises(NonScalarError):
        modified_trace(v, LinearMap(v, v, mat, scale=1.0))


def test_ribbon_maps_refuse_a_non_diagonal_h():
    """The pivot and the Cartan factor are q-powers of the weights, which
    would drop the Jordan part of the self-extension's H."""
    ctx = QContext(3)
    cfg = get_config(ctx)
    s = make_module(ctx, SelfExt(0.3))
    v = make_module(ctx, Typical(0.7))
    for sign in (1, -1):
        with pytest.raises(NotProjectiveError):
            braiding_matrix(cfg, s, v, sign)
        with pytest.raises(NotProjectiveError):
            braiding_matrix(cfg, v, s, sign)
        with pytest.raises(NotProjectiveError):
            twist_matrix(cfg, s, sign)
    for duality in (ev_right, coev_right):
        with pytest.raises(NotProjectiveError):
            duality(cfg, s)
    with pytest.raises(NotProjectiveError):
        braiding_matrix(cfg, direct_sum(s, v), v)


def test_jet_braiding_limits_to_numeric():
    ctx = QContext(3)
    cfg = get_config(ctx)
    vj = make_module(ctx, Typical(0.37 + ctx.eps()))
    n = make_module(ctx, Simple(1, 0))
    cj = braiding_matrix(cfg, vj, n)
    assert isinstance(cj, Jet)
    c0 = braiding_matrix(cfg, make_module(ctx, Typical(0.37)), n)
    assert np.max(np.abs(cj.limit() - c0)) < 1e-10


@pytest.mark.parametrize("r", [2, 3, 5])
def test_jet_gates_match_float_gates_off_zero(r):
    """Jet modules and gates evaluated at eps = t equal float ones built at t.

    At t = 1e-3 a jet truncated at eps^6 is exact to about 1e-18, which the
    1e-12 bound needs; a lower order would truncate near t^order."""
    ctx = QContext(r, jet_order=6)
    cfg = get_config(ctx)
    e, t = ctx.eps(), 1e-3

    def check(jm, fm):
        assert isinstance(jm, Jet)
        assert np.max(np.abs(jm(t) - fm)) <= 1e-12 * np.max(np.abs(fm))

    vj, vt = make_module(ctx, Typical(0.37 + e)), make_module(ctx, Typical(0.37 + t))
    for lab in (Simple(r - 2, 1), Projective(0, -1), Typical(-0.81 + 0.2j)):
        z = make_module(ctx, lab)
        for sign in (1, -1):
            check(braiding_matrix(cfg, vj, z, sign), braiding_matrix(cfg, vt, z, sign))
            check(braiding_matrix(cfg, z, vj, sign), braiding_matrix(cfg, z, vt, sign))
    for i in range(r - 1):
        xj, xt = make_deformable(ctx, i, 1, e), make_deformable(ctx, i, 1, t)
        for gen in ("E", "F", "K", "Kinv", "H"):
            check(getattr(xj, gen), getattr(xt, gen))
        for sign in (1, -1):
            check(twist_matrix(cfg, xj, sign), twist_matrix(cfg, xt, sign))
    for sign in (1, -1):
        check(twist_matrix(cfg, vj, sign), twist_matrix(cfg, vt, sign))


def _textbook_crossing(r, m, n):
    """Dense crossing M x N -> N x M as P . D . T, built without the library's
    factors: T = sum_k ({1}^k / [k]!) q^(k(k-1)/2) kron(E^k, F^k), D the
    diagonal matrix of q^(w_a w_b / 2), P the flip's permutation matrix."""
    q = np.exp(1j * np.pi / r)
    br1 = q - 1 / q
    dm, dn = m.dim, n.dim
    T = np.zeros((dm * dn, dm * dn), dtype=complex)
    fact = 1.0
    for k in range(r):
        if k:
            fact *= (q ** k - q ** -k) / br1
        T += (br1 ** k / fact * q ** (k * (k - 1) / 2)
              * np.kron(np.linalg.matrix_power(m.E, k), np.linalg.matrix_power(n.F, k)))
    D = np.diag(np.exp(1j * np.pi / r * np.kron(m.weights, n.weights) / 2))
    P = np.zeros((dm * dn, dm * dn))
    for a in range(dm):
        for b in range(dn):
            P[b * dm + a, a * dn + b] = 1.0
    return P @ D @ T


def _oracle_modules(ctx):
    r = ctx.r
    labels = [Typical(0.37 - 0.21j), Simple(r - 2, 1), Simple(0, -1), Projective(0, 1),
              Projective(r - 2, -1)]
    mods = [make_module(ctx, lab) for lab in labels]
    return mods + [dual(mods[0]), dual(mods[3])]


@pytest.mark.parametrize("r", RS + [6])
def test_factored_crossing_matches_the_textbook_crossing(r):
    """braiding_matrix, both signs, against a dense textbook crossing and the
    numerical inverse of the opposite one, on float modules and duals."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    mods = _oracle_modules(ctx)
    for m in mods:
        for n in mods:
            want = _textbook_crossing(r, m, n)
            got = braiding_matrix(cfg, m, n, 1)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (m, n)
            want = np.linalg.inv(_textbook_crossing(r, n, m))
            got = braiding_matrix(cfg, m, n, -1)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (m, n)


_TWIST_COLOURS = {
    "typical": lambda r: Typical(0.37 - 0.21j),
    "simple": lambda r: Simple(r - 2, 1),
    "one-dim": lambda r: OneDim(-1),
    "projective": lambda r: Projective(0, 1),
    "projective-top": lambda r: Projective(r - 2, -1),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dualised", [False, True])
@pytest.mark.parametrize("colour", list(_TWIST_COLOURS))
@pytest.mark.parametrize("r", RS + [6])
def test_twist_matches_the_textbook_partial_trace(r, colour, dualised, sign):
    """twist_matrix against the right partial trace of the dense textbook
    self-crossing (its numerical inverse for sign = -1) with an explicit
    pivot matrix K^(1-r)."""
    ctx = QContext(r)
    m = make_module(ctx, _TWIST_COLOURS[colour](r))
    m = dual(m) if dualised else m
    want = _textbook_twist(r, m, sign)
    got = twist_matrix(get_config(ctx), m, sign)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _textbook_twist(r, m, sign):
    """Twist (sign = -1: inverse twist) as the right partial trace of the dense
    textbook self-crossing (its numerical inverse) against the pivot K^(1-r)."""
    d = m.dim
    c = _textbook_crossing(r, m, m)
    c = c if sign == 1 else np.linalg.inv(c)
    pivot = np.diag(np.exp(1j * np.pi / r * (1 - r) * m.weights))
    return np.einsum("abvj,jb->av", c.reshape(d, d, d, d), pivot)


@pytest.mark.parametrize("r", RS + [6])
def test_ribbon_maps_on_a_batched_module(r):
    """On Typical of a batch of weights, a crossing applied to a state, the
    twist and the right dualities are the stacks of the per-weight maps, and
    each summand passes the textbook crossing and partial-trace twist."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    rng = np.random.default_rng(r)
    alphas = np.array([0.37 - 0.21j, -1.13 + 0.4j])
    vb, vs = make_module(ctx, Typical(alphas)), [make_module(ctx, Typical(a)) for a in alphas]
    close = lambda got, want: np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for z in (make_module(ctx, Simple(r - 2, 1)), make_module(ctx, Projective(0, -1))):
        d = vb.dim * z.dim
        state = rng.standard_normal((3, d, 4)) + 1j * rng.standard_normal((3, d, 4))
        for sign in (1, -1):
            for batched_left in (True, False):
                pair = lambda v: (v, z) if batched_left else (z, v)
                got = crossing(cfg, *pair(vb), sign)(state)
                dense = braiding_matrix(cfg, *pair(vb), sign)
                assert got.shape == (2, 3, d, 4) and dense.shape == (2, d, d)
                for t, v in enumerate(vs):
                    assert close(got[t], crossing(cfg, *pair(v), sign)(state))
                    m, n = pair(v)
                    want = (_textbook_crossing(r, m, n) if sign == 1
                            else np.linalg.inv(_textbook_crossing(r, n, m)))
                    assert close(dense[t], want)
    for sign in (1, -1):
        got = twist_matrix(cfg, vb, sign)
        for t, v in enumerate(vs):
            assert close(got[t], twist_matrix(cfg, v, sign))
            assert close(got[t], _textbook_twist(r, v, sign))
    for duality in (ev_right, coev_right):
        got = duality(cfg, vb)
        assert got.shape[0] == 2
        for t, v in enumerate(vs):
            assert close(got[t], duality(cfg, v))
    for gen in ("E", "F", "K", "Kinv", "H"):
        got = np.broadcast_to(getattr(dual(vb), gen), (2, r, r))
        for t, v in enumerate(vs):
            assert close(got[t], getattr(dual(v), gen))


def _dense_composite(cfg, v, slices):
    """A slice word on the open module v as one dense matrix: textbook
    crossings and twists and the library's dualities, each padded with
    identities.  A cup or cap acts through the module of its non-dual strand."""
    r = cfg.ctx.r
    word, total = [v], np.eye(v.dim)
    eye = lambda mods: np.eye(int(np.prod([x.dim for x in mods])))
    for s in slices:
        p = s.pos - 1
        n = {Braid: 2, TwistSlice: 1, Ev: 2}.get(type(s), 0)
        if isinstance(s, Braid):
            a, b = word[p:p + 2]
            c = _textbook_crossing(r, a, b) if s.sign == 1 else np.linalg.inv(
                _textbook_crossing(r, b, a))
            new = [b, a]
        elif isinstance(s, TwistSlice):
            c, new = _textbook_twist(r, word[p], s.sign), [word[p]]
        elif isinstance(s, Ev):
            c = ev_left(cfg, word[p + 1]) if s.side == "L" else ev_right(cfg, word[p])
            new = []
        elif isinstance(s, Insert) or s.side == "L":
            z = make_module(cfg.ctx, s.color) if isinstance(s, Insert) else v
            c, new = coev_left(cfg, z), [z, dual(z)]
        else:
            c, new = coev_right(cfg, v), [dual(v), v]
        total = np.kron(np.kron(eye(word[:p]), c), eye(word[p + n:])) @ total
        word[p:p + n] = new
    assert [m.dim for m in word] == [v.dim]
    return total


@pytest.mark.parametrize("r", RS + [6])
def test_tangle_crossings_match_a_dense_composite(r):
    """eval_tangle on two 3-strand words, against the product of dense
    textbook crossings, twists and dualities padded with identities.  The
    second word opens with coevR, twists a strand and its dual, and caps the
    open strand with evL."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    z_label = Projective(r - 2, 1) if r % 2 else Simple(r - 2, -1)
    v = make_module(ctx, Typical(0.43 + 0.12j))
    words = [
        (Insert(2, z_label), Braid(1, 1), Braid(2, -1), Braid(2, -1), Braid(1, 1),
         Braid(2, 1), Braid(2, 1), Ev(2, "R")),
        (Coev(2, "R"), Braid(1, 1), Braid(2, -1), TwistSlice(2, -1), Braid(2, 1),
         TwistSlice(1, 1), Ev(1, "L")),
    ]
    for slices in words:
        total = _dense_composite(cfg, v, slices)
        got = eval_tangle(cfg, TangleExpr(Typical(0.43 + 0.12j), slices)).matrix
        assert np.max(np.abs(got - total)) <= 1e-12 * np.max(np.abs(total)), slices


@pytest.mark.parametrize("r", RS + [6])
def test_power_stacks_are_repeated_products(r):
    """WeightModule.powers stacks a^0..a^(r-1) of E and F by repeated matmuls,
    on float, jet and batched jet modules; it is built once, read-only, and
    built afresh for a module with a replaced generator."""
    ctx = QContext(r)
    e = ctx.eps()
    mods = [make_module(ctx, Typical(0.37 - 0.21j)), make_module(ctx, Projective(r - 2, 1)),
            make_module(ctx, Typical(0.4 + e)),
            make_module(ctx, Typical(_stack((0.4 + e, -1.13 + 0.4j + e))))]
    for m in mods:
        for gen in ("E", "F"):
            a, stack = getattr(m, gen), m.powers(gen)
            assert m.powers(gen) is stack
            assert not (stack.c if isinstance(stack, Jet) else stack).flags.writeable
            assert stack.shape == (*a.shape[:-2], r, m.dim, m.dim)
            want = np.eye(m.dim, dtype=complex)
            for n in range(r):
                assert mat_norm(stack[..., n, :, :] - want) <= 1e-13 * max(1.0, mat_norm(want))
                want = want @ a
    stack = mods[0].powers("E")
    m = dataclasses.replace(mods[0], E=2 * mods[0].E)
    assert np.allclose(m.powers("E")[1], m.E) and not np.allclose(stack[1], m.E)


def test_eval_tangle_builds_each_module_s_powers_once(monkeypatch):
    """A 10-crossing braid word with a twist of the open strand builds the E
    and F stacks of each of its three modules (the batched open one, the
    closed colour and its dual) once, not once per gate."""
    ctx = QContext(4)
    cfg = get_config(ctx)
    e = ctx.eps()
    expr = parse_tangle("open V(0.3) | insert 2 V(0.61-0.2i); br+ 1; br+ 2; br+ 2; br- 1; "
                        "br+ 1; br- 2; br+ 2; br- 1; br+ 2; br- 2; tw- 1; evR 2")
    assert sum(isinstance(s, Braid) for s in expr.slices) == 10
    built, powers = [], rep._powers
    monkeypatch.setattr(rep, "_powers", lambda a, n: built.append(a) or powers(a, n))
    open_module = make_module(ctx, Typical(_stack((0.3 + e, -0.8 + e))))
    eval_tangle(cfg, expr, open_module=open_module)
    assert 0 < len(built) <= 2 * 3
    assert all(a is not b for i, a in enumerate(built) for b in built[:i])


def _assert_same_bits(got, want):
    """Equal floats or jets, to the bit, zero signs included."""
    if isinstance(want, Jet):
        assert isinstance(got, Jet) and got.val == want.val
        got, want = got.c, want.c
    assert got.shape == want.shape and np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("r", RS + [6])
def test_family_twist_and_tail_stack_are_kept_with_the_module(r):
    """On a deformation family's module the twist and the scaled E stack of
    the tail come back as the same read-only object on a second call, and
    equal a fresh build on an unmemoised copy of the module to the bit."""
    from unrolled_sl2.deform import _family
    from unrolled_sl2.ribbon import _tail_stack

    ctx = QContext(r)
    cfg = get_config(ctx)
    for i, l in ((0, -1), (r - 2, 1)):
        mod = _family(ctx, i, l)[0]
        for sign in (1, -1):
            fresh = dataclasses.replace(mod)  # the same arrays, nothing kept yet
            for build in (lambda m: twist_matrix(cfg, m, sign),
                          lambda m: _tail_stack(ctx, m, sign)):
                kept = build(mod)
                assert build(mod) is kept
                assert not kept.c.flags.writeable
                _assert_same_bits(kept, build(fresh))


@pytest.mark.parametrize("r", RS + [6])
def test_typical_and_simple_share_one_shift_stack(r):
    """The F of every Typical and Simple module is the read-only lowering
    shift of its dimension, and its power stack is one shared read-only
    stack per (dim, r), equal to the repeated products."""
    ctx = QContext(r)
    e = ctx.eps()
    mods = [make_module(ctx, Typical(0.37 - 0.21j)), make_module(ctx, Typical(1.5 + e)),
            make_module(ctx, Typical(_stack((0.4 + e, -1.13 + e))))]
    mods += [make_module(ctx, Simple(i, k)) for i in range(r - 1) for k in (-1, 1)]
    for m in mods:
        stack = m.powers("F")
        assert m.F is rep._shift(m.dim) and stack is rep._shift_powers(m.dim, r)
        assert not m.F.flags.writeable and not stack.flags.writeable
        _assert_same_bits(stack, rep._powers(np.eye(m.dim, k=-1), r))
        assert "_powers_F" not in vars(m)


def _batch(d, jet):
    """Two scalar matrices 1.5 Id and (-0.25 + 2i) Id, as a (2, d, d) float
    batch or a two-slice jet batch, with its slices per summand."""
    c = np.array([1.5, -0.25 + 2j])[:, None, None] * np.eye(d)
    if not jet:
        return c
    return Jet(np.stack([c, (np.array([0.5j, -3.0])[:, None, None] * np.eye(d))]), 0)


@pytest.mark.parametrize("jet", [False, True], ids=["float", "jet"])
def test_batched_scalar_of_matches_one_call_per_matrix(jet):
    """A (2, d, d) batch gives the bits of one scalar_of call per matrix."""
    d, scale = 4, np.array([3.0, 1e3])
    mats = _batch(d, jet)
    got = scalar_of(mats, d, 1e-9, scale)
    for t in range(2):
        want = scalar_of(mats[t], d, 1e-9, scale[t])
        if jet:
            _assert_same_bits(got[t], want)
        else:
            _assert_same_bits(got[t:t + 1], np.array([want]))


@pytest.mark.parametrize("jet", [False, True], ids=["float", "jet"])
@pytest.mark.parametrize("t", [0, 1])
def test_batched_scalar_of_refuses_either_summand_alone(t, jet):
    """An off-diagonal entry of 1e-6 times the scale in one summand raises
    NonScalarError, with its residual in the message."""
    d, scale = 3, np.array([10.0, 10.0])
    mats = _batch(d, jet)
    c = (mats.c if jet else mats).copy()
    c[(..., t, 0, 2)] += 1e-6 * scale[t]
    with pytest.raises(NonScalarError, match=f"residual {1e-6 * scale[t]:.2e}"):
        scalar_of(Jet(c, 0) if jet else c, d, 1e-9, scale)


@pytest.mark.parametrize("jet", [False, True], ids=["float", "jet"])
@pytest.mark.parametrize("t", [0, 1])
def test_batched_scalar_of_judges_each_summand_by_its_own_scale(t, jet):
    """A residual of 1e-7 in summand t passes against a scale of 1e3 there
    (tol 1e-9) and fails against a scale of 1 there, whatever the other
    summand's scale."""
    d = 3
    mats = _batch(d, jet)
    c = (mats.c if jet else mats).copy()
    c[(..., t, 1, 0)] += 1e-7
    bad = Jet(c, 0) if jet else c
    big, small = np.full(2, 1.0), np.full(2, 1e3)
    big[t], small[t] = 1e3, 1.0
    scalar_of(bad, d, 1e-9, big)
    with pytest.raises(NonScalarError):
        scalar_of(bad, d, 1e-9, small)
