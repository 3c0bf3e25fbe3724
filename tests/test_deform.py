"""Deformation-limit invariants: traces, coefficient routes, closed-form checks."""

import numpy as np
import pytest

from unrolled_sl2 import deform, ribbon, tangle
from unrolled_sl2.jets import Jet
from unrolled_sl2.qnum import QContext
from unrolled_sl2.rep import DeformX, Projective, RangeError, Simple, Typical, make_module
from unrolled_sl2.ribbon import get_config, modified_dim
from unrolled_sl2.tangle import (
    Insert, TangleExpr, decompose_endo, eval_tangle, hopf_tangle, parse_tangle,
    random_braid_tangle, renormalized_invariant, twist_loop_tangle,
)
from unrolled_sl2.deform import (
    _family, _family_at, dim_limit_check, log_hopf_closed, log_tangle_invariant,
)


def test_empty_tangle_gives_dimension_and_identity():
    ctx = QContext(3)
    cfg = get_config(ctx)
    for j, l in [(0, 0), (1, -1)]:
        t = TangleExpr(Projective(j, l), ())
        res = log_tangle_invariant(cfg, t)
        assert res.trace == pytest.approx(modified_dim(ctx, Projective(j, l)), abs=1e-9)
        assert res.a == pytest.approx(1.0)
        assert abs(res.b) < 1e-9


@pytest.mark.parametrize("r", [2, 3, 4])
def test_log_hopf_matches_closed_forms(r):
    ctx = QContext(r)
    cfg = get_config(ctx)
    for j in range(r - 1):
        for l in (-1, 0, 1):
            zs = [Typical(0.37 + 0.11j), Simple(0, 1), Projective(0, -1)]
            if r > 2:
                zs += [Simple(r - 2, 0), Projective(r - 2, 1)]
            for z in zs:
                d = log_tangle_invariant(cfg, hopf_tangle(Projective(j, l), z))
                ca, cb = log_hopf_closed(ctx, z, j, l)
                assert d.a == pytest.approx(ca, abs=1e-9)
                assert d.b == pytest.approx(cb, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("r", [2, 3])
def test_log_hopf_large_twists_keep_the_constant(r):
    """Simple closed colors with large twists: the Cartan factor's Taylor
    coefficients grow like (pi k / 2)^n / n!, which must not trim the genuine
    constant a = +-1 read at eps^0."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    for k in (53, 150, 1000):
        for i in range(r - 1):
            for j in range(r - 1):
                d = log_tangle_invariant(cfg, hopf_tangle(Projective(j, 0), Simple(i, k)))
                ca, cb = log_hopf_closed(ctx, Simple(i, k), j, 0)
                assert abs(ca) > 0.5
                assert d.a == pytest.approx(ca, rel=1e-9)
                assert d.b == pytest.approx(cb, rel=1e-8, abs=1e-9)


def test_log_hopf_huge_twists_keep_b_at_r6():
    """At r = 6 the Cartan factor's arguments reach k r lambda ~ 1e4 for k =
    +-1000; reducing them modulo 2r before exp keeps b within 1e-8 of the
    closed form."""
    ctx = QContext(6)
    cfg = get_config(ctx)
    for k in (1000, -1000):
        for i in range(ctx.r - 1):
            for j in range(ctx.r - 1):
                d = log_tangle_invariant(cfg, hopf_tangle(Projective(j, 0), Simple(i, k)))
                ca, cb = log_hopf_closed(ctx, Simple(i, k), j, 0)
                assert d.a == pytest.approx(ca, rel=1e-9, abs=1e-9)
                assert d.b == pytest.approx(cb, rel=1e-8, abs=1e-9)


def test_unit_closed_color():
    """The open Hopf link with the unit S(0, 0) closed is the identity: exactly
    so for the values the comparison engine divides by, at r = 2..6."""
    ctx = QContext(3)
    cfg = get_config(ctx)
    d = log_tangle_invariant(cfg, hopf_tangle(Projective(1, 0), Simple(0, 0)))
    assert d.a == pytest.approx(1.0)
    assert abs(d.b) < 1e-9
    for r in range(2, 7):
        ctx = QContext(r)
        cfg = get_config(ctx)
        for alpha in (0.37, -1.21 + 0.4j, 2.63 - 0.2j):
            unit = renormalized_invariant(cfg, hopf_tangle(Typical(alpha), Simple(0, 0)))
            assert unit == modified_dim(ctx, Typical(alpha))
        for i in range(r - 1):
            for l in (-1, 0, 1):
                assert log_tangle_invariant(cfg, hopf_tangle(Projective(i, l), Simple(0, 0))).a == 1


def _closed_colors(rng, r):
    """One generic, one simple and one projective closed color, drawn by rng."""
    return [Typical(complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5))),
            Simple(int(rng.integers(0, r - 1)), int(rng.integers(-1, 2))),
            Projective(int(rng.integers(0, r - 1)), int(rng.integers(-1, 2)))]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_float_on_the_cover_matches_the_deformation_route(r):
    """Float-on-P oracle: the tangle evaluated on the projective cover itself
    and decomposed as a Id + b x gives the (a, b) of the deformation route.
    It shares no jets, no recoloring and no limits with that route.  Hopf
    links with each kind of closed color, both twist loops, and three random
    10-crossing words per cover."""
    cfg = get_config(QContext(r))
    rng = np.random.default_rng(100 + r)
    for P in [Projective(i, l) for i in range(r - 1) for l in (-1, 0, 1)]:
        exprs = [hopf_tangle(P, z) for z in _closed_colors(rng, r)]
        exprs += [twist_loop_tangle(P, 1), twist_loop_tangle(P, -1)]
        exprs += [random_braid_tangle(rng, P, z, max_crossings=10) for z in _closed_colors(rng, r)]
        p = make_module(cfg.ctx, P)
        for expr in exprs:
            res = log_tangle_invariant(cfg, expr)
            dec = decompose_endo(eval_tangle(cfg, expr), p)
            assert abs(dec.a - res.a) <= 1e-9 * max(1.0, abs(res.a)), str(expr)
            assert abs(dec.b - res.b) <= 1e-9 * max(1.0, abs(res.b)), str(expr)


def test_x_route_decomposition_matches_quotient_route():
    """Hopf links at r = 3: a Id + b x read off the cover agrees with the
    deformation route."""
    ctx = QContext(3)
    cfg = get_config(ctx)
    for j, l in [(0, 0), (1, 0), (0, -1)]:
        p = make_module(ctx, Projective(j, l))
        for z in (Typical(0.91), Simple(1, 1), Projective(0, 0)):
            t = hopf_tangle(Projective(j, l), z)
            res = log_tangle_invariant(cfg, t)
            dec = decompose_endo(eval_tangle(cfg, t), p)
            assert dec.a == pytest.approx(res.a, abs=1e-8)
            assert dec.b == pytest.approx(res.b, rel=1e-7, abs=1e-8)


def test_twistloop_on_projective_color():
    ctx = QContext(3)
    cfg = get_config(ctx)
    t = twist_loop_tangle(Projective(0, 0), 1)
    res = log_tangle_invariant(cfg, t)
    dec = decompose_endo(eval_tangle(cfg, t), make_module(ctx, Projective(0, 0)))
    assert dec.a == pytest.approx(res.a, abs=1e-8)
    assert dec.b == pytest.approx(res.b, rel=1e-7, abs=1e-8)


def _socle_trace(r, j, l):
    """Modified trace of the nilpotent endomorphism x of P(j, l)."""
    lam = 1 + j - r + l * r
    return ((-1) ** ((r - 1 + lam) % 2) * np.sin(np.pi * lam / r) * np.sin(np.pi * (1 + j) / r)
            / np.sin(np.pi / r) ** 2)


@pytest.mark.parametrize("r, l", [(r, l) for r in range(2, 7) for l in (-1, 0, 1)])
def test_random_tangles_cross_checks_and_socle_trace_constancy(r, l):
    """trace = a d(P) + b t(x) on random words: the socle trace t(x) is a
    module invariant with a closed form."""
    ctx = QContext(r)
    cfg = get_config(ctx)
    rng = np.random.default_rng(23 + 10 * r + l)
    for j in range(r - 1):
        P = Projective(j, l)
        d, t = modified_dim(ctx, P), _socle_trace(r, j, l)
        for z in _closed_colors(rng, r):
            res = log_tangle_invariant(cfg, random_braid_tangle(rng, P, z, max_crossings=10))
            assert res.residual_cross_check < 1e-7
            want = res.a * d + res.b * t
            assert abs(res.trace - want) <= 1e-9 * max(1.0, abs(res.a * d), abs(res.b * t))


@pytest.mark.parametrize("open_color", [Projective(5, 0), Projective(-1, 0), DeformX(5, 0, 0.0)])
def test_projective_index_out_of_range(open_color):
    ctx = QContext(3)
    cfg = get_config(ctx)
    t = hopf_tangle(open_color, Typical(0.3))
    with pytest.raises(RangeError):
        log_tangle_invariant(cfg, t)
    with pytest.raises(RangeError):
        eval_tangle(cfg, t)


@pytest.mark.parametrize("j", [-1, 2])
@pytest.mark.parametrize("z", [Simple(1, 0), Typical(0.3), Projective(0, 0)])
def test_closed_form_projective_index_out_of_range(j, z):
    with pytest.raises(RangeError, match=f"0..1, got {j}"):
        log_hopf_closed(QContext(3), z, j, 0)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_dim_limit_check(r):
    ctx = QContext(r)
    for i in range(r - 1):
        for l in (-2, -1, 0, 1, 2):
            rep = dim_limit_check(ctx, i, l)
            assert rep.diff < 1e-8
    # frozen examples: -2cos(pi/3) = -1 and -2cos(pi/2) = 0
    assert dim_limit_check(QContext(3), 0, 0).closed_form == pytest.approx(-1.0)
    assert abs(dim_limit_check(QContext(2), 0, 0).closed_form) < 1e-12
    r5 = dim_limit_check(QContext(5), 3, 1)
    assert r5.diff < 1e-8


def test_long_word_with_zero_invariant_passes_the_scalar_test():
    """The scalar test allows the round-off of the contraction's large states.

    This r = 6 word has invariant 0; its recolored endomorphism is scalar up
    to a residual near 1e-8, far below the states it was contracted through.
    """
    cfg = get_config(QContext(6))
    word = "br+ 2; br+ 2; br+ 1; br- 2; br+ 1; br- 2; br+ 2; br- 1; br+ 2; br- 1; tw+ 1; evR 2"
    real = parse_tangle(f"open P(0,-1) | insert 2 V(0.732954); {word}")
    cplx = TangleExpr(real.open_color,
                      (Insert(2, Typical(0.732954 - 0.144576j)),) + real.slices[1:])
    for expr in (real, cplx):
        res = log_tangle_invariant(cfg, expr)
        assert max(abs(res.trace), abs(res.a), abs(res.b)) < 1e-6


# This r = 6 word has a = 0: the eps^0 slices of both recolored scalars are
# round-off of states up to 7.9e8 (lam+) and 1.1e4 (lam-), far above the
# scalars' own eps^0 norms.  b is the recoloring oracle's value (a Richardson
# stencil of float evaluations about each summand weight, not jets).
_ROUND_OFF_WORD = ("open P(1,1) | insert 2 V(0.41-1.1i); br+ 1; br- 2; br+ 1; br- 1; br- 2; "
                   "br+ 1; tw- 1; evR 2")


def test_identity_coefficient_floor_covers_the_contraction_round_off():
    """a reads 0 against the round-off scale of each summand's eps^0 contraction."""
    res = log_tangle_invariant(get_config(QContext(6)), parse_tangle(_ROUND_OFF_WORD))
    assert res.a == 0
    assert res.b == pytest.approx(-4336722.066903854 + 1314558.341900613j, rel=1e-9)
    assert res.residual_cross_check < 1e-12


def test_word_that_leaves_the_open_strand_alone():
    """No gate touches the open strand: both summands see the same closed loop,
    so b = 0 and a is the loop's value, the twisted simple's quantum dimension."""
    cfg = get_config(QContext(3))
    res = log_tangle_invariant(cfg, parse_tangle("open P(1,0) | insert 2 S(1,0); tw+ 2; evR 2"))
    loop = parse_tangle("open S(0,0) | insert 2 S(1,0); tw+ 2; evR 2")
    want = complex(eval_tangle(cfg, loop).matrix[0, 0])
    assert res.a == pytest.approx(want, rel=1e-12) and abs(want) > 0.1
    assert res.b == 0


def test_family_cache_is_keyed_by_the_context_value():
    """Equal contexts built apart share one entry, and so does another jet
    order, which the entry does not depend on; another tol gets its own;
    the cache is bounded above one round's 45 families."""
    _family_at.cache_clear()
    entry = _family(QContext(3), 1, 0)
    assert _family(QContext(3), 1, 0) is entry
    assert _family_at.cache_info().hits == 1
    assert _family(QContext(3, tol=1e-10), 1, 0) is not entry
    assert _family(QContext(3, jet_order=7), 1, 0) is entry
    assert _family(QContext(3), 1, 1) is not entry
    info = _family_at.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 3)
    assert info.maxsize is not None and info.maxsize >= 45


def test_family_contracts_two_slices_and_seeds_its_scalars_with_jet_3():
    """The open module is a two-slice jet, and d(lambda +- eps) and 1 /
    ([1+i][eps]) are seeded with jet(3), whatever the context's jet order:
    d has val -1 and val + order == 1, so it is known through eps^0, the
    slice of g * d that the trace reads, and 1 / ([1+i][eps]) through eps^1."""
    for n in (3, 6, 8):
        mod, dm, dp, inv_b = _family(QContext(4, jet_order=n), 1, 0)
        assert (mod.weights.val, mod.weights.order) == (0, 2)
        assert (dm.val, dm.order) == (dp.val, dp.order) == (-1, 2)
        assert (inv_b.val, inv_b.order) == (-1, 3)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_the_route_does_not_depend_on_the_jet_order(r):
    """log_tangle_invariant gives the same floats at jet orders 3, 6 and 8 on
    Hopf links, both twist loops, two random words per cover and a closed
    component unlinked from the open strand, whose matrix is a two-slice jet."""
    cfgs = [get_config(QContext(r, jet_order=n)) for n in (3, 6, 8)]
    rng = np.random.default_rng(300 + r)
    for i in range(r - 1):
        for l in (-1, 0, 1):
            P = Projective(i, l)
            unlinked = parse_tangle(f"open P({i},{l}) | insert 2 S({r - 2},1); evR 2")
            exprs = [hopf_tangle(P, z) for z in (Typical(0.37 + 0.11j), Simple(r - 2, 1))]
            exprs += [twist_loop_tangle(P, 1), twist_loop_tangle(P, -1), unlinked]
            exprs += [random_braid_tangle(rng, P, z, max_crossings=10)
                      for z in (Typical(-0.8 + 0.3j), Simple(0, -1))]
            for expr in exprs:
                res = [log_tangle_invariant(cfg, expr) for cfg in cfgs]
                assert res[0] == res[1] == res[2], str(expr)
            for cfg in cfgs:
                mod = _family(cfg.ctx, i, l)[0]
                assert mod.weights.order == 2
                assert eval_tangle(cfg, unlinked, open_module=mod).matrix.order == 2


def _arrays(obj):
    """Every ndarray reachable from obj through tuples, jets and instance dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Jet):
        yield obj.c
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x)
    elif hasattr(obj, "__dict__"):
        for x in vars(obj).values():
            yield from _arrays(x)


def test_family_entries_are_read_only():
    """Module arrays, jet coefficients and power stacks of an entry refuse writes,
    also after the entry served an evaluation."""
    ctx = QContext(4)
    _family_at.cache_clear()
    log_tangle_invariant(get_config(ctx), hopf_tangle(Projective(1, -1), Simple(2, 1)))
    entry = _family(ctx, 1, -1)
    mod = entry[0]
    arrays = list(_arrays(entry))
    # E, F, the weights, the label's alpha, the E power stack, the scaled E
    # stack of the positive crossings and three scalar jets; F's power stack
    # is the shared one of the lowering shift, kept outside the entry
    assert len(arrays) == 9
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        mod.E.c[0, 0, 0, 1] = 0
    with pytest.raises(ValueError):
        mod.powers("E").c[...] = 0


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_family_cache_gives_bit_identical_results(r):
    """A cold entry, the warm one and a rebuilt one give the same results to the bit."""
    cfg = get_config(QContext(r))
    j, l = r - 2, -1
    exprs = [hopf_tangle(Projective(j, l), z)
             for z in (Typical(0.37 + 0.11j), Simple(r - 2, 1), Projective(0, 1))]
    exprs.append(parse_tangle(
        f"open P({j},{l}) | insert 2 V(0.61-0.2i); tw+ 1; br+ 1; br+ 2; br- 2; tw- 2; "
        "br- 1; evR 2"))
    _family_at.cache_clear()
    cold = [log_tangle_invariant(cfg, e) for e in exprs]
    warm = [log_tangle_invariant(cfg, e) for e in exprs]
    _family_at.cache_clear()
    assert cold == warm == [log_tangle_invariant(cfg, e) for e in exprs]


def test_warm_family_builds_no_open_module_and_no_dimension(monkeypatch):
    """On a warm entry no module is built (the closed colour's module is
    stored by tangle) and no modified dimension is computed; a cold entry
    builds both.  A twist of the open strand is built once per family and
    sign: a warm call on a twisted word computes no twist."""
    cfg = get_config(QContext(4))
    expr = hopf_tangle(Projective(1, 0), Simple(2, 1))
    built, dims, twists = [], [], []
    for mod in (deform, tangle):
        make = mod.make_module
        monkeypatch.setattr(mod, "make_module",
                            lambda ctx, lab, make=make: built.append(lab) or make(ctx, lab))
    dim = deform.modified_dim
    monkeypatch.setattr(deform, "modified_dim", lambda ctx, lab: dims.append(lab) or dim(ctx, lab))
    twist = ribbon._twist
    monkeypatch.setattr(ribbon, "_twist", lambda cfg, m, s: twists.append(s) or twist(cfg, m, s))
    _family_at.cache_clear()
    tangle._stored_module.cache_clear()
    log_tangle_invariant(cfg, expr)
    assert len(built) == 2 and len(dims) == 2
    built.clear()
    dims.clear()
    log_tangle_invariant(cfg, expr)
    assert built == [] and dims == []
    twisted = parse_tangle("open P(1,0) | insert 2 S(2,1); tw+ 1; br+ 1; br+ 1; tw- 1; evR 2")
    cold = log_tangle_invariant(cfg, twisted)
    assert twists == [1, -1]
    twists.clear()
    assert log_tangle_invariant(cfg, twisted) == cold and twists == []
