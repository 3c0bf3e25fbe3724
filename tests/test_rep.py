"""Module constructors, relations, tensor/dual, intertwiner spaces, decomposition."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from unrolled_sl2.jets import Jet
from unrolled_sl2.qnum import QContext, qpow
from unrolled_sl2.rep import (
    DeformX, Dual, OneDim, Projective, RangeError, SelfExt, Simple, SingularError,
    Typical, deformable_change_of_basis, direct_sum, dual,
    hom_space, intertwiner_residual, make_deformable, make_module,
    module_dump, tensor, verify_relations,
)

RS = [2, 3, 4, 5, 6]
ALPHAS = [0.37, -1.73 + 0.21j, 2.9, 0.5 - 1.1j]


def _mods_for(ctx, rng):
    mods = [make_module(ctx, Typical(a)) for a in ALPHAS]
    mods += [make_module(ctx, OneDim(k)) for k in (-2, 0, 1)]
    for i in range(ctx.r - 1):
        for k in (-1, 0, 2):
            mods.append(make_module(ctx, Simple(i, k)))
            mods.append(make_module(ctx, Projective(i, k)))
            mods.append(make_deformable(ctx, i, k, 0.31))
            mods.append(make_deformable(ctx, i, k, ctx.eps()))
    mods.append(make_module(ctx, SelfExt(0.3 + 0.1j)))
    return mods


@pytest.mark.parametrize("r", RS)
def test_relation_suite(r):
    ctx = QContext(r)
    rng = np.random.default_rng(3)
    for m in _mods_for(ctx, rng):
        rep = verify_relations(m)
        assert rep.max_residual < 1e-9, (m, rep.failed, rep.residuals)


def test_typical_weights_example():
    ctx = QContext(3)
    m = make_module(ctx, Typical(0.4))
    assert m.dim == 3
    assert [complex(w).real for w in m.weights] == pytest.approx([2.4, 0.4, -1.6])


def test_simple_example():
    ctx = QContext(3)
    m = make_module(ctx, Simple(1, 0))
    assert m.dim == 2
    assert sorted(complex(w).real for w in m.weights) == pytest.approx([-1.0, 1.0])
    assert np.max(np.abs(m.E)) > 0 and np.max(np.abs(m.F)) > 0
    with pytest.raises(RangeError):
        make_module(ctx, Simple(2, 0))


def test_selfext_obstruction_and_structure():
    # the boundary coefficient sum vanishes exactly at the top of the chain
    for r in range(2, 9):
        ctx = QContext(r)
        s = sum(qpow(ctx, 2 * j) for j in range(1, r + 1))
        assert abs(s) < 1e-12
        # and does not vanish below it (no self-extension of short simples)
        for i in range(r - 1):
            s_i = sum(qpow(ctx, 2 * j) for j in range(0, i + 1))
            assert abs(s_i) > 1e-3
    ctx = QContext(2)
    m = make_module(ctx, SelfExt(0.3))
    assert m.dim == 4
    assert verify_relations(m).max_residual < 1e-9


def test_selfext_sub_and_quotient():
    ctx = QContext(3)
    lam = 0.47
    ext = make_module(ctx, SelfExt(lam))
    typ = make_module(ctx, Typical(lam))
    maps_in = hom_space(typ, ext)
    assert len(maps_in) == 1  # non-split: only into the submodule copy
    A = maps_in[0].matrix
    assert np.max(np.abs(A[: ctx.r])) < 1e-9  # image lies in the doubled copy
    maps_out = hom_space(ext, typ)
    assert len(maps_out) == 1  # only the quotient projection


def test_deformable_block_sizes_and_weights():
    ctx = QContext(2)
    m = make_deformable(ctx, 0, 0, 0.0)
    assert m.dim == 4
    ctx3 = QContext(3)
    m3 = make_deformable(ctx3, 1, 0, 0.2)
    # H-eigenvalue of the top head vector is i + l*r + eps = 1.2
    hdiag = np.diag(np.asarray(m3.H))
    assert hdiag[2] == pytest.approx(1.2)  # head block: offset nL=1, top entry at k=+i


def test_deformable_socle_raising_vanishes_at_zero():
    for r in (2, 3, 4):
        ctx = QContext(r)
        for i in range(r - 1):
            for l in (-1, 0, 1):
                m = make_deformable(ctx, i, l, 0.0)
                nL = r - i - 1
                s_top = nL + 2 * (i + 1) - 1  # index of the top socle-shift vector
                col = np.asarray(m.E)[:, s_top]
                r_block = np.abs(col[nL + 2 * (i + 1):])
                assert np.max(r_block, initial=0.0) < 1e-12


def test_deformable_range_checks():
    ctx = QContext(3)
    with pytest.raises(RangeError):
        make_deformable(ctx, 2, 0, 0.1)
    with pytest.raises(RangeError):
        make_deformable(ctx, 0, 0, 0.7)


@pytest.mark.parametrize("r", RS)
def test_change_of_basis_intertwines(r):
    ctx = QContext(r)
    for i in range(r - 1):
        for l in (-2, -1, 0, 1, 2):
            for eps in (0.3, -0.45, -0.4):
                lm = deformable_change_of_basis(ctx, i, l, eps)
                assert intertwiner_residual(lm) < 1e-9
                cond = np.linalg.cond(lm.matrix)
                assert np.isfinite(cond)


def test_change_of_basis_singular_guard():
    ctx = QContext(2)
    with pytest.raises(SingularError):
        deformable_change_of_basis(ctx, 0, 0, 1e-8)


def test_end_spaces():
    ctx = QContext(3)
    v = make_module(ctx, Typical(0.37))
    assert len(hom_space(v, v)) == 1
    p = make_module(ctx, Projective(0, 0))
    endo = hom_space(p, p)
    assert len(endo) == 2
    # the span contains a square-zero element: solve in the basis
    A, B = endo[0].matrix, endo[1].matrix
    found = False
    for x in (A, B, A + B, A - B):
        y = x - np.trace(x) / p.dim * np.eye(p.dim)
        if np.max(np.abs(y @ y)) < 1e-8 and np.max(np.abs(y)) > 1e-8:
            found = True
    assert found
    w = make_module(ctx, Typical(1.21))
    assert len(hom_space(v, w)) == 0


def _assert_basis(maps, count):
    """count maps, orthonormal as vectors, each an intertwiner."""
    assert len(maps) == count
    vecs = [f.matrix.ravel() for f in maps]
    gram = np.array([[u.conj() @ w for w in vecs] for u in vecs]).reshape(count, count)
    assert np.max(np.abs(gram - np.eye(count)), initial=0.0) < 1e-12
    assert all(intertwiner_residual(f) < 1e-9 for f in maps)


@pytest.mark.parametrize("r", RS)
def test_hom_space_contract(r):
    """An orthonormal basis of intertwiners, with End(P(i, l)) = span(Id, x),
    scalar endomorphisms of simples and generics, no maps between distinct
    generics (also where their weights overlap), and one map into and one
    out of a generic's self-extension."""
    ctx = QContext(r)
    mod = lambda lab: make_module(ctx, lab)
    for i in range(r - 1):
        for k in (-1, 0, 1):
            p, s = mod(Projective(i, k)), mod(Simple(i, k))
            _assert_basis(hom_space(p, p), 2)
            _assert_basis(hom_space(s, s), 1)
    gens = {a: mod(Typical(a)) for a in ALPHAS + [ALPHAS[0] + 2]}
    for a, v in gens.items():
        _assert_basis(hom_space(v, v), 1)
        for b, w in gens.items():
            if b != a:
                _assert_basis(hom_space(v, w), 0)
        ext = mod(SelfExt(a))
        _assert_basis(hom_space(v, ext), 1)
        _assert_basis(hom_space(ext, v), 1)


def test_hom_space_memory_on_tensor_pair():
    """The nullspace comes from the thin SVD: P(0,0) x SelfExt(0.3) against its
    reverse at r = 3 stays under 100 MB, where a full U alone takes 430 MB."""
    ctx = QContext(3)
    p, x = make_module(ctx, Projective(0, 0)), make_module(ctx, SelfExt(0.3))
    m, n = tensor(p, x), tensor(x, p)
    tracemalloc.start()
    try:
        maps = hom_space(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    _assert_basis(maps, 16)


def test_limit_commutation_entrywise():
    """Jet-eps module matrices limit to the eps = 0 matrices entry by entry."""
    for r in (2, 3, 5):
        ctx = QContext(r)
        for i in range(r - 1):
            mj = make_deformable(ctx, i, 1, ctx.eps())
            m0 = make_deformable(ctx, i, 1, 0.0)
            for gen in ("E", "F", "K", "Kinv", "H"):
                lim = getattr(mj, gen).limit()
                assert np.max(np.abs(lim - np.asarray(getattr(m0, gen)))) < 1e-10


def test_tensor_examples():
    ctx = QContext(3)
    s = make_module(ctx, Simple(1, 0))
    c = make_module(ctx, OneDim(2))
    t = tensor(s, c)
    direct = make_module(ctx, Simple(1, 2))
    assert len(hom_space(t, direct)) >= 1
    c2 = tensor(make_module(ctx, OneDim(1)), make_module(ctx, OneDim(-2)))
    assert complex(c2.weights[0]) == pytest.approx(-1 * ctx.r)
    ctx2 = QContext(2)
    v = make_module(ctx2, Typical(0.37))
    tv = tensor(v, make_module(ctx2, OneDim(1)))
    assert sorted(complex(w).real for w in tv.weights) == pytest.approx(
        sorted(complex(w).real + 2 for w in v.weights))


def test_tensor_and_dual_satisfy_relations():
    ctx = QContext(3)
    v = make_module(ctx, Typical(0.8 - 0.2j))
    p = make_module(ctx, Projective(1, -1))
    for m in (tensor(v, p), dual(v), dual(p), tensor(dual(v), v)):
        assert verify_relations(m).max_residual < 1e-9
    vj = make_module(ctx, Typical(0.4 + ctx.eps()))
    with pytest.raises(TypeError):
        tensor(vj, p)
    assert verify_relations(dual(vj)).max_residual < 1e-9


def test_negative_control_perturbed_module():
    ctx = QContext(3)
    m = make_module(ctx, Typical(0.9))
    E = np.asarray(m.E).copy()
    E[0, 1] += 1e-3
    m = dataclasses.replace(m, E=E)
    rep = verify_relations(m)
    assert any("[E,F]" in name for name in rep.failed)


def test_direct_sum_and_dump():
    ctx = QContext(2)
    s = direct_sum(make_module(ctx, Typical(0.3)), make_module(ctx, Typical(0.9)))
    assert s.dim == 4
    assert verify_relations(s).max_residual < 1e-9
    with pytest.raises(TypeError):  # numeric only, like hom_space
        direct_sum(make_module(ctx, Typical(0.3 + ctx.eps())))
    d = module_dump(make_module(ctx, Projective(0, 0)))
    assert d["dim"] == 4 and d["r"] == 2
    assert len(d["E"]) == 4 and len(d["E"][0]) == 4 and len(d["E"][0][0]) == 2



def _textbook_H(r: int, label) -> np.ndarray:
    """H of a primitive module from its published weights, plus the
    self-extension's Jordan step v0_j -> v1_j."""
    if isinstance(label, Typical):
        return np.diag(label.alpha + r - 1 - 2 * np.arange(r))
    if isinstance(label, Simple):
        return np.diag(label.i + label.k * r - 2.0 * np.arange(label.i + 1))
    if isinstance(label, OneDim):
        return np.array([[label.k * r]], dtype=complex)
    if isinstance(label, (Projective, DeformX)):
        i, l = label.i, label.k if isinstance(label, Projective) else label.l
        eps = 0 if isinstance(label, Projective) else label.eps
        blocks = [range(i + 2 - 2 * r, -i - 1, 2), range(-i, i + 1, 2), range(-i, i + 1, 2),
                  range(i + 2, 2 * r - 1 - i, 2)]  # L, H, S, R
        return np.diag([k + l * r + eps for b in blocks for k in b]).astype(complex)
    if isinstance(label, SelfExt):
        top = label.lam + r - 1 - 2 * np.arange(r)
        return np.diag(np.concatenate([top, top])) + np.eye(2 * r, k=-r)
    raise TypeError(label)


@pytest.mark.parametrize("r", RS)
def test_derived_cartan_data_against_textbook_H(r):
    """H, K = q^H and K^-1 = q^-H of every constructor, tensors, duals and
    sums (those of the self-extension too, where the Jordan part of a tensor
    square has N^2 != 0), against expm(+-i pi H / r) of the textbook H."""
    ctx = QContext(r)
    ext, v = SelfExt(0.3 - 0.2j), Typical(0.41 + 0.13j)
    H = {lab: _textbook_H(r, lab) for lab in
         (v, Simple(r - 2, -1), OneDim(2), Projective(0, 1), Projective(r - 2, -1),
          DeformX(r - 2, 0, 0.27), ext)}
    cases = [(make_module(ctx, lab), h) for lab, h in H.items()]
    I = np.eye(2 * r)
    square = tensor(make_module(ctx, ext), make_module(ctx, ext))
    assert np.any(np.linalg.matrix_power(square.jordan, 2))
    cases += [(square, np.kron(H[ext], I) + np.kron(I, H[ext])),
              (dual(make_module(ctx, ext)), -H[ext].T),
              (direct_sum(make_module(ctx, ext), make_module(ctx, v)), block_diag(H[ext], H[v]))]
    for m, h in cases:
        assert m.dim == len(h)
        for got, want in ((m.H, h), (m.K, expm(1j * np.pi / r * h)),
                          (m.Kinv, expm(-1j * np.pi / r * h))):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), m
    alphas = np.array([0.37, -1.2 + 0.4j])
    batch = make_module(ctx, Typical(alphas))
    assert batch.dim == r and batch.H.shape == batch.K.shape == batch.Kinv.shape == (2, r, r)
    for t, a in enumerate(alphas):
        h = _textbook_H(r, Typical(a))
        assert np.max(np.abs(batch.H[t] - h)) <= 1e-14 * np.max(np.abs(h))
        for got, sign in ((batch.K[t], 1), (batch.Kinv[t], -1)):
            want = expm(sign * 1j * np.pi / r * h)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_modules_are_immutable():
    m = make_module(QContext(3), Typical(0.4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.E = 2 * m.E
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.label = Typical(0.5)


def test_weights_beyond_double_precision_are_refused():
    """|Re w| >= 2^52 or pi |Im w| / r >= 709 raises RangeError before any
    q-number of the weight is computed, so without an overflow warning."""
    ctx = QContext(3)
    e = ctx.eps()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for label in (Typical(1e300), Typical(0.3 + 1000j), Typical(-(2.0 ** 52)),
                      Typical(np.array([0.3, 0.2 - 700j])), Typical(1e300 + e),
                      Simple(1, 2 ** 51), OneDim(-(2 ** 51)), SelfExt(0.3 + 1000j),
                      SelfExt(1e300), Dual(Typical(1e300))):
            with pytest.raises(RangeError):
                make_module(ctx, label)
        # just inside: pi * 600 / 3 < 709, and a large twist at r = 6
        assert make_module(ctx, Typical(0.3 + 600j)).dim == 3
        assert verify_relations(make_module(QContext(6), Simple(1, 1000))).max_residual < 1e-9

def test_jet_deformable_relation_residual_per_coefficient():
    ctx = QContext(4)
    mj = make_deformable(ctx, 2, -1, ctx.eps())
    rep = verify_relations(mj)
    assert rep.max_residual < 1e-9
    assert isinstance(mj.E, Jet)
