"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; residual checks are
relative to the magnitude of the quantity under test.
"""

import sys
import time
from functools import wraps

import numpy as np

from unrolled_sl2.qnum import QContext, qpow
from unrolled_sl2.rep import (
    OneDim, Projective, SelfExt, Simple, Typical,
    deformable_change_of_basis, hom_space, intertwiner_residual,
    make_deformable, make_module, verify_relations,
)
from unrolled_sl2.ribbon import get_config, hopf_closed_form, scalar_of
from unrolled_sl2.tangle import (
    decompose_endo, eval_tangle, hopf_tangle, nilpotent_endo, random_braid_tangle,
)
from unrolled_sl2.deform import dim_limit_check, log_hopf_closed, log_tangle_invariant
from unrolled_sl2.singlet import (
    Atyp, Fock, FusionVector, alpha_minus, alpha_ts, compare_hopf_qdim, fuse,
    verlinde_hom_check,
)

KLS = (-2, -1, 0, 1, 2)


def criterion(num, desc, budget):
    def deco(fn):
        @wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                fn()
            except BaseException:
                dt = time.perf_counter() - t0
                print(f"[FAIL] criterion {num}: {desc} ({dt:.1f}s)", file=sys.stderr)
                raise
            dt = time.perf_counter() - t0
            print(f"[PASS] criterion {num}: {desc} ({dt:.1f}s < {budget}s)")
            assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"
        return wrapper
    return deco


@criterion(1, "defining relations across every constructor", 30)
def test_criterion_1_relations():
    rng = np.random.default_rng(101)
    for r in range(2, 7):
        ctx = QContext(r)
        mods = [make_module(ctx, Typical(complex(a, b)))
                for a, b in zip(rng.uniform(-3, 3, 20), rng.uniform(-1, 1, 20))]
        mods += [make_module(ctx, OneDim(k)) for k in KLS]
        mods += [make_module(ctx, SelfExt(0.31)), make_module(ctx, SelfExt(-1.2 + 0.4j))]
        for i in range(r - 1):
            for k in KLS:
                mods.append(make_module(ctx, Simple(i, k)))
                mods.append(make_module(ctx, Projective(i, k)))
                mods.append(make_deformable(ctx, i, k, 0.31))
                mods.append(make_deformable(ctx, i, k, -0.47))
                mods.append(make_deformable(ctx, i, k, ctx.eps()))
        for m in mods:
            rep = verify_relations(m)
            assert rep.max_residual < 1e-9, (r, m.label, rep.failed)


@criterion(2, "two-summand decomposition of the deformable family", 30)
def test_criterion_2_decomposition():
    for r in range(2, 7):
        ctx = QContext(r)
        for i in range(r - 1):
            for l in KLS:
                for eps in (0.3, -0.3, 0.45, -0.45):
                    lm = deformable_change_of_basis(ctx, i, l, eps)
                    assert intertwiner_residual(lm) < 1e-9, (r, i, l, eps)
                x0 = make_module(ctx, Projective(i, l))
                endo = hom_space(x0, x0)
                assert len(endo) == 2, (r, i, l)
                x = nilpotent_endo(x0)
                assert np.max(np.abs(x @ x)) < 1e-9


@criterion(3, "deformation limit of the modified dimension", 5)
def test_criterion_3_dimension_limit():
    for r in range(2, 7):
        ctx = QContext(r)
        for i in range(r - 1):
            for l in KLS:
                rep = dim_limit_check(ctx, i, l)
                assert rep.diff < 1e-8, (r, i, l, rep)


@criterion(4, "open Hopf links against all three closed forms", 60)
def test_criterion_4_hopf_calibration():
    rng = np.random.default_rng(104)
    for r in range(2, 7):
        ctx = QContext(r)
        cfg = get_config(ctx)
        pairs = list(zip(rng.uniform(-2.5, 2.5, 20) + 1j * rng.uniform(-0.6, 0.6, 20),
                         rng.uniform(0.05, 1.95, 20) + 1j * rng.uniform(-0.4, 0.4, 20)))
        for alpha, beta in pairs:
            w = make_module(ctx, Typical(beta))
            labels = [Typical(alpha)]
            labels += [Simple(i, k) for i in range(r - 1) for k in KLS]
            labels += [Projective(i, k) for i in range(r - 1) for k in KLS]
            for lab in labels:
                got = scalar_of(eval_tangle(cfg, hopf_tangle(Typical(beta), lab)).matrix,
                                w.dim, ctx.tol)
                want = hopf_closed_form(ctx, lab, beta)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (r, lab, beta)


@criterion(5, "deformation-computed Hopf coefficients vs closed forms", 60)
def test_criterion_5_log_hopf():
    rng = np.random.default_rng(105)
    for r in range(2, 6):
        ctx = QContext(r)
        cfg = get_config(ctx)
        alphas = [complex(a, b) for a, b in
                  zip(rng.uniform(-2, 2, 2), rng.uniform(-0.5, 0.5, 2))]
        zs = [Typical(a) for a in alphas]
        zs += [Simple(i, k) for i in range(r - 1) for k in (-1, 0, 1)]
        zs += [Projective(i, k) for i in range(r - 1) for k in (-1, 0, 1)]
        for j in range(r - 1):
            for l in (-1, 0, 1):
                for z in zs:
                    res = log_tangle_invariant(cfg, hopf_tangle(Projective(j, l), z))
                    ca, cb = log_hopf_closed(ctx, z, j, l)
                    assert abs(res.a - ca) <= 1e-8 * max(1.0, abs(ca)), (r, j, l, z)
                    assert abs(res.b - cb) <= 1e-8 * max(1.0, abs(cb)), (r, j, l, z)


@criterion(6, "coefficient routes agree on random braid-word tangles", 120)
def test_criterion_6_random_tangles():
    rng = np.random.default_rng(106)
    done = 0
    for r, count in ((2, 15), (3, 20), (4, 15)):
        ctx = QContext(r)
        cfg = get_config(ctx)
        for _ in range(count):
            i = int(rng.integers(0, r - 1))
            l = int(rng.integers(-1, 2))
            closed = [
                Typical(complex(rng.uniform(0.1, 1.9), rng.uniform(-0.4, 0.4))),
                Simple(int(rng.integers(0, r - 1)), int(rng.integers(-1, 2))),
                Projective(int(rng.integers(0, r - 1)), int(rng.integers(-1, 2))),
                OneDim(int(rng.integers(-1, 2))),
            ][int(rng.integers(0, 4))]
            t = random_braid_tangle(rng, Projective(i, l), closed, max_crossings=6)
            res = log_tangle_invariant(cfg, t)  # internal a-check at 1e-8
            assert res.residual_cross_check < 1e-7, (r, i, l, closed)
            # oracle: the float evaluation on the cover, with no jets or recoloring
            dec = decompose_endo(eval_tangle(cfg, t), make_module(ctx, Projective(i, l)))
            assert abs(dec.a - res.a) <= 1e-7 * max(1.0, abs(res.a)), (r, i, l, closed)
            assert abs(dec.b - res.b) <= 1e-7 * max(1.0, abs(res.b)), (r, i, l, closed)
            done += 1
    assert done == 50


@criterion(7, "regularized dimensions vs modified-trace ratios", 30)
def test_criterion_7_comparison():
    rng = np.random.default_rng(107)
    for r in range(2, 7):
        ctx = QContext(r)
        cfg = get_config(ctx)
        # continuous regime: 20 eps; typical colors over 20 beta, all twisted simples
        eps_list = [complex(a, b) for a, b in
                    zip(rng.uniform(0.08, 0.6, 20), rng.uniform(-0.25, 0.25, 20))]
        betas = rng.uniform(-2.2, 2.2, 20) + 1j * rng.uniform(-0.5, 0.5, 20)
        xs = [Typical(b) for b in betas]
        xs += [Simple(j, k) for j in range(r - 1) for k in (-1, 0, 1)]
        for n, eps in enumerate(eps_list):
            alpha = -1j * np.sqrt(2 * r) * eps
            color = Typical(alpha)
            for x in (xs if n < 2 else xs[n % 20:n % 20 + 3]):
                rep = compare_hopf_qdim(cfg, x, color, eps)
                assert rep.diff <= 1e-9 * max(1.0, abs(rep.lhs)), (r, x, eps, rep)
        # strip regime: prescribed strips for every projective color
        for j in range(r - 1):
            for k in (-1, 0, 1):
                n_band = 2 * r * k + (j + 1 + r * (k + 1))
                for re_part in (-0.37, -0.9):
                    eps = complex(re_part, n_band / np.sqrt(2 * r))
                    color = Projective(j, k)
                    xs_strip = [Typical(0.41 - 0.2j)]
                    xs_strip += [Simple(i, kp) for i in range(r - 1) for kp in (-1, 0, 1)]
                    for x in xs_strip:
                        rep = compare_hopf_qdim(cfg, x, color, eps)
                        assert rep.diff <= 1e-9 * max(1.0, abs(rep.lhs)), (r, j, k, x, rep)


@criterion(8, "dimension homomorphism and the r=2 fusion table", 30)
def test_criterion_8_verlinde():
    rng = np.random.default_rng(108)
    for r in (2, 3, 4):
        ctx = QContext(r)
        labs = [Fock(complex(a, b)) for a, b in
                zip(rng.uniform(-2, 2, 10), rng.uniform(-0.5, 0.5, 10))]
        labs += [Atyp(t, s) for t in range(-2, 3) for s in range(1, r)]
        eps = complex(0.23, 0.07)
        for x in labs:
            for y in labs:
                rep = verlinde_hom_check(ctx, x, y, eps)
                assert rep.diff <= 1e-9 * max(1.0, abs(rep.product)), (r, x, y, rep)
    # the r = 2 relations, as exact fusion vectors
    ctx = QContext(2)
    am = alpha_minus(ctx)
    rng = np.random.default_rng(5)
    for _ in range(6):
        lam, mu = rng.uniform(-2, 2, 2)
        t, tp = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        assert fuse(ctx, Fock(lam), Fock(mu)) == FusionVector(
            [(Fock(lam + mu), 1), (Fock(lam + mu + am), 1)])
        assert fuse(ctx, Atyp(t, 1), Fock(mu)) == FusionVector(
            [(Fock(mu + alpha_ts(ctx, t, 1)), 1)])
        assert fuse(ctx, Atyp(t, 1), Atyp(tp, 1)) == FusionVector([(Atyp(t + tp - 1, 1), 1)])
        assert fuse(ctx, Atyp(t, 2), Atyp(tp, 1)) == FusionVector([(Atyp(t + tp - 1, 2), 1)])
        assert fuse(ctx, Atyp(t, 2), Atyp(tp, 2)) == FusionVector(
            [(Atyp(t + tp - 1, 1), 2), (Atyp(t + tp - 2, 1), 1), (Atyp(t + tp, 1), 1)])


@criterion(9, "self-extension structure and obstruction scalars", 10)
def test_criterion_9_selfext():
    for r in range(2, 9):
        ctx = QContext(r)
        beta_r = sum(qpow(ctx, 2 * j) for j in range(1, r + 1))
        assert abs(beta_r) < 1e-12, r
        for i in range(r - 1):
            assert abs(sum(qpow(ctx, 2 * j) for j in range(0, i + 1))) > 1e-6, (r, i)
        lam = 0.37 + 0.11j
        ext = make_module(ctx, SelfExt(lam))
        assert verify_relations(ext).max_residual < 1e-9, r
        typ = make_module(ctx, Typical(lam))
        into = hom_space(typ, ext)
        onto = hom_space(ext, typ)
        assert len(into) == 1 and len(onto) == 1, r
        # image of the embedding is the doubled copy; projection kills it
        assert np.max(np.abs(into[0].matrix[:r])) < 1e-9
        assert np.max(np.abs(onto[0].matrix @ into[0].matrix)) < 1e-9  # non-split
