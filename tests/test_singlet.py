"""Regimes, regularized dimensions, fusion, dictionary, comparison engine."""

import dataclasses
import re

import numpy as np
import pytest

from unrolled_sl2.qnum import QContext
from unrolled_sl2.rep import Projective, Simple, Typical
from unrolled_sl2 import singlet
from unrolled_sl2.deform import log_tangle_invariant
from unrolled_sl2.ribbon import get_config
from unrolled_sl2.tangle import hopf_tangle
from unrolled_sl2.singlet import (
    Atyp, BoundaryError, DomainError, Fock, RegimeError, VACUUM, FusionVector,
    alpha_minus, alpha_ts, b_threshold, compare_hopf_qdim, fuse, parse_complex,
    format_singlet_label, parse_singlet_label, phi_dictionary, phi_inverse,
    projective_strip, qdim_reg, regime_of, strip_eps, verlinde_hom_check,
)


def test_b_threshold_and_regimes():
    ctx = QContext(2)
    assert b_threshold(ctx, 0.3) == pytest.approx(-0.5)
    assert regime_of(ctx, 0.3).kind == "continuous"
    reg = regime_of(ctx, -0.6 + 0.0j)
    assert (reg.kind, reg.k, reg.m) == ("strip", 0, 0)
    # wall: Im(eps)/sqrt(2r) = (2m+1)/(4r)
    wall = complex(-0.6, 2 * (2 * 0 + 1) / (4 * 2))
    with pytest.raises(BoundaryError):
        regime_of(ctx, wall)


def test_regime_locally_constant():
    ctx = QContext(3)
    eps = strip_eps(ctx, 1, 4)
    base = regime_of(ctx, eps)
    for de in (1e-6, -1e-6, 1e-6j, -1e-6j):
        reg = regime_of(ctx, eps + de)
        assert (reg.kind, reg.k, reg.m) == (base.kind, base.k, base.m)


def test_qdim_vacuum_is_one():
    for r in (2, 3, 5):
        ctx = QContext(r)
        for eps in (0.4, 0.2 + 0.1j, strip_eps(ctx, 0, 1), strip_eps(ctx, -1, 3)):
            assert qdim_reg(ctx, VACUUM, eps) == pytest.approx(1.0)


def test_qdim_strip_example():
    ctx = QContext(2)
    assert qdim_reg(ctx, Atyp(2, 1), -0.6 + 0.0j) == pytest.approx(-1.0)


def test_qdim_continuous_sum_form():
    """The sine-ratio form equals the finite geometric sum form."""
    rng = np.random.default_rng(2)
    for r in (2, 3, 4):
        ctx = QContext(r)
        am = alpha_minus(ctx)
        for _ in range(5):
            eps = complex(rng.uniform(0.1, 1.2), rng.uniform(-0.2, 0.2))
            qe = lambda x: np.exp(np.pi * eps * x)
            for s in range(1, r):
                got = qdim_reg(ctx, Atyp(1, s), eps)
                want = sum(qe(am * l) for l in range(-s + 1, s, 2))
                assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_qdim_continuous_at_the_removable_points(r):
    """At eps = i n sqrt(r/2), eps = 0 included, both sine ratios are 0/0; the
    dimension is their removable limit, continuous in eps."""
    ctx = QContext(r)
    labels = [Fock(0.3 - 0.2j), Fock(-1.1)] + [Atyp(t, s) for t in (-1, 1, 2)
                                                for s in range(1, r + 1)]
    for n in (0, 1, 2):
        eps = 1j * n * np.sqrt(r / 2)
        assert regime_of(ctx, eps).kind == "continuous"
        for lab in labels:
            val = qdim_reg(ctx, lab, eps)
            assert np.isfinite(val)
            assert abs(val - qdim_reg(ctx, lab, eps + 1e-7)) <= 1e-5 * max(1.0, abs(val))


def test_boundary_label_is_fock():
    """The column-r atypical has the dimension of its Fock realization."""
    rng = np.random.default_rng(4)
    for r in (2, 3):
        ctx = QContext(r)
        for t in (-1, 1, 2):
            lam = alpha_ts(ctx, t, r)
            for _ in range(4):
                eps = complex(rng.uniform(0.1, 1.0), rng.uniform(-0.3, 0.3))
                assert qdim_reg(ctx, Atyp(t, r), eps) == pytest.approx(
                    qdim_reg(ctx, Fock(lam), eps), rel=1e-10)


def test_fusion_rules_at_r2():
    ctx = QContext(2)
    lam, mu = 0.313, 0.727
    am = alpha_minus(ctx)
    got = fuse(ctx, Fock(lam), Fock(mu))
    assert got == FusionVector([(Fock(lam + mu), 1), (Fock(lam + mu + am), 1)])
    for t, tp in [(1, 1), (2, -1), (0, 3)]:
        got = fuse(ctx, Atyp(t, 1), Fock(mu))
        assert got == FusionVector([(Fock(mu + alpha_ts(ctx, t, 1)), 1)])
        assert fuse(ctx, Atyp(t, 1), Atyp(tp, 1)) == FusionVector([(Atyp(t + tp - 1, 1), 1)])
        assert fuse(ctx, Atyp(t, 2), Atyp(tp, 1)) == FusionVector([(Atyp(t + tp - 1, 2), 1)])
        got = fuse(ctx, Atyp(t, 2), Atyp(tp, 2))
        want = FusionVector([(Atyp(t + tp - 1, 1), 2), (Atyp(t + tp - 2, 1), 1),
                             (Atyp(t + tp, 1), 1)])
        assert got == want


def test_fusion_is_commutative_on_samples():
    ctx = QContext(3)
    labs = [Fock(0.41), Atyp(2, 1), Atyp(0, 2), Atyp(1, 3)]
    for x in labs:
        for y in labs:
            assert fuse(ctx, x, y) == fuse(ctx, y, x)


def test_phi_roundtrip():
    rng = np.random.default_rng(9)
    for r in (2, 3, 5):
        ctx = QContext(r)
        for _ in range(70):
            if rng.random() < 0.5:
                lab = Typical(complex(rng.uniform(-3, 3) + 1e-4, rng.uniform(-1, 1)))
                back = phi_inverse(ctx, phi_dictionary(ctx, lab))
                assert back.alpha == pytest.approx(lab.alpha, abs=1e-9)
            else:
                lab = Simple(int(rng.integers(0, r - 1)), int(rng.integers(-3, 4)))
                assert phi_inverse(ctx, phi_dictionary(ctx, lab)) == lab
    ctx = QContext(3)
    assert phi_dictionary(ctx, Simple(0, 0)) == VACUUM
    with pytest.raises(DomainError):
        phi_dictionary(ctx, Projective(0, 0))
    with pytest.raises(DomainError):
        phi_dictionary(ctx, Typical(1.0))  # integer weight off the r-lattice


def test_verlinde_homomorphism_samples():
    ctx = QContext(3)
    rng = np.random.default_rng(13)
    labs = [Fock(0.37), Fock(-0.21 + 0.1j), Atyp(1, 2), Atyp(-1, 1), Atyp(2, 2)]
    for _ in range(3):
        eps = complex(rng.uniform(0.15, 0.8), rng.uniform(-0.2, 0.2))
        for x in labs:
            for y in labs:
                rep = verlinde_hom_check(ctx, x, y, eps)
                assert rep.diff < 1e-9 * max(1.0, abs(rep.product)), (x, y, rep)
    with pytest.raises(RegimeError):
        verlinde_hom_check(ctx, labs[0], labs[1], strip_eps(ctx, 0, 1))


def test_compare_continuous():
    for r in (2, 3):
        ctx = QContext(r)
        cfg = get_config(ctx)
        rng = np.random.default_rng(21)
        for _ in range(4):
            eps = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.25, 0.25))
            alpha = -1j * np.sqrt(2 * r) * eps
            for x in [Typical(0.37 - 0.11j), Simple(0, 1)] + (
                    [Simple(r - 2, -1)] if r > 2 else []):
                rep = compare_hopf_qdim(cfg, x, Typical(alpha), eps)
                assert rep.diff < 1e-9, (r, x, eps, rep)


def test_compare_strip():
    for r in (2, 3):
        ctx = QContext(r)
        cfg = get_config(ctx)
        for j in range(r - 1):
            for k in (-1, 0, 1):
                n = 2 * r * k + (j + 1 + r * (k + 1))
                eps = complex(-0.41, n / np.sqrt(2 * r))
                color = Projective(j, k)
                for x in [Typical(0.37), Simple(0, 1)] + ([Simple(r - 2, 0)] if r > 2 else []):
                    rep = compare_hopf_qdim(cfg, x, color, eps)
                    assert rep.diff < 1e-9, (r, j, k, x, rep)
        with pytest.raises(RegimeError):
            compare_hopf_qdim(cfg, Typical(0.37), Projective(0, 0),
                              complex(-0.41, (2 * r + 1 + r) / np.sqrt(2 * r) + 17 / np.sqrt(2 * r)))


def test_projective_strip_is_the_strip_of_its_eps():
    """P(j, k) prescribes strip index n = 2rk + (j + 1 + r(k + 1)); strip_eps
    of its (k, m) lands there, and compare refuses any other strip."""
    for r in (2, 3, 4):
        ctx = QContext(r)
        for j in range(r - 1):
            for k in (-2, -1, 0, 1, 2):
                ks, m = projective_strip(ctx, j, k)
                assert 2 * r * ks + m == 2 * r * k + (j + 1 + r * (k + 1)) and 0 <= m < 2 * r
                reg = regime_of(ctx, strip_eps(ctx, ks, m, re_part=-0.41))
                assert (reg.kind, reg.k, reg.m) == ("strip", ks, m)
    ctx = QContext(3)
    with pytest.raises(RegimeError, match=r"strip \(k, m\) = \(0, 1\), .* prescribes \(0, 5\)"):
        compare_hopf_qdim(get_config(ctx), Typical(0.37), Projective(1, 0), strip_eps(ctx, 0, 1))


def test_singlet_labels_print_and_parse_back():
    for lab, text in [(Fock(0.25), "F(0.25)"), (Fock(0.25 - 1.5j), "F(0.25-1.5i)"),
                      (Fock(-3 + 2j), "F(-3+2i)"), (Atyp(2, 1), "M(2,1)")]:
        assert format_singlet_label(lab) == text
        assert parse_singlet_label(text) == lab


def test_strip_memo_is_keyed_by_value(monkeypatch):
    """The strip-regime memo tells configurations apart by value, not by identity."""
    r, color, x = 3, Projective(1, 0), Simple(1, 0)
    eps = complex(-0.41, 5 / np.sqrt(2 * r))  # strip 2r*0 + (1 + 1 + r)
    computed = []

    def counting(cfg, expr):
        computed.append(cfg.ctx)
        return log_tangle_invariant(cfg, expr)

    monkeypatch.setattr(singlet, "log_tangle_invariant", counting)
    singlet._hopf_identity_coeff.cache_clear()
    for order in (6, 4):
        ctx = QContext(r, jet_order=order)
        cfg = get_config(ctx)
        rep = compare_hopf_qdim(cfg, x, color, eps)
        want = log_tangle_invariant(cfg, hopf_tangle(color, x)).a
        assert rep.rhs == want
        assert ctx in computed  # computed afresh, never served from the other order
        # an equal-valued copy of the configuration is a memo hit
        n = len(computed)
        assert compare_hopf_qdim(dataclasses.replace(cfg), x, color, eps).rhs == want
        assert len(computed) == n


def test_parse_complex():
    assert parse_complex("-0.6+0.0i") == complex(-0.6, 0.0)
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("-1e-3-0.25i") == complex(-0.001, -0.25)
    assert parse_complex("-i") == -1j
    assert parse_complex("1+i") == 1 + 1j
    assert parse_complex("3I") == 3j
    assert parse_complex("1 + 2i") == 1 + 2j
    for bad in ("zebra", "nan", "inf", "1_0", "", "+"):
        with pytest.raises(ValueError):
            parse_complex(bad)
    # made only of allowed characters, but malformed: refused by name
    for bad in ("1e", "1+", "1..2", "i-", "1e400"):
        with pytest.raises(ValueError, match=f"^bad complex literal '{re.escape(bad)}'$"):
            parse_complex(bad)
