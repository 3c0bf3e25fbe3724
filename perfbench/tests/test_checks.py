"""Each output check passes the library's value and reports a perturbed one.

    python3 -m pytest perfbench/tests -q
"""

from math import sqrt

import numpy as np
import pytest

import checks
from unrolled_sl2.deform import log_tangle_invariant
from unrolled_sl2.qnum import QContext
from unrolled_sl2.rep import Projective, Simple, Typical
from unrolled_sl2.ribbon import get_config
from unrolled_sl2.singlet import compare_hopf_qdim
from unrolled_sl2.tangle import hopf_tangle
from workloads import WORKLOADS, BraidWords

# a relative perturbation far above every check's tolerance and far below O(1)
BUMP = 1e-5


def bumped(z):
    return z + BUMP * max(1.0, abs(z))


@pytest.fixture(scope="module")
def cfg3():
    return get_config(QContext(3))


@pytest.mark.parametrize("z", [Typical(0.37 + 0.1j), Simple(1, -1), Projective(0, 1)])
def test_hopf_check(cfg3, z):
    j, l = 1, 0
    res = log_tangle_invariant(cfg3, hopf_tangle(Projective(j, l), z))
    assert checks.check_hopf(cfg3.ctx, z, j, l, res.a, res.b) is None
    assert checks.check_hopf(cfg3.ctx, z, j, l, bumped(res.a), res.b) is not None
    assert checks.check_hopf(cfg3.ctx, z, j, l, res.a, bumped(res.b)) is not None


@pytest.mark.parametrize("r,j,l", [(2, 0, -1), (3, 1, 0), (4, 1, 1), (4, 2, -1), (5, 2, 0)])
def test_linear_trace_check(r, j, l):
    cfg = get_config(QContext(r))
    res = log_tangle_invariant(cfg, hopf_tangle(Projective(j, l), Typical(0.37 + 0.1j)))
    assert abs(res.b) > 0.1  # a nonzero b makes the slope t(j, l) matter
    assert checks.check_linear_trace(r, j, l, res.trace, res.a, res.b) is None
    bad = [(bumped(res.trace), res.a, res.b), (res.trace, res.a, bumped(res.b))]
    if abs(checks.projective_dim(r, j, l)) > 0.1:  # d(P) = 0 at j + 1 = r/2 hides a
        bad.append((res.trace, bumped(res.a), res.b))
    for trace, a, b in bad:
        assert checks.check_linear_trace(r, j, l, trace, a, b) is not None


def test_trace_slope_is_a_signed_square():
    for r in range(2, 8):
        for j in range(r - 1):
            qint = np.sin(np.pi * (1 + j) / r) / np.sin(np.pi / r)
            for l in (-1, 0, 1):
                assert abs(abs(checks.trace_slope(r, j, l)) - qint ** 2) < 1e-12


def test_oracle_check_on_braid_words():
    wl = BraidWords(7)
    wl.configure()
    ops = wl.round_ops(0)
    for idx in (0, 7, 23, 36):                # r = 2 and 3, both closed-color kinds
        op = ops[idx]
        res = op.run()
        assert op.check(res) is None
        expected = wl.expected[idx]
        assert checks.check_oracle(expected, res.a, res.b) is None
        assert checks.check_oracle(expected, bumped(res.a), res.b) is not None
        assert checks.check_oracle(expected, res.a, bumped(res.b)) is not None


def test_oracle_recovers_hopf_coefficients(cfg3):
    for z in (Typical(0.41 - 0.2j), Simple(1, 1)):
        expr = hopf_tangle(Projective(0, -1), z)
        res = log_tangle_invariant(cfg3, expr)
        assert checks.check_oracle(checks.oracle_coefficients(cfg3, expr, 0, -1),
                                   res.a, res.b) is None


def test_qdim_check_continuous(cfg3):
    eps = 0.3 + 0.05j
    color = Typical(-1j * sqrt(6) * eps)
    for x in (Typical(0.8 - 0.3j), Simple(1, 1)):
        rep = compare_hopf_qdim(cfg3, x, color, eps)
        assert checks.check_qdim(3, x, eps, False, rep.rhs) is None
        assert checks.check_qdim(3, x, eps, False, bumped(rep.rhs)) is not None


def test_qdim_check_strip(cfg3):
    j, k = 1, 0
    eps = complex(-0.6, (2 * 3 * k + j + 1 + 3 * (k + 1)) / sqrt(6))
    for x in (Simple(1, 0), Simple(0, 2), Typical(0.3 + 0.2j)):
        rep = compare_hopf_qdim(cfg3, x, Projective(j, k), eps)
        assert rep.regime.kind == "strip"
        assert checks.check_qdim(3, x, eps, True, rep.rhs) is None
        assert checks.check_qdim(3, x, eps, True, bumped(rep.rhs)) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name):
    def describe(seed):
        wl = WORKLOADS[name](seed)
        wl.configure()
        return [op.meta for op in wl.round_ops(1)]

    first = describe(3)
    assert first == describe(3)
    assert first != describe(4)


def test_tracer_restores_every_function():
    import unrolled_sl2
    from tracing import MODULES, Tracer
    from unrolled_sl2 import jets

    before = [dict(vars(m)) for m in MODULES] + [dict(vars(jets.Jet))]
    tracer = Tracer()
    tracer.install()
    assert unrolled_sl2.ribbon.braiding_matrix is not before[3]["braiding_matrix"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in MODULES] + [dict(vars(jets.Jet))]
    for b, a in zip(before, after):
        assert {k: v for k, v in a.items() if k in b} == b


def test_oracle_check_where_g_is_zero():
    # seed 46, word 84 (r = 6): g vanishes identically, so the library's
    # a = b = 0 is exact and the oracle's stencils see only round-off,
    # which its noise terms must bound
    wl = BraidWords(46)
    wl.configure()
    r, j, l, expr = wl.inputs[84]
    res = log_tangle_invariant(wl.cfg[r], expr)
    assert res.a == 0 and res.b == 0
    expected = checks.oracle_coefficients(wl.cfg[r], expr, j, l)
    am, ap, ob, noise_a, noise_b = expected
    assert 0 < abs(ob) <= noise_b and max(abs(am), abs(ap)) <= noise_a
    assert checks.check_oracle(expected, res.a, res.b) is None
    assert checks.check_oracle(expected, res.a, bumped(res.b)) is not None
    assert checks.check_oracle(expected, bumped(res.a), res.b) is not None


def test_reference_speed_window():
    import run

    refs = [1.0, 1.0, 3.0, 1.0, 1.0, 1.0]
    assert run.ref_speed(refs, 1, 0.05) == 2.0            # a long op: the two around it
    assert run.ref_speed(refs, 1, 0.0005) == 1.0          # a short op: the median nearby
