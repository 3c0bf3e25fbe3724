"""The three workloads: seeded inputs, the measured call and its check.

A workload is built from a seed and makes one round of operations at a
time.  Every round of a workload has the same make-up (the same r, the same
kinds of colors and words, the same number of operations of each kind), so
rounds cost the same whatever the seed; the seed picks the values.  An
operation's ``run`` is the only code timed, and it calls the library through
module attributes, so the traced run's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Callable

import numpy as np

from unrolled_sl2 import deform, ribbon, singlet, tangle
from unrolled_sl2.qnum import QContext
from unrolled_sl2.rep import Projective, Simple, Typical

import checks

R_VALUES = (2, 3, 4, 5, 6)
RMAX = R_VALUES[-1]
LS = (-1, 0, 1)


@dataclass
class Op:
    """One measured call and the check of its output."""

    r: int
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    strip: bool = False          # a strip-regime comparison (two identity-coefficient lookups)
    meta: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, jet_order: int = 6):
        self.seed = seed
        self.ctx = {r: QContext(r, jet_order=jet_order) for r in R_VALUES}
        self.cfg = {}

    def configure(self, on_r=lambda r: None):
        """get_config (calibration) for every r, calling on_r(r) before each."""
        for r in R_VALUES:
            on_r(r)
            self.cfg[r] = ribbon.get_config(self.ctx[r])

    def warm_up(self):
        """Set-up work that users of the workload pay once per process."""

    def round_ops(self, k: int) -> list:
        raise NotImplementedError


def _typical(rng, re=(-2.0, 2.0), im=(-0.5, 0.5)) -> Typical:
    return Typical(complex(rng.uniform(*re), rng.uniform(*im)))


# ---------------------------------------------------------------------------
# loghopf: the CLI's loghopf path over every projective open color


class LogHopf(Workload):
    """Log-Hopf coefficients (a, b, trace) of hopf(P(j, l), Z) for r = 2..6.

    For each r, every j in 0..r-2 and l in {-1, 0, 1}, three closed colors:
    Typical(alpha) with a seeded complex alpha, Simple(i, k) and
    Projective(i', k').  The Simple indices i run over a seeded shuffle of
    0..r-2 taken three times, so the Simple dimensions of a round are the
    same for every seed; k, i' and k' are seeded.  135 operations a round,
    the same ones every round.
    """

    name = "loghopf"

    def __init__(self, seed, jet_order=6):
        super().__init__(seed, jet_order)
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for r in R_VALUES:
            pairs = [(j, l) for j in range(r - 1) for l in LS]
            simple_i = rng.permutation(list(range(r - 1)) * 3)
            for (j, l), si in zip(pairs, simple_i):
                self.inputs += [
                    (r, j, l, _typical(rng)),
                    (r, j, l, Simple(int(si), int(rng.integers(-1, 2)))),
                    (r, j, l, Projective(int(rng.integers(0, r - 1)), int(rng.integers(-1, 2)))),
                ]

    def round_ops(self, k):
        return [self._op(*inp) for inp in self.inputs]

    def _op(self, r, j, l, z):
        cfg, ctx = self.cfg[r], self.ctx[r]

        def run():
            return deform.log_tangle_invariant(cfg, tangle.hopf_tangle(Projective(j, l), z))

        def check(res):
            return (checks.check_hopf(ctx, z, j, l, res.a, res.b)
                    or checks.check_linear_trace(r, j, l, res.trace, res.a, res.b))
        return Op(r, run, check, meta={"j": j, "l": l, "Z": repr(z)})


# ---------------------------------------------------------------------------
# braid_words: seeded random braid-word tangles


class BraidWords(Workload):
    """log_tangle_invariant on random braid-word tangles for r = 2..6.

    For each r, twenty words from ``tangle.random_braid_tangle``
    (max_crossings 10, twists allowed) with open color P(j, l), j and l
    seeded: ten with a Typical closed color and ten with Simple(i, k), i
    running over 0..r-2 in turn.  A word's cost is set by its shape: how many crossings it has, how
    many of them braid the open strand (their gates are jet matrices) and
    how many of those are inverse (a jet matrix inverse), and its twist.
    So each five words have the fixed shapes of SHAPES, with a twist of
    sign +1, none or -1 in turn, and the words themselves (which strands
    cross, the other signs, the colors) are seeded draws, redrawn until
    their shape matches.  A word on which the library raises NonScalarError
    is redrawn too: its scalar test is too tight for the round-off of some
    long words (about one seed in 80 has one; CHANGES.md, FOUND), and an
    operation that fails on some seeds only would make the failed share
    depend on the seed.  100 operations a round, the same ones every round.
    """

    name = "braid_words"
    # (crossings, crossings of the open strand, inverse ones among those)
    SHAPES = ((2, 2, 1), (4, 2, 1), (6, 4, 2), (8, 4, 2), (10, 6, 3))
    TWISTS = (1, 0, -1)

    def __init__(self, seed, jet_order=6):
        super().__init__(seed, jet_order)
        rng = np.random.default_rng([seed, 2])
        # calibrate, not get_config, so that get_config's calibration stays
        # in the timed set-up
        screen = {r: ribbon.calibrate(self.ctx[r]) for r in R_VALUES}
        self.inputs = []
        for r in R_VALUES:
            for rep, kind in ((0, 0), (0, 1), (1, 0), (1, 1)):
                for n, shape in enumerate(self.SHAPES):
                    twist = self.TWISTS[(n + kind + 2 * rep) % 3]
                    j, l = int(rng.integers(0, r - 1)), int(rng.integers(-1, 2))
                    if kind == 0:
                        closed = _typical(rng, re=(0.1, 1.9), im=(-0.4, 0.4))
                    else:
                        closed = Simple(n % (r - 1), int(rng.integers(-1, 2)))
                    expr = self._draw(rng, Projective(j, l), closed, shape, twist, screen[r])
                    self.inputs.append((r, j, l, expr))
        self.expected = {}

    @staticmethod
    def _draw(rng, open_color, closed, shape, twist, cfg):
        while True:
            expr = tangle.random_braid_tangle(rng, open_color, closed, max_crossings=10)
            if BraidWords.shape(expr) != (shape, twist):
                continue
            try:
                deform.log_tangle_invariant(cfg, expr)
            except ribbon.NonScalarError:
                continue
            return expr

    @staticmethod
    def shape(expr):
        """((crossings, open-strand crossings, inverse ones), twist sign or 0)."""
        word = [0, 1, 2]                     # strand 0 is the open one
        n = n_open = n_inv = twist = 0
        for s in expr.slices:
            if isinstance(s, tangle.Braid):
                n += 1
                if 0 in word[s.pos - 1:s.pos + 1]:
                    n_open += 1
                    n_inv += s.sign < 0
                word[s.pos - 1], word[s.pos] = word[s.pos], word[s.pos - 1]
            elif isinstance(s, tangle.TwistSlice):
                twist = s.sign
        return (n, n_open, n_inv), twist

    def round_ops(self, k):
        return [self._op(n, *inp) for n, inp in enumerate(self.inputs)]

    def _op(self, n, r, j, l, expr):
        cfg = self.cfg[r]

        def run():
            return deform.log_tangle_invariant(cfg, expr)

        def check(res):
            if n not in self.expected:
                self.expected[n] = checks.oracle_coefficients(cfg, expr, j, l)
            return (checks.check_oracle(self.expected[n], res.a, res.b)
                    or checks.check_linear_trace(r, j, l, res.trace, res.a, res.b))
        return Op(r, run, check, meta={"j": j, "l": l, "expr": str(expr)})


# ---------------------------------------------------------------------------
# singlet_compare: the paper's theorem, compare_hopf_qdim


class SingletCompare(Workload):
    """compare_hopf_qdim for r = 2..6, mostly in the continuous regime.

    Per r and round: three fresh continuous eps (Re in [0.08, 0.6], Im in
    [-0.25, 0.25]) with color Typical(-i sqrt(2r) eps), each compared on
    two fresh Typical(beta) and every Simple(i, k), k in {-1, 0, 1}
    (3 (3(r-1) + 2) comparisons); then every projective color P(j, k),
    k in {-1, 0, 1}, on its prescribed strip at Re eps = -0.37, -0.6 and
    -0.9 with one x per color and round: a fresh Typical(beta) for k = +-1
    and Simple(j, 2 + round) for k = 0.  The first of the three strip
    comparisons of a pair evaluates its identity coefficient and the other
    two hit the library's value memo (3 (r-1) evaluations, 9 (r-1)
    comparisons).  x is fresh every round, so every round does the same
    evaluations.  300 operations a round.
    """

    name = "singlet_compare"
    N_EPS = 3
    N_BETA = 2
    STRIP_RE = (-0.37, -0.6, -0.9)

    def warm_up(self):
        """The strip unit coefficients a(P(j, k), S(0, 0)), once per color.

        They do not depend on eps or x, so the library memoises them for the
        life of the process; computing them here keeps every round alike.
        """
        for r in R_VALUES:
            for j in range(r - 1):
                for kc in LS:
                    singlet.compare_hopf_qdim(self.cfg[r], Simple(0, 0), Projective(j, kc),
                                              self._strip_eps(r, j, kc, self.STRIP_RE[0]))

    @staticmethod
    def _strip_eps(r, j, kc, re_part):
        n_band = 2 * r * kc + (j + 1 + r * (kc + 1))
        return complex(re_part, n_band / sqrt(2 * r))

    def round_ops(self, k):
        rng = np.random.default_rng([self.seed, 3, k])
        ops = []
        for r in R_VALUES:
            for _ in range(self.N_EPS):
                eps = complex(rng.uniform(0.08, 0.6), rng.uniform(-0.25, 0.25))
                color = Typical(-1j * sqrt(2 * r) * eps)
                xs = [_typical(rng, re=(-2.2, 2.2)) for _ in range(self.N_BETA)]
                xs += [Simple(i, kp) for i in range(r - 1) for kp in LS]
                ops += [self._op(r, x, color, eps, False) for x in xs]
            for j in range(r - 1):
                for kc in LS:
                    x = _typical(rng, re=(-2.2, 2.2)) if kc else Simple(j, 2 + k)
                    for re_part in self.STRIP_RE:
                        eps = self._strip_eps(r, j, kc, re_part)
                        ops.append(self._op(r, x, Projective(j, kc), eps, True))
        return ops

    def _op(self, r, x, color, eps, strip):
        cfg = self.cfg[r]

        def run():
            return singlet.compare_hopf_qdim(cfg, x, color, eps)

        def check(rep):
            if (rep.regime.kind == "strip") != strip:
                return f"eps {eps} classified as {rep.regime.kind}"
            return checks.check_qdim(r, x, eps, strip, rep.rhs)
        return Op(r, run, check, strip=strip,
                  meta={"x": repr(x), "color": repr(color), "eps": repr(eps)})


WORKLOADS = {w.name: w for w in (LogHopf, BraidWords, SingletCompare)}
