"""Logarithmic tangle invariants on projective colors via deformation limits.

A projective cover sits at the degenerate point of a one-parameter family
whose generic member splits into two generic-weight summands.  Every
invariant of a tangle colored by the cover is therefore computed by
recoloring the open strand with the two generic summands at a jet-valued
parameter, evaluating the ordinary renormalized invariants there, and
reading the limit off the jets: the trace is the limit of the sum, the
identity coefficient the common limit of the two normalized scalars, and
the nilpotent coefficient the limit of their difference over [1+i][eps].
Both summands are evaluated in one contraction:
the open strand carries Typical of the batch (lambda-, lambda+) + eps, and
one scalar test (ribbon.scalar_of) takes the evaluation's (2, d, d) matrix,
judging each summand against its own round-off scale.
Each identity-coefficient limit is floored at the round-off of its own
summand's eps^0 contraction.  log_tangle_invariant is the one route from a
projective-colored tangle to (a, b); its independent oracle is the float
evaluation on the cover itself, tangle.decompose_endo of eval_tangle on
make_module(ctx, Projective(i, l)), which shares no jets, recoloring or
limits with it, and log_hopf_closed gives the Hopf links in closed form.

What the family fixes is built once per context and cover: _family(ctx, i,
l) holds the batched open module (its E, F and weights, from which rep
derives H and K when asked, and its stacks of E and F powers), the
modified dimensions d(lambda- + eps) and d(lambda+ + eps), and the
reciprocal of [1+i][eps].  It is an lru_cache keyed by the context's r and
tol, the only fields the entry depends on, and the two indices, bounded at
128 entries (one round over r = 2..6, i <= r - 2, l in {-1, 0, 1} uses 45),
and every array of an entry is read-only, so an in-place write fails
instead of corrupting later calls.  The module persists with its entry,
and so do the gate parts ribbon keeps with it (its twists and its scaled
tail stacks), so each is built once per family.

The route reads only eps^0 (the trace and a) and eps^1 (b) of the recolored
scalars, and slice k of a contraction depends only on slices <= k, so the
open module carries those two slices.  The two simple poles, of d and of
1 / [eps], are resolved in the cached scalars, seeded with jet(3): d then
has valuation -1 and is known through eps^0, the slice of g * d the trace
reads.  So the route sets its own precision and reads nothing of the
context's jet order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jets import jet
from .qnum import QContext, qbracket, qint, qpow
from .rep import (
    DeformX, OneDim, Projective, RangeError, Simple, Typical, _read_only, _stack,
    make_module, projective_cover, summand_weights,
)
from .ribbon import NoClosedFormError, RibbonConfig, modified_dim, scalar_of
from .tangle import TangleExpr, eval_tangle

__all__ = [
    "CrossCheckError", "LogInvariantResult", "DimLimitReport",
    "log_tangle_invariant", "log_hopf_closed", "dim_limit_check",
]


class CrossCheckError(ArithmeticError):
    """The two summands' identity coefficients disagree."""


@dataclass
class LogInvariantResult:
    """Trace and (identity, nilpotent) coefficients of a projective-colored tangle."""

    trace: complex
    a: complex
    b: complex
    residual_cross_check: float


def _open_indices(ctx: QContext, label):
    """(i, l) of a projective-cover open color, with 0 <= i <= r - 2."""
    cover = projective_cover(label)
    if cover is None:
        raise TypeError(f"open color must be a projective cover, got {label!r}")
    i, l = cover
    if not 0 <= i <= ctx.r - 2:
        raise RangeError(f"projective index must lie in 0..{ctx.r - 2}, got {i}")
    return i, l


def _family(ctx: QContext, i: int, l: int):
    """(module, d-, d+, 1 / ([1+i][eps])) of the deformable family through
    P(i, l): Typical of the batch (lambda-, lambda+) + eps on two jet slices,
    the modified dimension of each summand, and the reciprocal of b's
    denominator, these three seeded with jet(3).  Cached per (r, tol, i, l)
    in _family_at: the entry reads no other field of the context."""
    return _family_at(ctx.r, ctx.tol, i, l)


@lru_cache(maxsize=128)
def _family_at(r: int, tol: float, i: int, l: int):
    """The _family entry at QContext(r, tol); every array is read-only."""
    ctx = QContext(r, tol)
    # the readers of g take eps^0 (the trace and a) and eps^1 (b); the poles
    # of d and 1 / [eps] leave jet(3) known through eps^0 and eps^1
    e = jet(3)
    lam_m, lam_p = summand_weights(ctx, i, l, e)
    mod = make_module(ctx, Typical(_stack(summand_weights(ctx, i, l, jet(2)))))
    entry = (mod, modified_dim(ctx, Typical(lam_m)), modified_dim(ctx, Typical(lam_p)),
             (qint(ctx, 1 + i) * qint(ctx, e)).reciprocal())
    for a in (mod.E, mod.F, mod.weights, mod.label.alpha, *entry[1:]):
        _read_only(a)
    for gen in "EF":  # the power stacks too, built read-only with the entry
        mod.powers(gen)
    return entry


def log_tangle_invariant(cfg: RibbonConfig, expr: TangleExpr) -> LogInvariantResult:
    """Trace and endomorphism coefficients of a tangle with projective open color.

    b is the limit of the difference of the two recolored scalars over
    [1+i][eps].  a is the mean of the two scalars' limits, one per summand
    of the contraction; their relative disagreement |a- - a+| / max(1,
    |a-|) is returned as residual_cross_check and raises CrossCheckError
    above 1e-8.  The recolored open module, the summands' modified
    dimensions and 1 / ([1+i][eps]) come from the family cache (_family:
    keyed by the context's r and tol and (i, l), at most 128 entries,
    read-only), so a call builds none of them.  The tangle is contracted on
    the module's two slices, eps^0 and eps^1, the only ones read.
    """
    ctx = cfg.ctx
    i, l = _open_indices(ctx, expr.open_color)
    mod, dm, dp, inv_b = _family(ctx, i, l)
    (gm, s0m), (gp, s0p) = _recolored_scalars(cfg, expr, mod)
    tm, tp = gm * dm, gp * dp
    # cancellation floors: a quantity whose value is genuinely zero leaves
    # only rounding noise behind, which must not masquerade as a pole.  Each
    # floor is scaled by the slices up to the one read (eps^0 for the trace
    # and a, eps^1 for b), never by larger higher orders.
    floor_t = ctx.tol * max(1.0, tm.norm(0), tp.norm(0))
    trace = (tm + tp).limit(ctx.tol, atol=floor_t)

    # the eps^0 slice of a scalar is the float contraction at eps = 0, so
    # its round-off also scales with that contraction's largest eps^0 state
    floor_a = ctx.tol * max(1.0, gm.norm(0), gp.norm(0))
    am = gm.limit(ctx.tol, atol=max(floor_a, ctx.tol * s0m))
    ap = gp.limit(ctx.tol, atol=max(floor_a, ctx.tol * s0p))
    resid = abs(am - ap) / max(1.0, abs(am))
    if resid > 1e-8:
        raise CrossCheckError(f"identity coefficient limits disagree: {am} vs {ap}")
    a = (am + ap) / 2

    floor_b = ctx.tol * max(1.0, gm.norm(1), gp.norm(1))
    num = (gm - gp).normalized(ctx.tol, atol=floor_b, upto=1)
    b = (num * inv_b).limit(ctx.tol, atol=floor_b)
    return LogInvariantResult(trace, a, b, resid)


def _recolored_scalars(cfg: RibbonConfig, expr: TangleExpr, mod):
    """[(g, scale0)]: the scalar of the tangle endomorphism with the open
    strand recolored by each summand of the batched module mod, and the
    eps^0 round-off scale of its contraction, from one evaluation and one
    scalar_of test of its (2, d, d) matrix, each summand against its own
    scale.  A word whose open strand no gate touches gives one unbatched
    matrix, whose scalar both summands share.
    """
    lm = eval_tangle(cfg, expr, open_module=mod)
    g = scalar_of(lm.matrix, mod.dim, cfg.ctx.tol, lm.scale)
    n = mod.weights.shape[0]
    scale0 = np.broadcast_to(lm.scale0, n)
    return [(g[t] if g.shape else g, scale0[t]) for t in range(n)]


def log_hopf_closed(ctx: QContext, z_label, j: int, l: int):
    """Closed-form (a, b) for the Hopf link on the projective cover P_j (twist l).

    The sign exponents carry the full twist dependence k(j+1+r(l+1)) on the
    simple/projective closed colors and l(r+1) on the generic one; at zero
    twists they reduce to the familiar short forms.
    """
    r = ctx.r
    J1 = j + 1
    br = lambda x: qbracket(ctx, x)
    qi = lambda x: qint(ctx, x)
    if isinstance(z_label, Typical):
        alpha = z_label.alpha
        a = 0.0 + 0j
        b = ((-1) ** ((r - j) + l * (r + 1)) * r / qi(J1) ** 2 * qpow(ctx, alpha * l * r)
             * (qpow(ctx, (r - 1 - j) * alpha) + qpow(ctx, -(r - 1 - j) * alpha)))
        return a, b
    if isinstance(z_label, (Simple, OneDim)):
        if isinstance(z_label, OneDim):
            i, k = 0, z_label.k
        else:
            i, k = z_label.i, z_label.k
        s = (-1) ** (i * (l + 1) + k * (J1 + r * (l + 1)))
        a = s * br((i + 1) * J1) / br(J1)
        b = s * (i * br((i + 2) * J1) - (i + 2) * br(i * J1)) / (qi(J1) ** 2 * br(J1))
        return a, b
    if isinstance(z_label, Projective):
        i, k = z_label.i, z_label.k
        s = (-1) ** (i * (l + 1) + k * (J1 + r * (l + 1)))
        a = 0.0 + 0j
        b = 2 * r * s / qi(J1) ** 2 * (qpow(ctx, (i + 1) * J1) + qpow(ctx, -(i + 1) * J1))
        return a, b
    raise NoClosedFormError(f"no closed Hopf form for closed color {z_label!r}")


@dataclass
class DimLimitReport:
    jet_value: complex
    closed_form: complex
    diff: float


def dim_limit_check(ctx: QContext, i: int, l: int) -> DimLimitReport:
    """Limit of the family's modified dimension against the projective closed form."""
    jv = modified_dim(ctx, DeformX(i, l, jet(3))).limit()
    cf = modified_dim(ctx, Projective(i, l))
    return DimLimitReport(jv, cf, abs(jv - cf))
