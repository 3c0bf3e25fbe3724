"""Braiding, twist, dualities, modified trace: the ribbon data behind all invariants.

The ribbon convention is fixed: the coproduct E -> 1 x E + E x K (see
rep.tensor) and the pivot K^(1-r) = q^((1-r) H) on the right duality.  The
crossing on M x N is flip . Cartan . tail: the tail sum over ({1}^n / [n]!)
q^(n(n-1)/2) E^n x F^n, the q-exponential of the nilpotent {1} E x F that
truncates at n = r - 1 because E^r = F^r = 0, then the diagonal Cartan
factor q^(H x H / 2), then the flip.  crossing() returns these three
factors (the tail matrix, the Cartan vector and the flip's row index) and
applies them to a state: a tail matmul, a row scaling and a row gather, so
the tangle engine never builds a dense crossing.  The tail is one matmul
over n of the stacked powers E^n and F^n.  The inverse crossing applies
the inverse factors in reverse order (the gather, q^(-H x H / 2), and the
tail with exp_q(x)^-1 = exp_(1/q)(-x)), so nothing here inverts a matrix.
braiding_matrix is a crossing applied to the identity.  The twist of sign s
(s = -1: the inverse twist) is the right partial trace of the self-braiding
against the pivot, taken in closed form on d x d matrices:
theta^s = sum_(n<r) c_n X^n K^(1-r) Y^n q^(s H (H + 2sn) / 2), with c_n the
tail's coefficients and (X, Y) = (F, E) or (E, F), because E^n and F^n shift
weights by exactly +-2n; it is one matmul over the stacked powers.  The pivot,
the Cartan factor and the twist's phases are each one qpow of weight
vectors, so ribbon maps take modules whose H has no Jordan part
(WeightModule.jordan is None) and refuse the self-extension, and what is
built from it, with NotProjectiveError.  Every map has one code path for
float and jet matrices: jets index, reshape and transpose like arrays,
and multiply float operands without promoting them.  The tail and the twist read the
stacks of powers of E and F from WeightModule.powers, which builds each
once per module and keeps it read-only: a tangle evaluation reuses every
strand's stacks across its crossings and twists, and the deformation
families that deform caches per context reuse theirs across evaluations.
What a module alone fixes of a gate is kept with it the same way
(WeightModule.kept), per sign: its twist, and the half of the tail that
it contributes, its E stack scaled by the tail's coefficients
(_tail_stack).  So a cached family builds each twist and scaled stack
once, and only the Cartan vector and the tail's matmul depend on the
other strand.
Every map also broadcasts over the leading batch axes B of a batched
module (rep: Typical of a batch of weights, as the deformation path uses
for both summands of a projective cover); an unbatched module is the case
B = ().  rep._powers stacks on axis -3, so the powers are (*B, r, d, d);
a crossing's tail is (*B, rows, rows) and its Cartan vector (*B, rows),
and applied to a state viewed as (*B, L, rows, cols) both get a unit
strand axis, so that B meets the state's summand axes and L broadcasts.
calibrate() checks the convention once per context: open Hopf links
evaluated by the tangle engine must match their closed forms on a sample
battery.  scalar_of measures residuals against the round-off scale a
tangle evaluation carries, and modified_trace passes it when given a
LinearMap; it takes a batch (*B, d, d) with a scale of shape B and tests
each matrix against its own scale, so both summands of a projective
family go through one call.

The modified trace is normalized on the weight-0 generic module and
evaluated through its closed-form modified dimensions; on indecomposable
projective colors it is never computed here directly but through the
deformation limit (see the deform module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .jets import Jet
from .qnum import QContext, qbracket, qint, qpow
from .rep import (
    DeformX, LinearMap, OneDim, Projective, SelfExt, Simple, Sum, Typical, WeightModule,
    _diag, projective_cover, summand_weights,
)

__all__ = [
    "CalibrationError", "NotProjectiveError", "NonScalarError", "NoClosedFormError",
    "RibbonConfig", "Crossing", "calibrate", "get_config", "crossing", "braiding_matrix",
    "hopf_closed_form", "modified_dim", "modified_trace", "scalar_of",
]


class CalibrationError(RuntimeError):
    """The fixed ribbon convention failed the Hopf anchor identities."""


class NotProjectiveError(TypeError):
    """Modified dimension/trace requested outside the projective ideal."""


class NonScalarError(ArithmeticError):
    """An endomorphism expected to be scalar on a simple block is not."""


class NoClosedFormError(TypeError):
    """No closed form is known for the requested closed color."""


@dataclass
class RibbonConfig:
    """The ribbon convention on a context, with the worst anchor error of its check."""

    ctx: QContext
    max_rel_error: float = 0.0

    @property
    def pivot_exponent(self) -> int:
        """Exponent p of the pivot K^p on the right duality."""
        return 1 - self.ctx.r


@lru_cache(maxsize=None)
def get_config(ctx: QContext) -> RibbonConfig:
    """Checked configuration for this context (calibrated once per context value)."""
    return calibrate(ctx)


# ---------------------------------------------------------------------------
# braiding and twist


def _weights(m: WeightModule):
    """The weight vector, whose q-powers give the pivot and the Cartan factor;
    NotProjectiveError when H has a Jordan part (the self-extension)."""
    if m.jordan is not None:
        raise NotProjectiveError(f"ribbon maps need a diagonal H; {m.label} has a Jordan part")
    return m.weights


def _pivot_matrix(cfg: RibbonConfig, m: WeightModule, sign: int = 1):
    """K^(sign p) = q^(sign p H) on the module, p = cfg.pivot_exponent."""
    return _diag(qpow(cfg.ctx, sign * cfg.pivot_exponent * _weights(m)))


def _flip_index(dm: int, dn: int) -> np.ndarray:
    """Permutation of the flip M x N -> N x M: row b*dm + a gathers a*dn + b."""
    return np.arange(dm * dn).reshape(dm, dn).T.ravel()


def _cartan_part(ctx: QContext, m: WeightModule, n: WeightModule, sign: int):
    """Diagonal of q^(sign H x H / 2) over the tensor basis, as a vector
    (a batch of them for a batched module)."""
    c = qpow(ctx, 0.5 * sign * (_weights(m)[..., :, None] * _weights(n)[..., None, :]))
    return c.reshape(*c.shape[:-2], m.dim * n.dim)


@lru_cache(maxsize=None)
def _tail_coefs(ctx: QContext, sign: int) -> np.ndarray:
    """((sign {1})^k / [k]!) q^(sign k(k-1)/2) for k < r: the coefficients of
    the q-exponential exp_q({1} x) for sign = +1, of its inverse for sign = -1.
    Cached per context, as every crossing and twist reads them; read-only."""
    k = np.arange(ctx.r)
    fact = np.cumprod(np.concatenate([[1.0], qint(ctx, k[1:])]))
    c = (sign * qbracket(ctx, 1)) ** k / fact * qpow(ctx, sign * k * (k - 1) / 2)
    c.setflags(write=False)
    return c


def _tail_stack(ctx: QContext, m: WeightModule, sign: int):
    """_tail_coefs[k] E^k over k < r, stacked as m.powers("E") stacks them:
    the half of the tail that m alone fixes, kept with m per sign, read-only."""
    return m.kept(f"_tail_E_{sign}",
                  lambda: _tail_coefs(ctx, sign)[:, None, None] * m.powers("E"))


def _tail_part(ctx: QContext, m: WeightModule, n: WeightModule, sign: int):
    """Sum over k < r of _tail_coefs[k] E^k x F^k.

    This is the q-exponential of the nilpotent {1} E x F; sign = -1 gives
    its inverse, since exp_q(x)^-1 = exp_(1/q)(-x).  The scaled E stack
    (_tail_stack) and the F stack are contracted over k in one (dm^2, r) @
    (r, dn^2) matmul, whose (a c, b d) entries are transposed to the
    crossing's (a b, c d).
    """
    r, dm, dn = ctx.r, m.dim, n.dim
    E, F = _tail_stack(ctx, m, sign), n.powers("F")
    t = (E.reshape(*E.shape[:-3], r, dm * dm).swapaxes(-1, -2)
         @ F.reshape(*F.shape[:-3], r, dn * dn))
    B = t.shape[:-2]
    return t.reshape(*B, dm, dm, dn, dn).swapaxes(-3, -2).reshape(*B, dm * dn, dm * dn)


@dataclass(frozen=True, eq=False)
class Crossing:
    """The braiding M x N -> N x M as its three factors, applied to a state.

    For sign = +1 the tail and the Cartan vector live on M x N and the map
    is flip . Cartan . tail.  For sign = -1 they are the inverse factors on
    N x M and the map is tail . Cartan . flip, the inverse of the crossing
    N x M -> M x N.  The flip is the same row gather M x N -> N x M for both.
    """

    sign: int
    tail: object
    cartan: object
    flip: np.ndarray

    def __call__(self, x):
        """The crossing applied to x over its rows (axis -2): a matrix, or a
        state viewed as (*B, L, rows, R*batch).  On a state the factors,
        of shape (*B, rows, rows) and (*B, rows), get a unit strand axis, so
        that their batch axes meet the state's B and broadcast over its L
        strands.  x and the factors may each be float or jet."""
        tail, cartan = self.tail, self.cartan[..., :, None]
        if len(x.shape) > 2:
            tail, cartan = tail[..., None, :, :], cartan[..., None, :, :]
        if self.sign == 1:
            return (cartan * (tail @ x))[..., self.flip, :]
        return tail @ (cartan * x[..., self.flip, :])


def crossing(cfg: RibbonConfig, m: WeightModule, n: WeightModule, sign: int = 1) -> Crossing:
    """Factors of the braiding M x N -> N x M (sign = -1 for the inverse crossing)."""
    a, b = (m, n) if sign == 1 else (n, m)
    return Crossing(sign, _tail_part(cfg.ctx, a, b, sign), _cartan_part(cfg.ctx, a, b, sign),
                    _flip_index(m.dim, n.dim))


def braiding_matrix(cfg: RibbonConfig, m: WeightModule, n: WeightModule, sign: int = 1):
    """Matrix of the braiding M x N -> N x M: its crossing applied to the identity."""
    return crossing(cfg, m, n, sign)(np.eye(m.dim * n.dim, dtype=complex))


def twist_matrix(cfg: RibbonConfig, m: WeightModule, sign: int = 1):
    """Twist on a module (sign = -1: the inverse twist), in closed form.

    With s = sign, p = cfg.pivot_exponent and (X, Y) = (F, E) for s = +1,
    (E, F) for s = -1, the closed form of the module docstring is
    sum_(n<r) c_n X^n K^p Y^n q^(s H (H + 2sn) / 2).  Moving K^p past Y^n
    gives sum_n c_n X^n Y^n q^(s (H + 2sn)(H + 2sp) / 2): one matmul of the
    stacked powers of X against those of Y with scaled columns: the X^n
    side by side, (d, r d), against the scaled Y^n on top of each other.
    It depends on cfg only through r, so it is kept with m per sign
    (WeightModule.kept): a deformation family's module, which persists,
    builds each of its twists once.
    """
    return m.kept(f"_twist_{sign}", lambda: _twist(cfg, m, sign))


def _twist(cfg: RibbonConfig, m: WeightModule, sign: int):
    """The closed form of twist_matrix, built afresh."""
    ctx, r, d, p = cfg.ctx, cfg.ctx.r, m.dim, cfg.pivot_exponent
    w, n = _weights(m)[..., None, :], np.arange(r)[:, None]
    X, Y = ("F", "E") if sign == 1 else ("E", "F")
    cols = _tail_coefs(ctx, sign)[:, None] * qpow(ctx, sign * (w + 2 * sign * n)
                                                  * (w + 2 * sign * p) * 0.5)
    X, Y = m.powers(X).swapaxes(-3, -2), m.powers(Y) * cols[..., None, :]
    return X.reshape(*X.shape[:-3], d, r * d) @ Y.reshape(*Y.shape[:-3], r * d, d)


# ---------------------------------------------------------------------------
# dualities


def ev_left(cfg, m: WeightModule):
    """Pairing M* x M -> C."""
    d = m.dim
    vec = np.eye(d, dtype=complex).reshape(1, d * d)
    return vec


def coev_left(cfg, m: WeightModule):
    """C -> M x M*."""
    d = m.dim
    return np.eye(d, dtype=complex).reshape(d * d, 1)


def ev_right(cfg, m: WeightModule):
    """M x M* -> C through the pivot."""
    p = _pivot_matrix(cfg, m)
    return p.swapaxes(-1, -2).reshape(*p.shape[:-2], 1, m.dim ** 2)


def coev_right(cfg, m: WeightModule):
    """C -> M* x M through the inverse pivot."""
    p = _pivot_matrix(cfg, m, -1)
    return p.swapaxes(-1, -2).reshape(*p.shape[:-2], m.dim ** 2, 1)


# ---------------------------------------------------------------------------
# modified dimension and trace


def modified_dim(ctx: QContext, label):
    """Closed-form modified dimension of a module label on the projective
    ideal; additive on sums.  A projective cover, Projective(i, k) or
    DeformX(i, k, 0), takes the closed form."""
    if isinstance(label, Typical):
        return _dim_typical(ctx, label.alpha)
    cover = projective_cover(label)
    if cover is not None:
        i, k = cover
        return ((-1) ** (k * (ctx.r - 1) + i + 1)
                * (qpow(ctx, i + 1) + qpow(ctx, -(i + 1))))
    if isinstance(label, DeformX):
        lm, lp = summand_weights(ctx, label.i, label.l, label.eps)
        return _dim_typical(ctx, lm) + _dim_typical(ctx, lp)
    if isinstance(label, Sum):
        out = None
        for p in label.parts:
            d = modified_dim(ctx, p)
            out = d if out is None else out + d
        return out
    if isinstance(label, (Simple, OneDim)):
        raise NotProjectiveError(f"{label} is not projective for r = {ctx.r}")
    raise NotProjectiveError(f"no modified dimension for {label!r}")


def _dim_typical(ctx: QContext, alpha):
    pref = (-1) ** (ctx.r - 1) * ctx.r
    if not isinstance(alpha, Jet):
        a = complex(alpha)
        n = round(a.real)
        if abs(a - n) < ctx.tol:
            if n % ctx.r != 0:
                raise NotProjectiveError(
                    f"generic-weight module at non-generic integer weight {n}")
            m = n // ctx.r
            # removable 0/0 at weights in r*Z: limit of {a}/{ra}
            return pref * (-1) ** (m * (1 + ctx.r)) / ctx.r
    elif alpha.shape == () and alpha.val == 0:
        n = round(alpha.c[0].real)
        if abs(alpha.c[0] - n) < ctx.tol:
            # {r(n + d)} = (-1)^n {r d}: exact at an integer n, where sin(pi n) has round-off
            return pref * (-1) ** n * qbracket(ctx, alpha) / qbracket(ctx, ctx.r * (alpha - n))
    return pref * qbracket(ctx, alpha) / qbracket(ctx, ctx.r * alpha)


def scalar_of(mat, dim: int, tol: float, scale=1.0):
    """The scalar c with mat = c * Id, or NonScalarError.

    The residual is tested against tol times the larger of |mat| and scale,
    the size of the states mat was contracted from (LinearMap.scale).  mat
    may be a batch (*B, d, d), float or jet, with scale of shape B (or a
    number for all): each matrix is tested against its own |mat[t]| and
    scale[t], and c has shape B.  A jet is tested on its coefficient stack.
    """
    a, axes = (mat.c, (0, -2, -1)) if isinstance(mat, Jet) else (np.asarray(mat), (-2, -1))
    resid = np.abs(a - a[..., :1, :1] * np.eye(dim)).max(axis=axes)
    bound = tol * np.maximum(scale, np.abs(a).max(axis=axes))
    if np.any(resid > bound):
        worst = np.max(resid, where=resid > bound, initial=0.0)
        raise NonScalarError(f"matrix is not scalar (residual {worst:.2e})")
    c = mat[..., 0, 0]
    return c if isinstance(c, Jet) or c.ndim else complex(c)


def modified_trace(m: WeightModule, f):
    """Modified trace of f on a generic-projective module or a direct sum of them.

    Normalized so the identity on the weight-0 generic module traces to
    (-1)^(r-1); each simple block contributes its scalar times the block's
    modified dimension.  A LinearMap's round-off scale is passed to
    scalar_of.  Indecomposable projective colors go through the
    deformation limit instead (deform module).
    """
    ctx = m.ctx
    mat, scale = (f.matrix, f.scale) if isinstance(f, LinearMap) else (f, 1.0)
    labels = m.label.parts if isinstance(m.label, Sum) else (m.label,)
    for lab in labels:
        if isinstance(lab, Typical):
            continue
        if projective_cover(lab) is not None:
            hint = "use the deformation-limit pathway"
        elif isinstance(lab, (Simple, OneDim, SelfExt)):
            hint = "not projective"
        else:
            hint = "only generic colors and direct sums of them are traced here"
        raise NotProjectiveError(f"modified trace on {lab}: {hint}")
    out = None
    d = ctx.r
    for t, lab in enumerate(labels):
        block = mat[t * d:(t + 1) * d, t * d:(t + 1) * d]
        term = modified_dim(ctx, lab) * scalar_of(block, d, ctx.tol, scale)
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# calibration


def _bracket_ratio(ctx: QContext, n: int, beta):
    """{n beta}/{beta}, with its removable limit n (-1)^(m(n-1)) at beta = mr."""
    m = round(complex(beta).real / ctx.r)
    if abs(beta - m * ctx.r) < ctx.tol:
        return n * (-1) ** (m * (n - 1)) + 0j
    return qbracket(ctx, n * beta) / qbracket(ctx, beta)


def hopf_closed_form(ctx: QContext, z_label, beta):
    """Closed-form scalar of the open Hopf link on a generic open color."""
    if isinstance(z_label, Typical):
        return _bracket_ratio(ctx, ctx.r, beta) * qpow(ctx, z_label.alpha * beta)
    if isinstance(z_label, Simple):
        return _bracket_ratio(ctx, z_label.i + 1, beta) * qpow(ctx, z_label.k * ctx.r * beta)
    if isinstance(z_label, OneDim):
        return qpow(ctx, z_label.k * ctx.r * beta)
    if isinstance(z_label, Projective):
        i, k = z_label.i, z_label.k
        return (_bracket_ratio(ctx, ctx.r, beta) * qpow(ctx, k * ctx.r * beta)
                * (qpow(ctx, (ctx.r - 1 - i) * beta) + qpow(ctx, -(ctx.r - 1 - i) * beta)))
    raise NoClosedFormError(f"no closed form for closed color {z_label!r}")


# Anchor battery: (closed generic weight, open generic weight) pairs.
_ANCHOR_SAMPLES = ((0.377, 0.911), (-1.23 + 0.31j, 0.44 - 0.17j))


def calibrate(ctx: QContext) -> RibbonConfig:
    """Check the fixed convention against the open Hopf anchors.

    For each sample pair (alpha, beta), the open Hopf link on Typical(beta)
    with closed colors Typical(alpha), Simple(0, 1), Projective(0, 1) (and
    Simple(r-2, -1) for r > 2) is evaluated by the tangle engine and must
    match hopf_closed_form to 1e-8 relative; the worst error is kept as
    max_rel_error.  A mismatch or a non-scalar link raises CalibrationError.
    """
    from .tangle import eval_tangle, hopf_tangle  # tangle imports this module

    cfg = RibbonConfig(ctx)
    worst = 0.0
    for alpha, beta in _ANCHOR_SAMPLES:
        closed_labels = [Typical(alpha), Simple(0, 1), Projective(0, 1)]
        if ctx.r > 2:
            closed_labels.append(Simple(ctx.r - 2, -1))
        for lab in closed_labels:
            lm = eval_tangle(cfg, hopf_tangle(Typical(beta), lab))
            try:
                got = scalar_of(lm.matrix, lm.source.dim, ctx.tol, lm.scale)
            except NonScalarError as exc:
                raise CalibrationError(
                    f"open Hopf link with closed color {lab} is not scalar: {exc}"
                    f" at tol {ctx.tol}") from exc
            want = hopf_closed_form(ctx, lab, beta)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    if not worst < 1e-8:
        raise CalibrationError(
            f"the ribbon convention misses the Hopf anchors (max rel error {worst:.2e})"
            f" at tol {ctx.tol}")
    cfg.max_rel_error = worst
    return cfg
