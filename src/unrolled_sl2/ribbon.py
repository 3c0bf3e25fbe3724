"""Braiding, twist, dualities, modified trace: the ribbon data behind all invariants.

The ribbon convention is fixed: the coproduct E -> 1 x E + E x K (see
rep.tensor) and the pivot K^(1-r) on the right duality.  The braiding acts
on a pair of weight modules as the weight-diagonal q^(H x H / 2) composed
with the nilpotent tail sum over E^n x F^n and the flip; the tail
truncates exactly at n = r - 1 because E^r = F^r = 0.  calibrate() checks
the convention once per context: open Hopf links evaluated by the tangle
engine must match their closed forms on a sample battery.

The modified trace is normalized on the weight-0 generic module and
evaluated through its closed-form modified dimensions; on indecomposable
projective colors it is never computed here directly but through the
deformation limit (see the deform module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, as_jet
from .qnum import QContext, qbracket, qint, qpow
from .rep import (
    DeformX, LinearMap, OneDim, Projective, Simple, Sum, Typical, WeightModule,
    _assemble, _kron,
)

__all__ = [
    "CalibrationError", "NotProjectiveError", "NonScalarError",
    "RibbonConfig", "calibrate", "get_config", "braiding_matrix",
    "hopf_closed_form", "modified_dim", "modified_trace", "scalar_of",
]


class CalibrationError(RuntimeError):
    """The fixed ribbon convention failed the Hopf anchor identities."""


class NotProjectiveError(TypeError):
    """Modified dimension/trace requested outside the projective ideal."""


class NonScalarError(ValueError):
    """An endomorphism expected to be scalar on a simple block is not."""


@dataclass
class RibbonConfig:
    """The ribbon convention on a context, with the worst anchor error of its check."""

    ctx: QContext
    max_rel_error: float = 0.0

    @property
    def pivot_exponent(self) -> int:
        """Exponent p of the pivot K^p on the right duality."""
        return 1 - self.ctx.r


_CONFIG_CACHE: dict = {}


def get_config(ctx: QContext) -> RibbonConfig:
    """Checked configuration for this context (calibrated once and cached)."""
    key = (ctx.r, ctx.tol, ctx.jet_order)
    if key not in _CONFIG_CACHE:
        _CONFIG_CACHE[key] = calibrate(ctx)
    return _CONFIG_CACHE[key]


# ---------------------------------------------------------------------------
# braiding and twist


def _pivot_matrix(cfg: RibbonConfig, m: WeightModule):
    """K^p on the module, p = cfg.pivot_exponent (never 0)."""
    p = cfg.pivot_exponent
    base = m.K if p > 0 else m.Kinv
    out = base
    for _ in range(abs(p) - 1):
        out = out @ base
    return out


def _flip_matrix(dm: int, dn: int) -> np.ndarray:
    P = np.zeros((dm * dn, dm * dn))
    for a in range(dm):
        for b in range(dn):
            P[b * dm + a, a * dn + b] = 1.0
    return P


def _cartan_part(ctx: QContext, m: WeightModule, n: WeightModule):
    """Diagonal of q^(weight * weight / 2) over the tensor basis."""
    entries = []
    for a, wa in enumerate(m.weights):
        for b, wb in enumerate(n.weights):
            entries.append((a * n.dim + b, a * n.dim + b, qpow(ctx, 0.5 * (wa * wb))))
    return _assemble(m.dim * n.dim, entries)


def _tail_part(ctx: QContext, m: WeightModule, n: WeightModule):
    """Sum over n of ({1}^n / [n]!) q^(n(n-1)/2) E^n x F^n."""
    br1 = qbracket(ctx, 1)
    dim = m.dim * n.dim
    if m.is_jet or n.is_jet:
        acc = Jet.eye(dim, m.E.order if m.is_jet else n.E.order)
    else:
        acc = np.eye(dim, dtype=complex)
    fact = 1.0 + 0j
    Ep, Fp = m.E, n.F
    for k in range(1, ctx.r):
        fact *= qint(ctx, k)
        coef = br1 ** k / fact * qpow(ctx, k * (k - 1) / 2)
        acc = acc + coef * _kron(Ep, Fp)
        if k < ctx.r - 1:
            Ep = Ep @ m.E
            Fp = Fp @ n.F
    return acc


def braiding_matrix(cfg: RibbonConfig, m: WeightModule, n: WeightModule, sign: int = 1):
    """Matrix of the braiding M x N -> N x M (sign = -1 for the inverse crossing)."""
    ctx = cfg.ctx
    if sign == 1:
        D = _cartan_part(ctx, m, n)
        T = _tail_part(ctx, m, n)
        P = _flip_matrix(m.dim, n.dim)
        R = D @ T
        return P @ R if not isinstance(R, Jet) else as_jet(P, R.order) @ R
    c = braiding_matrix(cfg, n, m, 1)
    return c.inv() if isinstance(c, Jet) else np.linalg.inv(c)


def twist_matrix(cfg: RibbonConfig, m: WeightModule, sign: int = 1):
    """Twist on a module: right partial trace of the self-braiding."""
    c = braiding_matrix(cfg, m, m, 1)
    G = _pivot_matrix(cfg, m)
    d = m.dim
    if isinstance(c, Jet) or isinstance(G, Jet):
        if not isinstance(c, Jet):
            c = as_jet(c, G.order)
        if not isinstance(G, Jet):
            G = as_jet(G, c.order)
        th = c.combine(G, lambda cs, gs: np.einsum("abvj,jb->av",
                                                   cs.reshape(d, d, d, d), gs))
    else:
        th = np.einsum("abvj,jb->av", np.asarray(c).reshape(d, d, d, d), np.asarray(G))
    if sign == -1:
        th = th.inv() if isinstance(th, Jet) else np.linalg.inv(th)
    return th


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
    G = _pivot_matrix(cfg, m)
    d = m.dim
    if isinstance(G, Jet):
        return Jet(np.swapaxes(G.c, -1, -2).reshape(G.order, 1, d * d), G.val)
    return np.asarray(G).T.reshape(1, d * d)


def coev_right(cfg, m: WeightModule):
    """C -> M* x M through the inverse pivot."""
    G = _pivot_matrix(cfg, m)
    Gi = G.inv() if isinstance(G, Jet) else np.linalg.inv(G)
    d = m.dim
    if isinstance(Gi, Jet):
        return Jet(np.swapaxes(Gi.c, -1, -2).reshape(Gi.order, d * d, 1), Gi.val)
    return np.asarray(Gi).T.reshape(d * d, 1)


# ---------------------------------------------------------------------------
# modified dimension and trace


def modified_dim(ctx: QContext, label):
    """Closed-form modified dimension on the projective ideal; additive on sums."""
    if isinstance(label, WeightModule):
        label = label.label
    if isinstance(label, Typical):
        return _dim_typical(ctx, label.alpha)
    if isinstance(label, Projective):
        i, k = label.i, label.k
        return ((-1) ** (k * (ctx.r - 1) + i + 1)
                * (qpow(ctx, i + 1) + qpow(ctx, -(i + 1))))
    if isinstance(label, DeformX):
        i, l, eps = label.i, label.l, label.eps
        lm = 1 + i - ctx.r + l * ctx.r + eps
        lp = -1 - i + ctx.r + l * ctx.r + eps
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
    return pref * qbracket(ctx, alpha) / qbracket(ctx, ctx.r * alpha)


def scalar_of(mat, dim: int, tol: float):
    """The scalar c with mat = c * Id, or NonScalarError."""
    if isinstance(mat, Jet):
        c = mat.entry(0, 0)
        diff = mat - c * Jet.eye(dim, mat.order)
        scale = max(1.0, mat.norm())
        if diff.norm() > tol * scale:
            raise NonScalarError(f"matrix is not scalar (residual {diff.norm():.2e})")
        return c
    m = np.asarray(mat)
    c = m[0, 0]
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - c * np.eye(dim))) > tol * scale:
        raise NonScalarError("matrix is not scalar")
    return complex(c)


def modified_trace(m: WeightModule, f):
    """Modified trace of f on a generic-projective module or a direct sum of them.

    Normalized so the identity on the weight-0 generic module traces to
    (-1)^(r-1); each simple block contributes its scalar times the block's
    modified dimension.  Indecomposable projective colors go through the
    deformation limit instead (deform module).
    """
    ctx = m.ctx
    mat = f.matrix if isinstance(f, LinearMap) else f
    labels = m.label.parts if isinstance(m.label, Sum) else (m.label,)
    dims = []
    for lab in labels:
        if isinstance(lab, Typical):
            dims.append((lab, ctx.r))
        else:
            raise NotProjectiveError(
                f"modified trace on {lab}: use the deformation-limit pathway")
    out = None
    off = 0
    for lab, d in dims:
        if isinstance(mat, Jet):
            block = mat.block(off, off + d, off, off + d)
        else:
            block = np.asarray(mat)[off:off + d, off:off + d]
        c = scalar_of(block, d, ctx.tol)
        term = modified_dim(ctx, lab) * c
        out = term if out is None else out + term
        off += d
    return out


# ---------------------------------------------------------------------------
# calibration


def hopf_closed_form(ctx: QContext, z_label, beta):
    """Closed-form scalar of the open Hopf link on a generic open color."""
    br = lambda x: qbracket(ctx, x)
    if isinstance(z_label, Typical):
        return br(ctx.r * beta) / br(beta) * qpow(ctx, z_label.alpha * beta)
    if isinstance(z_label, Simple):
        return br((z_label.i + 1) * beta) / br(beta) * qpow(ctx, z_label.k * ctx.r * beta)
    if isinstance(z_label, OneDim):
        return qpow(ctx, z_label.k * ctx.r * beta)
    if isinstance(z_label, Projective):
        i, k = z_label.i, z_label.k
        return (br(ctx.r * beta) / br(beta) * qpow(ctx, k * ctx.r * beta)
                * (qpow(ctx, (ctx.r - 1 - i) * beta) + qpow(ctx, -(ctx.r - 1 - i) * beta)))
    raise TypeError(f"no closed form for closed color {z_label!r}")


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
                got = scalar_of(lm.matrix, lm.source.dim, ctx.tol)
            except NonScalarError as exc:
                raise CalibrationError(
                    f"open Hopf link with closed color {lab} is not scalar: {exc}") from exc
            want = hopf_closed_form(ctx, lab, beta)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    if not worst < 1e-8:
        raise CalibrationError(
            f"the ribbon convention misses the Hopf anchors (max rel error {worst:.2e})")
    cfg.max_rel_error = worst
    return cfg
