"""Regularized asymptotic dimensions, fusion data, and the comparison engine.

Labels are Fock modules F(lam) and atypicals M(t, s) with 1 <= s <= r; the
boundary row s = r denotes the simple Fock module at the corresponding
lattice weight (its two dimension formulas agree identically) and is both
emitted and accepted by the fusion rules.  The regularization parameter
eps classifies into a continuous regime and horizontal strips; dimensions
are constant on each strip and multiplicative against the fusion product
in the continuous regime.

The dictionary maps generic-weight modules to Fock labels and twisted
simples to atypicals; the comparison engine equates regularized dimensions
with ratios of modified traces of open Hopf links, computed through the
tangle engine (continuous regime) or the deformation limit (strips).  The
denominator of each ratio is the open Hopf link with the unit S(0, 0)
closed, which is the identity, so it is known exactly and not evaluated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, sqrt

import numpy as np

from .qnum import QContext
from .rep import OneDim, Projective, Simple, Sum, Typical, _fmt_num, is_typical_weight, parse_complex
from .ribbon import RibbonConfig, _bracket_ratio, modified_dim
from .tangle import hopf_tangle, renormalized_invariant
from .deform import log_tangle_invariant

__all__ = [
    "BoundaryError", "RegimeError", "DomainError",
    "Fock", "Atyp", "VACUUM", "Regularization", "FusionVector",
    "alpha_plus", "alpha_minus", "alpha_zero", "alpha_ts",
    "b_threshold", "regime_of", "projective_strip", "qdim_reg", "fuse",
    "phi_dictionary", "phi_inverse", "compare_hopf_qdim", "verlinde_hom_check",
    "CompareReport", "VerlindeReport", "parse_singlet_label", "format_singlet_label",
]


class BoundaryError(ValueError):
    """The regularization parameter sits on a regime or strip boundary."""


class RegimeError(ValueError):
    """Arguments are inconsistent with the requested regularization regime."""


class DomainError(ValueError):
    """A label lies outside the domain of the requested dictionary or rule."""


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Fock:
    lam: complex


@dataclass(frozen=True)
class Atyp:
    t: int
    s: int


VACUUM = Atyp(1, 1)


def alpha_plus(ctx: QContext) -> float:
    return sqrt(2 * ctx.r)


def alpha_minus(ctx: QContext) -> float:
    return -sqrt(2 / ctx.r)


def alpha_zero(ctx: QContext) -> float:
    return alpha_plus(ctx) + alpha_minus(ctx)


def alpha_ts(ctx: QContext, t: int, s: int) -> float:
    """Lattice weight of the atypical row/column label."""
    return (1 - t) / 2 * alpha_plus(ctx) + (1 - s) / 2 * alpha_minus(ctx)


def _validate(ctx: QContext, label):
    if isinstance(label, Fock):
        return
    if isinstance(label, Atyp):
        if not 1 <= label.s <= ctx.r:
            raise DomainError(f"atypical column index must lie in 1..{ctx.r}, got {label.s}")
        return
    raise DomainError(f"not a singlet label: {label!r}")


def format_singlet_label(label) -> str:
    if isinstance(label, Fock):
        return f"F({_fmt_num(label.lam)})"
    return f"M({label.t},{label.s})"


def parse_singlet_label(text: str):
    text = text.strip()
    m = re.fullmatch(r"M\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)", text)
    if m:
        return Atyp(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"F\(\s*([^)]+?)\s*\)", text)
    if m:
        return Fock(parse_complex(m.group(1)))
    raise DomainError(f"bad singlet label {text!r}")


# ---------------------------------------------------------------------------
# regimes


@dataclass(frozen=True)
class Regularization:
    eps: complex
    kind: str           # "continuous" or "strip"
    k: int = 0
    m: int = 0


def b_threshold(ctx: QContext, eps: complex) -> float:
    """Negative distance from Im(eps) to the off-lattice comparison points."""
    y = complex(eps).imag
    s = sqrt(2 * ctx.r)
    m0 = round(y * s)
    best = None
    for m in range(m0 - ctx.r - 1, m0 + ctx.r + 2):
        if m % ctx.r == 0:
            continue
        d = abs(m / s - y)
        best = d if best is None else min(best, d)
    return -best


def regime_of(ctx: QContext, eps: complex) -> Regularization:
    """Classify eps into the continuous regime or a strip (k, m).

    Raises BoundaryError within tolerance of the regime threshold or of a
    strip wall, where the dimensions are not defined.
    """
    eps = complex(eps)
    B = b_threshold(ctx, eps)
    d = eps.real - B
    if abs(d) <= ctx.tol * max(1.0, abs(B)):
        raise BoundaryError(f"eps = {eps} sits on the regime threshold (B = {B})")
    if d > 0:
        return Regularization(eps, "continuous")
    x = eps.imag / sqrt(2 * ctx.r) * 2 * ctx.r  # strip centers at integers of x
    n = round(x)
    margin = 0.5 - abs(x - n)
    if margin <= ctx.tol * max(1.0, abs(x)):
        raise BoundaryError(f"eps = {eps} sits on a strip wall")
    m = n % (2 * ctx.r)
    k = (n - m) // (2 * ctx.r)
    return Regularization(eps, "strip", k, m)


def projective_strip(ctx: QContext, j: int, k: int):
    """(k, m) of the strip S(k, m) that the projective cover P(j, k) is
    compared on: strip index n = 2rk + m = 2rk + (j + 1 + r(k + 1))."""
    return divmod(2 * ctx.r * k + (j + 1 + ctx.r * (k + 1)), 2 * ctx.r)


def strip_eps(ctx: QContext, k: int, m: int, re_part: float = -0.37) -> complex:
    """A representative point at the center of strip (k, m); ValueError on a
    real part that is not finite."""
    if not isfinite(re_part):
        raise ValueError(f"Re(eps) must be finite, got {re_part}")
    n = 2 * ctx.r * k + m
    return complex(re_part, n / sqrt(2 * ctx.r))


# ---------------------------------------------------------------------------
# regularized dimensions


def qdim_reg(ctx: QContext, label, eps: complex):
    """Regularized asymptotic dimension of a label at regularization eps."""
    _validate(ctx, label)
    reg = regime_of(ctx, eps)
    if reg.kind == "continuous":
        return _qdim_continuous(ctx, label, complex(eps))
    return _qdim_strip(ctx, label, reg.m)


def _qdim_continuous(ctx: QContext, label, eps: complex):
    """exp(pi eps x) sin(pi s am eps i) / sin(pi am eps i), with s = r (so
    s am = -ap) for a Fock label; the sine ratio is {s beta}/{beta} at beta =
    r am eps i, which keeps its removable limit at eps = i n sqrt(r/2)."""
    ap, am, a0 = alpha_plus(ctx), alpha_minus(ctx), alpha_zero(ctx)
    beta = ctx.r * am * eps * 1j
    if isinstance(label, Fock):
        x, s = 2 * label.lam - a0, ctx.r
    else:
        x, s = -(label.t - 1) * ap, label.s
    return complex(np.exp(np.pi * eps * x) * _bracket_ratio(ctx, s, beta))


def _qdim_strip(ctx: QContext, label, m: int):
    if isinstance(label, Fock):
        return 0j
    t, s = label.t, label.s
    r = ctx.r
    if m % r != 0:
        return complex((-1) ** (m * (t - 1)) * np.sin(np.pi * m * s / r) / np.sin(np.pi * m / r))
    mr = m // r  # 0 or 1
    return complex((-1) ** ((m + 1) * (t - 1) + mr * (s - 1))
                   * np.sin(np.pi * s / r) / np.sin(np.pi / r))


# ---------------------------------------------------------------------------
# fusion


_KEY_TOL = 1e-9  # Fock labels closer than this merge into one term


class FusionVector:
    """Finitely supported integer combination of singlet labels.

    Fock weights are kept at full precision; nearby weights (within the key
    tolerance) merge into a single term, so independently computed vectors
    compare equal without decimal canonicalization.
    """

    def __init__(self, terms=()):
        self.terms = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for lab, mult in items:
            self._add(lab, mult)

    def _find(self, lab):
        if not isinstance(lab, Fock):
            return lab if lab in self.terms else None
        z = complex(lab.lam)
        for k in self.terms:
            if isinstance(k, Fock) and abs(complex(k.lam) - z) < _KEY_TOL:
                return k
        return None

    def _add(self, lab, mult: int):
        if mult == 0:
            return
        k = self._find(lab)
        if k is None:
            self.terms[lab] = mult
        else:
            self.terms[k] += mult
            if self.terms[k] == 0:
                del self.terms[k]

    def __eq__(self, other):
        if not isinstance(other, FusionVector) or len(self.terms) != len(other.terms):
            return False
        for lab, mult in self.terms.items():
            k = other._find(lab)
            if k is None or other.terms[k] != mult:
                return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for lab, mult in self.items():
            head = "" if mult == 1 else f"{mult}*"
            bits.append(head + format_singlet_label(lab))
        return " + ".join(bits)

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))

    def qdim(self, ctx: QContext, eps: complex) -> complex:
        return sum(mult * qdim_reg(ctx, lab, eps) for lab, mult in self.terms.items())


def fuse(ctx: QContext, x, y) -> FusionVector:
    """Product of two irreducible labels in the character/Grothendieck data.

    The atypical-by-Fock rule shifts by the row-t lattice weights; the
    atypical-by-atypical rule truncates at column r and folds the excess
    into three correction families, all of which land back in range (the
    boundary column s = r may appear and is a legal label here).
    """
    _validate(ctx, x)
    _validate(ctx, y)
    r = ctx.r
    am = alpha_minus(ctx)
    if isinstance(x, Fock) and isinstance(y, Fock):
        return FusionVector([(Fock(x.lam + y.lam + l * am), 1) for l in range(r)])
    if isinstance(x, Atyp) and isinstance(y, Fock):
        t, s = x.t, x.s
        return FusionVector([(Fock(y.lam + alpha_ts(ctx, t, l)), 1)
                             for l in range(-s + 2, s + 1, 2)])
    if isinstance(x, Fock) and isinstance(y, Atyp):
        return fuse(ctx, y, x)
    t, s = x.t, x.s
    tp, sp = y.t, y.s
    out = []
    for l in range(abs(s - sp) + 1, min(s + sp - 1, r) + 1, 2):
        out.append((Atyp(t + tp - 1, l), 1))
    start = r + 1
    if (start + s + sp + 1) % 2 != 0:
        start += 1
    for l in range(start, s + sp - 1 + 1, 2):
        for lab in (Atyp(t + tp - 2, l - r), Atyp(t + tp - 1, 2 * r - l), Atyp(t + tp, l - r)):
            if not 1 <= lab.s <= r:
                raise DomainError(f"fusion produced out-of-range label {lab}")
            out.append((lab, 1))
    return FusionVector(out)


# ---------------------------------------------------------------------------
# dictionary


def phi_dictionary(ctx: QContext, x):
    """Image of a quantum-group simple (or a direct sum) among singlet labels."""
    s = sqrt(2 * ctx.r)
    if isinstance(x, Typical):
        if not is_typical_weight(ctx, x.alpha):
            raise DomainError(f"weight {x.alpha} is not generic or on the r-lattice")
        return Fock((complex(x.alpha) + ctx.r - 1) / s)
    if isinstance(x, Simple):
        return Atyp(1 - x.k, x.i + 1)
    if isinstance(x, OneDim):
        return Atyp(1 - x.k, 1)
    if isinstance(x, Sum):
        return FusionVector([(phi_dictionary(ctx, p), 1) for p in x.parts])
    raise DomainError(f"no simple image for {x!r}")


def phi_inverse(ctx: QContext, y):
    s = sqrt(2 * ctx.r)
    if isinstance(y, Fock):
        return Typical(complex(y.lam) * s - ctx.r + 1)
    if isinstance(y, Atyp):
        if not 1 <= y.s <= ctx.r - 1:
            raise DomainError(f"no simple preimage for boundary label {y}")
        return Simple(y.s - 1, 1 - y.t)
    raise DomainError(f"not a singlet label: {y!r}")


# ---------------------------------------------------------------------------
# comparison engine


@dataclass
class CompareReport:
    lhs: complex
    rhs: complex
    diff: float
    regime: Regularization


def compare_hopf_qdim(cfg: RibbonConfig, x, color, eps: complex) -> CompareReport:
    """Regularized dimension of the image of x against a modified-trace ratio.

    Continuous regime: color must be the generic module at alpha =
    -i sqrt(2r) eps; the ratio is the modified trace of hopf(color, x) over
    that of hopf(color, S(0, 0)), the identity, whose trace is the modified
    dimension d(V_alpha).  Strip regime: color must be the projective cover
    P_j (twist k) matched to the strip S(k, j+1+r(k+1)); the ratio is the
    identity coefficient of hopf(color, x), computed by the deformation
    limit, over that of the unit, which is 1.
    """
    ctx = cfg.ctx
    reg = regime_of(ctx, eps)
    if reg.kind == "continuous":
        if not isinstance(color, Typical):
            raise RegimeError("continuous comparison needs a generic-weight color")
        alpha = -1j * sqrt(2 * ctx.r) * complex(eps)
        if abs(complex(color.alpha) - alpha) > 1e-8 * max(1.0, abs(alpha)):
            raise RegimeError(
                f"color weight {color.alpha} does not match -i sqrt(2r) eps = {alpha}")
        num = renormalized_invariant(cfg, hopf_tangle(Typical(alpha), x))
        rhs = num / modified_dim(ctx, Typical(alpha))
    else:
        if not isinstance(color, Projective):
            raise RegimeError("strip comparison needs a projective-cover color")
        want = projective_strip(ctx, color.i, color.k)
        if (reg.k, reg.m) != want:
            raise RegimeError(f"eps lies in strip (k, m) = {(reg.k, reg.m)}, "
                              f"but color {color} prescribes {want}")
        rhs = _hopf_identity_coeff(ctx, color, x)
    lhs = phi_dictionary(ctx, x)
    lhs_val = qdim_reg(ctx, lhs, eps)
    return CompareReport(complex(lhs_val), complex(rhs), abs(lhs_val - rhs), reg)


# A memo of eps-independent comparison data, keyed by value (never by id()):
# the context, which fixes the ribbon convention, and the labels.
@lru_cache(maxsize=1024)
def _hopf_identity_coeff(ctx: QContext, color, x) -> complex:
    """Identity coefficient a of the open Hopf link hopf(color, x); independent of eps."""
    return log_tangle_invariant(RibbonConfig(ctx), hopf_tangle(color, x)).a


@dataclass
class VerlindeReport:
    product: complex
    fused: complex
    diff: float


def verlinde_hom_check(ctx: QContext, x, y, eps: complex) -> VerlindeReport:
    """Multiplicativity of the regularized dimension across the fusion product."""
    reg = regime_of(ctx, eps)
    if reg.kind != "continuous":
        raise RegimeError("the dimension homomorphism check lives in the continuous regime")
    prod_val = qdim_reg(ctx, x, eps) * qdim_reg(ctx, y, eps)
    fused_val = fuse(ctx, x, y).qdim(ctx, eps)
    return VerlindeReport(complex(prod_val), complex(fused_val), abs(prod_val - fused_val))
