"""Explicit matrix modules over the unrolled quantum sl2 at q = exp(i*pi/r).

Generators E, F, K, K^-1, H act by dense matrices over complex numbers or
jets.  Constructors cover: r-dimensional generic highest-weight modules,
(i+1)-dimensional simples with a character twist, one-dimensional
characters, the 2r-dimensional deformable family (whose eps = 0 member is
the projective cover), the projective covers themselves, and the
non-semisimple self-extension of a generic module.  Tensor products, duals,
direct sums, a relation verifier, an intertwiner-space solver (the oracle
for maps built in closed form), and the explicit eps != 0 change of basis
onto the two-summand decomposition complete the toolbox.  A module is
immutable: E, F, the H-weights w (a
complex array, or a vector jet on the deformation path) and the nilpotent
part N of H, from which H, K and K^-1 are derived (see WeightModule); w is
refused beyond double-precision q-powers.  A generic module may carry a
batch of weights (Typical of an array or a vector jet of shape B): its
weights, E, H, K and K^-1 then have B as leading axes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .jets import Jet
from .qnum import QContext, qint, qpow

__all__ = [
    "RangeError", "SingularError",
    "Typical", "Simple", "OneDim", "Projective", "SelfExt", "DeformX",
    "Tensor", "Sum", "Dual", "ModuleLabel",
    "WeightModule", "LinearMap", "RelationReport",
    "make_module", "make_deformable", "deformable_layout", "tensor", "dual", "direct_sum",
    "verify_relations", "hom_space", "deformable_change_of_basis",
    "intertwiner_residual", "module_dump", "format_label", "is_typical_weight",
    "projective_cover", "summand_weights", "parse_complex",
]


class RangeError(ValueError):
    """A module-label index, or a module weight, is outside its legal range."""


class SingularError(ArithmeticError):
    """The requested change of basis is numerically singular."""


# ---------------------------------------------------------------------------
# labels


@dataclass(frozen=True)
class Typical:
    """Generic highest-weight module of dimension r; top H-weight alpha + r - 1."""
    alpha: complex


@dataclass(frozen=True)
class Simple:
    """(i+1)-dimensional simple twisted by the weight-kr character."""
    i: int
    k: int = 0


@dataclass(frozen=True)
class OneDim:
    """One-dimensional module where H acts by kr."""
    k: int


@dataclass(frozen=True)
class Projective:
    """2r-dimensional projective cover of Simple(i, k)."""
    i: int
    k: int = 0


@dataclass(frozen=True)
class SelfExt:
    """Non-split self-extension of Typical(lam); dimension 2r, H not semisimple."""
    lam: complex


@dataclass(frozen=True)
class DeformX:
    """Deformable 2r-dimensional family; direct sum of two generics off eps = 0."""
    i: int
    l: int
    eps: object = 0.0


@dataclass(frozen=True)
class Tensor:
    left: "ModuleLabel"
    right: "ModuleLabel"


@dataclass(frozen=True)
class Sum:
    parts: tuple


@dataclass(frozen=True)
class Dual:
    inner: "ModuleLabel"


ModuleLabel = Union[Typical, Simple, OneDim, Projective, SelfExt, DeformX, Tensor, Sum, Dual]


def is_typical_weight(ctx: QContext, alpha: complex) -> bool:
    """True when alpha parameterizes a simple generic module: non-integer or in r*Z."""
    a = complex(alpha)
    n = round(a.real)
    if abs(a - n) > ctx.tol:
        return True
    return n % ctx.r == 0


def projective_cover(label):
    """(i, l) of a projective-cover label, Projective(i, l) or DeformX(i, l, 0)
    at a numeric zero; None for any other label."""
    if isinstance(label, Projective):
        return label.i, label.k
    if isinstance(label, DeformX) and not isinstance(label.eps, Jet) and label.eps == 0:
        return label.i, label.l
    return None


def summand_weights(ctx: QContext, i: int, l: int, eps=0):
    """Weights 1+i-r+lr+eps and -1-i+r+lr+eps of the deformable family's two
    generic summands; eps may be a number or a jet."""
    r = ctx.r
    return 1 + i - r + l * r + eps, -1 - i + r + l * r + eps


def format_label(label) -> str:
    if isinstance(label, Typical):
        return f"V({_fmt_num(label.alpha)})"
    if isinstance(label, Simple):
        return f"S({label.i},{label.k})"
    if isinstance(label, OneDim):
        return f"C({label.k})"
    if isinstance(label, Projective):
        return f"P({label.i},{label.k})"
    if isinstance(label, SelfExt):
        return f"SelfExt({_fmt_num(label.lam)})"
    if isinstance(label, DeformX):
        e = label.eps
        return f"X({label.i},{label.l},{'jet' if isinstance(e, Jet) else _fmt_num(e)})"
    if isinstance(label, Tensor):
        return f"Tensor({format_label(label.left)},{format_label(label.right)})"
    if isinstance(label, Sum):
        return "Sum(" + ",".join(format_label(p) for p in label.parts) + ")"
    if isinstance(label, Dual):
        return f"Dual({format_label(label.inner)})"
    return repr(label)


def _fmt_num(z) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi' or 'a+bi' literals, as _fmt_num prints them; spaces are
    ignored and I or j also name the unit.  Any other character (as in nan,
    inf or 1_0), and a literal that overflows to infinity (as 1e400), is
    refused with ValueError."""
    t = "".join(text.split()).replace("I", "j").replace("i", "j")
    if not set(t) - set("0123456789.eE+-j"):
        z = complex(t)
        if cmath.isfinite(z):
            return z
    raise ValueError(f"bad complex literal {text!r}")


# ---------------------------------------------------------------------------
# module container


@dataclass(frozen=True, eq=False)
class WeightModule:
    """E, F, the H-weights w and the nilpotent part N of H (jordan: None but
    on the self-extension and the tensors, sums and duals built from it).
    H = diag(w) + N and K^(+-1) = diag(q^(+-w)) exp(+-(i pi / r) N) are
    derived on each read; N joins equal weights, so it commutes with diag(w).
    """

    ctx: QContext
    label: object
    E: object
    F: object
    weights: object
    jordan: object = None

    @property
    def dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def H(self):
        h = _diag(self.weights)
        return h if self.jordan is None else h + self.jordan

    K = property(lambda self: self._qpow_h(1))
    Kinv = property(lambda self: self._qpow_h(-1))

    def _qpow_h(self, sign: int):
        """q^(sign H): the diagonal part's q-powers times exp(sign (i pi / r) N)."""
        k = _diag(qpow(self.ctx, self.weights if sign > 0 else -self.weights))
        if self.jordan is None:
            return k
        from scipy.linalg import expm
        return k @ expm(sign * 1j * np.pi / self.ctx.r * self.jordan)

    @property
    def is_jet(self) -> bool:
        return isinstance(self.weights, Jet)

    def kept(self, key: str, build):
        """build(), an ndarray or a jet, computed on the first call under key
        and kept with the module, read-only: later calls return that object."""
        memo = self.__dict__.get(key)
        if memo is None:
            memo = self.__dict__[key] = _read_only(build())
        return memo

    def powers(self, gen: str):
        """gen^0, ..., gen^(r-1) of the generator gen ("E" or "F"), stacked on
        axis -3 as _powers stacks them.  Built on first use and kept, read-only;
        an F that is the shared lowering shift (Typical, Simple) takes the
        shared stack of its powers."""
        a, r = getattr(self, gen), self.ctx.r
        if a is _shift(self.dim):
            return _shift_powers(self.dim, r)
        return self.kept("_powers_" + gen, lambda: _powers(a, r))

    def __repr__(self):
        return f"WeightModule({format_label(self.label)}, r={self.ctx.r}, dim={self.dim})"


@dataclass
class LinearMap:
    """Matrix with declared source and target modules (columns index the source)."""

    source: WeightModule
    target: WeightModule
    matrix: object
    # magnitude of the largest intermediate the matrix was computed from, and
    # the same over the intermediates' eps^0 slices; per summand (an array of
    # shape B) for a (*B, d, d) matrix from a batched module
    scale: float = 1.0
    scale0: float = 1.0

    def __repr__(self):
        return (f"LinearMap({format_label(self.source.label)} -> "
                f"{format_label(self.target.label)})")


# ---------------------------------------------------------------------------
# assembly helpers, polymorphic over complex / jet entries


def _assemble(dim: int, entries):
    """Dense matrix from (row, col, value) triples; jet-valued if any value is."""
    if not entries:
        return np.zeros((dim, dim), dtype=complex)
    rows, cols, vals = zip(*entries)
    v = _stack(vals)
    c = v.c if isinstance(v, Jet) else v[None]
    out = np.zeros((len(c), dim, dim), dtype=complex)
    np.add.at(out, (slice(None), rows, cols), c)
    return Jet(out, v.val) if isinstance(v, Jet) else out[0]


def _diag(v, k: int = 0):
    """Matrix, or jet matrix, with the vector or vector jet v on its k-th
    diagonal; a batch of vectors (*B, n) gives a batch of matrices."""
    c = v.c if isinstance(v, Jet) else np.asarray(v, dtype=complex)
    n = c.shape[-1]
    d = n + abs(k)
    out = np.zeros((*c.shape[:-1], d, d), dtype=complex)
    # the k-th diagonal is n entries d+1 apart in the flat matrix, from k or -k d
    start = max(k, -k * d)
    out.reshape(*c.shape[:-1], d * d)[..., start:start + n * (d + 1):d + 1] = c
    return Jet(out, v.val) if isinstance(v, Jet) else out


def _stack(mats, axis: int = 0):
    """Float or jet matrices (or scalars) stacked on a new axis, at position
    axis of the result as in np.stack; jet-valued if any is.

    Among jets, a float matrix is exact and broadcasts to their shape; the
    jets are aligned to the lowest valuation (at most 0) and truncated to
    their shared precision.
    """
    jets = [a for a in mats if isinstance(a, Jet)]
    if not jets:
        return _moved(np.array(mats, dtype=complex), 0, axis)
    val = min(0, *(j.val for j in jets))
    n = min(j.val + j.order for j in jets) - val
    c = np.zeros((n, len(mats), *jets[0].shape), dtype=complex)
    for t, a in enumerate(mats):
        if isinstance(a, Jet):
            c[a.val - val:, t] = a.c[:max(n - a.val + val, 0)]
        elif -val < n:
            c[-val, t] = a
    return Jet(_moved(c, 1, axis + 1 if axis >= 0 else axis), val)


def _moved(c: np.ndarray, src: int, dst: int) -> np.ndarray:
    """np.moveaxis(c, src, dst), skipped where it would not move anything."""
    return c if dst % c.ndim == src else np.moveaxis(c, src, dst)


def _powers(a, n: int):
    """a^0, ..., a^(n-1) of a float or jet matrix, or of a batch (*B, d, d)
    of them, stacked on axis -3: (*B, n, d, d)."""
    eye = np.eye(a.shape[-1], dtype=complex)
    out = [np.broadcast_to(eye, a.shape) if len(a.shape) > 2 else eye, a]
    while len(out) < n:
        out.append(out[-1] @ a)
    return _stack(out, -3)


def _read_only(x):
    """x, an ndarray or a jet, with its array (a jet's coefficient stack) made
    read-only, so an in-place write to a kept value fails loudly."""
    (x.c if isinstance(x, Jet) else x).setflags(write=False)
    return x


@lru_cache(maxsize=None)
def _shift(dim: int) -> np.ndarray:
    """The lowering shift np.eye(dim, k=-1): the F of every Typical (dim r)
    and Simple (dim i + 1) module, one read-only matrix per dimension."""
    return _read_only(np.eye(dim, k=-1, dtype=complex))


@lru_cache(maxsize=None)
def _shift_powers(dim: int, r: int) -> np.ndarray:
    """Powers 0..r-1 of _shift(dim) as _powers stacks them, one read-only
    stack per (dim, r), shared by every module whose F is the shift."""
    return _read_only(_powers(_shift(dim), r))


def mat_norm(m) -> float:
    if isinstance(m, Jet):
        return m.norm()
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


# ---------------------------------------------------------------------------
# constructors


def make_module(ctx: QContext, label) -> WeightModule:
    """Build the module named by a label, with the published generator action."""
    if isinstance(label, Typical):
        return _make_typical(ctx, label.alpha)
    if isinstance(label, Simple):
        return _make_simple(ctx, label.i, label.k)
    if isinstance(label, OneDim):
        return _make_onedim(ctx, label.k)
    if isinstance(label, Projective):
        return replace(make_deformable(ctx, label.i, label.k, 0.0), label=label)
    if isinstance(label, SelfExt):
        return _make_selfext(ctx, label.lam)
    if isinstance(label, DeformX):
        return make_deformable(ctx, label.i, label.l, label.eps)
    if isinstance(label, Tensor):
        return tensor(make_module(ctx, label.left), make_module(ctx, label.right))
    if isinstance(label, Sum):
        return direct_sum(*[make_module(ctx, p) for p in label.parts])
    if isinstance(label, Dual):
        return dual(make_module(ctx, label.inner))
    raise TypeError(f"not a module label: {label!r}")


def _make_typical(ctx: QContext, alpha) -> WeightModule:
    """Typical(alpha); a batch of weights alpha (an array or a vector jet of
    shape B) gives one module whose weights, E, H, K and K^-1 carry B as
    leading axes, and whose F, the same for every weight, carries none."""
    r = ctx.r
    k = np.arange(1, r)
    label = alpha
    if not isinstance(alpha, Jet):
        alpha = np.asarray(alpha, dtype=complex)
        label = alpha if alpha.ndim else complex(alpha)
    a = alpha[..., None]
    return _from_weights(ctx, Typical(label), a + np.arange(r - 1, -r, -2),
                         lambda: (_diag(qint(ctx, k) * qint(ctx, k - a), 1), _shift(r)))


def _make_simple(ctx: QContext, i: int, k: int) -> WeightModule:
    r = ctx.r
    if not 0 <= i <= r - 2:
        raise RangeError(f"simple index must lie in 0..{r - 2}, got {i}")
    dim = i + 1
    # the (-1)^k on E is forced by [E,F] acting as [i+kr-2j] on the twisted
    # weights; it is exactly the E x K coproduct factor on the character
    e = [(j - 1, j, (-1) ** k * qint(ctx, j) * qint(ctx, i + 1 - j)) for j in range(1, dim)]
    return _from_weights(ctx, Simple(i, k), i + k * r - 2 * np.arange(dim),
                         lambda: (_assemble(dim, e), _shift(dim)))


def _make_onedim(ctx: QContext, k: int) -> WeightModule:
    zero = lambda: np.zeros((1, 1), dtype=complex)
    return _from_weights(ctx, OneDim(k), [k * ctx.r], lambda: (zero(), zero()))


def _from_weights(ctx, label, weights, gens, jordan=None) -> WeightModule:
    """Module with the given weights, Jordan part of H, and (E, F) = gens().

    RangeError when a weight (on a jet, its eps^0 slice) is beyond what a
    double can put through q^x: |Re w| >= 2^52 leaves no fractional bits,
    and pi |Im w| / r >= 709 overflows q^(+-w).  gens is called after this
    check, so no q-number of such a weight is ever computed.
    """
    if not isinstance(weights, Jet):
        weights = np.asarray(weights, dtype=complex)
    w0 = weights.c[0] if isinstance(weights, Jet) else weights  # a weight jet has valuation 0
    if not (np.abs(w0.real).max() < 2.0 ** 52 and np.pi / ctx.r * np.abs(w0.imag).max() < 709):
        raise RangeError("weights must have |Re w| < 2^52 and |Im w| < 709 r / pi, "
                         "or q^w is lost to double precision")
    return WeightModule(ctx, label, *gens(), weights, jordan)


def _make_selfext(ctx: QContext, lam) -> WeightModule:
    """Self-extension of Typical(lam): doubled basis with H acting by one Jordan step.

    Basis order: plain copy v0_0..v0_{r-1} then submodule copy v1_0..v1_{r-1}.
    Top generalized weight is lam + r - 1, so sub and quotient both match
    Typical(lam) in this artifact's labeling.
    """
    r = ctx.r
    lp = complex(lam) + r - 1
    ipir = 1j * np.pi / r
    br1 = qpow(ctx, 1) - qpow(ctx, -1)

    def beta(i):
        return ipir / br1 * sum(qpow(ctx, lp - 2 * (j - 1)) + qpow(ctx, 2 * (j - 1) - lp)
                                for j in range(1, i + 1))

    def gens():
        e, f = [], []
        for i in range(r):
            if i >= 1:
                c = qint(ctx, i) * qint(ctx, lp + 1 - i)
                e.append((i - 1, i, c))
                e.append((r + i - 1, r + i, c))
                e.append((r + i - 1, i, beta(i)))
            if i <= r - 2:
                f.append((i + 1, i, 1.0))
                f.append((r + i + 1, r + i, 1.0))
        return _assemble(2 * r, e), _assemble(2 * r, f)

    # H has the Jordan step N: v0_j -> v1_j, from the plain copy to the submodule
    return _from_weights(ctx, SelfExt(complex(lam)), np.tile(lp - 2 * np.arange(r), 2),
                         gens, np.eye(2 * r, k=-r))


def deformable_layout(r: int, i: int):
    """Maps (L, H, S, R) from the weight k of a basis vector w^L_k (k =
    i+2-2r..-i-2), w^H_k, w^S_k (k = -i..i) or w^R_k (k = i+2..2r-2-i) of
    the deformable family to its index: L then H fill 0..r-1, S then R fill
    r..2r-1, each by increasing k.  End(P) = span(Id, x) is read off it."""
    low = lambda k: r - 1 + (k - i) // 2
    high = lambda k: r + (k + i) // 2
    return low, low, high, high


def make_deformable(ctx: QContext, i: int, l: int, eps) -> WeightModule:
    """The 2r-dimensional one-parameter family through the projective cover.

    Basis blocks L, H, S, R as deformable_layout orders them.  eps may be a
    number in (-1/2, 1/2) or a jet centered at 0; at eps = 0 the action is
    the projective cover twisted by the weight-lr character.  Sign
    conventions follow the change-of-basis construction (the one the
    relation suite accepts).
    """
    r = ctx.r
    if not 0 <= i <= r - 2:
        raise RangeError(f"deformable index must lie in 0..{r - 2}, got {i}")
    if not isinstance(eps, Jet):
        eps = complex(eps)
        if abs(eps.imag) > 1e-12 or not -0.5 < eps.real < 0.5:
            raise RangeError(f"numeric deformation parameter must lie in (-1/2, 1/2), got {eps}")
    sgn = (-1) ** l
    nL = r - i - 1  # vectors in the L block, and in the R block
    Lidx, Hidx, Sidx, Ridx = deformable_layout(r, i)

    b = qint(ctx, 1 + i) * qint(ctx, eps)

    f = []
    for k in range(-i + 2, i + 1, 2):
        f.append((Hidx(k - 2), Hidx(k), 1.0))
        f.append((Sidx(k - 2), Sidx(k), 1.0))
    f.append((Lidx(-i - 2), Hidx(-i), 1.0))
    f.append((Lidx(-i - 2), Sidx(-i), -1 * b))
    for k in range(i + 4 - 2 * r, -i - 1, 2):
        f.append((Lidx(k - 2), Lidx(k), 1.0))
    f.append((Sidx(i), Ridx(i + 2), 1.0))
    f.append((Hidx(i), Ridx(i + 2), b))
    for t in range(1, nL):
        f.append((Ridx(i + 2 * t), Ridx(i + 2 + 2 * t),
                  -1 * qint(ctx, 1 + i + t) * qint(ctx, t + eps)))

    e = []
    for t in range(nL - 1):
        e.append((Ridx(i + 4 + 2 * t), Ridx(i + 2 + 2 * t), sgn))
    e.append((Ridx(i + 2), Hidx(i), sgn))
    e.append((Ridx(i + 2), Sidx(i), -2 * sgn * b))
    for t in range(1, i + 1):
        k = i - 2 * t
        cH = (2 * qint(ctx, t) * qint(ctx, 1 + i - t + eps)
              - qint(ctx, 1 + i - t) * qint(ctx, t - eps))
        e.append((Hidx(k + 2), Hidx(k), sgn * cH))
        e.append((Sidx(k + 2), Hidx(k), sgn))
        cS = (2 * qint(ctx, 1 + i - t) * qint(ctx, t - eps)
              - qint(ctx, 1 + i - t + eps) * qint(ctx, t))
        e.append((Sidx(k + 2), Sidx(k), sgn * cS))
        e.append((Hidx(k + 2), Sidx(k), -2 * sgn * (b * b)))
    e.append((Hidx(-i), Lidx(-i - 2), 2 * sgn * b))
    e.append((Sidx(-i), Lidx(-i - 2), sgn))
    for t in range(1, nL):
        e.append((Lidx(-i - 2 * t), Lidx(-i - 2 - 2 * t),
                  -sgn * qint(ctx, 1 + i + t) * qint(ctx, t - eps)))

    # weights of L, H then S, R; the weight-lr character twists K by q^(lr) = sgn
    ks = np.concatenate([np.arange(i + 2 - 2 * r, i + 1, 2), np.arange(-i, 2 * r - 1 - i, 2)])
    return _from_weights(ctx, DeformX(i, l, eps), ks + l * r + eps,
                         lambda: (_assemble(2 * r, e), _assemble(2 * r, f)))


# ---------------------------------------------------------------------------
# tensor / dual / sums


def tensor(m: WeightModule, n: WeightModule) -> WeightModule:
    """Tensor product of numeric modules under the coproduct of the ribbon convention.

    E -> 1 x E + E x K and F -> K^-1 x F + F x 1; ribbon.calibrate checks
    this convention against the Hopf anchors.
    """
    if m.is_jet or n.is_jet:
        raise TypeError("tensor expects numeric modules")
    if m.ctx.r != n.ctx.r:
        raise ValueError("tensor factors must share a context")
    Im, In = np.eye(m.dim), np.eye(n.dim)
    E = np.kron(Im, n.E) + np.kron(m.E, n.K)
    F = np.kron(m.Kinv, n.F) + np.kron(m.F, In)
    weights = (m.weights[:, None] + n.weights[None, :]).reshape(-1)
    jordan = (None if m.jordan is None and n.jordan is None
              else np.kron(_or_zero(m), In) + np.kron(Im, _or_zero(n)))
    return WeightModule(m.ctx, Tensor(m.label, n.label), E, F, weights, jordan)


def _or_zero(m: WeightModule):
    """The Jordan part of H, or a zero matrix where there is none."""
    return np.zeros((m.dim, m.dim)) if m.jordan is None else m.jordan


def dual(m: WeightModule) -> WeightModule:
    """Dual module via the antipode: generator u acts by S(u) transposed
    (each matrix of a batched module's batch)."""
    T = lambda a: a.swapaxes(-1, -2)
    E = -1 * T(m.E @ m.Kinv)
    F = -1 * T(m.K @ m.F)
    jordan = None if m.jordan is None else -T(m.jordan)
    return WeightModule(m.ctx, Dual(m.label), E, F, -m.weights, jordan)


def direct_sum(*mods: WeightModule) -> WeightModule:
    """Block-diagonal direct sum of numeric modules."""
    if not mods:
        raise ValueError("empty direct sum")
    if any(m.is_jet for m in mods):
        raise TypeError("direct_sum expects numeric modules")
    from scipy.linalg import block_diag
    jordan = (None if all(m.jordan is None for m in mods)
              else block_diag(*[_or_zero(m) for m in mods]))
    return WeightModule(mods[0].ctx, Sum(tuple(m.label for m in mods)),
                        block_diag(*[m.E for m in mods]), block_diag(*[m.F for m in mods]),
                        np.concatenate([m.weights for m in mods]), jordan)


# ---------------------------------------------------------------------------
# relation verification


@dataclass
class RelationReport:
    max_residual: float
    failed: list
    residuals: dict = field(default_factory=dict)

    def ok(self, tol: float) -> bool:
        return self.max_residual < tol


def _rel_residual(lhs_terms) -> float:
    """Norm of the sum of terms, relative to the largest term magnitude."""
    acc = lhs_terms[0]
    for t in lhs_terms[1:]:
        acc = acc + t
    scale = max([1.0] + [mat_norm(t) for t in lhs_terms])
    return mat_norm(acc) / scale


def verify_relations(m: WeightModule) -> RelationReport:
    """Check every defining relation; reports residuals, never raises."""
    ctx = m.ctx
    q2 = qpow(ctx, 2)
    E, F, K, Ki, H = m.E, m.F, m.K, m.Kinv, m.H
    I = np.eye(m.dim, dtype=complex)  # promoted against jet generators
    res = {}
    res["KE=q2EK"] = _rel_residual([K @ E, -q2 * (E @ K)])
    res["KF=q-2FK"] = _rel_residual([K @ F, -(1 / q2) * (F @ K)])
    res["HK=KH"] = _rel_residual([H @ K, -1 * (K @ H)])
    res["[H,E]=2E"] = _rel_residual([H @ E, -1 * (E @ H), -2 * E])
    res["[H,F]=-2F"] = _rel_residual([H @ F, -1 * (F @ H), 2 * F])
    comm_rhs = (1.0 / (ctx.q - 1 / ctx.q)) * (K - Ki)
    res["[E,F]=(K-K^-1)/(q-q^-1)"] = _rel_residual([E @ F, -1 * (F @ E), -1 * comm_rhs])
    Ep = _powers(E, ctx.r + 1)[ctx.r]
    Fp = _powers(F, ctx.r + 1)[ctx.r]
    scaleE = max(1.0, mat_norm(E)) ** ctx.r
    scaleF = max(1.0, mat_norm(F)) ** ctx.r
    res["E^r=0"] = mat_norm(Ep) / scaleE
    res["F^r=0"] = mat_norm(Fp) / scaleF
    res["K Kinv=1"] = _rel_residual([K @ Ki, -1 * I])
    if m.jordan is None:
        qh = _diag(qpow(ctx, m.weights))  # H = diag(weights); jet modules always have it
    else:
        from scipy.linalg import expm
        qh = expm(1j * np.pi / ctx.r * H)
    res["q^H=K"] = _rel_residual([qh, -1 * K])
    failed = [name for name, v in res.items() if v > ctx.tol]
    return RelationReport(max(res.values()), failed, res)


# ---------------------------------------------------------------------------
# intertwiner spaces


_WTOL = 1e-8  # weights closer than this are matched by hom_space


def hom_space(m: WeightModule, n: WeightModule):
    """Basis of maps A with A rho_M(g) = rho_N(g) A for g in {E, F, H, K}.

    Entries between distinct generalized H-weights vanish, so the linear
    system is restricted to weight-matched entries before the SVD nullspace.
    The returned orthonormal basis is deterministic: pivots are chosen
    greedily along a weight-sorted entry order.
    """
    if m.is_jet or n.is_jet:
        raise TypeError("hom_space expects numeric modules")
    if m.ctx.r != n.ctx.r:
        raise ValueError("modules from different contexts")
    wm, wn = m.weights, n.weights
    # weight-matched entries (a, b) of A, as indices a * m.dim + b of A.ravel()
    cand = np.flatnonzero(np.abs(wn[:, None] - wm[None, :]) < _WTOL)
    if not cand.size:
        return []
    rows, cols = np.divmod(cand, m.dim)
    t = np.arange(cand.size)
    # column t: the unit A at entry (rows t, cols t) goes to gn A - A gm, which
    # is gn's column rows t in column cols t, minus gm's row cols t in row rows t
    S = np.zeros((4, n.dim, m.dim, cand.size), dtype=complex)
    for s, gen in zip(S, "EFHK"):
        s[:, cols, t] = getattr(n, gen)[:, rows]
        s[rows, :, t] -= getattr(m, gen)[cols, :]
    S = S.reshape(-1, cand.size)
    # thin SVD: the system is tall, so vh is square; U is never used
    _, sv, vh = np.linalg.svd(S, full_matrices=False)
    smax = sv[0] if len(sv) else 0.0
    cut = m.ctx.tol * max(smax, 1.0)
    rank = int(np.sum(sv > cut))
    null = vh[rank:].conj().T  # (len(cand), dnull)
    dnull = null.shape[1]
    if dnull == 0:
        return []
    proj = null @ null.conj().T
    order = sorted(range(cand.size),
                   key=lambda c: (round(wn[rows[c]].real, 6), round(wn[rows[c]].imag, 6), cand[c]))
    basis = []
    for c in order:
        v = proj[:, c].copy()
        for u_ in basis:
            v -= (u_.conj() @ v) * u_
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            # fix the phase: make the pivot entry real positive
            v = v / nv
            v = v * np.exp(-1j * np.angle(v[c]))
            basis.append(v)
        if len(basis) == dnull:
            break
    maps = []
    for v in basis:
        A = np.zeros((n.dim, m.dim), dtype=complex)
        A.ravel()[cand] = v
        maps.append(LinearMap(m, n, A))
    return maps


def intertwiner_residual(lm: LinearMap) -> float:
    """Largest relative residual of A g_source - g_target A over the generators."""
    A = lm.matrix
    return max(_rel_residual([A @ getattr(lm.source, g), -1 * (getattr(lm.target, g) @ A)])
               for g in ("E", "F", "H", "K"))


# ---------------------------------------------------------------------------
# explicit decomposition of the deformable family at eps != 0


def deformable_change_of_basis(ctx: QContext, i: int, l: int, eps) -> LinearMap:
    """Invertible intertwiner from the two-summand module onto the family.

    Source is Typical(1+i-r+lr+eps) (+) Typical(-1-i+r+lr+eps) with its
    standard bases x_0..x_{r-1}, y_0..y_{r-1}; target is the deformable
    module.  Raises SingularError when [1+i][eps] is below sqrt(tol), where
    the basis change degenerates.
    """
    if isinstance(eps, Jet):
        raise TypeError("change of basis is defined for numeric eps != 0")
    eps = complex(eps)
    r = ctx.r
    if not 0 <= i <= r - 2:
        raise RangeError(f"index must lie in 0..{r - 2}, got {i}")
    b = qint(ctx, 1 + i) * qint(ctx, eps)
    if abs(b) < np.sqrt(ctx.tol):
        raise SingularError(f"[1+i][eps] = {b:.3e} is numerically singular")
    Lidx, Hidx, Sidx, Ridx = deformable_layout(r, i)
    B = np.zeros((2 * r, 2 * r), dtype=complex)  # columns: w-basis in (x, y) coords
    for t in range(i + 1):
        # w^H_{i-2t} and w^S_{i-2t} mix x_t with y_{r-1-i+t}
        colH, colS = Hidx(i - 2 * t), Sidx(i - 2 * t)
        B[t, colH] = 2.0
        B[r + (r - 1 - i + t), colH] = -1.0 / (2 * b)
        B[t, colS] = -2.0 * b
        B[r + (r - 1 - i + t), colS] = 1.0
    prod = 1.0 + 0j
    for t in range(r - i - 1):
        # w^L_{-i-2-2t} is x_{1+i+t}; w^R_{i+2+2t} a multiple of y_{r-2-i-t}
        B[1 + i + t, Lidx(-i - 2 - 2 * t)] = 2.0
        prod *= qint(ctx, 1 + i + t) * qint(ctx, -t - eps)
        B[r + (r - 2 - i - t), Ridx(i + 2 + 2 * t)] = -prod / (2 * b)
    lm, lp = summand_weights(ctx, i, l, eps)
    source = direct_sum(make_module(ctx, Typical(lm)), make_module(ctx, Typical(lp)))
    target = make_deformable(ctx, i, l, eps)
    A = np.linalg.inv(B)
    return LinearMap(source, target, A)


# ---------------------------------------------------------------------------
# dumps


def module_dump(m: WeightModule) -> dict:
    """JSON-ready dump: label, r, dim, weights and generator matrices."""
    if m.is_jet:
        raise TypeError("dump numeric modules (take a limit first)")

    def cmat(a):
        a = np.asarray(a, dtype=complex)
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]

    return {
        "label": format_label(m.label),
        "r": m.ctx.r,
        "dim": m.dim,
        "weights": [[float(w.real), float(w.imag)] for w in m.weights],
        "E": cmat(m.E), "F": cmat(m.F), "K": cmat(m.K), "H": cmat(m.H),
    }
