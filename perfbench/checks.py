"""Output checks that do not share the measured path.

Every checker returns None when the output is right and a one-line reason
when it is not, so a failed check counts the operation as failed without
stopping the run.  None of them touches jets, limits or the tangle
contraction of the library:

* Hopf links are compared with the paper's closed Hopf forms
  (``deform.log_hopf_closed``, plain complex arithmetic).
* Random braid words are compared with a numeric-recoloring oracle: the
  float scalar g(lam) of the tangle with the open strand colored
  ``Typical(lam)``, contracted here with NumPy from the float gates, and
  Richardson-extrapolated stencils about the two summand weights lam-/+.
* The modified trace of either jet workload must be linear in (a, b):
  trace = a d(P_j,l) + b t(j, l), both constants in closed form below.
* Singlet comparisons are compared with the regularized dimensions in
  closed form, written out here from the paper rather than read from
  ``singlet.qdim_reg``.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

from unrolled_sl2.deform import log_hopf_closed
from unrolled_sl2.rep import OneDim, Simple, Typical, dual, make_module
from unrolled_sl2.ribbon import (
    braiding_matrix, coev_left, ev_left, ev_right, twist_matrix,
)
from unrolled_sl2.tangle import Braid, Ev, Insert, TwistSlice

HOPF_TOL = 1e-8      # (a, b) against the closed Hopf forms, relative
ORACLE_TOL = 1e-7    # (a, b) against the recoloring oracle, relative
LINEAR_TOL = 1e-8    # trace - a d(P) - b t, relative to the largest term
QDIM_TOL = 1e-9      # trace ratio against the closed-form dimension, relative
STENCIL_H = 1e-3


def _rel(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


# ---------------------------------------------------------------------------
# closed forms


def summand_weights(r: int, j: int, l: int):
    """The two generic weights lam-, lam+ the projective cover P(j, l) splits into."""
    return 1 + j - r + l * r, -1 - j + r + l * r


def projective_dim(r: int, j: int, l: int) -> complex:
    """Modified dimension of P(j, l): (-1)^(l(r-1)+j+1) (q^(j+1) + q^-(j+1))."""
    return (-1) ** (l * (r - 1) + j + 1) * 2 * np.cos(np.pi * (j + 1) / r)


def trace_slope(r: int, j: int, l: int) -> float:
    """t(j, l) with trace = a d(P_j,l) + b t(j, l).

    The summand lam- + eps has modified dimension D/eps + O(1); the trace's
    eps^0 term is then a (its regular parts) + D (g'(lam-) - g'(lam+)), and
    b divides that difference by [1+j] (pi/r)/sin(pi/r).  So t is the
    residue D times that factor: (-1)^(r-1+lam-) sin(pi lam-/r) [1+j]/sin(pi/r),
    which is +-[1+j]^2.
    """
    lam_m, _ = summand_weights(r, j, l)
    s = np.sin(np.pi / r)
    return float((-1) ** (r - 1 + lam_m) * np.sin(np.pi * lam_m / r)
                 * np.sin(np.pi * (1 + j) / r) / s ** 2)


def check_hopf(ctx, z, j, l, a, b):
    """(a, b) of hopf(P(j, l), z) against the closed Hopf forms."""
    ca, cb = log_hopf_closed(ctx, z, j, l)
    err = max(_rel(a, ca), _rel(b, cb))
    if err > HOPF_TOL:
        return f"closed Hopf form: a {a} vs {ca}, b {b} vs {cb} (rel {err:.2e})"
    return None


def check_linear_trace(r, j, l, trace, a, b):
    """trace = a d(P_j,l) + b t(j, l)."""
    ta, tb = a * projective_dim(r, j, l), b * trace_slope(r, j, l)
    resid = abs(trace - ta - tb) / max(1.0, abs(trace), abs(ta), abs(tb))
    if resid > LINEAR_TOL:
        return f"trace {trace} is not a d(P) + b t = {ta + tb} (rel {resid:.2e})"
    return None


# ---------------------------------------------------------------------------
# numeric-recoloring oracle for (1,1)-tangles with a projective open color


_OPEN = "open"


def float_scalar(cfg, expr, lam):
    """Scalar of the tangle with the open strand colored Typical(lam), in floats,
    and the largest entry by which the endomorphism is not that scalar (its
    round-off, read from the matrix itself).

    The gates are the library's float braiding, twist and duality matrices;
    the contraction over the strand word is done here, one gate at a time
    on a batch of basis columns.
    """
    ctx = cfg.ctx
    opened = make_module(ctx, Typical(lam))
    mods = {(_OPEN, False): opened, (_OPEN, True): dual(opened)}

    def module(label, is_dual):
        if (label, is_dual) not in mods:
            base = mods.setdefault((label, False), make_module(ctx, label))
            mods[(label, True)] = dual(base)
        return mods[(label, is_dual)]

    dw = opened.dim
    state = np.eye(dw, dtype=complex)        # (prod(dims), dw)
    dims = [dw]
    word = [(_OPEN, False)]

    def apply(pos, nin, gate, out_dims):
        nonlocal state, dims
        left = prod(dims[:pos - 1])
        din = prod(dims[pos - 1:pos - 1 + nin])
        right = prod(dims[pos - 1 + nin:])
        s4 = state.reshape(left, din, right, dw)
        state = np.einsum("xy,lyrb->lxrb", np.asarray(gate), s4).reshape(-1, dw)
        dims = dims[:pos - 1] + list(out_dims) + dims[pos - 1 + nin:]

    for s in expr.slices:
        if isinstance(s, Braid):
            a_mod, b_mod = module(*word[s.pos - 1]), module(*word[s.pos])
            apply(s.pos, 2, braiding_matrix(cfg, a_mod, b_mod, s.sign), (b_mod.dim, a_mod.dim))
            word[s.pos - 1], word[s.pos] = word[s.pos], word[s.pos - 1]
        elif isinstance(s, TwistSlice):
            a_mod = module(*word[s.pos - 1])
            apply(s.pos, 1, twist_matrix(cfg, a_mod, s.sign), (a_mod.dim,))
        elif isinstance(s, Insert):
            a_mod = module(s.color, False)
            apply(s.pos, 0, coev_left(cfg, a_mod), (a_mod.dim, a_mod.dim))
            word[s.pos - 1:s.pos - 1] = [(s.color, False), (s.color, True)]
        elif isinstance(s, Ev) and word[s.pos - 1][0] != _OPEN:
            a_mod = module(word[s.pos - 1][0], False)
            cap = ev_left(cfg, a_mod) if s.side == "L" else ev_right(cfg, a_mod)
            apply(s.pos, 2, cap, ())
            del word[s.pos - 1:s.pos + 1]
        else:
            raise TypeError(f"the oracle does not evaluate slice {s!r}")
    mat = state.reshape(dw, dw)
    c = complex(mat[0, 0])
    resid = float(np.max(np.abs(mat - c * np.eye(dw))))
    # round-off near the non-generic weight reaches 1e-8 here; a contraction
    # that is wrong leaves an O(1) residual
    if resid > 1e-6 * max(1.0, float(np.max(np.abs(mat)))):
        raise ArithmeticError(f"recolored endomorphism is not scalar (residual {resid:.2e})")
    return c, resid


# The stencils about a weight, at offsets k h: the value there and the slope
# there, each the Richardson combination (16 S(h) - S(2h)) / 15 of the
# 4-point interpolation and the 5-point derivative, so that their truncation
# error is O(h^6).  (At h = 1e-3 a plain 5-point stencil was off by up to
# 8e-7 on 10-crossing words, whose g has large high derivatives.)
_OFFSETS = (-4, -2, -1, 1, 2, 4)
_VALUE_W = np.array([1, -20, 64, 64, -20, 1]) / 90
_SLOPE_W = np.array([-1, 40, -256, 256, -40, 1]) / 360     # times 1/h


def oracle_coefficients(cfg, expr, j, l, h=STENCIL_H):
    """(a-, a+, b, noise_a, noise_b) from stencils of g about lam- and lam+.

    a is the common value g(lam-/+), interpolated from points about the
    weight (which itself is not generic); b is (g'(lam-) - g'(lam+)) /
    ([1+j] (pi/r)/sin(pi/r)).  noise_a and noise_b carry the round-off e of
    g (its largest residual) through the stencils' weights.  They matter
    only where g is itself mostly round-off, e.g. a word whose g is 0.
    """
    r = cfg.ctx.r
    vals, slopes, noise = [], [], 0.0
    for lam in summand_weights(r, j, l):
        g = np.empty(len(_OFFSETS), dtype=complex)
        for idx, k in enumerate(_OFFSETS):
            g[idx], resid = float_scalar(cfg, expr, lam + k * h)
            noise = max(noise, resid)
        vals.append(complex(_VALUE_W @ g))
        slopes.append(complex(_SLOPE_W @ g) / h)
    qint = np.sin(np.pi * (1 + j) / r) / np.sin(np.pi / r)
    norm = qint * (np.pi / r) / np.sin(np.pi / r)
    b = (slopes[0] - slopes[1]) / norm
    noise_a = noise * float(np.abs(_VALUE_W).sum())
    noise_b = 2 * noise * float(np.abs(_SLOPE_W).sum()) / (h * norm)
    return vals[0], vals[1], complex(b), noise_a, noise_b


def check_oracle(expected, a, b):
    """(a, b) against the oracle's (a-, a+, b), within ORACLE_TOL plus its round-off."""
    am, ap, ob, noise_a, noise_b = expected
    err = max(abs(a - am) - noise_a, abs(a - ap) - noise_a) / max(1.0, abs(am), abs(ap))
    err = max(err, (abs(b - ob) - noise_b) / max(1.0, abs(ob)))
    if err > ORACLE_TOL:
        return f"recoloring oracle: a {a} vs {am}/{ap}, b {b} vs {ob} (rel {err:.2e})"
    return None


# ---------------------------------------------------------------------------
# regularized dimensions in closed form


def singlet_image(r: int, x):
    """The singlet label of a simple: ('F', lam) or ('M', t, s)."""
    if isinstance(x, Typical):
        return ("F", (complex(x.alpha) + r - 1) / sqrt(2 * r))
    if isinstance(x, Simple):
        return ("M", 1 - x.k, x.i + 1)
    if isinstance(x, OneDim):
        return ("M", 1 - x.k, 1)
    raise TypeError(f"no singlet image for {x!r}")


def qdim_continuous(r: int, image, eps: complex) -> complex:
    """exp(pi eps (2 lam - a0)) sin(-i pi a+ eps)/sin(i pi a- eps) for F(lam);
    exp(-pi eps (t-1) a+) sin(i pi s a- eps)/sin(i pi a- eps) for M(t, s)."""
    ap, am = sqrt(2 * r), -sqrt(2 / r)
    denom = np.sin(1j * np.pi * am * eps)
    if image[0] == "F":
        return complex(np.exp(np.pi * eps * (2 * image[1] - ap - am))
                       * np.sin(-1j * np.pi * ap * eps) / denom)
    _, t, s = image
    return complex(np.exp(-np.pi * eps * (t - 1) * ap) * np.sin(1j * np.pi * s * am * eps) / denom)


def qdim_strip(r: int, image, m: int) -> complex:
    """Dimension on strip m (mod 2r): 0 on Fock modules; a ratio of sines on M(t, s)."""
    if image[0] == "F":
        return 0j
    _, t, s = image
    if m % r:
        return complex((-1) ** (m * (t - 1)) * np.sin(np.pi * m * s / r) / np.sin(np.pi * m / r))
    return complex((-1) ** ((m + 1) * (t - 1) + (m // r) * (s - 1))
                   * np.sin(np.pi * s / r) / np.sin(np.pi / r))


def strip_index(r: int, eps: complex) -> int:
    """Strip m (mod 2r) whose center line Im(eps) = n/sqrt(2r) is nearest."""
    return round(complex(eps).imag * sqrt(2 * r)) % (2 * r)


def check_qdim(r, x, eps, strip, rhs):
    """Trace ratio rhs against the closed-form regularized dimension of x's image."""
    image = singlet_image(r, x)
    want = qdim_strip(r, image, strip_index(r, eps)) if strip else qdim_continuous(r, image, eps)
    if _rel(rhs, want) > QDIM_TOL:
        return f"trace ratio {rhs} vs closed-form dimension {want} (rel {_rel(rhs, want):.2e})"
    return None
