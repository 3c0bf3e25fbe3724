"""Colored (1,1)-tangles: grammar, typed slices, and the evaluation engine.

A tangle is a single open strand plus elementary slices read bottom to top:
braidings, twists, cups and caps.  One walk of the strand word (_walk)
types every tangle: it fills in default positions, checks that labels and
dual flags compose and return to the single open color, and pairs each
slice with the strands it acts on, each keyed by its color label or, for
the open strand itself, by a sentinel.  Parsing returns the walk's normal
form, with presets expanded to frozen slice words.  The evaluator walks
once, looks each strand's module up on first use, and acts with a cup or
cap through the module of its non-dual strand.  A discrete color (Simple,
Projective, OneDim: finitely many per r, up to the twist k) takes its
module, and its dual, from a store kept per context (_stored_module: keyed
by r, tol, label and dual flag, at most 128 entries, every array
read-only), so a stored module's powers, tail stacks, twists and pivot
gates (WeightModule.kept) are built once across evaluations.  A Typical or
DeformX color has a continuous parameter and is built per call, its dual
from it.  The evaluator contracts one slice gate at a time into a batched
state vector, so tensor words never materialize full composite matrices.
The state starts as a plain identity and turns into a jet at the first
jet gate; a crossing is applied to it as its factors (ribbon.crossing),
never as a dense matrix.

On a projective cover, End(P) = span(Id, x) is read off the basis
(rep.deformable_layout), not solved for; rep.hom_space is its oracle.
decompose_endo of a float evaluation on the cover gives (a, b) without
jets or limits, the oracle for the deformation route (deform).

The state is stored as (*B, rows, batch): rows index the tensor product of
the strands, batch the open module's basis, and B the summand axes of a
batched open module (the deformation path recolors the open strand with
both generic summands of a projective cover at once).  A gate over strands
[pos, pos+nin) acts on the view (*B, L, din, R*batch) with a unit strand
axis on the gate, so its own summand axes meet the state's.  The state
gains B at the first gate that touches the open strand, as it turns into a
jet at the first jet gate.  The round-off scales of the contraction (the
largest state entry, and the largest entry of the eps^0 slices) are
tracked per summand.

Frozen preset normal forms (the cap color of bare coev slices is the open
color; `insert` is the colored left coevaluation):

    hopf Z        ->  insert 2 Z; br+ 1; br+ 1; evR 2
    powerhopf n Z ->  insert 2 Z; (br(sign n) 1) x 2|n|; evR 2
    twistloop s   ->  tw(s) 1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .jets import Jet, as_jet
from .qnum import QContext
from .rep import (
    DeformX, LinearMap, OneDim, Projective, Simple, Typical, WeightModule, _read_only,
    deformable_layout, dual, format_label, intertwiner_residual, make_module, parse_complex,
    projective_cover,
)
from .ribbon import (
    Crossing, RibbonConfig, coev_left, coev_right, crossing, ev_left, ev_right,
    modified_trace, twist_matrix,
)

__all__ = [
    "TangleSyntaxError", "TypeMismatchError", "NotEndomorphismError", "BasisError",
    "Braid", "TwistSlice", "Ev", "Coev", "Insert", "TangleExpr", "EndoDecomp",
    "parse_tangle", "parse_color", "hopf_tangle", "power_hopf_tangle",
    "twist_loop_tangle", "eval_tangle", "renormalized_invariant", "decompose_endo",
    "random_braid_tangle",
]


class TangleSyntaxError(SyntaxError):
    """Malformed tangle text; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class TypeMismatchError(ValueError):
    """The strand word does not compose (wrong arity, colors, or duals)."""


class NotEndomorphismError(ArithmeticError):
    """A map expected to commute with the module action does not."""


class BasisError(ValueError):
    """The module is not a projective cover, so End(P) = span(Id, x) does not apply."""


# ---------------------------------------------------------------------------
# slices and expressions


@dataclass(frozen=True)
class Braid:
    pos: int
    sign: int


@dataclass(frozen=True)
class TwistSlice:
    pos: int
    sign: int


@dataclass(frozen=True)
class Ev:
    pos: int
    side: str  # "L" or "R"


@dataclass(frozen=True)
class Coev:
    pos: int
    side: str


@dataclass(frozen=True)
class Insert:
    pos: int
    color: object


@dataclass(frozen=True)
class TangleExpr:
    open_color: object
    slices: tuple

    def __str__(self):
        return f"open {format_label(self.open_color)} | " + "; ".join(map(_slice_str, self.slices))


def _slice_str(s) -> str:
    if isinstance(s, Braid):
        return f"br{'+' if s.sign > 0 else '-'} {s.pos}"
    if isinstance(s, TwistSlice):
        return f"tw{'+' if s.sign > 0 else '-'} {s.pos}"
    if isinstance(s, Ev):
        return f"ev{s.side} {s.pos}"
    if isinstance(s, Coev):
        return f"coev{s.side} {s.pos}"
    if isinstance(s, Insert):
        return f"insert {s.pos} {format_label(s.color)}"
    return repr(s)


def hopf_tangle(open_color, closed_color) -> TangleExpr:
    """Open Hopf link: the closed color encircles the open strand once."""
    return TangleExpr(open_color, (Insert(2, closed_color), Braid(1, 1), Braid(1, 1),
                                   Ev(2, "R")))


def power_hopf_tangle(open_color, n: int, closed_color) -> TangleExpr:
    s = 1 if n >= 0 else -1
    slices = [Insert(2, closed_color)]
    slices += [Braid(1, s)] * (2 * abs(n))
    slices.append(Ev(2, "R"))
    return TangleExpr(open_color, tuple(slices))


def twist_loop_tangle(open_color, sign: int) -> TangleExpr:
    return TangleExpr(open_color, (TwistSlice(1, sign),))


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<color>[VSPCX]\([^)]*\))
      | (?P<kw>open|powerhopf|hopf|twistloop|coevL|coevR|evL|evR|br\+|br-|tw\+|tw-|insert)
      | (?P<int>[+-]?\d+)
      | (?P<sign>[+-])
      | (?P<pipe>\|)
      | (?P<semi>;)
    """,
    re.VERBOSE,
)

_COLOR_RES = {
    "V": re.compile(r"V\(([^)]*)\)$"),
    "S": re.compile(r"S\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)$"),
    "P": re.compile(r"P\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)$"),
    "C": re.compile(r"C\(\s*([+-]?\d+)\s*\)$"),
    "X": re.compile(r"X\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*,([^)]*)\)$"),
}


def parse_color(text: str, offset: int = 0):
    """Parse one color token into a module label; numbers as rep.parse_complex
    reads them, so format_label's output parses back."""
    text = text.strip()
    kind = text[:1]
    rx = _COLOR_RES.get(kind)
    m = rx.match(text) if rx else None
    try:
        z = parse_complex(m.group(m.lastindex)) if m and kind in "VX" else None
    except ValueError:
        m = None
    if m is None:
        raise TangleSyntaxError(f"bad color token {text!r}", offset)
    if kind == "V":
        return Typical(z)
    if kind == "S":
        return Simple(int(m.group(1)), int(m.group(2)))
    if kind == "P":
        return Projective(int(m.group(1)), int(m.group(2)))
    if kind == "C":
        return OneDim(int(m.group(1)))
    return DeformX(int(m.group(1)), int(m.group(2)), z)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TangleSyntaxError(f"unrecognized input {text[pos:pos + 10]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, tokens, end):
        self.toks = tokens
        self.i = 0
        self.end = end

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, "", self.end)

    def take(self, kind=None, value=None, what=""):
        tk, tv, to = self.peek()
        if tk is None or (kind and tk != kind) or (value and tv != value):
            raise TangleSyntaxError(f"expected {what or value or kind}, got {tv!r}", to)
        self.i += 1
        return tv, to

    def done(self):
        return self.i >= len(self.toks)


def parse_tangle(text: str) -> TangleExpr:
    """Parse tangle text into its preset-expanded, position-explicit normal form."""
    toks = _tokenize(text)
    cur = _Cursor(toks, len(text))
    cur.take("kw", "open")
    ctok, coff = cur.take("color", what="a color")
    open_color = parse_color(ctok, coff)
    cur.take("pipe", what="'|'")
    kind, val, off = cur.peek()
    if kind == "kw" and val in ("hopf", "powerhopf", "twistloop"):
        expr = _parse_preset(cur, open_color)
        if not cur.done():
            raise TangleSyntaxError(f"trailing input after preset: {cur.peek()[1]!r}", cur.peek()[2])
    else:
        slices = [_parse_slice(cur)]
        while not cur.done():
            cur.take("semi", what="';'")
            slices.append(_parse_slice(cur))
        expr = TangleExpr(open_color, tuple(slices))
    return _walk(expr)[0]


def _parse_preset(cur: _Cursor, open_color) -> TangleExpr:
    kw, off = cur.take("kw")
    if kw == "hopf":
        ctok, coff = cur.take("color", what="a closed color")
        return hopf_tangle(open_color, parse_color(ctok, coff))
    if kw == "powerhopf":
        ntok, _ = cur.take("int", what="an integer power")
        ctok, coff = cur.take("color", what="a closed color")
        return power_hopf_tangle(open_color, int(ntok), parse_color(ctok, coff))
    stok, soff = cur.take("sign", what="a twist sign")
    return twist_loop_tangle(open_color, 1 if stok == "+" else -1)


def _parse_slice(cur: _Cursor):
    kw, off = cur.take("kw", what="a slice keyword")
    if kw in ("br+", "br-", "tw+", "tw-"):
        ntok, _ = cur.take("int", what="a strand position")
        sign = 1 if kw.endswith("+") else -1
        cls = Braid if kw.startswith("br") else TwistSlice
        return cls(int(ntok), sign)
    if kw in ("evL", "evR", "coevL", "coevR"):
        side = kw[-1]
        kind, val, _ = cur.peek()
        pos = None
        if kind == "int":
            cur.take("int")
            pos = int(val)
        cls = Ev if kw.startswith("ev") else Coev
        return cls(pos, side)
    if kw == "insert":
        ntok, _ = cur.take("int", what="a strand position")
        ctok, coff = cur.take("color", what="a color")
        return Insert(int(ntok), parse_color(ctok, coff))
    raise TangleSyntaxError(f"{kw!r} is not a slice", off)


# ---------------------------------------------------------------------------
# the strand word


_OPEN = object()  # key of the open strand itself, never its color label


def _walk(expr: TangleExpr):
    """Simulate the strand word once; the normal form and each slice's strands.

    The word is a list of strands (key, dual), key being a color label or,
    for the open strand, the _OPEN sentinel, so recoloring the open strand
    never leaks to closed components of its color.  Returns the normal form
    (default positions filled in) and, per slice, the strands it acts on: a
    crossing's two, a twist's one, the pair a cup creates or a cap joins.
    Raises TypeMismatchError where the word does not compose or does not
    close up to the open color.
    """
    color = lambda key: expr.open_color if key is _OPEN else key
    word = [(_OPEN, False)]
    out, acts = [], []
    for s in expr.slices:
        if isinstance(s, (Braid, TwistSlice)):
            need = s.pos + 1 if isinstance(s, Braid) else s.pos
            if s.pos < 1 or need > len(word):
                raise TypeMismatchError(f"no strand {need} for slice '{_slice_str(s)}' "
                                        f"(word length {len(word)})")
            strands = word[s.pos - 1:need]
            word[s.pos - 1:need] = strands[::-1]
        elif isinstance(s, (Coev, Insert)):
            pos = s.pos if s.pos is not None else len(word) + 1
            if not 1 <= pos <= len(word) + 1:
                raise TypeMismatchError(f"cannot insert at {pos} (word length {len(word)})")
            c = s.color if isinstance(s, Insert) else expr.open_color
            right = isinstance(s, Coev) and s.side != "L"  # coevR: dual strand first
            strands = [(c, right), (c, not right)]
            s = Insert(pos, c) if isinstance(s, Insert) else Coev(pos, s.side)
            word[pos - 1:pos - 1] = strands
        elif isinstance(s, Ev):
            pos = s.pos if s.pos is not None else 1
            if not 1 <= pos <= len(word) - 1:
                raise TypeMismatchError(f"no strand pair at {pos} for '{_slice_str(s)}'")
            strands = word[pos - 1:pos + 1]
            (ka, da), (kb, db) = strands
            if color(ka) != color(kb):
                raise TypeMismatchError(f"cap at {pos} joins different colors "
                                        f"{format_label(color(ka))} and {format_label(color(kb))}")
            want = (True, False) if s.side == "L" else (False, True)
            if (da, db) != want:
                raise TypeMismatchError(f"cap ev{s.side} at {pos} needs dual pattern "
                                        f"{want}, got {(da, db)}")
            del word[pos - 1:pos + 1]
            s = Ev(pos, s.side)
        else:
            raise TypeMismatchError(f"unknown slice {s!r}")
        out.append(s)
        acts.append(strands)
    final = [(color(k), d) for k, d in word]
    if final != [(expr.open_color, False)]:
        raise TypeMismatchError(
            "tangle does not close up to the open color; final word "
            + str([(format_label(l), d) for l, d in final]))
    return TangleExpr(expr.open_color, tuple(out)), acts


# ---------------------------------------------------------------------------
# evaluation


def _contract(state, dims, batch, pos, nin, gate, out_dims):
    """Apply a gate over strands [pos, pos+nin) of the batched state.

    The state, float or jet, is viewed as (*B, L, din, R*batch).  A crossing
    applies its factors to that view; a gate matrix, given a unit strand
    axis, multiplies it, broadcast over the L strands to the left, over the
    summand axes B of either and, on a jet, over its coefficient slices.
    """
    L = prod(dims[:pos - 1])
    din = prod(dims[pos - 1:pos - 1 + nin])
    R = prod(dims[pos - 1 + nin:])
    view = state.reshape(*state.shape[:-2], L, din, R * batch)
    out = gate(view) if isinstance(gate, Crossing) else gate[..., None, :, :] @ view
    new_dims = list(dims[:pos - 1]) + list(out_dims) + list(dims[pos - 1 + nin:])
    return out.reshape(*out.shape[:-3], -1, batch), new_dims


def _peaks(state):
    """Largest |entry| of each summand of a state (shape B), over all of it
    and over its slices of exponent <= 0 (all of a float state)."""
    if not isinstance(state, Jet):
        peak = np.abs(state).max(axis=(-2, -1))
        return peak, peak
    a = np.abs(state.c)
    return a.max(axis=(0, -2, -1)), a[:max(1 - state.val, 0)].max(axis=(0, -2, -1), initial=0.0)


# labels without a continuous parameter: finitely many per r, up to the twist k
_DISCRETE = (Simple, Projective, OneDim)


@lru_cache(maxsize=128)
def _stored_module(r: int, tol: float, label, is_dual: bool) -> WeightModule:
    """The module of a discrete color label at QContext(r, tol), or its dual
    (the dual of the stored plain module), every array read-only.  Keyed by
    value and by the context's r and tol only, the fields a module reads, so
    contexts that differ in their jet order share an entry."""
    m = (dual(_stored_module(r, tol, label, False)) if is_dual
         else make_module(QContext(r, tol), label))
    for a in (m.E, m.F, m.weights):
        _read_only(a)
    return m


def eval_tangle(cfg: RibbonConfig, expr: TangleExpr,
                open_module: WeightModule | None = None) -> LinearMap:
    """Compose the slice maps bottom to top into an endomorphism of the open color.

    open_module overrides the module built from the open color label (used by
    the deformation pathway, which recolors the open strand); on a batched
    module the matrix is (*B, d, d), or (d, d) when no gate touches the open
    strand.  The returned map carries as scale the largest entry of any
    intermediate state, the round-off scale against which scalar_of tests
    it, and as scale0 the largest entry of their eps^0 slices; both per
    summand (shape B).
    """
    ctx = cfg.ctx
    expr, acts = _walk(expr)
    mods = {}

    def module(key, is_dual: bool) -> WeightModule:
        """The module of a strand: from the store for a discrete color, else
        built on first use in this call, a dual from its plain module."""
        if (key, is_dual) not in mods:
            if isinstance(key, _DISCRETE):
                mods[key, is_dual] = _stored_module(ctx.r, ctx.tol, key, is_dual)
            else:
                mods[key, is_dual] = (dual(module(key, False)) if is_dual
                                      else make_module(ctx, key))
        return mods[key, is_dual]

    recolored = open_module is not None
    if not recolored:  # closed strands of the open color share its module
        open_module = module(expr.open_color, False)
    mods[_OPEN, False] = open_module

    dW = open_module.dim
    state = np.eye(dW, dtype=complex)  # batched over basis columns; a jet from the first jet gate
    dims = [dW]
    scale = scale0 = 1.0  # per summand: largest |state| entry, and of its eps^0 slice

    for s, strands in zip(expr.slices, acts):
        if isinstance(s, Braid):
            A, B = module(*strands[0]), module(*strands[1])
            gate, nin, out = crossing(cfg, A, B, s.sign), 2, (B.dim, A.dim)
        elif isinstance(s, TwistSlice):
            A = module(*strands[0])
            gate, nin, out = twist_matrix(cfg, A, s.sign), 1, (A.dim,)
        else:  # a cup or a cap, through the module of its non-dual strand
            key = strands[1][0] if strands[0][1] else strands[0][0]
            if key is _OPEN and recolored:
                raise TypeMismatchError("cannot cap the open strand while it is recolored")
            A = module(key, False)
            if isinstance(s, Ev):
                gate, nin, out = (ev_left if s.side == "L" else ev_right)(cfg, A), 2, ()
            else:
                right = isinstance(s, Coev) and s.side != "L"
                gate, nin, out = (coev_right if right else coev_left)(cfg, A), 0, (A.dim, A.dim)
        state, dims = _contract(state, dims, dW, s.pos, nin, gate, out)
        peak, peak0 = _peaks(state)
        scale, scale0 = np.maximum(scale, peak), np.maximum(scale0, peak0)

    if open_module.is_jet and not isinstance(state, Jet):  # no jet gate was applied
        state = as_jet(state, open_module.weights.order)
    return LinearMap(open_module, open_module, state, scale, scale0)


def renormalized_invariant(cfg: RibbonConfig, expr: TangleExpr):
    """Modified trace of the tangle endomorphism on a generic open color."""
    lm = eval_tangle(cfg, expr)
    return modified_trace(lm.source, lm)


@dataclass
class EndoDecomp:
    """Coordinates of an endomorphism against (Id, nilpotent) of a projective cover."""

    a: complex
    b: complex
    residual: float


def _head_socle(p: WeightModule):
    """Basis indices of the H block and of the S block, in weight order
    -i..i, of a projective cover of Simple(i, l); BasisError otherwise."""
    cover = projective_cover(p.label)
    if cover is None:
        raise BasisError(f"not a projective cover: {format_label(p.label)}")
    i = cover[0]
    _, head, socle, _ = deformable_layout(p.ctx.r, i)
    ks = range(-i, i + 1, 2)
    return [head(k) for k in ks], [socle(k) for k in ks]


def nilpotent_endo(p: WeightModule) -> np.ndarray:
    """The square-zero endomorphism x of a projective cover: the identity
    from its H block onto its S block, w^H_k -> w^S_k for k = -i..i, so it
    sends the top head vector to the top socle-shift.  End(P) = span(Id, x)."""
    heads, socles = _head_socle(p)
    x = np.zeros((p.dim, p.dim), dtype=complex)
    x[socles, heads] = 1.0
    return x


def decompose_endo(f, p: WeightModule) -> EndoDecomp:
    """Write an intertwiner of a projective cover as a Id + b x: a and b are
    its entries at the top head vector and at its image under x."""
    mat = f.matrix if isinstance(f, LinearMap) else f
    if isinstance(mat, Jet):
        raise TypeError("decompose numeric endomorphisms (take a limit first)")
    mat = np.asarray(mat, dtype=complex)
    res = intertwiner_residual(LinearMap(p, p, mat))
    if res > p.ctx.tol * 100:
        raise NotEndomorphismError(f"map does not commute with the action (residual {res:.2e})")
    heads, socles = _head_socle(p)
    a, b = complex(mat[heads[-1], heads[-1]]), complex(mat[socles[-1], heads[-1]])
    recon = a * np.eye(p.dim) + b * nilpotent_endo(p)
    resid = float(np.max(np.abs(recon - mat)) / max(1.0, np.max(np.abs(mat))))
    if resid > p.ctx.tol * 100:
        raise NotEndomorphismError(f"endomorphism is outside span(Id, x) (residual {resid:.2e})")
    return EndoDecomp(a, b, resid)


# ---------------------------------------------------------------------------
# random braid-word tangles (systematic test family)


def random_braid_tangle(rng, open_color, closed_color, max_crossings: int = 6) -> TangleExpr:
    """A random well-typed (1,1)-tangle: one closed component braided around
    the open strand, with the underlying permutation forced back to identity,
    and a twist of the open strand with probability 1/2."""
    n_random = int(rng.integers(0, max_crossings - 2))
    slices = [Insert(2, closed_color)]
    perm = [0, 1, 2]
    for _ in range(n_random):
        p = int(rng.integers(1, 3))
        slices.append(Braid(p, int(rng.choice([-1, 1]))))
        perm[p - 1], perm[p] = perm[p], perm[p - 1]
    # undo the permutation with adjacent transpositions (bubble sort)
    changed = True
    while changed:
        changed = False
        for p in range(2):
            if perm[p] > perm[p + 1]:
                perm[p], perm[p + 1] = perm[p + 1], perm[p]
                slices.append(Braid(p + 1, int(rng.choice([-1, 1]))))
                changed = True
    if rng.random() < 0.5:
        slices.append(TwistSlice(1, int(rng.choice([-1, 1]))))
    slices.append(Ev(2, "R"))
    return _walk(TangleExpr(open_color, tuple(slices)))[0]
