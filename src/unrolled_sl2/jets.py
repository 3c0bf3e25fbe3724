"""Truncated Laurent jets in a formal small parameter.

A jet represents  eps^val * (c[0] + c[1] eps + ... + c[n-1] eps^(n-1))
with complex coefficients that may be scalars or ndarrays of any common
shape, so the same class covers jet scalars, jet vectors and jet
matrices.  Arithmetic tracks the valuation exactly, which is what turns
the removable-singularity limits of the deformation method into plain
coefficient reads: a quotient whose valuation normalizes to >= 0 *is*
its own L'Hopital evaluation.

Precision bookkeeping: a jet of length n knows the coefficients of
eps^m for val <= m < val + n and that all lower coefficients vanish.
Binary operations keep the largest honestly-known range, so lengths may
shrink where a normalized jet meets others; seed with enough order to
absorb that (deform seeds its family's poles with jet(3), enough for the
eps^0 and eps^1 it reads).

Products (*, @, kron, combine) loop over one operand's coefficient slices
and multiply each against the other operand's whole coefficient stack in
one broadcast call over its leading order axis, so a jet product makes at
most min(order) slice products.  A plain array operand is never promoted to
a zero-padded jet: it is one call against the stack.  In *, the lower-rank
stack is padded so that a scalar jet broadcasts across entries and not
across orders; in @, on either side, a matrix stack is padded to the other
operand's rank, so a gate jet broadcasts over the batch axes of a state,
and a batched plain gate over those of a jet state.  + and - take a plain
operand as the constant jet as_jet(plain, order) and add on the shared
precision range.

Zero detection has one rule, normalized(), and whoever reads or inverts a
jet calls it; arithmetic never trims, so a slice that cancelled in + or -
stays in the sum, exact zero or round-off.  normalized(ztol, atol, upto)
drops leading slices below ztol times the largest coefficient of the slices
up to exponent upto (the whole jet when no upto is given) or below the
caller's absolute floor atol; a jet found zero is zero only through the
exponents it knew.  limit() reads eps^0 and derivative(n) eps^n through
it, and callers that know the scale of what cancelled pass it as atol
there.  Neither reads past its jet's precision: an exponent at or beyond
val + order raises OrderError, zero slices or not.  reciprocal, inv, exp
and sin call normalized(0.0), which drops only exactly-zero slices, so a
genuinely small coefficient is kept however large the higher orders are.

The analytic functions exp() and sin() act entrywise on jets of any shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "PoleError", "OrderError", "jet", "as_jet"]

_ZTOL = 1e-9  # relative zero threshold used in valuation normalization


class PoleError(ArithmeticError):
    """A limit was requested of a quantity that diverges as eps -> 0."""


class OrderError(ArithmeticError):
    """A limit or derivative read a coefficient beyond the jet's truncation."""


class Jet:
    """eps^val * sum_k c[k] eps^k with coefficient stack c of shape (order, *shape)."""

    __slots__ = ("val", "c")
    __array_ufunc__ = None  # keep numpy from absorbing jets into object arrays

    def __init__(self, c, val: int = 0):
        a = np.asarray(c, dtype=complex)
        if a.ndim == 0:
            a = a[None]
        self.c = a
        self.val = int(val)

    # -- introspection ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.c.shape[0]

    @property
    def shape(self):
        return self.c.shape[1:]

    def __repr__(self):
        if self.shape == ():
            terms = ", ".join(f"{z:.6g}" for z in self.c[:4].tolist())
            tail = ", ..." if self.order > 4 else ""
            return f"Jet(val={self.val}, [{terms}{tail}])"
        return f"Jet(val={self.val}, shape={self.shape}, order={self.order})"

    # -- normalization ---------------------------------------------------

    def norm(self, upto: int | None = None) -> float:
        """Max absolute entry over the slices of exponent <= upto (all by default)."""
        c = self.c if upto is None else self.c[:max(upto + 1 - self.val, 0)]
        return float(np.max(np.abs(c))) if c.size else 0.0

    def is_zero(self) -> bool:
        return self.norm() == 0.0

    def normalized(self, ztol: float = _ZTOL, atol: float = 0.0,
                   upto: int | None = None) -> "Jet":
        """Shift the valuation past leading coefficient slices that vanish.

        A slice counts as zero when its magnitude is below ztol times the
        largest coefficient magnitude of the slices up to exponent upto
        (the whole jet by default), or below the absolute floor atol.  The
        reader of the eps^upto coefficient passes upto, so large higher
        orders cannot trim a genuine coefficient below them; the floor is
        how callers communicate the scale of cancelled operands, so an
        all-noise jet normalizes to zero instead of faking a pole.  This is
        the only place a leading slice is dropped; arithmetic never trims.
        A jet found zero is returned as the zero known through exponent
        min(upto, val + order - 1): one zero slice at that valuation, so a
        reader past what was known gets OrderError, not a zero.
        """
        s = self.norm(upto)
        k = 0 if s > atol else self.order
        thresh = max(ztol * s, atol)
        flat = self.c.reshape(self.order, -1)
        while k < self.order and np.max(np.abs(flat[k])) <= thresh:
            k += 1
        if k == self.order:
            top = self.val + self.order - 1
            return Jet(np.zeros((1, *self.shape)), top if upto is None else min(upto, top))
        if k == 0:
            return self
        return Jet(self.c[k:].copy(), self.val + k)

    # -- alignment -------------------------------------------------------

    def _placed(self, val: int, n: int, shape) -> np.ndarray:
        """This stack on n slices from valuation val, truncated there, with the
        slice shape padded on the left to the rank of shape, so that a scalar
        stack broadcasts across the entries and not the orders."""
        k = self.val - val
        if k == 0 and n == self.order and shape == self.shape:
            return self.c
        c = np.zeros((n, *shape), dtype=complex)
        cut = min(self.order, n - k)
        if cut > 0:
            pad = (1,) * (len(shape) - len(self.shape))
            c[k:k + cut] = self.c[:cut].reshape(cut, *pad, *self.shape)
        return c

    @staticmethod
    def _aligned(a: "Jet", b: "Jet"):
        """Common-valuation stacks truncated to the shared precision range."""
        val = min(a.val, b.val)
        n = max(min(a.val + a.order, b.val + b.order) - val, 1)
        shape = np.broadcast_shapes(a.shape, b.shape)
        return val, a._placed(val, n, shape), b._placed(val, n, shape)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        """Sum on the shared precision range, with no slice trimmed.

        A plain operand is a constant known to this jet's precision, added as
        as_jet(other, self.order).  A slice that cancels stays as it came out,
        so (1 + eps) - 1 has valuation 0 and an exactly zero eps^0 slice; the
        reader drops it with normalized(), limit() or derivative().
        """
        val, ca, cb = self._aligned(self, as_jet(other, self.order))
        return Jet(ca + cb, val)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.val)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _convolve(self, other, prod) -> "Jet":
        """Cauchy product under prod(stack, slice), which must broadcast over
        this stack's leading order axis and return a new array: one call
        against a plain array other, one per slice of a jet other."""
        if not isinstance(other, Jet):
            return Jet(prod(self.c, np.asarray(other)), self.val)
        n = min(self.order, other.order)
        out = prod(self.c[:n], other.c[0])
        for i in range(1, n):
            out[i:] += prod(self.c[:n - i], other.c[i])
        return Jet(out, self.val + other.val)

    def __mul__(self, other):
        # pad this stack to the other operand's rank, so that a scalar jet
        # broadcasts across the entries and not across the orders
        pad = np.ndim(other.c[0] if isinstance(other, Jet) else other) - len(self.shape)
        a = self if pad <= 0 else self.reshape((1,) * pad + self.shape)
        return a._convolve(other, np.multiply)

    __rmul__ = __mul__

    def __matmul__(self, other):
        # pad a matrix stack to the other operand's rank, so that the other's
        # batch axes (a state's strands) broadcast after this stack's orders
        pad = np.ndim(other.c[0] if isinstance(other, Jet) else other) - len(self.shape)
        a = self if pad <= 0 or len(self.shape) < 2 else self.reshape((1,) * pad + self.shape)
        return a._convolve(other, np.matmul)

    def __rmatmul__(self, other):
        # other @ self for a plain other; M @ v is v @ M^T on a vector jet.  As
        # in @, a matrix stack is padded to the other operand's rank, so that
        # the batch axes of a batched gate broadcast after this stack's orders
        pad = np.ndim(other) - len(self.shape)
        a = self if pad <= 0 or len(self.shape) < 2 else self.reshape((1,) * pad + self.shape)
        return a._convolve(
            other, lambda s, o: np.matmul(s, o.T) if s.ndim == 2 else np.matmul(o, s))

    def kron(self, other) -> "Jet":
        """Kronecker product self x other of matrix jets or plain matrices."""
        return self._convolve(other, _batched_kron)

    def combine(self, other, prod) -> "Jet":
        """Convolve under an arbitrary bilinear slice product prod(stack, slice)."""
        return self._convolve(other, prod)

    def reciprocal(self) -> "Jet":
        """Multiplicative inverse of a scalar jet; PoleError on the zero jet."""
        if self.shape != ():
            raise ValueError("reciprocal() is for scalar jets; use inv() on matrices")
        j = self.normalized(0.0)
        if j.is_zero():
            raise PoleError("division by a zero jet")
        n = j.order
        out = np.zeros(n, dtype=complex)
        out[0] = 1.0 / j.c[0]
        for k in range(1, n):
            out[k] = -out[0] * sum(j.c[i] * out[k - i] for i in range(1, k + 1))
        return Jet(out, -j.val)

    def __truediv__(self, other):
        return self * as_jet(other, self.order).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        if self.shape != ():
            raise ValueError("jet powers are for scalar jets")
        if n < 0:
            return self.reciprocal() ** (-n)
        out = as_jet(1.0, self.order)
        for _ in range(int(n)):
            out = out * self
        return out

    # -- analytic functions, entrywise -------------------------------------

    def _entire(self, derivs) -> "Jet":
        """Apply an entire function entrywise via its Taylor expansion about c0.

        derivs(z0) must return f(z0), f'(z0), ... for an array z0 up to where
        the derivatives repeat (exp: one, sin: four), so each is computed
        once; the k-th Taylor coefficient is derivs(z0)[k mod period] / k!.
        Requires valuation >= 0 (an essential singularity otherwise).  Only
        exactly-zero leading slices are trimmed, of the input and of the
        result, so a small genuine leading coefficient is kept on both.
        """
        j = self if self.val >= 0 else self.normalized(0.0)
        if j.val < 0:
            raise PoleError("analytic function of a jet with a pole")
        n = j.val + j.order
        if j.val == 0:  # c is read, never written
            c = j.c
        else:
            c = np.zeros((n, *j.shape), dtype=complex)
            c[j.val:] = j.c
        # nonzero slices of h = c - z0
        hz = [i for i in range(1, n) if c[i].any()]
        # h^k starts at slice k * hz[0], so it vanishes below the order beyond that
        d = derivs(c[0])
        taylor = [d[k % len(d)] / math.factorial(k)
                  for k in range((n - 1) // hz[0] + 1 if hz else 1)]
        out = np.zeros(c.shape, dtype=complex)
        out[0] = taylor[0]
        hk = np.zeros(c.shape, dtype=complex)  # h^k, from h^0 = 1
        hk[0] = 1.0
        new = np.empty_like(hk)  # h^(k+1) is built here, then the two swap
        for k in range(1, len(taylor)):
            new.fill(0.0)
            for i in hz:
                new[i:] += hk[:n - i] * c[i]
            hk, new = new, hk
            out += taylor[k] * hk
        res = Jet(out, 0)
        return res if out[0].any() else res.normalized(0.0)

    def exp(self) -> "Jet":
        return self._entire(lambda z0: (np.exp(z0),))

    def sin(self) -> "Jet":
        def derivs(z0):
            s, c = np.sin(z0), np.cos(z0)
            return s, c, -s, -c
        return self._entire(derivs)

    # -- matrix helpers ------------------------------------------------------

    @property
    def T(self) -> "Jet":
        return self.swapaxes(-1, -2)

    def swapaxes(self, a1: int, a2: int) -> "Jet":
        """Swap two axes of every coefficient slice alike, as ndarray.swapaxes."""
        ax = lambda a: a + 1 if a >= 0 else a
        return Jet(np.swapaxes(self.c, ax(a1), ax(a2)), self.val)

    def __getitem__(self, index) -> "Jet":
        """Index every coefficient slice alike: J[i, j], J[a:b, c:d], J[:, idx]."""
        if not isinstance(index, tuple):
            index = (index,)
        return Jet(self.c[(slice(None), *index)], self.val)

    def reshape(self, *shape) -> "Jet":
        """Reshape every coefficient slice alike; takes a tuple or separate sizes."""
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        return Jet(self.c.reshape(self.order, *shape), self.val)

    def inv(self) -> "Jet":
        """Inverse of a square jet matrix with an invertible leading slice."""
        j = self.normalized(0.0)
        x0 = np.linalg.inv(j.c[0])
        out = np.zeros_like(j.c)
        out[0] = x0
        for k in range(1, j.order):
            acc = np.zeros_like(j.c[0])
            for i in range(1, k + 1):
                acc += j.c[i] @ out[k - i]
            out[k] = -x0 @ acc
        return Jet(out, -j.val)

    # -- evaluation and limits ------------------------------------------------

    def __call__(self, t: complex):
        """Numeric evaluation at eps = t, for cross-checks against plain numbers."""
        acc = np.zeros(self.shape, dtype=complex)
        for k in range(self.order - 1, -1, -1):
            acc = acc * t + self.c[k]
        acc = acc * (t ** self.val)
        return acc if self.shape else complex(acc)

    def limit(self, ztol: float = _ZTOL, atol: float = 0.0):
        """Value at eps = 0, read as derivative(0) reads it."""
        out = self._coefficient(0, ztol, atol)
        return out.copy() if self.shape else complex(out)

    def derivative(self, n: int, ztol: float = _ZTOL, atol: float = 0.0):
        """n-th derivative at eps = 0, i.e. n! times the overall eps^n coefficient."""
        out = math.factorial(n) * self._coefficient(n, ztol, atol)
        return out if self.shape else complex(out)

    def _coefficient(self, n: int, ztol: float, atol: float):
        """The eps^n coefficient once normalized(ztol, atol, upto=n) has dropped
        what vanishes.  PoleError when a leading slice of negative exponent
        survives that; otherwise OrderError when eps^n lies at or beyond
        val + order of this jet, even if every slice it has is zero."""
        j = self.normalized(ztol, atol, upto=n)
        if j.val < 0 and not j.is_zero():
            raise PoleError(f"divergent jet (valuation {j.val})")
        if n >= self.val + self.order:
            raise OrderError(f"eps^{n} is beyond the jet's precision "
                             f"(known through eps^{self.val + self.order - 1})")
        k = n - j.val
        return j.c[k] if k >= 0 else np.zeros(self.shape, dtype=complex)


def _batched_kron(x, y):
    """Kronecker product of the last two axes, broadcast over the leading ones."""
    m, n = x.shape[-2:]
    p, q = y.shape[-2:]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def jet(order: int) -> Jet:
    """The seed jet eps itself, truncated at the given order."""
    c = np.zeros(order, dtype=complex)
    c[0] = 1.0
    return Jet(c, 1)


def as_jet(x, order: int) -> Jet:
    """Embed a constant scalar or array as a jet of the given order."""
    if isinstance(x, Jet):
        return x
    a = np.asarray(x, dtype=complex)
    c = np.zeros((order, *a.shape), dtype=complex)
    c[0] = a
    return Jet(c, 0)
