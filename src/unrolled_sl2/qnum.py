"""Root-of-unity scalar kernel: q-powers, brackets, integers.

All quantities live at q = exp(i*pi/r), so q^(2r) = 1 and q^r = -1.
Arguments may be plain complex numbers or jets (see jets.Jet); every
operation is closed over both, which is how the eps -> 0 limits and
d/d-lambda derivatives used downstream stay a single code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, jet

__all__ = ["QContext", "qpow", "qbracket", "qint"]


@dataclass(frozen=True)
class QContext:
    """Order parameter r >= 2 with q = exp(i*pi/r), numeric tolerances and
    the order of the small parameter eps()."""

    r: int
    tol: float = 1e-9
    jet_order: int = 6
    q: complex = field(init=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"order parameter must be >= 2, got {self.r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.jet_order < 1:
            raise ValueError(f"jet order must be positive, got {self.jet_order}")
        object.__setattr__(self, "q", complex(np.exp(1j * np.pi / self.r)))

    def eps(self) -> Jet:
        """A fresh formal small parameter at this context's jet order."""
        return jet(self.jet_order)


def _period_reduced(ctx: QContext, x):
    """x with Re x taken modulo 2r, the period of q^x, where |Re x| > 2r.

    A large argument would carry its round-off into the phase; smaller ones
    are returned unchanged, to the bit, as an array (no copy when none is large).
    """
    p = 2 * ctx.r
    big = np.abs(x.real) > p
    return np.where(big, x - p * np.floor(x.real / p), x) if big.any() else np.asarray(x)


def qpow(ctx: QContext, x):
    """q^x = exp(i*pi*x/r) for complex, array or jet x (arrays and jets entrywise),
    with Re x (on a jet, of its eps^0 slice) first reduced modulo 2r; a jet's
    coefficient stack, reduced, is scaled by i pi / r in one product (copied
    first only where the reduction moved a value) and goes through Jet.exp."""
    if isinstance(x, Jet):
        c = x.c
        if x.val == 0:
            head = c[:1]
            reduced = _period_reduced(ctx, head)
            if reduced is not head:
                c = np.concatenate([reduced, c[1:]])
        return Jet((1j * np.pi / ctx.r) * c, x.val).exp()
    if np.ndim(x):
        return np.exp(1j * np.pi * _period_reduced(ctx, np.asarray(x, dtype=complex)) / ctx.r)
    return complex(np.exp(1j * np.pi * _period_reduced(ctx, complex(x)) / ctx.r))


def qbracket(ctx: QContext, x):
    """{x} = q^x - q^(-x) = 2i sin(pi x / r)."""
    if isinstance(x, Jet):
        return 2j * ((np.pi / ctx.r) * x).sin()
    return complex(2j * np.sin(np.pi * complex(x) / ctx.r))


def qint(ctx: QContext, x):
    """[x] = {x}/{1} = sin(pi x / r)/sin(pi / r), entrywise on arrays and jets."""
    if isinstance(x, Jet):
        return ((np.pi / ctx.r) * x).sin() * (1.0 / np.sin(np.pi / ctx.r))
    if np.ndim(x):
        return np.sin(np.pi * np.asarray(x, dtype=complex) / ctx.r) / np.sin(np.pi / ctx.r)
    return complex(np.sin(np.pi * complex(x) / ctx.r) / np.sin(np.pi / ctx.r))
