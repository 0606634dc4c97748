"""Test-side routes to jet derivatives, independent of derivative_tensor.

fd_oracle estimates a mixed partial of a plain function by central
differences with Richardson extrapolation.  Its error field is an estimate,
not a bound: the tests compare jets with it at tolerances of their own.
partial reads one mixed partial of a jet by its own slot lookup, which the
jet tests check derivative_tensor against entry by entry.

    from fd_oracle import FdScheme, fd_oracle, partial
"""

import itertools
from dataclasses import dataclass

import numpy as np

from finslerlab import jets
from finslerlab.errors import ConfigurationError


def partial(jet, a, b):
    """Raw mixed partial derivative: a! b! times the stored coefficient."""
    a = tuple(int(k) for k in a)
    b = tuple(int(k) for k in b)
    if len(a) != jet.spec.n or len(b) != jet.spec.n:
        raise ConfigurationError("multi-index length does not match dimension")
    jets._check_read(jet, sum(a), sum(b))
    k = jet.ctx.slot(a, b)
    d = jet.coeffs[..., k] * jet.ctx.factorial[k]
    return float(d) if d.ndim == 0 else d


# -- finite-difference oracle --------------------------------------------------


@dataclass(frozen=True)
class FdScheme:
    """Central-difference settings: base step and Richardson levels (1-3)."""

    step: float = 1e-3
    richardson_levels: int = 2

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigurationError("finite-difference step must be positive")
        if not 1 <= self.richardson_levels <= 3:
            raise ConfigurationError("richardson_levels must be in 1..3")


@dataclass(frozen=True)
class FdEstimate:
    value: float
    error: float
    ok: bool


# second-order central stencils for the k-th derivative, k = 0..4
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def _fd_single(f, x, y, vars_orders, steps):
    """One tensor-product central-difference pass at the given steps."""
    stencils = [_STENCILS[k] for _, _, k in vars_orders]
    total = 0.0
    denom = 1.0
    for (_, _, k), h in zip(vars_orders, steps):
        denom *= h ** k
    for combo in itertools.product(*stencils):
        xs = x.copy()
        ys = y.copy()
        w = 1.0
        for (kind, idx, _), (off, cw), h in zip(vars_orders, combo, steps):
            w *= cw
            if kind == 0:
                xs[idx] += off * h
            else:
                ys[idx] += off * h
        val = f(xs, ys)
        if not np.isfinite(val):
            return None
        total += w * float(val)
    return total / denom


def fd_oracle(f, x, y, a, b, scheme: FdScheme = FdScheme()) -> FdEstimate:
    """Mixed partial derivative of f(x, y) by central differences.

    Richardson extrapolation runs over step doublings (the base step is the
    smallest used), which keeps roundoff amplification bounded for the
    higher orders.  Total order up to 4 is supported; non-finite function
    values inside any stencil yield ok=False rather than a silent number.
    """
    x = np.asarray(x, dtype=float).copy()
    y = np.asarray(y, dtype=float).copy()
    a = tuple(int(k) for k in a)
    b = tuple(int(k) for k in b)
    vars_orders = [(0, i, k) for i, k in enumerate(a) if k > 0]
    vars_orders += [(1, i, k) for i, k in enumerate(b) if k > 0]
    total_order = sum(a) + sum(b)
    if any(k > 4 for _, _, k in vars_orders) or total_order > 4:
        raise ConfigurationError("fd_oracle supports per-variable and total order <= 4")
    if not vars_orders:
        v = float(f(x, y))
        return FdEstimate(v, 0.0, np.isfinite(v))

    base = []
    for kind, idx, _ in vars_orders:
        c = x[idx] if kind == 0 else y[idx]
        bump = 5.0 if total_order >= 3 else 1.0
        base.append(scheme.step * bump * max(1.0, abs(c)))

    levels = scheme.richardson_levels
    raw = []
    for lev in range(levels + 1):
        steps = [h * 2.0 ** lev for h in base]
        d = _fd_single(f, x, y, vars_orders, steps)
        if d is None:
            return FdEstimate(float("nan"), float("inf"), False)
        raw.append(d)

    def extrapolate(vals):
        vals = list(vals)
        m = 1
        while len(vals) > 1:
            fac = 4.0 ** m
            vals = [
                (fac * vals[i] - vals[i + 1]) / (fac - 1.0)
                for i in range(len(vals) - 1)
            ]
            m += 1
        return vals[0]

    value = extrapolate(raw)
    prev = extrapolate(raw[:-1])
    err = abs(value - prev) if levels >= 1 else abs(value) * 1e-8
    return FdEstimate(float(value), float(err), True)
