"""Truncated multivariate Taylor (jet) arithmetic on base/fiber coordinates.

A jet stores the Taylor coefficients of a scalar function of the 2n
coordinates (x, y) at an expansion point, exactly to truncation order:
every multi-index pair (a, b) with |a| <= max_x_order and |b| <= max_y_order
is kept.  Arithmetic on jets reproduces the coefficients of the composed
function, so one evaluation of a metric through this module yields all the
mixed partial derivatives the curvature machinery needs.

Base (x) orders are capped at 2 and fiber (y) orders at 5; larger requests
are rejected at configuration time.  A finite-difference oracle with
Richardson extrapolation is provided for cross-validation.

Supports.  A jet also carries a support (sx, sy): no slot of base degree
above sx or fiber degree above sy is nonzero (None: the whole validity box).
A lifted x^i has (1, 0), y^i (0, 1), a constant (0, 0); a sum takes the
larger support, a product the sum, capped at the validity orders.  Products
sum only the table pairs whose factors lie in their supports, and series
take their Horner length and step tables from the argument's support.
Every dropped pair has a factor that is exactly zero, and np.bincount sums
each slot's terms in table order from +0.0, a running sum that is never -0.0
and that a zero term leaves as it is.  So every coefficient keeps the bits
of the full table wherever the coefficients are finite: 0 * inf is NaN in
the full table and absent from the cut one, so only a jet that already
holds an inf or a NaN can differ.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, JetDomainError

MAX_X_ORDER = 2
MAX_Y_ORDER = 5

_SCALARS = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class JetSpec:
    """Dimension and truncation orders of a jet algebra."""

    n: int
    max_x_order: int
    max_y_order: int

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"jet dimension must be >= 2, got {self.n}")
        if not 0 <= self.max_x_order <= MAX_X_ORDER:
            raise ConfigurationError(
                f"base order {self.max_x_order} outside supported range [0, {MAX_X_ORDER}]"
            )
        if not 0 <= self.max_y_order <= MAX_Y_ORDER:
            raise ConfigurationError(
                f"fiber order {self.max_y_order} outside supported range [0, {MAX_Y_ORDER}]"
            )


def _multi_indices(nvars, max_order):
    idx = [
        t
        for t in itertools.product(range(max_order + 1), repeat=nvars)
        if sum(t) <= max_order
    ]
    idx.sort(key=lambda t: (sum(t), t))
    return idx


class _JetContext:
    """Cached combinatorics for one JetSpec: basis, product and shift tables."""

    def __init__(self, spec: JetSpec):
        n = spec.n
        self.spec = spec
        self.xidx = _multi_indices(n, spec.max_x_order)
        self.yidx = _multi_indices(n, spec.max_y_order)
        self.nx = len(self.xidx)
        self.ny = len(self.yidx)
        self.size = self.nx * self.ny
        self.xpos = {a: i for i, a in enumerate(self.xidx)}
        self.ypos = {b: i for i, b in enumerate(self.yidx)}

        xdeg = np.array([sum(a) for a in self.xidx], dtype=np.int64)
        ydeg = np.array([sum(b) for b in self.yidx], dtype=np.int64)
        self.xdeg = np.repeat(xdeg, self.ny)
        self.ydeg = np.tile(ydeg, self.nx)

        fact = np.empty(self.size)
        for i, a in enumerate(self.xidx):
            fa = float(np.prod([math.factorial(k) for k in a]))
            for j, b in enumerate(self.yidx):
                fb = float(np.prod([math.factorial(k) for k in b]))
                fact[i * self.ny + j] = fa * fb
        self.factorial = fact

        self._build_mul_table(spec)
        self._build_shift_tables(spec)

    def _build_mul_table(self, spec):
        xpairs = []
        for i1, a1 in enumerate(self.xidx):
            for i2, a2 in enumerate(self.xidx):
                s = tuple(u + v for u, v in zip(a1, a2))
                if sum(s) <= spec.max_x_order:
                    xpairs.append((i1, i2, self.xpos[s]))
        ypairs = []
        for j1, b1 in enumerate(self.yidx):
            for j2, b2 in enumerate(self.yidx):
                s = tuple(u + v for u, v in zip(b1, b2))
                if sum(s) <= spec.max_y_order:
                    ypairs.append((j1, j2, self.ypos[s]))
        xa, xb, xo = (np.array(t, dtype=np.int64) for t in zip(*xpairs))
        ya, yb, yo = (np.array(t, dtype=np.int64) for t in zip(*ypairs))
        ny = self.ny
        self.tab_a = (xa[:, None] * ny + ya[None, :]).ravel()
        self.tab_b = (xb[:, None] * ny + yb[None, :]).ravel()
        self.tab_out = (xo[:, None] * ny + yo[None, :]).ravel()

    def _build_shift_tables(self, spec):
        n = spec.n
        ny = self.ny
        self.dx_src = np.zeros((n, self.size), dtype=np.int64)
        self.dx_fac = np.zeros((n, self.size))
        self.dy_src = np.zeros((n, self.size), dtype=np.int64)
        self.dy_fac = np.zeros((n, self.size))
        for v in range(n):
            for i, a in enumerate(self.xidx):
                up = list(a)
                up[v] += 1
                up = tuple(up)
                if sum(up) <= spec.max_x_order:
                    for j in range(ny):
                        k = i * ny + j
                        self.dx_src[v, k] = self.xpos[up] * ny + j
                        self.dx_fac[v, k] = up[v]
            for j, b in enumerate(self.yidx):
                up = list(b)
                up[v] += 1
                up = tuple(up)
                if sum(up) <= spec.max_y_order:
                    for i in range(self.nx):
                        k = i * ny + j
                        self.dy_src[v, k] = i * ny + self.ypos[up]
                        self.dy_fac[v, k] = up[v]

    # The tables below are memoised per context and key, for the life of the
    # process as the contexts themselves are (_context); every caller passes
    # all arguments by position, so each key is stored once.

    @functools.cache
    def mask(self, vx, vy):
        return (self.xdeg <= vx) & (self.ydeg <= vy)

    @functools.cache
    def mul_table(self, vx, vy, sa, sb):
        """The product table cut to the output slots valid to (vx, vy) and to
        the pairs whose factors lie in the supports sa and sb (None: the
        whole box).

        Cutting keeps the order of the remaining terms, so every valid slot
        sums the same nonzero products in the same order as with the full
        table, and the slots beyond (vx, vy) stay zero without a mask.
        """
        ca, cb = _cap(sa, vx, vy), _cap(sb, vx, vy)
        if (ca, cb) != (sa, sb):
            return self.mul_table(vx, vy, ca, cb)
        keep = self.mask(vx, vy)[self.tab_out]
        for s, t in ((sa, self.tab_a), (sb, self.tab_b)):
            if s is not None:
                keep &= self.mask(*s)[t]
        sup = None if sa is None or sb is None else _cap(
            (sa[0] + sb[0], sa[1] + sb[1]), vx, vy)
        return _Table(self.tab_a[keep], self.tab_b[keep], self.tab_out[keep], sup, self.size)

    @functools.cache
    def shift(self, kind, i, vx, vy):
        """Source slots and factors of d/dx^i (kind 0) or d/dy^i (kind 1),
        with the factors zeroed beyond the derivative's validity (vx, vy)."""
        src, fac = (self.dx_src, self.dx_fac) if kind == 0 else (self.dy_src, self.dy_fac)
        return src[i], np.where(self.mask(vx, vy), fac[i], 0.0)

    def slot(self, a, b):
        return self.xpos[tuple(a)] * self.ny + self.ypos[tuple(b)]

    @functools.cache
    def gather(self, ox, oy):
        """Slot of every entry of the order-(ox, oy) derivative tensor."""
        n = self.spec.n
        slots = np.empty((n,) * (ox + oy), dtype=np.int64)
        for idx in np.ndindex(slots.shape):
            a = tuple(idx[:ox].count(v) for v in range(n))
            b = tuple(idx[ox:].count(v) for v in range(n))
            slots[idx] = self.slot(a, b)
        return slots


def _cap(sup, vx, vy):
    """A support cut to the validity (vx, vy); None when it covers it."""
    if sup is None or (sup[0] >= vx and sup[1] >= vy):
        return None
    return (min(sup[0], vx), min(sup[1], vy))


def _larger(a, b):
    """The support of a sum: the larger of two supports, None absorbing."""
    if a is None or b is None:
        return None
    return (max(a[0], b[0]), max(a[1], b[1]))


class _Table:
    """A cut product table: factor slots a and b, output slots out, and the
    support sup of its products."""

    __slots__ = ("a", "b", "out", "sup", "size", "_bins")

    def __init__(self, a, b, out, sup, size):
        self.a, self.b, self.out, self.sup, self.size = a, b, out, sup, size
        self._bins = out[:0]

    def bins(self, m):
        """Bins of a product of m-member stacks, member * size + output slot,
        so that each member's products sum in table order as a single jet's.
        One array, grown to the largest stack seen, serves every stack: the
        bins of the first m members are its prefix."""
        k = m * len(self.out)
        if len(self._bins) < k:
            self._bins = (np.arange(m)[:, None] * self.size + self.out).ravel()
        return self._bins[:k]


@functools.cache
def _context(spec: JetSpec) -> _JetContext:
    return _JetContext(spec)


class Jet:
    """One element of the truncated Taylor algebra, or a stack of m of them.

    ``coeffs[..., k]`` is the normalized coefficient (partial derivative
    divided by a! b!) for basis slot k: shape (size,) for one jet, (m, size)
    for a stack of m jets sharing the spec and the validity orders, one
    expansion point per member.  ``vx``/``vy`` are the orders up to which the
    stored coefficients are trusted; differentiating a jet lowers them.
    ``sup`` is the members' support (see the module docstring), None for the
    whole validity box.  Every operation acts on each member as on a single
    jet, with the same bits.  Jets are immutable values; all operations
    return new jets.
    """

    __slots__ = ("ctx", "coeffs", "vx", "vy", "sup")

    def __init__(self, ctx, coeffs, vx, vy, masked=False, sup=None):
        # masked=True: the slots beyond (vx, vy) are zero already, as after a
        # product (which fills only its cut table's slots) or any operation
        # that keeps its operands' validity.  The slot descriptors set the
        # fields at less cost than object.__setattr__.
        if not masked:
            coeffs = np.where(ctx.mask(vx, vy), coeffs, 0.0)
        _set_ctx(self, ctx)
        _set_coeffs(self, coeffs)
        _set_vx(self, vx)
        _set_vy(self, vy)
        _set_sup(self, sup if sup is None else _cap(sup, vx, vy))

    def __setattr__(self, name, value):
        raise AttributeError("jets are immutable")

    # -- inspection ---------------------------------------------------------

    @property
    def spec(self) -> JetSpec:
        return self.ctx.spec

    # coeffs.T[0] is the constant term of one jet, or the column of a
    # stack's constant terms; plain indexing keeps it cheap for both

    @property
    def value(self):
        """The constant term: a float, or an array (m,) for a stack."""
        c = self.coeffs.T[0]
        return float(c) if self.coeffs.ndim == 1 else c.copy()

    def _members(self):
        """The constant terms as Python floats, one per member."""
        c = self.coeffs
        return [float(c[0])] if c.ndim == 1 else c[:, 0].tolist()

    def partial(self, a, b):
        """Raw mixed partial derivative: a! b! times the stored coefficient."""
        a = tuple(int(k) for k in a)
        b = tuple(int(k) for k in b)
        if len(a) != self.spec.n or len(b) != self.spec.n:
            raise ConfigurationError("multi-index length does not match dimension")
        if sum(a) > self.vx or sum(b) > self.vy:
            raise ConfigurationError(
                f"partial order ({sum(a)},{sum(b)}) exceeds valid orders ({self.vx},{self.vy})"
            )
        k = self.ctx.slot(a, b)
        d = self.coeffs[..., k] * self.ctx.factorial[k]
        return float(d) if d.ndim == 0 else d

    # -- constant / coercion helpers ---------------------------------------

    def _const_like(self, value, vx=None, vy=None):
        """A constant jet shaped like this one; value is a number or one
        number per member of a stack."""
        c = np.zeros(self.coeffs.shape)
        c.T[0] = value
        return Jet(self.ctx, c, self.vx if vx is None else vx,
                   self.vy if vy is None else vy, masked=True, sup=(0, 0))

    def _check(self, other):
        if other.ctx is not self.ctx:
            raise ConfigurationError("jets from different specs cannot be mixed")

    def _combine(self, coeffs, other):
        """The sum or difference of self and other, valid to their common
        orders and supported on the larger of their supports; masked only
        when validity drops."""
        vx, vy = min(self.vx, other.vx), min(self.vy, other.vy)
        kept = vx == self.vx == other.vx and vy == self.vy == other.vy
        return Jet(self.ctx, coeffs, vx, vy, masked=kept, sup=_larger(self.sup, other.sup))

    # -- ring operations ----------------------------------------------------
    #
    # Sums also take, for a stack, an array of one number per member.

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._combine(self.coeffs + other.coeffs, other)
        if isinstance(other, _CONSTS):
            c = self.coeffs.copy()
            c.T[0] += _as_const(other)
            return Jet(self.ctx, c, self.vx, self.vy, masked=True, sup=self.sup)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.coeffs, self.vx, self.vy, masked=True, sup=self.sup)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._combine(self.coeffs - other.coeffs, other)
        if isinstance(other, _CONSTS):
            return self.__add__(-_as_const(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, _SCALARS):
                return Jet(self.ctx, self.coeffs * float(other), self.vx, self.vy,
                           masked=True, sup=self.sup)
            return NotImplemented
        self._check(other)
        ctx = self.ctx
        vx, vy = min(self.vx, other.vx), min(self.vy, other.vy)
        tab = ctx.mul_table(vx, vy, self.sup, other.sup)
        prod = self.coeffs.take(tab.a, axis=-1) * other.coeffs.take(tab.b, axis=-1)
        if prod.ndim == 1:
            c = np.bincount(tab.out, weights=prod, minlength=ctx.size)
        else:
            m = len(prod)
            c = np.bincount(tab.bins(m), weights=prod.ravel(),
                            minlength=m * ctx.size).reshape(m, ctx.size)
        return Jet(ctx, c, vx, vy, masked=True, sup=tab.sup)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                raise ZeroDivisionError("jet divided by zero scalar")
            return Jet(self.ctx, self.coeffs / float(other), self.vx, self.vy,
                       masked=True, sup=self.sup)
        if not isinstance(other, Jet):
            return NotImplemented
        self._check(other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            p = int(p)
            if p < 0:
                return self._reciprocal() ** (-p)
            out = self._const_like(1.0)
            base = self
            while p:
                if p & 1:
                    out = out * base
                base = base * base if p > 1 else base
                p >>= 1
            return out
        if isinstance(p, _SCALARS):
            return self._pow_real(float(p))
        return NotImplemented

    # -- analytic functions via truncated series ----------------------------

    def _nilpotency(self):
        """uhat, the jet less its constant, vanishes past this power."""
        return self.vx + self.vy

    def _series(self, coeff_fn, opname, require=None):
        vx, vy, sup = self.vx, self.vy, self.sup
        sx, sy = (vx, vy) if sup is None else sup
        # uhat's own support bounds its powers' degrees: uhat^k = 0 for k > K
        K = (vx if sx else 0) + (vy if sy else 0)
        # the series coefficients of a stack come member by member from the
        # same float arithmetic as for a single jet
        members = self._members()
        if require is not None:
            for u in members:
                if not require(u):
                    raise JetDomainError(f"{opname} of jet with constant term {u}")
        if self.coeffs.ndim == 1:
            cs = coeff_fn(members[0], K)
        else:
            cs = np.array([coeff_fn(u, K) for u in members]).T
        ctx = self.ctx
        if not K:
            # a constant: at any order past (0, 0) Horner's last product sums
            # to +0.0 and cs[0] is added to it
            out = np.zeros(self.coeffs.shape)
            out.T[0] = cs[0] + 0.0 if vx + vy else cs[0]
            return Jet(ctx, out, vx, vy, masked=True, sup=(0, 0))
        # Horner's rule, out = out * uhat + cs[k], each product summed as in
        # __mul__ (the same nonzero terms in the same order).  The first
        # product has a constant factor, so it is a broadcast product; adding
        # 0.0 turns its -0.0 into the +0.0 a sum of products would give.
        uhat = self.coeffs.copy()
        uhat.T[0] = 0.0
        m = 1 if uhat.ndim == 1 else len(uhat)
        out = uhat * (cs[K] if uhat.ndim == 1 else cs[K][:, None]) + 0.0
        out.T[0] += cs[K - 1]
        tab = None
        for j in range(1, K):  # out has the support j * sup
            step = ctx.mul_table(vx, vy, (j * sx, j * sy), sup)
            if step is not tab:
                tab = step
                ub = uhat.take(tab.b, axis=-1)
                idx = tab.out if uhat.ndim == 1 else tab.bins(m)
            out = np.bincount(idx, weights=(out.take(tab.a, axis=-1) * ub).ravel(),
                              minlength=m * ctx.size).reshape(uhat.shape)
            out.T[0] += cs[K - 1 - j]
        return Jet(ctx, out, vx, vy, masked=True, sup=(vx if sx else 0, vy if sy else 0))

    def _require_positive(self, message):
        if any(u <= 0.0 for u in self._members()):
            raise JetDomainError(message)

    def _reciprocal(self):
        if any(u == 0.0 for u in self._members()):
            raise JetDomainError("division by jet with zero constant term")
        return self._pow_real(-1.0)

    def _pow_real(self, p):
        def coeffs(u0, K):
            cs = []
            c = u0 ** p
            cs.append(c)
            for k in range(1, K + 1):
                c = c * (p - (k - 1)) / k / u0
                cs.append(c)
            return cs

        self._require_positive(f"real power {p} of jet with nonpositive constant term")
        return self._series(coeffs, f"pow({p})")

    def sqrt(self):
        self._require_positive("sqrt of jet with nonpositive constant term")
        return self._pow_real(0.5)

    def log(self):
        def coeffs(u0, K):
            cs = [math.log(u0)]
            for k in range(1, K + 1):
                cs.append((-1.0) ** (k - 1) / (k * u0 ** k))
            return cs

        return self._series(coeffs, "log", require=lambda u: u > 0.0)

    def _cyclic(self, cycle, opname):
        """The series whose k-th derivative at u0 is cycle[k mod p], as for
        exp, sin, cos, sinh and cosh; cycle maps u0 to its p values."""
        def coeffs(u0, K):
            c = cycle(u0)
            return [c[k % len(c)] / math.factorial(k) for k in range(K + 1)]

        return self._series(coeffs, opname)

    def exp(self):
        return self._cyclic(lambda u: [math.exp(u)], "exp")

    def sin(self):
        return self._cyclic(lambda u: [math.sin(u), math.cos(u), -math.sin(u), -math.cos(u)],
                            "sin")

    def cos(self):
        return self._cyclic(lambda u: [math.cos(u), -math.sin(u), -math.cos(u), math.sin(u)],
                            "cos")

    def sinh(self):
        return self._cyclic(lambda u: [math.sinh(u), math.cosh(u)], "sinh")

    def cosh(self):
        return self._cyclic(lambda u: [math.cosh(u), math.sinh(u)], "cosh")

    # -- polynomial differentiation ------------------------------------------

    def dx(self, i):
        """Derivative with respect to base coordinate x^i (validity drops by one)."""
        if not 0 <= i < self.spec.n:
            raise ConfigurationError(f"base variable index {i} out of range")
        if self.vx < 1:
            raise ConfigurationError("jet has no base orders left to differentiate")
        src, fac = self.ctx.shift(0, i, self.vx - 1, self.vy)
        sup = self.sup and (max(self.sup[0] - 1, 0), self.sup[1])
        return Jet(self.ctx, self.coeffs.take(src, axis=-1) * fac, self.vx - 1, self.vy,
                   masked=True, sup=sup)

    def dy(self, i):
        """Derivative with respect to fiber coordinate y^i (validity drops by one)."""
        if not 0 <= i < self.spec.n:
            raise ConfigurationError(f"fiber variable index {i} out of range")
        if self.vy < 1:
            raise ConfigurationError("jet has no fiber orders left to differentiate")
        src, fac = self.ctx.shift(1, i, self.vx, self.vy - 1)
        sup = self.sup and (self.sup[0], max(self.sup[1] - 1, 0))
        return Jet(self.ctx, self.coeffs.take(src, axis=-1) * fac, self.vx, self.vy - 1,
                   masked=True, sup=sup)

    def __repr__(self):
        value = self.value
        shown = (f"value={value:.6g}" if self.coeffs.ndim == 1
                 else f"members={len(value)}")
        return (f"Jet(n={self.spec.n}, orders=({self.spec.max_x_order},{self.spec.max_y_order}), "
                f"valid=({self.vx},{self.vy}), {shown})")


_set_ctx, _set_coeffs, _set_vx, _set_vy, _set_sup = (
    Jet.__dict__[name].__set__ for name in Jet.__slots__)

_CONSTS = _SCALARS + (np.ndarray,)


def _as_const(v):
    """A plain operand as a float, or as a float array of one value per member."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(float, copy=False)
    return float(v)


# -- construction -------------------------------------------------------------


def lift(x, y, spec: JetSpec):
    """Seed coordinate jets at the expansion point (x, y).

    Returns two lists of n jets each: the base coordinates and the fiber
    coordinates, carrying unit first-order coefficients in their own
    variable.  Any smooth expression of them evaluates to its exact Taylor
    coefficients at (x, y).  x and y are one point (n,) each, or stacks
    (m, n) (one of them may be a single point shared by the stack); a stack
    gives jets of m members.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = spec.n
    if x.shape[-1:] != (n,) or y.shape[-1:] != (n,) or max(x.ndim, y.ndim) > 2:
        raise ConfigurationError(
            f"expansion point must have {n} base and {n} fiber coordinates"
        )
    try:
        x, y = np.broadcast_arrays(x, y)
    except ValueError:
        raise ConfigurationError("base and fiber stacks differ in length") from None
    ctx = _context(spec)
    e = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    zero = tuple(0 for _ in range(n))
    xs = []
    ys = []
    for i in range(n):
        c = np.zeros(x.shape[:-1] + (ctx.size,))
        c.T[0] = x[..., i]
        if spec.max_x_order >= 1:
            c.T[ctx.slot(e[i], zero)] = 1.0
        xs.append(Jet(ctx, c, spec.max_x_order, spec.max_y_order, masked=True, sup=(1, 0)))
    for i in range(n):
        c = np.zeros(y.shape[:-1] + (ctx.size,))
        c.T[0] = y[..., i]
        if spec.max_y_order >= 1:
            c.T[ctx.slot(zero, e[i])] = 1.0
        ys.append(Jet(ctx, c, spec.max_x_order, spec.max_y_order, masked=True, sup=(0, 1)))
    return xs, ys


def join_members(jets) -> Jet:
    """One stack of the members of jets of one spec, in order; a single jet
    is one member.  The stack is valid to the jets' common orders and
    supported on the largest of their supports."""
    for j in jets:
        jets[0]._check(j)
    vx, vy = min(j.vx for j in jets), min(j.vy for j in jets)
    sup = functools.reduce(_larger, {j.sup for j in jets})
    coeffs = np.concatenate([np.atleast_2d(j.coeffs) for j in jets])
    return Jet(jets[0].ctx, coeffs, vx, vy,
               masked=all(j.vx == vx and j.vy == vy for j in jets), sup=sup)


def split_members(jet, like) -> list:
    """Undo join_members: the members of a stack, in order, as jets shaped
    like the jet like (a single jet, or a stack of as many members)."""
    parts = jet.coeffs.reshape((-1,) + like.coeffs.shape)
    return [Jet(jet.ctx, c, jet.vx, jet.vy, masked=True, sup=jet.sup) for c in parts]


def derivative_tensor(jet, ox, oy) -> np.ndarray:
    """All raw mixed partials of order (ox, oy) as one symmetric array.

    Axes are ox base indices, then oy fiber indices: entry [i1..i_ox, j1..j_oy]
    is the derivative by x^i1 ... x^i_ox y^j1 ... y^j_oy, the same number
    Jet.partial returns.  A sequence of jets of one spec gives their tensors
    stacked along a leading axis.  A stack of m jets puts its member axis
    first: shape (m, *tensor), or (m, len(sequence), *tensor).
    """
    group = [jet] if isinstance(jet, Jet) else list(jet)
    ctx = group[0].ctx
    for j in group:
        if j.ctx is not ctx:
            raise ConfigurationError("jets from different specs cannot be mixed")
        if ox > j.vx or oy > j.vy:
            raise ConfigurationError(
                f"partial order ({ox},{oy}) exceeds valid orders ({j.vx},{j.vy})"
            )
    slots = ctx.gather(ox, oy)
    if isinstance(jet, Jet):
        coeffs = jet.coeffs
    else:
        coeffs = np.stack(np.broadcast_arrays(*[j.coeffs for j in group]), axis=-2)
    # take() keeps the result C-ordered, so matrix products on it sum in the
    # same order as on arrays filled entry by entry
    return coeffs.take(slots, axis=-1) * ctx.factorial[slots]


# -- scalar/array/jet polymorphic math ----------------------------------------
#
# Metric evaluators are written against these wrappers so the same code runs
# on plain floats, numpy arrays (batch evaluation) and jets.


def sqrt(v):
    return v.sqrt() if isinstance(v, Jet) else np.sqrt(v)


def log(v):
    return v.log() if isinstance(v, Jet) else np.log(v)


def exp(v):
    return v.exp() if isinstance(v, Jet) else np.exp(v)


def sin(v):
    return v.sin() if isinstance(v, Jet) else np.sin(v)


def cos(v):
    return v.cos() if isinstance(v, Jet) else np.cos(v)


def sinh(v):
    return v.sinh() if isinstance(v, Jet) else np.sinh(v)


def cosh(v):
    return v.cosh() if isinstance(v, Jet) else np.cosh(v)


def power(v, p):
    return v.__pow__(p) if isinstance(v, Jet) else np.power(v, p)


def smooth_max(a, b, eps=1e-6):
    """Differentiable softening of max(a, b); exact as eps -> 0."""
    d = a - b
    return 0.5 * (a + b + sqrt(d * d + eps * eps))


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
