"""Built-in Finsler metrics: definitions, distances and validity checks.

Every metric is a MetricSpec whose evaluator is written against the
polymorphic math in :mod:`finslerlab.jets`, so the same code path serves
plain floats, batched numpy arrays and jets.  The catalog covers
Euclidean/Riemannian charts, Randers metrics, a Berwald product, a quartic
Minkowski norm, and the Funk/Hilbert metrics on strongly convex domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import jets
from ._grids import halton, halton_directions, unit_ball_volume
from .errors import (
    ConfigurationError,
    GeometryError,
    MetricValidityError,
    NumericalIntegrityError,
)
from .jets import Jet, JetSpec, lift

F_FLOOR = 1e-12
# Newton passes allowed per batched ray exit; quartic domains take eight to ten
_RAY_NEWTON_CAP = 64


def _dot(u, v):
    s = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        s = s + a * b
    return s


def _find_jet(vals):
    for v in vals:
        if isinstance(v, Jet):
            return v
    return None


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexDomain:
    """Strongly convex bounded domain {phi < 0} with jet-capable boundary data.

    kind is "unit_ball" (phi = |z|^2 - 1) or "quartic_perturbed"
    (phi = |z|^2 + eps * sum z_i^4 - 1); both have positive-definite Hessian
    everywhere, so strong convexity holds for any eps >= 0.
    """

    kind: str
    n: int
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit_ball", "quartic_perturbed"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        if self.eps < 0:
            raise ConfigurationError("quartic perturbation must be nonnegative")
        if self.n < 2:
            raise ConfigurationError("domain dimension must be >= 2")

    def phi(self, z):
        s = _dot(z, z)
        if self.kind == "quartic_perturbed" and self.eps != 0.0:
            q = z[0] * z[0] * z[0] * z[0]
            for zi in z[1:]:
                q = q + zi * zi * zi * zi
            s = s + self.eps * q
        return s - 1.0

    def grad_phi(self, z):
        if self.kind == "quartic_perturbed" and self.eps != 0.0:
            return [2.0 * zi + 4.0 * self.eps * zi * zi * zi for zi in z]
        return [2.0 * zi for zi in z]

    def coordinate_terms(self, z, slope_value=False):
        """phi is a sum of terms in one coordinate each: for z standing for
        coordinates (a number, an array or a jet stack), the terms t(z) and
        t'(z), with phi = sum_i t(z_i) - 1 and d phi / d z_i = t'(z_i).
        slope_value=True gives t' of a jet stack z as the array of its values,
        from the values of z and z^2 (a product's constant term is the product
        of the constant terms, so the bits are those of the jet t'(z))."""
        sq = z * z
        quartic = self.kind == "quartic_perturbed" and self.eps != 0.0
        t = sq + self.eps * (sq * sq) if quartic else sq
        if slope_value:
            z, sq = z.coeffs.T[0], sq.coeffs.T[0]
        return t, 2.0 * z + (4.0 * self.eps) * (z * sq) if quartic else 2.0 * z

    def contains(self, x):
        return self.margin(x) > 0.0

    def margin(self, x):
        """Positive inside the domain, zero on the boundary."""
        x = np.asarray(x, dtype=float)
        z = [x[..., i] for i in range(self.n)]
        return -self.phi(z)

    @property
    def bounding_radius(self):
        # phi >= |z|^2 - 1, so the domain sits inside the unit ball
        return 1.0

    def boundary_checks(self, n_samples=32):
        """Spot-check phi(0) < 0, nonzero gradient and convexity on the boundary."""
        if not self.phi([0.0] * self.n) < 0:
            raise MetricValidityError("domain does not contain the origin")
        dirs = halton_directions(self.n, n_samples)
        z = self.ray_exit(np.zeros_like(dirs), dirs)[:, None] * dirs
        grad = np.stack(self.grad_phi(list(z.T)), axis=-1)
        # the Hessian of phi is diagonal, so its eigenvalues are its entries
        hess = np.full_like(z, 2.0)
        if self.kind == "quartic_perturbed":
            hess = hess + 12.0 * self.eps * z ** 2
        for bad, message in ((np.linalg.norm(grad, axis=-1) < 1e-10,
                              "vanishing boundary gradient"),
                             (np.min(hess, axis=-1) <= 0,
                              "boundary Hessian not positive definite")):
            if np.any(bad):
                raise MetricValidityError(message, sample=z[np.argmax(bad)])

    def ray_exit(self, x0, y0):
        """Exit parameters s > 0 with phi(x0 + s y0) = 0; x0, y0 of shape (..., n).

        The unit ball has a closed form.  Otherwise Newton's method runs on
        phi along each ray, started at the exit of the bounding unit ball,
        which lies outside the domain.  phi is convex along the ray, so the
        iterates decrease monotonically to the root; the loop ends when no
        entry decreases any more.  A base point outside the domain or a
        vanishing direction raises GeometryError.
        """
        x0 = np.asarray(x0, dtype=float)
        y0 = np.asarray(y0, dtype=float)
        return self.exit_columns([x0[..., i] for i in range(self.n)],
                                 [y0[..., i] for i in range(self.n)])

    def exit_columns(self, xs, ys):
        """ray_exit on coordinate columns: xs and ys are n numbers or arrays
        that broadcast together, so a shared base point is n numbers and its
        terms are computed once."""
        if self.kind != "unit_ball" and np.any(self.phi(xs) >= 0):
            raise GeometryError("ray base point outside the convex domain")
        s = _ball_exit_parameter(xs, ys)
        if self.kind == "unit_ball":
            return s
        for _ in range(_RAY_NEWTON_CAP):
            z = [xi + s * yi for xi, yi in zip(xs, ys)]
            step = s - self.phi(z) / _dot(self.grad_phi(z), ys)
            down = step < s
            if not np.any(down):
                return s
            s = np.where(down, step, s)
        raise NumericalIntegrityError(
            f"ray exit: Newton still decreasing after {_RAY_NEWTON_CAP} steps")


def unit_ball_domain(n):
    return ConvexDomain("unit_ball", n)


def quartic_domain(n, eps=0.1):
    return ConvexDomain("quartic_perturbed", n, eps)


@dataclass(frozen=True)
class ChartDomain:
    """Chart of definition for a metric: boundary margin and sample box."""

    margin: object  # positive inside, 0 at the boundary; None when unbounded
    sample_box: tuple

    def contains(self, x):
        """Membership, margin(x) > 0: a bool for one point (n,), an array for
        a stack (m, n)."""
        if self.margin is None:
            x = np.asarray(x, dtype=float)
            return np.ones(x.shape[:-1], dtype=bool) if x.ndim > 1 else True
        return self.margin(x) > 0.0


def _ball_chart(n, radius=1.0):
    def margin(x):
        x = np.asarray(x, dtype=float)
        return radius ** 2 - np.sum(x ** 2, axis=-1)

    return ChartDomain(margin, ((-radius,) * n, (radius,) * n))


def _full_chart(n):
    return ChartDomain(None, ((-1.5,) * n, (1.5,) * n))


def _convex_chart(domain: ConvexDomain):
    return ChartDomain(domain.margin, ((-1.0,) * domain.n, (1.0,) * domain.n))


# ---------------------------------------------------------------------------
# Metric spec
# ---------------------------------------------------------------------------


@dataclass
class MetricSpec:
    """A chart-based Finsler metric with a jet-capable evaluator."""

    name: str
    n: int
    evaluator: object
    chart: ChartDomain
    reversible: bool
    is_minkowski: bool = False
    positively_complete_only: bool = False
    params: dict = field(default_factory=dict)
    convex_domain: ConvexDomain | None = None
    sigma_bh: object | None = None  # closed-form Busemann-Hausdorff density, or None

    def F(self, x, y):
        return float(self.evaluator(list(np.asarray(x, dtype=float)),
                                    list(np.asarray(y, dtype=float))))

    def F_batch(self, x, y):
        """Vectorized evaluation; x, y arrays of shape (..., n)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xs = [x[..., i] for i in range(self.n)]
        ys = [y[..., i] for i in range(self.n)]
        return np.asarray(self.evaluator(xs, ys), dtype=float)

    def jet(self, x, y, mx, my) -> Jet:
        """F as a jet at the tangent point (x, y); stacked points (m, n) give a
        stack of m jets (see jets.lift)."""
        spec = JetSpec(self.n, mx, my)
        xs, ys = lift(np.asarray(x, dtype=float), np.asarray(y, dtype=float), spec)
        return self.evaluator(xs, ys)

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"MetricSpec({self.name}, n={self.n}{', ' + ps if ps else ''})"


# ---------------------------------------------------------------------------
# Funk / Hilbert metrics
# ---------------------------------------------------------------------------


def _per_member(pick, a, b):
    """a where pick holds, else b: the whole operand for one point, or entry
    by entry for arrays and member by member for a jet stack."""
    if np.ndim(pick) == 0:
        return a if pick else b
    if isinstance(a, Jet):
        return a._combine(np.where(pick[:, None], a.coeffs, b.coeffs), b)
    return np.where(pick, a, b)


def funk_unit_ball(x, y):
    """Closed form on the unit ball, from solving |x + y/F|^2 = 1:
    F = (r + xy) / (1 - |x|^2) with r = sqrt(xy^2 + yy (1 - |x|^2)).  Where
    xy < 0 that sum cancels, so there the same F is taken as yy / (r - xy)."""
    xy = _dot(x, y)
    yy = _dot(y, y)
    one_minus = 1.0 - _dot(x, x)
    r = jets.sqrt(xy * xy + yy * one_minus)
    toward = (xy.value if isinstance(xy, Jet) else xy) < 0.0
    return _per_member(toward, yy, r + xy) / _per_member(toward, r - xy, one_minus)


def _ball_exit_parameter(xs, ys):
    """Closed-form s with |x0 + s y0| = 1, s > 0, for x0 inside the unit ball;
    xs and ys are the coordinate columns of x0 and y0."""
    xy = _dot(xs, ys)
    yy = _dot(ys, ys)
    xx = _dot(xs, xs)
    if np.any(yy < F_FLOOR * F_FLOOR):
        raise GeometryError("funk metric evaluated on a vanishing vector")
    if np.any(xx >= 1.0):
        raise GeometryError("ray base point outside the unit ball")
    return (np.sqrt(xy * xy + yy * (1.0 - xx)) - xy) / yy


def _coordinate_jets(j, x, y):
    """The coordinates x and y as jets of j's spec and shape: a number, or
    one number per member of a stack, becomes a constant jet."""
    spec = j.spec

    def as_jet(v):
        if isinstance(v, Jet):
            return v
        return j._const_like(v, spec.max_x_order, spec.max_y_order)

    return [as_jet(v) for v in x], [as_jet(v) for v in y]


def _funk_jet_exit(domain: ConvexDomain, X, Y, shape):
    """The exit parameter u = 1/F of the Funk metric as a jet, from the jet
    coordinates of x and y, each stacked coordinate after coordinate in one
    jet X or Y whose n parts have the member shape shape: () for one jet,
    (m,) for a stack of m.

    Newton's method in the truncated algebra is the implicit-function rule
    carried to all stored orders, graded as in Brent & Kung, "Fast
    algorithms for manipulating formal power series" (J. ACM 1978).  Every
    member starts from its root, found by one batched ray exit, so u is
    exact through total degree a - 1 with a = 1.  A pass targets degree
    tgt = min(2a - 1, D), D the jet's total degree mx + my: it runs at the
    orders (min(mx, tgt), min(my, tgt)), a cut of the algebra that holds
    every coefficient of degree tgt or less, and makes them exact.  The
    residual r has no terms below degree a, so r / slope through degree tgt
    needs the inverse slope only through degree h = tgt - a: one division
    per member by the slope's value when h = 0, as in the first pass and
    mostly the last, else a reciprocal at orders (min(mx, h), min(my, h)).
    ceil(log2(D + 1)) passes reach degree D.  The n coordinates travel as
    one stack, so that a pass is a few products of stacks rather than of
    single coordinates.
    """
    spec = X.spec
    mx, my = spec.max_x_order, spec.max_y_order
    n = spec.n

    def columns(S):  # each coordinate's values, as Jet.value gives them
        c = S.coeffs.T[0].reshape((n,) + shape).copy()
        return list(c) if shape else c.tolist()

    c = np.zeros(shape + (X.ctx.size,))
    c.T[0] = domain.exit_columns(columns(X), columns(Y))
    u = Jet(X.ctx, c, 0, 0, masked=True, sup=(0, 0))

    def coordinate_sum(t):  # the n parts of the stack t, added in order
        parts = t.coeffs.reshape((n,) + u.coeffs.shape)
        return Jet(t.ctx, sum(parts[1:], parts[0]), t.vx, t.vy, masked=True, sup=t.sup)

    a = 1
    while a <= mx + my:
        tgt = min(2 * a - 1, mx + my)
        h = tgt - a
        # a jet at other orders is its coefficients masked to them, and u
        # is zero beyond its last orders
        u = Jet(u.ctx, u.coeffs, min(mx, tgt), min(my, tgt), sup=(u.vx, u.vy))
        U = Jet(u.ctx, np.tile(u.coeffs, (n, 1)), u.vx, u.vy, masked=True, sup=u.sup)
        t, dt = domain.coordinate_terms(X + Y * U, h == 0)
        r = coordinate_sum(t) - 1.0
        if h == 0:  # the slope's value, summed over coordinates as coordinate_sum does
            rows = (dt * Y.coeffs.T[0]).reshape(n, -1)
            slope = sum(rows[1:], rows[0]).reshape(r.coeffs.shape[:-1] + (1,))
            u = u - Jet(u.ctx, r.coeffs / slope, u.vx, u.vy, masked=True)
        else:
            dt = Jet(dt.ctx, dt.coeffs, min(mx, h), min(my, h))
            w = coordinate_sum(dt * Y)._reciprocal()
            u = u - r * Jet(w.ctx, w.coeffs, u.vx, u.vy, sup=(w.vx, w.vy))
        a = tgt + 1
    return u


def funk_general(domain: ConvexDomain, x, y):
    """Funk metric on a convex domain: the unique F > 0 with phi(x + y/F) = 0.

    Jets take _funk_jet_exit, and numbers or arrays one batched ray exit.
    """
    j = _find_jet(x) or _find_jet(y)
    if j is not None:
        xj, yj = _coordinate_jets(j, x, y)
        return 1.0 / _funk_jet_exit(domain, jets.join_members(xj), jets.join_members(yj),
                                    xj[0].coeffs.shape[:-1])
    return 1.0 / domain.exit_columns(x, y)


def hilbert_metric(domain: ConvexDomain, x, y):
    """Symmetrized Funk metric; reversible by construction.

    Jets on a convex domain solve the forward and backward Funk roots, at y
    and -y, as one stack of twice the members in one Newton loop.
    """
    j = _find_jet(x) or _find_jet(y)
    if domain.kind == "unit_ball":
        forward = funk_unit_ball(x, y)
        backward = funk_unit_ball(x, [-yi for yi in y])
    elif j is not None:
        xj, yj = _coordinate_jets(j, x, y)
        shape = (2 * len(np.atleast_2d(xj[0].coeffs)),)
        u = _funk_jet_exit(domain, jets.join_members([c for a in xj for c in (a, a)]),
                           jets.join_members([c for b in yj for c in (b, -b)]), shape)
        forward, backward = jets.split_members(1.0 / u, xj[0])
    else:
        forward = funk_general(domain, x, y)
        backward = funk_general(domain, x, [-yi for yi in y])
    return 0.5 * (forward + backward)


def _point_distance(batch, domain, p, q):
    """d(p, q) as the one row of a distance batch, for interior p and q; a
    ray that leaves the domain before q gives a non-finite row."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not domain.contains(p) or not domain.contains(q):
        raise GeometryError("distance endpoints must be interior points")
    with np.errstate(divide="ignore", invalid="ignore"):  # an early exit: inf or nan
        d = float(batch(domain, p, q[None])[0])
    if not np.isfinite(d):
        raise GeometryError("ray exit before reaching the second endpoint")
    return d


def funk_distance(domain: ConvexDomain, p, q):
    """log of the exit-point distance ratio along the ray from p through q."""
    return _point_distance(funk_distance_batch, domain, p, q)


def hilbert_distance(domain: ConvexDomain, p, q):
    """The mean of the Funk distances from p to q and from q to p."""
    return _point_distance(hilbert_distance_batch, domain, p, q)


def _moving_rows(p, Q):
    """The rows of the points Q (m, n) with q != p, as a slice when that is
    every row or else as an index array, and the columns of u = q - p there."""
    u = [Q[:, i] - pi for i, pi in enumerate(p)]
    moving = _dot(u, u) > 0
    if np.all(moving):
        return slice(None), u
    rows = np.flatnonzero(moving)
    return rows, [ui[rows] for ui in u]


def funk_distance_batch(domain: ConvexDomain, p, Q):
    """d_f(p, q) from one point p to many interior points q (..., n) at once."""
    p = np.asarray(p, dtype=float)
    Q = np.asarray(Q, dtype=float)
    flat = Q.reshape(-1, domain.n)
    rows, u = _moving_rows(p, flat)
    out = np.zeros(len(flat))
    if len(u[0]):
        s = domain.exit_columns(list(p), u)
        out[rows] = np.log(s / (s - 1.0))
    return out.reshape(Q.shape[:-1])


def hilbert_distance_batch(domain: ConvexDomain, p, Q):
    """d_h(p, q) from one point p to many interior points q: the forward rays
    from p and the backward rays from the q go through one stacked ray exit."""
    p = np.asarray(p, dtype=float)
    Q = np.asarray(Q, dtype=float)
    flat = Q.reshape(-1, domain.n)
    rows, u = _moving_rows(p, flat)
    out = np.zeros(len(flat))
    k = len(u[0])
    if k:
        xs = [np.concatenate([np.full(k, pi), flat[rows, i]]) for i, pi in enumerate(p)]
        s = domain.exit_columns(xs, [np.concatenate([ui, -ui]) for ui in u])
        d = np.log(s / (s - 1.0))
        out[rows] = 0.5 * (d[:k] + d[k:])
    return out.reshape(Q.shape[:-1])


def okada_residual(metric: MetricSpec, x, y):
    """Componentwise dF/dx^i - F * dF/dy^i; vanishes exactly for Funk metrics.
    x and y are one tangent point (n,) or stacks (m, n)."""
    fj = metric.jet(x, y, 1, 1)
    return (jets.derivative_tensor(fj, 1, 0)
            - np.expand_dims(fj.value, -1) * jets.derivative_tensor(fj, 0, 1))


# ---------------------------------------------------------------------------
# Catalog evaluators
# ---------------------------------------------------------------------------


def _euclidean_eval(x, y):
    return jets.sqrt(_dot(y, y))


def _conformal_eval(sign):
    # 2|y| / (1 + sign*|x|^2): round sphere for +, hyperbolic ball for -
    def ev(x, y):
        return 2.0 * jets.sqrt(_dot(y, y)) / (1.0 + sign * _dot(x, x))

    return ev


def _quartic_eval(eps):
    def ev(x, y):
        yy = _dot(y, y)
        q = y[0] * y[0] * y[0] * y[0]
        for yi in y[1:]:
            q = q + yi * yi * yi * yi
        return jets.power(yy * yy + eps * q, 0.25)

    return ev


@dataclass(frozen=True)
class RandersData:
    """Riemannian metric a_ij(x) and 1-form b_i(x), with alpha-norm of b < 1."""

    alpha: object  # callable x -> (n, n) nested list of scalars
    beta: object   # callable x -> length-n list of scalars

    def norm_beta(self, x):
        """alpha-length of beta at a plain point x (n,), or at each point of a
        stack (m, n) through one batched solve."""
        x = np.asarray(x, dtype=float)
        cols = list(np.atleast_2d(x).T)
        field = lambda v: np.broadcast_to(np.asarray(v, dtype=float), cols[0].shape)
        a = np.stack([np.stack([field(v) for v in row], -1) for row in self.alpha(cols)], -2)
        b = np.stack([field(v) for v in self.beta(cols)], -1)
        nb = np.sqrt(np.sum(b * np.linalg.solve(a, b[..., None])[..., 0], axis=-1))
        return float(nb[0]) if x.ndim == 1 else nb


def _randers_eval(data: RandersData):
    def ev(x, y):
        a = data.alpha(x)
        b = data.beta(x)
        quad = _dot([_dot(row, y) for row in a], y)
        return jets.sqrt(quad) + _dot(b, y)

    return ev


def _berwald_product_eval(c):
    # hyperbolic plane (conformal ball chart) times a line, with a constant
    # 1-form on the flat factor: beta is parallel, so the metric is Berwald.
    def ev(x, y):
        rho2 = x[0] * x[0] + x[1] * x[1]
        conf = 2.0 / (1.0 - rho2)
        alpha2 = conf * conf * (y[0] * y[0] + y[1] * y[1]) + y[2] * y[2]
        return jets.sqrt(alpha2) + c * y[2]

    return ev


# ---------------------------------------------------------------------------
# Busemann-Hausdorff density closed forms
# ---------------------------------------------------------------------------


def _const_sigma(value):
    def sigma(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], value) if x.ndim > 1 else float(value)

    return sigma


def _conformal_sigma(sign, n):
    def sigma(x):
        x = np.asarray(x, dtype=float)
        conf = 2.0 / (1.0 + sign * np.sum(x ** 2, axis=-1))
        return conf ** n

    return sigma


def _klein_sigma(n):
    # Hilbert metric on the unit ball is the Klein metric
    def sigma(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - np.sum(x ** 2, axis=-1)) ** (-(n + 1) / 2.0)

    return sigma


def _flat_randers_sigma(data: RandersData, n):
    def sigma(x):
        # float_power rounds like the scalar ** (numpy's power loop may not)
        s = np.float_power(1.0 - np.float_power(data.norm_beta(x), 2), (n + 1) / 2.0)
        return float(s) if np.ndim(s) == 0 else s

    return sigma


def _berwald_product_sigma(c):
    def sigma(x):
        x = np.asarray(x, dtype=float)
        rho2 = x[..., 0] ** 2 + x[..., 1] ** 2
        conf = 2.0 / (1.0 - rho2)
        return conf ** 2 * (1.0 - c ** 2) ** 2

    return sigma


def _domain_lebesgue_volume(domain: ConvexDomain):
    """Lebesgue volume of the convex body by radial quadrature."""
    from ._grids import sphere_surface_nodes

    dirs, w = sphere_surface_nodes(domain.n)
    r = domain.ray_exit(np.zeros_like(dirs), dirs)
    return float(np.sum(w * r ** domain.n) / domain.n)


def _funk_sigma(domain: ConvexDomain):
    # the unit body {F_f(x, .) < 1} is the translate Omega - x, so the
    # Busemann-Hausdorff density of any Funk metric is constant
    if domain.kind == "unit_ball":
        return _const_sigma(1.0)
    vol = _domain_lebesgue_volume(domain)
    return _const_sigma(unit_ball_volume(domain.n) / vol)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def chart_points(metric: MetricSpec, count, shrink=0.9):
    """Deterministic Halton points inside the metric's chart: the first
    `count` points of the scaled Halton stream that the chart contains,
    tested in one call."""
    lo = np.asarray(metric.chart.sample_box[0], dtype=float)
    hi = np.asarray(metric.chart.sample_box[1], dtype=float)
    stream = shrink * (lo + halton(metric.n, 8 * count + 64) * (hi - lo))
    pts = stream[metric.chart.contains(stream)][:count]
    if len(pts) < count:
        raise ConfigurationError("could not draw enough chart points for validation")
    return pts


def validate_metric(metric: MetricSpec, n_samples=100,
                    tol_homog=1e-10, tol_rev=1e-10):
    """Positivity, homogeneity (F2a), definiteness (F2b), reversibility claims.

    All samples go through one batched evaluation and one stacked jet per
    claim, checked in that order.  Raises MetricValidityError naming the
    first sample that breaks the first failing claim.
    """
    pts = chart_points(metric, n_samples)
    dirs = halton_directions(metric.n, n_samples)

    def require(bad, message, extra=()):
        if np.any(bad):
            k = int(np.argmax(bad))
            raise MetricValidityError(message, sample=(pts[k], dirs[k], *extra))

    F = metric.F_batch(pts, dirs)
    require(~np.isfinite(F) | (F <= F_FLOOR), "F not positive at sample")
    for lam in (0.5, 2.0):
        require(np.abs(metric.F_batch(pts, lam * dirs) - lam * F) > tol_homog * np.maximum(1.0, F),
                "homogeneity F(x, lam y) = lam F(x, y) violated", (lam,))
    fj = metric.jet(pts, dirs, 0, 2)
    g = 0.5 * jets.derivative_tensor(fj * fj, 0, 2)
    require(np.min(np.linalg.eigvalsh(g), axis=-1) <= 0,
            "fundamental tensor not positive definite")
    if metric.reversible:
        require(np.abs(F - metric.F_batch(pts, -dirs)) > tol_rev * F,
                "metric flagged reversible is not")
    return True


def _build(name, n, evaluator, chart, reversible, validate=True, **kw):
    m = MetricSpec(name=name, n=n, evaluator=evaluator, chart=chart,
                   reversible=reversible, **kw)
    if validate:
        validate_metric(m)
    return m


def make_euclidean(n=2, validate=True):
    return _build("euclidean", n, _euclidean_eval, _full_chart(n), True,
                  validate=validate, is_minkowski=True,
                  sigma_bh=_const_sigma(1.0), params={"n": n})


def make_sphere(n=2, validate=True):
    """Round sphere of curvature +1 in a conformally flat chart.

    The stereographic chart sends the antipode of the origin to infinity, so
    it stops at Euclidean radius 14, geodesic distance 2 atan(14) ~ 3.00 from
    the origin: a geodesic leaves it by a chart-exit event, not by a stalled
    solver, and balls reaching past that distance are lower bounds.  Samples
    stay in the box of half-width 1.5.
    """
    chart = replace(_ball_chart(n, radius=14.0), sample_box=_full_chart(n).sample_box)
    return _build("riemannian_sphere", n, _conformal_eval(+1.0), chart, True,
                  validate=validate, sigma_bh=_conformal_sigma(+1.0, n), params={"n": n})


def make_hyperbolic(n=2, validate=True):
    """Hyperbolic space of curvature -1 in the conformal ball chart."""
    return _build("riemannian_hyperbolic", n, _conformal_eval(-1.0), _ball_chart(n), True,
                  validate=validate, sigma_bh=_conformal_sigma(-1.0, n), params={"n": n})


def make_quartic(n=2, eps=0.1, validate=True):
    if eps < 0:
        raise ConfigurationError("quartic perturbation must be nonnegative")
    return _build("quartic_norm", n, _quartic_eval(eps), _full_chart(n), True,
                  validate=validate, is_minkowski=True,
                  params={"n": n, "eps": eps})


def make_randers(n=2, variant="curl", c=0.3, validate=True,
                 data: RandersData | None = None):
    """Randers metrics F = alpha + beta on a flat alpha.

    variant "const": constant beta (locally Minkowski, Berwald);
    variant "closed": beta = c d(sin x1), closed but not parallel, so the
    geodesics agree with alpha's straight lines while B != 0;
    variant "curl": beta = c x2 dx1, with dbeta != 0.
    Custom fields go through `data`.
    """
    if data is None:
        if not 0 <= c < 1:
            raise ConfigurationError("randers parameter must satisfy 0 <= c < 1")
        identity = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
        alpha = lambda x: identity
        if variant == "const":
            beta = lambda x: [c] + [0.0] * (n - 1)
        elif variant == "closed":
            beta = lambda x: [c * jets.cos(x[0])] + [0.0] * (n - 1)
        elif variant == "curl":
            beta = lambda x: [c * x[1]] + [0.0] * (n - 1)
        else:
            raise ConfigurationError(f"unknown randers variant {variant!r}")
        data = RandersData(alpha, beta)
    # the curl variant needs |x2| < 1/c to keep the beta norm below 1
    chart = _ball_chart(n) if variant == "curl" and c > 0 else _full_chart(n)
    pts = halton(n, 64) * 1.8 - 0.9
    pts = pts[chart.contains(pts)]
    too_long = pts[data.norm_beta(pts) >= 1.0]
    if len(too_long):
        raise MetricValidityError("alpha-length of beta must stay below 1", sample=too_long[0])
    sigma = _flat_randers_sigma(data, n) if variant in ("const", "closed", "curl") else None
    return _build("randers", n, _randers_eval(data), chart,
                  reversible=(variant == "const" and c == 0), validate=validate,
                  params={"n": n, "variant": variant, "c": c}, sigma_bh=sigma)


def make_berwald_product(c=0.25, validate=True):
    """Hyperbolic plane x line with a parallel 1-form: Berwald, non-Riemannian."""
    if not 0 <= c < 1:
        raise ConfigurationError("berwald product parameter must satisfy 0 <= c < 1")
    n = 3

    def margin(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(1.0 - x[..., 0] ** 2 - x[..., 1] ** 2, 4.0 - np.abs(x[..., 2]))

    chart = ChartDomain(margin, ((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))
    return _build("berwald_product", n, _berwald_product_eval(c), chart,
                  reversible=(c == 0), validate=validate,
                  params={"n": n, "c": c}, sigma_bh=_berwald_product_sigma(c))


def _domain_from_param(n, domain):
    if isinstance(domain, ConvexDomain):
        return domain
    if domain in (None, "unit_ball"):
        return unit_ball_domain(n)
    if domain == "quartic":
        return quartic_domain(n)
    if isinstance(domain, str) and domain.startswith("quartic:"):
        try:
            eps = float(domain[len("quartic:"):])
        except ValueError:
            eps = np.nan
        if np.isfinite(eps) and eps >= 0:
            return quartic_domain(n, eps)
    raise ConfigurationError(f"domain must be unit_ball, quartic or quartic:EPS with "
                             f"EPS a finite number >= 0, got {domain!r}")


def make_funk(n=2, domain=None, validate=True):
    dom = _domain_from_param(n, domain)
    dom.boundary_checks()
    if dom.kind == "unit_ball":
        ev = funk_unit_ball
    else:
        ev = lambda x, y: funk_general(dom, x, y)
    return _build("funk", n, ev, _convex_chart(dom), reversible=False,
                  validate=validate, positively_complete_only=True,
                  convex_domain=dom, sigma_bh=_funk_sigma(dom),
                  params={"n": n, "domain": dom.kind, "eps": dom.eps})


def make_hilbert(n=2, domain=None, validate=True):
    dom = _domain_from_param(n, domain)
    dom.boundary_checks()
    ev = lambda x, y: hilbert_metric(dom, x, y)
    sigma = _klein_sigma(n) if dom.kind == "unit_ball" else None
    return _build("hilbert", n, ev, _convex_chart(dom), reversible=True,
                  validate=validate, convex_domain=dom, sigma_bh=sigma,
                  params={"n": n, "domain": dom.kind, "eps": dom.eps})


def zoo_constructors():
    """Catalog of metric factories addressable by string id."""
    return {
        "euclidean": make_euclidean,
        "riemannian_sphere": make_sphere,
        "riemannian_hyperbolic": make_hyperbolic,
        "randers": make_randers,
        "berwald_product": make_berwald_product,
        "quartic_norm": make_quartic,
        "funk": make_funk,
        "hilbert": make_hilbert,
    }


def make_metric(name, **params) -> MetricSpec:
    zoo = zoo_constructors()
    if name not in zoo:
        raise ConfigurationError(
            f"unknown metric id {name!r}; available: {', '.join(sorted(zoo))}"
        )
    return zoo[name](**params)
