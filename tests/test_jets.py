"""Jet algebra: exact polynomials, elementary ops, FD oracle cross-checks."""

import itertools
import math

import numpy as np
import pytest

from finslerlab import jets
from finslerlab.errors import ConfigurationError, JetDomainError
from finslerlab.jets import FdScheme, Jet, JetSpec, fd_oracle, lift


def _rng():
    return np.random.default_rng(20240817)


def _random_smooth_jet(spec, rng, positive=False):
    """A generic smooth composition seeded with random coefficients."""
    xs, ys = lift(rng.uniform(0.3, 1.2, spec.n), rng.uniform(0.4, 1.3, spec.n), spec)
    c = rng.uniform(-0.5, 0.5, 6)
    j = 1.5 + c[0] * xs[0] + c[1] * ys[0] * ys[1] + c[2] * xs[1] * ys[0]
    j = j + c[3] * jets.sin(ys[0] * c[4]) + jets.exp(xs[0] * c[5] * 0.3)
    if positive:
        j = j * j + 0.7
    return j


class TestLift:
    def test_polynomial_exact(self):
        spec = JetSpec(2, 0, 2)
        xs, ys = lift([0.0, 0.0], [1.0, 0.0], spec)
        f = ys[0] * ys[0] + ys[1] * ys[1]
        assert f.value == pytest.approx(1.0, abs=0)
        assert f.partial((0, 0), (0, 2)) == pytest.approx(2.0, abs=0)

    def test_constant_has_no_higher_orders(self):
        spec = JetSpec(2, 2, 3)
        xs, ys = lift([0.1, 0.2], [0.5, 0.7], spec)
        f = 0.0 * xs[0] + 7.0
        assert f.value == 7.0
        assert np.all(f.coeffs[1:] == 0.0)

    def test_norm_derivative(self):
        spec = JetSpec(2, 0, 2)
        _, ys = lift([0.0, 0.0], [3.0, 4.0], spec)
        f = jets.sqrt(ys[0] * ys[0] + ys[1] * ys[1])
        assert f.value == pytest.approx(5.0, rel=1e-14)
        assert f.partial((0, 0), (1, 0)) == pytest.approx(0.6, rel=1e-14)

    def test_bad_point_shape(self):
        with pytest.raises(ConfigurationError):
            lift([0.0], [1.0], JetSpec(2, 1, 1))


class TestSpecValidation:
    def test_order_caps(self):
        with pytest.raises(ConfigurationError):
            JetSpec(2, 3, 2)
        with pytest.raises(ConfigurationError):
            JetSpec(2, 1, 6)
        with pytest.raises(ConfigurationError):
            JetSpec(1, 1, 1)

    def test_partial_beyond_validity(self):
        spec = JetSpec(2, 1, 3)
        _, ys = lift([0.0, 0.0], [1.0, 2.0], spec)
        g = ys[0].dy(0)  # fiber validity drops to 2
        with pytest.raises(ConfigurationError):
            g.partial((0, 0), (0, 3))


def _dense_jet(spec, rng):
    """A smooth jet in which every base and fiber variable appears."""
    xs, ys = lift(rng.uniform(-0.4, 0.4, spec.n), rng.uniform(0.4, 1.3, spec.n), spec)
    a = rng.uniform(-0.5, 0.5, spec.n)
    b = rng.uniform(0.2, 0.8, spec.n)
    lin = sum(float(ai) * xi for ai, xi in zip(a, xs)) + 1.2
    quad = sum(float(bi) * yi * yi for bi, yi in zip(b, ys))
    cross = sum(xi * yi for xi, yi in zip(xs, ys))
    return jets.sqrt(quad) * jets.exp(lin * 0.3) + cross * lin


class TestDerivativeTensor:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_partial_for_every_multi_index(self, n):
        spec = JetSpec(n, 2, 5)
        f = _dense_jet(spec, _rng())
        for ox in range(3):
            for oy in range(6):
                T = jets.derivative_tensor(f, ox, oy)
                assert T.shape == (n,) * (ox + oy)
                for idx in np.ndindex(T.shape):
                    a = [idx[:ox].count(v) for v in range(n)]
                    b = [idx[ox:].count(v) for v in range(n)]
                    assert T[idx] == f.partial(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_under_index_permutation(self, n):
        f = _dense_jet(JetSpec(n, 2, 5), _rng())
        for ox, oy in ((2, 0), (0, 3), (1, 2), (2, 3), (0, 5)):
            T = jets.derivative_tensor(f, ox, oy)
            for px in itertools.permutations(range(ox)):
                for py in itertools.permutations(range(ox, ox + oy)):
                    assert np.array_equal(T, T.transpose(px + py))

    def test_stack_of_jets(self):
        spec = JetSpec(2, 1, 3)
        rng = _rng()
        fs = [_dense_jet(spec, rng) for _ in range(3)]
        T = jets.derivative_tensor(fs, 1, 2)
        assert T.shape == (3, 2, 2, 2)
        for k, f in enumerate(fs):
            assert np.array_equal(T[k], jets.derivative_tensor(f, 1, 2))
        assert np.array_equal(jets.derivative_tensor(fs, 0, 0), [f.value for f in fs])

    def test_order_beyond_validity(self):
        spec = JetSpec(2, 1, 3)
        xs, ys = lift([0.0, 0.0], [1.0, 2.0], spec)
        g = ys[0].dy(0)  # fiber validity drops to 2
        jets.derivative_tensor(g, 1, 2)
        with pytest.raises(ConfigurationError):
            jets.derivative_tensor(g, 0, 3)
        with pytest.raises(ConfigurationError):
            jets.derivative_tensor([ys[1], g], 0, 3)
        with pytest.raises(ConfigurationError):
            jets.derivative_tensor(xs[0].dx(0), 1, 0)

    def test_mixed_specs_rejected(self):
        _, ys2 = lift([0.0, 0.0], [1.0, 2.0], JetSpec(2, 1, 3))
        _, ys3 = lift([0.0, 0.0], [1.0, 2.0], JetSpec(2, 1, 2))
        with pytest.raises(ConfigurationError):
            jets.derivative_tensor([ys2[0], ys3[0]], 0, 1)


class TestElementaryOps:
    def test_sqrt_first_order(self):
        spec = JetSpec(2, 0, 2)
        _, ys = lift([0.0, 0.0], [4.0, 1.0], spec)
        r = jets.sqrt(ys[0])
        assert r.value == pytest.approx(2.0)
        assert r.partial((0, 0), (1, 0)) == pytest.approx(0.25)

    def test_log_exp_roundtrip(self):
        spec = JetSpec(2, 1, 4)
        rng = _rng()
        for _ in range(10):
            j = _random_smooth_jet(spec, rng)
            back = jets.log(jets.exp(j))
            np.testing.assert_allclose(back.coeffs, j.coeffs, rtol=1e-12, atol=1e-12)

    def test_product_rule(self):
        spec = JetSpec(2, 1, 4)
        rng = _rng()
        for _ in range(10):
            j = _random_smooth_jet(spec, rng)
            sq = j * j
            for i in range(2):
                lhs = sq.dy(i)
                rhs = 2.0 * j * j.dy(i)
                np.testing.assert_allclose(
                    lhs.coeffs[lhs.ctx.mask(lhs.vx, lhs.vy)],
                    rhs.coeffs[rhs.ctx.mask(rhs.vx, rhs.vy)],
                    rtol=1e-12, atol=1e-12,
                )

    def test_trig_identity(self):
        spec = JetSpec(2, 1, 3)
        j = _random_smooth_jet(spec, _rng())
        one = jets.sin(j) * jets.sin(j) + jets.cos(j) * jets.cos(j)
        assert one.value == pytest.approx(1.0, rel=1e-13)
        assert np.max(np.abs(one.coeffs[1:])) < 1e-12

    def test_hyperbolic_identity(self):
        spec = JetSpec(2, 1, 3)
        j = _random_smooth_jet(spec, _rng())
        one = jets.cosh(j) * jets.cosh(j) - jets.sinh(j) * jets.sinh(j)
        assert one.value == pytest.approx(1.0, rel=1e-13)
        assert np.max(np.abs(one.coeffs[1:])) < 1e-12

    def test_division(self):
        spec = JetSpec(2, 1, 3)
        rng = _rng()
        a = _random_smooth_jet(spec, rng)
        b = _random_smooth_jet(spec, rng, positive=True)
        q = a / b
        np.testing.assert_allclose((q * b).coeffs, a.coeffs, rtol=1e-11, atol=1e-12)

    def test_scalar_mixing(self):
        spec = JetSpec(2, 1, 2)
        _, ys = lift([0.0, 0.0], [2.0, 3.0], spec)
        j = 1.0 + 2.0 * ys[0] - ys[1] / 3.0
        assert j.value == pytest.approx(4.0)
        assert (5.0 - j).value == pytest.approx(1.0)
        assert (6.0 / (j + 2.0)).value == pytest.approx(1.0)

    def test_pow_int_matches_mul(self):
        spec = JetSpec(2, 1, 3)
        j = _random_smooth_jet(spec, _rng())
        np.testing.assert_allclose((j ** 3).coeffs, (j * j * j).coeffs, rtol=1e-12)

    def test_pow_real(self):
        spec = JetSpec(2, 1, 3)
        j = _random_smooth_jet(spec, _rng(), positive=True)
        q = jets.power(j, 0.25)
        np.testing.assert_allclose((q ** 4).coeffs, j.coeffs, rtol=1e-11, atol=1e-12)

    def test_smooth_max(self):
        spec = JetSpec(2, 1, 2)
        _, ys = lift([0.0, 0.0], [2.0, 0.5], spec)
        m = jets.smooth_max(ys[0], ys[1], eps=1e-9)
        assert m.value == pytest.approx(2.0, abs=1e-8)
        # plain numbers too
        assert jets.smooth_max(1.0, 3.0, eps=1e-9) == pytest.approx(3.0, abs=1e-8)

    def test_domain_errors(self):
        spec = JetSpec(2, 0, 2)
        _, ys = lift([0.0, 0.0], [-1.0, 1.0], spec)
        with pytest.raises(JetDomainError):
            jets.sqrt(ys[0])
        with pytest.raises(JetDomainError):
            jets.log(ys[0])
        zero = ys[0] + 1.0
        with pytest.raises(JetDomainError):
            ys[1] / zero


class TestPartial:
    def test_cubic(self):
        spec = JetSpec(2, 0, 3)
        _, ys = lift([0.0, 0.0], [1.0, 1.0], spec)
        f = ys[0] * ys[0] * ys[0]
        assert f.partial((0, 0), (3, 0)) == pytest.approx(6.0, abs=0)

    def test_mixed(self):
        spec = JetSpec(2, 1, 1)
        xs, ys = lift([0.3, 0.0], [0.7, 0.0], spec)
        f = xs[0] * ys[0]
        assert f.partial((1, 0), (1, 0)) == pytest.approx(1.0, abs=0)

    def test_schwarz_symmetry_structural(self):
        # canonical multi-index storage: one slot per unordered derivative
        spec = JetSpec(3, 2, 3)
        ctx = jets._context(spec)
        assert ctx.slot((1, 1, 0), (0, 1, 2)) == ctx.slot((1, 1, 0), (0, 1, 2))
        assert len({ctx.slot(a, b) for a in ctx.xidx for b in ctx.yidx}) == ctx.size


class TestFdOracle:
    def test_sin_first_derivative(self):
        f = lambda x, y: math.sin(y[0])
        est = fd_oracle(f, [0.0, 0.0], [0.0, 1.0], (0, 0), (1, 0))
        assert est.ok
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_quartic_fourth_derivative(self):
        f = lambda x, y: y[0] ** 4
        est = fd_oracle(f, [0.0, 0.0], [0.0, 0.0], (0, 0), (4, 0))
        assert est.ok
        assert est.value == pytest.approx(24.0, abs=1e-6)

    def test_zeroth_order_is_eval(self):
        f = lambda x, y: x[0] + 2 * y[1]
        est = fd_oracle(f, [0.5, 0.0], [0.0, 0.25], (0, 0), (0, 0))
        assert est.value == pytest.approx(1.0)

    def test_nonfinite_flags(self):
        f = lambda x, y: math.sqrt(y[0]) if y[0] >= 0 else float("nan")
        est = fd_oracle(f, [0.0, 0.0], [0.0005, 1.0], (0, 0), (1, 0))
        assert not est.ok
        assert not math.isfinite(est.value)

    def test_order_cap(self):
        f = lambda x, y: y[0] ** 6
        with pytest.raises(ConfigurationError):
            fd_oracle(f, [0.0, 0.0], [0.0, 0.0], (0, 0), (5, 0))

    def test_scheme_validation(self):
        with pytest.raises(ConfigurationError):
            FdScheme(step=-1.0)
        with pytest.raises(ConfigurationError):
            FdScheme(richardson_levels=5)

    def test_extrapolation_converges_monotonically(self):
        f = lambda x, y: math.sin(y[0]) * math.exp(0.3 * x[0])
        truth = math.cos(0.7) * math.exp(0.3 * 0.4)
        errors = []
        for levels in (1, 2, 3):
            est = fd_oracle(f, [0.4, 0.0], [0.7, 0.0], (0, 0), (1, 0),
                            FdScheme(step=2e-2, richardson_levels=levels))
            errors.append(abs(est.value - truth))
        assert errors[0] > errors[1] > errors[2]

    def test_jet_agrees_with_fd_on_smooth_compositions(self):
        # 100 random smooth compositions, one mixed order each
        spec = JetSpec(2, 2, 3)
        rng = _rng()

        def make_fn(c):
            def f(x, y):
                return (
                    1.5
                    + c[0] * x[0]
                    + c[1] * y[0] * y[1]
                    + c[2] * x[1] * y[0]
                    + c[3] * math.sin(c[4] * y[0])
                    + math.exp(0.3 * c[5] * x[0])
                )
            return f

        orders = [((1, 0), (1, 0)), ((0, 0), (2, 1)), ((0, 1), (1, 1)),
                  ((2, 0), (0, 1)), ((0, 0), (1, 2)), ((1, 1), (0, 1))]
        for trial in range(100):
            c = rng.uniform(-0.5, 0.5, 6)
            f = make_fn(c)
            x0 = rng.uniform(0.3, 1.2, 2)
            y0 = rng.uniform(0.4, 1.3, 2)
            xs, ys = lift(x0, y0, spec)
            jf = (
                1.5
                + c[0] * xs[0]
                + c[1] * ys[0] * ys[1]
                + c[2] * xs[1] * ys[0]
                + c[3] * jets.sin(c[4] * ys[0])
                + jets.exp(0.3 * c[5] * xs[0])
            )
            a, b = orders[trial % len(orders)]
            est = fd_oracle(f, x0, y0, a, b)
            assert est.ok
            jv = jf.partial(a, b)
            assert jv == pytest.approx(est.value, rel=1e-6, abs=1e-8)


class TestJetsAgainstZooMetrics:
    def test_partials_match_fd_across_zoo(self, zoo):
        # every jet partial of total order <= 3 vs the FD oracle, at 50
        # deterministic samples per metric
        from conftest import tangent_samples

        orders = [((0, 0), (1, 0)), ((0, 0), (0, 2)), ((1, 0), (0, 0)),
                  ((0, 1), (1, 0)), ((0, 0), (1, 2)), ((1, 0), (0, 2)),
                  ((0, 0), (3, 0))]
        for name, m in zoo.items():
            if m.n != 2:
                continue
            f = lambda x, y: m.F(x, y)
            for k, (x, y) in enumerate(tangent_samples(m, 50, seed=23)):
                fj = m.jet(x, y, 2, 3)
                a, b = orders[k % len(orders)]
                est = fd_oracle(f, x, y, a, b)
                assert est.ok
                want = est.value
                assert fj.partial(a, b) == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_homogeneity_propagation_on_metrics(self, zoo):
        # order-(0,b) coefficients scale by lam**(1-|b|) when y is scaled
        for name in ("funk", "quartic_norm", "randers_curl", "hilbert_quartic"):
            m = zoo[name]
            from conftest import tangent_samples

            x, y = tangent_samples(m, 1, seed=24)[0]
            f1 = m.jet(x, y, 0, 3)
            for lam in (0.5, 2.0, 3.0):
                f2 = m.jet(x, lam * y, 0, 3)
                for b in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]:
                    want = lam ** (1 - sum(b)) * f1.partial((0, 0), b)
                    assert f2.partial((0, 0), b) == pytest.approx(
                        want, rel=1e-10, abs=1e-12)


class TestHomogeneityPropagation:
    def test_one_homogeneous_scaling(self):
        # F(x, y) = |y| scaled in y: order-(0,b) coefficients scale by lam**(1-|b|)
        spec = JetSpec(2, 0, 3)
        y0 = np.array([0.8, 0.6])
        _, ys = lift([0.0, 0.0], y0, spec)
        f1 = jets.sqrt(ys[0] * ys[0] + ys[1] * ys[1])
        for lam in (0.5, 2.0, 3.0):
            _, ysl = lift([0.0, 0.0], lam * y0, spec)
            f2 = jets.sqrt(ysl[0] * ysl[0] + ysl[1] * ysl[1])
            for b in [(0, 0), (1, 0), (1, 1), (2, 0), (0, 2), (2, 1)]:
                want = lam ** (1 - sum(b)) * f1.partial((0, 0), b)
                assert f2.partial((0, 0), b) == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestImmutability:
    def test_jets_reject_mutation(self):
        spec = JetSpec(2, 1, 1)
        xs, _ = lift([0.0, 0.0], [1.0, 0.0], spec)
        with pytest.raises(AttributeError):
            xs[0].vx = 0


class TestRingAxioms:
    def test_associativity_distributivity(self):
        spec = JetSpec(2, 2, 3)
        rng = _rng()
        for _ in range(10):
            a = _random_smooth_jet(spec, rng)
            b = _random_smooth_jet(spec, rng)
            c = _random_smooth_jet(spec, rng)
            lhs = (a * b) * c
            rhs = a * (b * c)
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-13)
            lhs = a * (b + c)
            rhs = a * b + a * c
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-13)

    def test_derivations_commute(self):
        # Schwarz symmetry at the operator level: dx then dy = dy then dx
        spec = JetSpec(2, 2, 3)
        j = _random_smooth_jet(spec, _rng())
        a = j.dx(0).dy(1)
        b = j.dy(1).dx(0)
        mask = a.ctx.mask(a.vx, a.vy)
        np.testing.assert_allclose(a.coeffs[mask], b.coeffs[mask], rtol=1e-13)


def _stack_and_singles(spec, m, rng):
    """Coordinate jets at m points, lifted as one stack and one by one."""
    X = rng.uniform(-0.4, 0.4, (m, spec.n))
    Y = rng.uniform(0.4, 1.3, (m, spec.n))
    return lift(X, Y, spec), [lift(x, y, spec) for x, y in zip(X, Y)]


def _u(xs, ys):
    """A positive smooth jet in base and fiber variables."""
    return ys[0] * ys[1] + 0.3 * xs[1] * ys[0] + 0.5


# every op, as a function of the coordinate jets
_STACK_OPS = {
    "add": lambda xs, ys: xs[0] + ys[1] + 0.5 + (2.0 + ys[0]),
    "sub": lambda xs, ys: xs[1] - ys[0] - 2.0 - (3.0 - ys[1]),
    "mul": lambda xs, ys: xs[0] * ys[1] * 1.5 * (2.0 * ys[0]),
    "div": lambda xs, ys: (xs[0] + 2.0) / _u(xs, ys) / 4.0 + 2.0 / ys[1],
    "pow_int": lambda xs, ys: _u(xs, ys) ** 3 + ys[1] ** -2,
    "pow_real": lambda xs, ys: jets.power(_u(xs, ys), 0.25) + _u(xs, ys) ** -1.5,
    "sqrt": lambda xs, ys: jets.sqrt(_u(xs, ys)),
    "log": lambda xs, ys: jets.log(_u(xs, ys)),
    "exp": lambda xs, ys: jets.exp(_u(xs, ys)),
    "sin": lambda xs, ys: jets.sin(_u(xs, ys)),
    "cos": lambda xs, ys: jets.cos(_u(xs, ys)),
    "sinh": lambda xs, ys: jets.sinh(_u(xs, ys)),
    "cosh": lambda xs, ys: jets.cosh(_u(xs, ys)),
    "dx": lambda xs, ys: jets.sqrt(_u(xs, ys)).dx(1) * xs[0],
    "dy": lambda xs, ys: jets.exp(_u(xs, ys)).dy(0).dy(1) + ys[1],
}


class TestStacks:
    """A stack of m jets acts on each member as on a single jet, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("orders", [(1, 3), (2, 5)])
    @pytest.mark.parametrize("op", sorted(_STACK_OPS))
    def test_members_match_single_jets(self, n, orders, op):
        spec = JetSpec(n, *orders)
        (xs, ys), singles = _stack_and_singles(spec, 4, _rng())
        stack = _STACK_OPS[op](xs, ys)
        assert stack.coeffs.shape == (4, stack.ctx.size)
        for k, (sx, sy) in enumerate(singles):
            one = _STACK_OPS[op](sx, sy)
            assert (stack.vx, stack.vy) == (one.vx, one.vy)
            assert np.array_equal(stack.coeffs[k], one.coeffs)
            assert stack.value[k] == one.value

    @pytest.mark.parametrize("n", [2, 3])
    def test_derivative_tensor_of_a_stack(self, n):
        spec = JetSpec(n, 2, 5)
        (xs, ys), singles = _stack_and_singles(spec, 3, _rng())
        f = _STACK_OPS["sqrt"](xs, ys)
        group = [f, f.dy(0)]
        for ox in range(3):
            for oy in range(5):
                T = jets.derivative_tensor(f, ox, oy)
                Tg = jets.derivative_tensor(group, ox, oy)
                assert T.shape == (3,) + (n,) * (ox + oy)
                assert Tg.shape == (3, 2) + (n,) * (ox + oy)
                for k, (sx, sy) in enumerate(singles):
                    one = _STACK_OPS["sqrt"](sx, sy)
                    assert np.array_equal(T[k], jets.derivative_tensor(one, ox, oy))
                    assert np.array_equal(Tg[k], jets.derivative_tensor([one, one.dy(0)], ox, oy))

    def test_lift_shares_a_single_point(self):
        spec = JetSpec(2, 1, 2)
        Y = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.1]])
        xs, ys = lift([0.1, 0.2], Y, spec)
        assert xs[0].coeffs.shape == (3, xs[0].ctx.size)
        assert np.array_equal(xs[1].value, [0.2, 0.2, 0.2])
        assert np.array_equal(ys[0].value, Y[:, 0])
        with pytest.raises(ConfigurationError):
            lift(np.zeros((2, 2)), np.ones((3, 2)), spec)

    @pytest.mark.parametrize("spec", [JetSpec(2, 2, 5), JetSpec(3, 2, 3), JetSpec(2, 2, 4),
                                      JetSpec(2, 1, 5), JetSpec(3, 2, 4), JetSpec(3, 1, 5)])
    def test_cut_tables_match_full_table_then_mask(self, spec):
        # full jets, and operands of narrow supports (support-cut tables),
        # against the full table's sums: stacks, their members and the same
        # jets built at single points
        (xs, ys), singles = _stack_and_singles(spec, 3, _rng())
        stack = _narrow_family(xs, ys)
        families = [_narrow_family(sx, sy) for sx, sy in singles]
        ctx = stack[0].ctx
        for i, j in itertools.product(range(len(stack)), repeat=2):
            a, b = stack[i], stack[j]
            vx, vy = min(a.vx, b.vx), min(a.vy, b.vy)
            got = a * b
            for k, family in enumerate(families):
                prod = a.coeffs[k][ctx.tab_a] * b.coeffs[k][ctx.tab_b]
                full = np.bincount(ctx.tab_out, weights=prod, minlength=ctx.size)
                want = np.where(ctx.mask(vx, vy), full, 0.0).tobytes()
                assert got.coeffs[k].tobytes() == want
                assert (family[i] * family[j]).coeffs.tobytes() == want

    def test_domain_error_when_any_member_is_out(self):
        spec = JetSpec(2, 1, 2)
        _, ys = lift([0.0, 0.0], [[1.0, 1.0], [-1.0, 1.0], [2.0, 1.0]], spec)
        for op in (jets.sqrt, jets.log, lambda j: jets.power(j, 0.5)):
            with pytest.raises(JetDomainError):
                op(ys[0])
        with pytest.raises(JetDomainError):
            ys[1] / (ys[0] + 1.0)  # the second member's denominator is zero
        assert np.all(np.isfinite(jets.sqrt(ys[1]).coeffs))

    def test_join_and_split_members(self):
        spec = JetSpec(2, 1, 3)
        (xs, ys), singles = _stack_and_singles(spec, 3, _rng())
        one = singles[0][1][0]
        joined = jets.join_members([ys[0], one, -ys[0]])
        assert joined.coeffs.shape == (7, joined.ctx.size)
        assert np.array_equal(joined.coeffs[3], one.coeffs)
        a, b = jets.split_members(jets.join_members([ys[0], -ys[0]]).dy(0), ys[0])
        assert np.array_equal(a.coeffs, ys[0].dy(0).coeffs)
        assert np.array_equal(b.coeffs, (-ys[0]).dy(0).coeffs)
        assert (a.vx, a.vy) == (1, 2)
        parts = jets.split_members(jets.join_members([one, one * one]), one)
        assert [p.coeffs.shape for p in parts] == [one.coeffs.shape] * 2
        assert np.array_equal(parts[1].coeffs, (one * one).coeffs)
        # mixed validity keeps the common orders; mixed specs are refused
        mixed = jets.join_members([ys[0], ys[0].dy(1)])
        assert (mixed.vx, mixed.vy) == (1, 2)
        assert np.array_equal(mixed.coeffs[:3], np.where(ys[0].ctx.mask(1, 2), ys[0].coeffs, 0.0))
        with pytest.raises(ConfigurationError):
            jets.join_members([one, lift([0.0, 0.0], [1.0, 1.0], JetSpec(2, 1, 2))[1][0]])


# one verify pass each: every catalog metric, with the Funk and Hilbert
# metrics on both domains and at both dimensions
_VERIFY_CONFIGS = {
    "funk2": dict(metric="funk", dim=2),
    "funk3": dict(metric="funk", dim=3),
    "funk_quartic": dict(metric="funk", dim=2, domain="quartic:0.1"),
    "hilbert": dict(metric="hilbert", dim=2),
    "hilbert_quartic": dict(metric="hilbert", dim=2, domain="quartic:0.1"),
    "hilbert_quartic3": dict(metric="hilbert", dim=3, domain="quartic:0.1"),
    "berwald_product": dict(metric="berwald_product"),
    "riemannian_sphere": dict(metric="riemannian_sphere", dim=2),
    "riemannian_hyperbolic": dict(metric="riemannian_hyperbolic", dim=2),
    "randers": dict(metric="randers", dim=2),
    "quartic_norm": dict(metric="quartic_norm", dim=3),
    "euclidean": dict(metric="euclidean", dim=2),
}


class TestSupports:
    """Supports are sound, and products cut by them sum fewer terms."""

    def test_support_rules(self):
        spec = JetSpec(3, 2, 4)
        (xs, ys), _ = _stack_and_singles(spec, 2, _rng())
        c = xs[0]._const_like(0.5)
        one_minus = 1.0 - jets.join_members(xs) * jets.join_members(xs)
        f = jets.exp(xs[0] * ys[1])
        assert [j.sup for j in (xs[0], ys[0], c, -c + 2.0, 3.0 * xs[1])] == [
            (1, 0), (0, 1), (0, 0), (0, 0), (1, 0)]
        assert (xs[0] * ys[1]).sup == (1, 1) and (xs[0] + ys[1]).sup == (1, 1)
        assert (ys[0] * ys[1] * ys[2]).sup == (0, 3) and one_minus.sup == (2, 0)
        assert f.sup is None and (xs[0] * f).sup is None and (f + c).sup is None
        assert jets.sqrt(ys[0] * ys[0] + 1.0).sup == (0, 4)
        assert jets.sqrt(one_minus).sup == (2, 0) and jets.exp(c).sup == (0, 0)
        # differentiating lowers the support, and a lower validity caps it
        assert (xs[0] * ys[1]).dy(1).sup == (1, 0) and one_minus.dx(0).sup == (1, 0)
        y5 = ys[0] * ys[1] * ys[2] * ys[0] * ys[1]
        assert y5.sup == (0, 4) and y5.dy(0).sup == (0, 3) and y5.dx(0).sup == (0, 4)
        assert jets.join_members([xs[0], ys[0] * ys[1]]).sup == (1, 2)
        assert jets.split_members(jets.join_members([xs[0], c]), xs[0])[1].sup == (1, 0)

    @staticmethod
    def _checked_construction(monkeypatch):
        """Check every jet made from here on: no coefficient outside its
        declared support (or its validity) is nonzero.  Returns the count of
        jets checked."""
        init, seen = Jet.__init__, [0]

        def checked(self, *args, **kw):
            init(self, *args, **kw)
            if self.sup is not None:
                assert self.sup[0] <= self.vx and self.sup[1] <= self.vy
                assert self.sup != (self.vx, self.vy)
            sx, sy = (self.vx, self.vy) if self.sup is None else self.sup
            assert not np.any(self.coeffs[..., ~self.ctx.mask(sx, sy)])
            seen[0] += 1

        monkeypatch.setattr(Jet, "__init__", checked)
        return seen

    @pytest.mark.parametrize("label", sorted(_VERIFY_CONFIGS))
    def test_supports_hold_in_a_verify_pass(self, monkeypatch, label):
        from finslerlab import cli

        seen = self._checked_construction(monkeypatch)
        report = cli.run_verify(dict(cli._DEFAULTS, **_VERIFY_CONFIGS[label]))
        assert seen[0] > 100 and not report.n_failures

    @pytest.mark.parametrize("orders", [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (1, 5)])
    def test_supports_hold_in_metric_and_spray_jets(self, zoo, monkeypatch, orders):
        from finslerlab.geodesics import spray_jets

        from conftest import tangent_samples

        seen = self._checked_construction(monkeypatch)
        for metric in zoo.values():
            X, Y = (np.array(a) for a in zip(*tangent_samples(metric, 3)))
            metric.jet(X, Y, *orders)
            metric.jet(X[0], Y[0], *orders)
            if orders[0] >= 1:
                spray_jets(metric, X, Y, *orders)
        assert seen[0] > 500

    def test_narrow_supports_cut_the_product_terms(self, monkeypatch):
        """No timing: the product terms (np.bincount weights) of one funk n=3
        (1,5) jet of 20 members, against the full product table's."""
        from finslerlab import metrics

        funk = metrics.make_funk(3, validate=False)
        rng = np.random.default_rng(3)
        X, Y = rng.uniform(-0.3, 0.3, (20, 3)), rng.uniform(-1.0, 1.0, (20, 3))
        calls, bincount = [], np.bincount

        def counted(idx, weights=None, minlength=0):
            calls.append((len(weights), minlength))
            return bincount(idx, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", counted)
        funk.jet(X, Y, 1, 5)
        monkeypatch.undo()
        ctx = jets._context(JetSpec(3, 1, 5))
        full = sum(minlength // ctx.size * len(ctx.tab_out) for _, minlength in calls)
        assert calls and sum(w for w, _ in calls) <= 0.4 * full


def _dot(u, v):
    return sum((a * b for a, b in zip(u[1:], v[1:])), u[0] * v[0])


def _narrow_family(xs, ys):
    """Jets of narrow supports (lifted coordinates, their products and sums,
    1 - |x|^2, |y|^2 and constants, some negated so that they hold -0.0),
    and a full jet with its derivatives."""
    f = _STACK_OPS["exp"](xs, ys)
    c = xs[0]._const_like(0.7)
    narrow = [xs[0], -xs[1], ys[1], xs[0] * ys[1], xs[0] + ys[0], 1.0 - _dot(xs, xs),
              _dot(ys, ys), -_dot(xs, ys), c, 2.0 - c, _dot(ys, ys).dy(0)]
    return narrow + [f, f.dy(1), f.dx(0), f.dx(0).dy(0).dy(1), f.dy(0).dy(1).dy(0)]


def _unfused_series(self, coeff_fn, opname, require=None):
    """Jet._series with every Horner step a ring product and a sum,
    out = out * uhat + cs[k], over the nilpotency of a full jet and with
    full product tables: the reference for the fused loop's bits."""
    K = self._nilpotency()
    members = self._members()
    if require is not None:
        for u in members:
            if not require(u):
                raise JetDomainError(f"{opname} of jet with constant term {u}")
    if self.coeffs.ndim == 1:
        cs = coeff_fn(members[0], K)
    else:
        cs = np.array([coeff_fn(u, K) for u in members]).T
    c = self.coeffs.copy()
    c.T[0] = 0.0
    uhat = Jet(self.ctx, c, self.vx, self.vy, masked=True)
    out = Jet(self.ctx, self._const_like(cs[K]).coeffs, self.vx, self.vy, masked=True)
    for k in range(K - 1, -1, -1):
        out = out * uhat + cs[k]
    return out


_SERIES_OPS = {
    "sqrt": jets.sqrt,
    "reciprocal": lambda j: j._reciprocal(),
    "log": jets.log,
    "exp": jets.exp,
    "sin": jets.sin,
    "cosh": jets.cosh,
}


class TestFusedSeries:
    @pytest.mark.parametrize("n, orders", [(2, (2, 3)), (2, (2, 4)), (3, (2, 4)), (3, (1, 5))])
    @pytest.mark.parametrize("op", sorted(_SERIES_OPS))
    def test_bits_match_the_unfused_horner_loop(self, n, orders, op, monkeypatch):
        (xs, ys), singles = _stack_and_singles(JetSpec(n, *orders), 3, _rng())
        args = []
        for sx, sy in [(xs, ys)] + singles:
            u = _u(sx, sy)
            args += [u, u.dy(1), (u * u).dx(1)]  # full and lowered validity
            # narrow supports: pure x, pure y (also lowered) and constants
            yy = _dot(sy, sy)
            args += [1.5 + sx[0] * sx[1] - 0.2 * sx[1], yy, yy.dy(1), (yy * yy).dy(0),
                     sx[0]._const_like(0.7), 2.0 - sx[0]._const_like(0.7)]
        fused = [_SERIES_OPS[op](a) for a in args]
        monkeypatch.setattr(Jet, "_series", _unfused_series)
        for a, got in zip(args, fused):
            want = _SERIES_OPS[op](a)
            assert (got.vx, got.vy) == (want.vx, want.vy)
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


class TestMemoisedTables:
    """Each table of a jet context is built once per key, and each spec has
    one context."""

    def test_repeated_calls_return_the_same_object(self):
        ctx = jets._context(JetSpec(3, 2, 4))
        for call in (lambda: ctx.mask(1, 3), lambda: ctx.mul_table(2, 4, None, None),
                     lambda: ctx.mul_table(1, 3, (1, 0), (0, 1)),
                     lambda: ctx.shift(0, 1, 1, 4), lambda: ctx.shift(1, 2, 2, 3),
                     lambda: ctx.gather(1, 2)):
            assert call() is call()

    def test_a_support_past_validity_shares_the_capped_table(self):
        ctx = jets._context(JetSpec(2, 2, 4))
        assert ctx.mul_table(1, 2, (2, 4), (0, 1)) is ctx.mul_table(1, 2, None, (0, 1))

    def test_one_context_per_spec(self):
        assert jets._context(JetSpec(2, 1, 3)) is jets._context(JetSpec(2, 1, 3))
        assert jets._context(JetSpec(2, 1, 3)) is not jets._context(JetSpec(2, 1, 4))
        xs, _ = lift([0.1, 0.2], [0.3, 0.4], JetSpec(2, 1, 3))
        assert xs[0].ctx is jets._context(JetSpec(2, 1, 3))


@pytest.mark.parametrize(("op", "cycle"), [
    ("exp", lambda u: [math.exp(u)]),
    ("sin", lambda u: [math.sin(u), math.cos(u), -math.sin(u), -math.cos(u)]),
    ("cos", lambda u: [math.cos(u), -math.sin(u), -math.cos(u), math.sin(u)]),
    ("sinh", lambda u: [math.sinh(u), math.cosh(u)]),
    ("cosh", lambda u: [math.cosh(u), math.sinh(u)]),
])
def test_cyclic_series_coefficients(op, cycle):
    # along a lifted coordinate, coefficient k is cycle[k mod p] / k! exactly
    spec = JetSpec(2, 0, 5)
    for u0 in (-1.3, 0.0, 0.4, 2.5):
        _, ys = lift([0.0, 0.0], [u0, 0.7], spec)
        got = getattr(jets, op)(ys[0])
        c = cycle(u0)
        for k in range(6):
            assert got.coeffs[got.ctx.slot((0, 0), (k, 0))] == c[k % len(c)] / math.factorial(k)
