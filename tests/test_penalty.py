import numpy as np
import pytest

from qutsparse import PenaltySpec, penalty_slope, penalty_value, prox, prox_vector, solve_threshold
from qutsparse.penalty import _prox_magnitudes, _threshold_pair, penalty_value_and_slope
from qutsparse.trainer import NU_SCHEDULE

# Frozen from an independent 500-iteration bisection oracle plus a 4e5-point
# grid minimization cross-check (tie residual 4e-16, system residual 9e-16).
KAPPA_1_01 = 0.371135503462373
PHI_1_01 = 0.8948847581773196


# Scalar reference for the vectorized kernel in ``qutsparse.penalty``: the
# same safeguarded Newton iteration, one entry at a time.
def _prox_root_py(z, lam, nu, kappa):
    # Stationarity theta - z + lam*(1 + nu*t)/(1 + t)**2 = 0, t = theta**(1-nu),
    # has exactly one root in [kappa, z] once z exceeds the threshold; the
    # lower end excludes the spurious local max.  Newton from z, clipped to a
    # shrinking sign bracket with bisection fallback.
    lo = kappa
    hi = z
    theta = z
    one_m = 1.0 - nu
    for _ in range(100):
        t = theta ** one_m
        d = 1.0 + t
        h = theta - z + lam * (1.0 + nu * t) / (d * d)
        if h > 0.0:
            hi = theta
        else:
            lo = theta
        if abs(h) < 1e-14 * (1.0 + z):
            break
        hp = 1.0 - lam * one_m * theta ** (-nu) * ((2.0 - nu) + nu * t) / (d * d * d)
        if hp > 0.0:
            cand = theta - h / hp
        else:
            cand = 0.5 * (lo + hi)
        if cand <= lo or cand >= hi:
            cand = 0.5 * (lo + hi)
        if abs(cand - theta) < 1e-15 * (1.0 + theta):
            theta = cand
            break
        theta = cand
    return theta


def _prox_magnitudes_py(z, lam, nu, phi, kappa):
    """Scalar loop over the entries; the reference the vector kernels are
    tested against."""
    out = np.zeros_like(z)
    for i in range(z.size):
        if z[i] > phi:
            out[i] = _prox_root_py(z[i], lam, nu, kappa)
    return out


# The penalty and its slope as two formulas of their own: the oracle that
# penalty_value_and_slope is held to bit for bit.
def _value_formula(theta, nu):
    a = np.abs(theta)
    return a / (1.0 + a ** (1.0 - nu))


def _slope_formula(theta, nu):
    t = np.abs(theta) ** (1.0 - nu)
    return np.sign(theta) * (1.0 + nu * t) / (1.0 + t) ** 2


def _bits(x):
    return np.asarray(x).dtype, np.shape(x), np.asarray(x).tobytes()


def objective(theta, y, lam, nu):
    return 0.5 * (y - theta) ** 2 + lam * penalty_value(theta, nu)


class TestPenaltyValue:
    def test_known_values(self):
        assert penalty_value(1.0, 0.5) == pytest.approx(0.5)
        assert penalty_value(4.0, 1.0) == pytest.approx(2.0)
        assert penalty_value(0.0, 0.3) == 0.0
        assert penalty_value(-1.0, 0.5) == pytest.approx(0.5)
        np.testing.assert_allclose(penalty_value(np.array([1, -2]), 0.5),
                                   [0.5, 2.0 / (1.0 + np.sqrt(2.0))], rtol=1e-15)

    def test_nu_one_is_half_abs(self):
        t = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(penalty_value(t, 1.0), 0.5 * np.abs(t))

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(42)
        for nu in (0.1, 0.4, 0.9, 1.0):
            t = np.sort(np.abs(rng.normal(0, 3, 200)))
            v = penalty_value(t, nu)
            assert np.all(v >= 0)
            assert np.all(v <= t + 1e-15)
            assert np.all(np.diff(v) >= -1e-15)

    def test_even(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 2, 100)
        for nu in (0.2, 0.7, 1.0):
            np.testing.assert_allclose(penalty_value(t, nu), penalty_value(-t, nu))

    def test_slope_bounded_zero_at_origin(self):
        rng = np.random.default_rng(3)
        t = rng.normal(0, 2, 500)
        for nu in (0.1, 0.5, 1.0):
            g = penalty_slope(t, nu)
            assert np.all(np.abs(g) <= 1.0)
            assert penalty_slope(0.0, nu) == 0.0

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        t = np.abs(rng.normal(0, 2, 50)) + 0.05
        h = 1e-7
        for nu in (0.1, 0.5, 0.9):
            fd = (penalty_value(t + h, nu) - penalty_value(t - h, nu)) / (2 * h)
            np.testing.assert_allclose(penalty_slope(t, nu), fd, rtol=1e-6)

    @pytest.mark.parametrize("nu", NU_SCHEDULE + (1.0,))
    def test_shared_power_matches_value_and_slope_bitwise(self, nu):
        rng = np.random.default_rng(12)
        w1 = rng.normal(0, 1, (8, 30))
        w1[:, ::3] = 0.0
        w1[0, :5] = [-0.0, -1e-300, 1e-300, -3.5, 7.0]
        value, slope = penalty_value_and_slope(w1, nu)
        assert _bits(value) == _bits(_value_formula(w1, nu))
        assert _bits(slope) == _bits(_slope_formula(w1, nu))
        assert _bits(penalty_value(w1, nu)) == _bits(value)
        assert _bits(penalty_slope(w1, nu)) == _bits(slope)
        assert np.all(slope[w1 == 0.0] == 0.0) and np.any(slope < 0.0)

    @pytest.mark.parametrize("half", [penalty_value, penalty_slope])
    def test_halves_keep_the_input_shape(self, half):
        for x in (1.0, -2.5, np.array(-2.5), np.float64(0.0)):
            got = half(x, 0.1)
            assert type(got) is np.float64
            # a scalar gets the bits of the same entry in an array
            assert got == half(np.array([x]), 0.1)[0]
        w = np.random.default_rng(13).normal(0, 1, (3, 4))
        assert half(w, 0.4).shape == (3, 4) and half(w[None], 0.4).shape == (1, 3, 4)
        assert half(w.T, 0.4).tobytes() == np.ascontiguousarray(half(w, 0.4).T).tobytes()
        assert half(np.zeros((0, 3)), 0.4).shape == (0, 3)
        # ints and lists come out as floats
        for x in (np.array([1, -2]), [1, -2], [1.0, -2.0]):
            got = half(x, 0.5)
            assert got.dtype == np.float64
            assert _bits(got) == _bits(half(np.array([1.0, -2.0]), 0.5))
        assert half(np.ones(2, np.float32), 0.5).dtype == np.float32

    def test_validation(self):
        with pytest.raises(ValueError):
            penalty_value_and_slope(1.0, 1.5)
        with pytest.raises(ValueError):
            penalty_value(1.0, 0.0)
        with pytest.raises(ValueError):
            penalty_value(1.0, 1.5)


class TestThresholdSystem:
    def test_frozen_constants(self):
        spec = solve_threshold(1.0, 0.1)
        assert spec.jump == pytest.approx(KAPPA_1_01, abs=1e-12)
        assert spec.threshold == pytest.approx(PHI_1_01, abs=1e-12)

    def test_system_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = float(rng.uniform(0.05, 8.0))
            nu = float(rng.uniform(0.05, 0.98))
            spec = solve_threshold(lam, nu)
            k, p = spec.jump, spec.threshold
            r1 = k ** (2.0 - nu) + 2.0 * k + k ** nu + 2.0 * lam * (nu - 1.0)
            r2 = p - k / 2.0 - lam / (1.0 + k ** (1.0 - nu))
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    def test_jump_bracket(self):
        for lam, nu in [(0.5, 0.1), (1.0, 0.5), (3.0, 0.9), (10.0, 0.2)]:
            spec = solve_threshold(lam, nu)
            assert 0.0 < spec.jump <= lam * (1.0 - nu) / 2.0 + 1e-12

    def test_nu_one_soft_pair(self):
        spec = solve_threshold(3.0, 1.0)
        assert spec.threshold == 1.5
        assert spec.jump == 0.0

    def test_zero_lam(self):
        spec = solve_threshold(0.0, 0.5)
        assert spec.threshold == 0.0
        assert spec.jump == 0.0

    def test_tie_at_threshold(self):
        # at y == threshold the objective values at 0 and at the jump agree
        for lam, nu in [(1.0, 0.1), (2.5, 0.5), (0.7, 0.9)]:
            spec = solve_threshold(lam, nu)
            f0 = objective(0.0, spec.threshold, lam, nu)
            fk = objective(spec.jump, spec.threshold, lam, nu)
            assert abs(f0 - fk) < 1e-12

    def test_threshold_monotone_in_lam(self):
        for nu in (0.1, 0.5, 0.9):
            phis = [solve_threshold(lam, nu).threshold for lam in (0.2, 0.5, 1.0, 2.0, 5.0)]
            assert np.all(np.diff(phis) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_threshold(-1.0, 0.5)
        with pytest.raises(ValueError):
            solve_threshold(1.0, 0.0)


class TestProx:
    def test_zero_region_closed_at_threshold(self):
        spec = solve_threshold(1.0, 0.1)
        assert prox(0.0, spec) == 0.0
        assert prox(0.5 * spec.threshold, spec) == 0.0
        assert prox(spec.threshold, spec) == 0.0
        assert prox(-spec.threshold, spec) == 0.0

    def test_jump_right_limit(self):
        for lam, nu in [(1.0, 0.1), (2.5, 0.5), (0.7, 0.9)]:
            spec = solve_threshold(lam, nu)
            y = spec.threshold * (1.0 + 1e-9)
            assert abs(prox(y, spec) - spec.jump) < 1e-6

    def test_odd(self):
        rng = np.random.default_rng(9)
        spec = solve_threshold(1.3, 0.3)
        for y in rng.normal(0, 3, 50):
            assert prox(-y, spec) == -prox(y, spec)

    def test_monotone_in_y(self):
        spec = solve_threshold(2.0, 0.2)
        ys = np.linspace(0, 10, 400)
        vals = [prox(y, spec) for y in ys]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_grid_oracle(self):
        # exact prox never loses to a dense grid search of the objective
        rng = np.random.default_rng(1234)
        for _ in range(40):
            nu = float(rng.choice([0.1, 0.3, 0.5, 0.9, 1.0]))
            lam = float(rng.uniform(0.1, 4.0))
            y = float(rng.uniform(-8.0, 8.0))
            spec = solve_threshold(lam, nu)
            p = prox(y, spec)
            span = max(abs(y), 1.0)
            grid = np.linspace(-2 * span, 2 * span, 100001)
            best = float(np.min(objective(grid, y, lam, nu)))
            assert objective(p, y, lam, nu) <= best + 1e-8

    def test_nu_one_is_soft_threshold(self):
        # the general kernel's first Newton step is the soft threshold, bit
        # for bit, whenever lam/2 exceeds its 1e-14*(1 + |y|) tolerance
        spec = solve_threshold(2.0, 1.0)
        ys = np.linspace(-5, 5, 101)
        expect = np.sign(ys) * np.maximum(np.abs(ys) - 1.0, 0.0)
        np.testing.assert_array_equal(prox_vector(ys, spec), expect)
        expect = np.sign(ys) * np.maximum(np.abs(ys) - 0.3, 0.0)
        np.testing.assert_array_equal(prox_vector(ys, spec, step=0.3), expect)

    def test_near_unbiased_for_large_y(self):
        spec = solve_threshold(1.0, 0.1)
        assert abs(prox(100.0, spec) - 100.0) < 0.01
        soft = solve_threshold(1.0, 1.0)
        assert abs(prox(100.0, soft) - 100.0) == pytest.approx(0.5)

    def test_zero_lam_identity(self):
        # values equal the input's; only -0.0 may come back as +0.0
        rng = np.random.default_rng(6)
        v = rng.normal(0, 3, 200) * 10.0 ** rng.uniform(-300, 300, 200)
        v[:6] = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1.7]
        for nu in (0.1, 0.4, 0.99, 1.0):
            spec = solve_threshold(0.0, nu)
            np.testing.assert_array_equal(prox_vector(v.reshape(20, 10), spec).ravel(), v)
            assert prox(1.7, spec) == 1.7


class TestProxVector:
    def test_matches_scalar(self):
        rng = np.random.default_rng(77)
        spec = solve_threshold(1.5, 0.3)
        v = rng.normal(0, 2, 64)
        v[::7] = 0.0
        out = prox_vector(v, spec)
        mags = _prox_magnitudes_py(np.abs(v), spec.lam, spec.nu, spec.threshold, spec.jump)
        expect = np.sign(v) * mags
        np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-14)
        assert np.array_equal(out == 0.0, expect == 0.0)

    def test_preserves_shape(self):
        rng = np.random.default_rng(8)
        spec = solve_threshold(1.0, 0.2)
        v = rng.normal(0, 2, (5, 7))
        out = prox_vector(v, spec)
        assert out.shape == (5, 7)

    def test_step_scales_regularization(self):
        rng = np.random.default_rng(21)
        v = rng.normal(0, 2, 40)
        base = solve_threshold(2.0, 0.3)
        scaled = solve_threshold(0.5, 0.3)
        np.testing.assert_allclose(
            prox_vector(v, base, step=0.25), prox_vector(v, scaled, step=1.0)
        )

    def test_zero_set_grows_with_lam(self):
        rng = np.random.default_rng(13)
        v = rng.normal(0, 1.5, 300)
        small = prox_vector(v, solve_threshold(0.5, 0.1))
        large = prox_vector(v, solve_threshold(2.0, 0.1))
        assert np.all(large[small == 0.0] == 0.0)

    def test_step_validation(self):
        spec = solve_threshold(1.0, 0.5)
        with pytest.raises(ValueError):
            prox_vector(np.ones(3), spec, step=0.0)


class TestProxOracle:
    """The vector prox kernel against the scalar root-find
    ``_prox_root_py``, applied entry by entry."""

    @staticmethod
    def reference(z, lam, nu):
        phi, kappa = _threshold_pair(lam, nu)
        return _prox_magnitudes_py(z, lam, nu, phi, kappa)

    @staticmethod
    def check(got, expect):
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got == 0.0, expect == 0.0)

    @staticmethod
    def magnitudes(rng, phi):
        # Exact ties, the next double above the threshold, values just
        # above it, the bulk and large magnitudes in one array.  Entries
        # near the threshold take the most Newton steps and large ones
        # the fewest, so entries converge at different iterations.
        near = phi * (1.0 + 10.0 ** rng.uniform(-15.0, -1.0, 8))
        bulk = phi * rng.uniform(0.0, 6.0, 40)
        big = phi * 10.0 ** rng.uniform(1.0, 4.0, 4)
        z = np.concatenate([[phi, phi, np.nextafter(phi, np.inf), 5.0], near, bulk, big])
        return rng.permutation(z)

    def test_large_magnitude_case(self):
        spec = solve_threshold(0.8, 0.3)
        assert prox_vector(np.array([5.0]), spec)[0] == pytest.approx(4.906430526321437, abs=1e-12)
        assert prox(-5.0, spec) == pytest.approx(-4.906430526321437, abs=1e-12)

    def test_magnitudes_match_scalar_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            nu = float(rng.uniform(0.01, 0.99))
            phi, kappa = _threshold_pair(lam, nu)
            z = self.magnitudes(rng, phi)
            self.check(_prox_magnitudes(z, lam, nu, phi, kappa), self.reference(z, lam, nu))

    def test_prox_vector_matches_scalar_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            nu = float(rng.uniform(0.01, 0.99))
            step = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
            eff = step * lam
            phi, _ = _threshold_pair(eff, nu)
            z = self.magnitudes(rng, phi)
            sign = rng.choice([-1.0, 1.0], z.size)
            got = prox_vector((sign * z).reshape(2, -1), solve_threshold(lam, nu), step=step)
            assert got.shape == (2, z.size // 2)
            self.check(got.ravel(), sign * self.reference(z, eff, nu))


def test_spec_is_frozen():
    spec = solve_threshold(1.0, 0.5)
    with pytest.raises(Exception):
        spec.lam = 2.0
    assert isinstance(spec, PenaltySpec)
