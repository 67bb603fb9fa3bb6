"""Activation values, derivatives, inverses, and growth profiles."""

import warnings

import numpy as np
import pytest

from widecnn import (
    Activation,
    Identity,
    RangeError,
    ReLU,
    Sigmoid,
    Softplus,
    activation_from_dict,
)

from oracles import two_pass_sigmoid

ALL = [Sigmoid(), ReLU(), Softplus(1.0), Softplus(10.0), Identity()]


class TestValues:
    def test_sigmoid_midpoint_and_tails(self):
        s = Sigmoid()
        assert s(np.array(0.0)) == 0.5
        assert abs(s(np.array(-20.0)) - 0.0) <= 1e-6
        assert abs(s(np.array(20.0)) - 1.0) <= 1e-6

    def test_sigmoid_stable_at_extremes(self):
        s = Sigmoid()
        out = s(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_softplus_stable_at_extremes(self):
        sp = Softplus(10.0)
        out = sp(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], 1e4)

    def test_relu_kink_convention(self):
        r = ReLU()
        assert r.derivative(np.array(0.0)) == 0.0
        assert r.derivative(np.array(1e-9)) == 1.0


def bits(a):
    """The float64 bit patterns of a, so that -0.0 differs from 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestSigmoidAgainstTwoPass:
    """The single-pass sigmoid evaluates the same formula on the same branch
    as the masked two-pass reference, so the two agree bit for bit."""

    SAMPLES = [
        np.array(-3.0),
        np.array([0.0, -0.0]),
        # step 0.01: covers the subnormal tail below t = -708.4 and the
        # underflow to 0 below t = -745.2
        np.linspace(-800.0, 800.0, 160_001),
        40.0 * np.random.default_rng(20).standard_normal(10_000),
        # random signs in a 2-D array, as a layer's pre-activations come
        4.0 * np.random.default_rng(21).standard_normal((64, 96)),
        np.array([np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]),
    ]

    @pytest.mark.parametrize("t", SAMPLES)
    def test_values_bit_identical(self, t):
        out = Sigmoid()(t)
        assert out.shape == t.shape
        assert np.array_equal(bits(out), bits(two_pass_sigmoid(t)))

    @pytest.mark.parametrize("t", SAMPLES)
    def test_derivative_from_features_bit_identical(self, t):
        """sigma' read off the stored features F = sigma(G) equals the old
        sigma' that evaluated the two-pass sigmoid at G again."""
        F = Sigmoid()(t)
        s = two_pass_sigmoid(t)
        assert np.array_equal(bits(Sigmoid().derivative(t, F)),
                              bits(s * (1.0 - s)))

    def test_nan_stays_nan(self):
        """NaN in, NaN out, and the entries around it are unaffected; the
        sign of a NaN is not a value either formula fixes."""
        t = np.array([[np.nan, -1.5, 0.0], [2.5, -np.nan, np.inf]])
        out, want = Sigmoid()(t), two_pass_sigmoid(t)
        assert np.array_equal(np.isnan(out), np.isnan(t))
        assert np.array_equal(bits(out[~np.isnan(t)]), bits(want[~np.isnan(t)]))


@pytest.mark.parametrize("act", ALL)
def test_call_with_out_writes_out(act):
    """A call with ``out=`` returns ``out`` holding the bits of the call
    without it."""
    t = np.array([[-800.0, -3.5, -0.0], [0.0, 2.25, 1e300]])
    out = np.full_like(t, np.nan)
    assert act(t, out=out) is out
    assert np.array_equal(bits(out), bits(act(t)))


class TestSoftplusWhereAlphaTOverflows:
    """Where alpha*t overflows and t does not, softplus(t) rounds to
    max(t, 0), sigma'(t) to 1 or 0 and the inverse of a huge y to y, with
    every warning an error, as under ``python -W error``; wherever
    alpha*t is finite the bits are those of the plain formula."""

    @staticmethod
    def formula(alpha, t):
        at = alpha * t
        return np.divide(np.maximum(at, 0.0) + np.log1p(np.exp(-np.abs(at))), alpha)

    def test_values_and_no_warning(self):
        t = np.array([2e307, -2e307, np.finfo(np.float64).max, -5e307, np.inf, -np.inf,
                      np.nan, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = Softplus(10.0)(t)
            slope = Softplus(10.0).derivative(t)
            scalar = Softplus(10.0)(2e307)
            inverse = Softplus(10.0).inverse(np.array([2e307]))
        assert bits(value[:6]).tolist() == bits([2e307, 0.0, t[2], 0.0, np.inf, 0.0]).tolist()
        assert np.isnan(value[6]) and value[7] == self.formula(10.0, 1.0)
        np.testing.assert_array_equal(slope[:6], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert scalar == 2e307 and inverse[0] == 2e307

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 10.0, 1e300])
    def test_finite_alpha_t_keeps_its_bits(self, alpha):
        rng = np.random.default_rng(19)
        t = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [0.0, -0.0, 5e-324, -5e-324],
                            rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)])
        with np.errstate(over="ignore"):
            t = t[np.isfinite(alpha * t)]
            want = self.formula(alpha, t)
        assert bits(Softplus(alpha)(t)).tolist() == bits(want).tolist()
        out = np.empty_like(t)
        assert Softplus(alpha)(t, out=out) is out


class TestDerivatives:
    @pytest.mark.parametrize("act", [Sigmoid(), Softplus(1.0), Softplus(7.0), Identity()])
    def test_matches_central_differences(self, act):
        t = np.linspace(-4.0, 4.0, 81)
        h = 1e-6
        numeric = (act(t + h) - act(t - h)) / (2 * h)
        np.testing.assert_allclose(act.derivative(t), numeric, atol=1e-8)


class TestInverses:
    @pytest.mark.parametrize("act", [Sigmoid(), Softplus(1.0), Softplus(10.0), Identity()])
    def test_roundtrip(self, act):
        t = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(act.inverse(act(t)), t, atol=1e-9)

    def test_sigmoid_inverse_domain(self):
        with pytest.raises(RangeError):
            Sigmoid().inverse(np.array([0.0]))
        with pytest.raises(RangeError):
            Sigmoid().inverse(np.array([1.5]))

    def test_relu_has_no_inverse(self):
        with pytest.raises(RangeError):
            ReLU().inverse(np.array([1.0]))

    def test_softplus_inverse_domain(self):
        with pytest.raises(RangeError, match="^softplus inverse requires positive values$"):
            Softplus(2.0).inverse(np.array([1.0, 0.0]))


class TestConstructionConstants:
    """The bias offset and the target range the constructions read."""

    def test_bias_offset(self):
        assert Sigmoid().construction_bias == 0.0
        assert all(act.construction_bias == 1.0
                   for act in (ReLU(), Softplus(2.0), Identity()))

    def test_comfortable_ranges(self):
        assert Sigmoid().comfortable_range == (0.2, 0.8)
        assert Softplus(4.0).comfortable_range == (0.5, 1.5)

    @pytest.mark.parametrize("act", [ReLU(), Identity()])
    def test_no_range_without_a_hidden_layer_inverse(self, act):
        with pytest.raises(RangeError, match=f"^{act!r} has no range of values to invert$"):
            act.comfortable_range

    def test_injectivity_intervals(self):
        assert ReLU().bijective_interval == (0.0, np.inf)
        assert all(act.bijective_interval == (-np.inf, np.inf)
                   for act in (Sigmoid(), Softplus(2.0), Identity()))


class TestInterface:
    def test_an_incomplete_activation_cannot_be_made(self):
        class NoProfile(Activation):
            def __call__(self, t, out=None, scratch=None):
                return t

            def derivative(self, t, F=None, out=None):
                return t

        for cls in (Activation, NoProfile):
            with pytest.raises(TypeError, match="abstract"):
                cls()


class TestProfiles:
    """The two growth alternatives: finite tails with zero product, or an
    exponential bound below zero plus a linear bound above."""

    def test_sigmoid_uses_finite_tails(self):
        p = Sigmoid().profile()
        assert (p.limit_neg, p.limit_pos) == (0.0, 1.0)
        assert p.limit_neg * p.limit_pos == 0.0
        assert p.admissible_for_hidden_layer()

    def test_relu_uses_growth_bounds(self):
        p = ReLU().profile()
        assert p.limit_pos is None
        assert p.exp_bound is not None and p.linear_bound is not None
        assert p.admissible_for_hidden_layer()
        assert not p.strictly_monotone and not p.analytic

    def test_softplus_constants(self):
        alpha = 4.0
        p = Softplus(alpha).profile()
        assert p.exp_bound == (1.0 / alpha, alpha)
        assert p.linear_bound == (1.0, np.log(2.0) / alpha)
        assert p.strictly_monotone and p.analytic

    def test_identity_fails_both_alternatives(self):
        assert not Identity().profile().admissible_for_hidden_layer()

    def test_relu_bounded_by_exponential_below_zero(self):
        t = np.linspace(-10.0, -1e-3, 500)
        assert np.all(ReLU()(t) < np.exp(t))

    def test_softplus_bounds_hold_on_samples(self):
        alpha = 3.0
        sp = Softplus(alpha)
        neg = np.linspace(-10.0, -1e-3, 500)
        pos = np.linspace(0.0, 10.0, 500)
        assert np.all(sp(neg) >= 0.0)
        assert np.all(sp(neg) <= np.exp(alpha * neg) / alpha)
        assert np.all(sp(pos) <= pos + np.log(2.0) / alpha)

    def test_softplus_converges_to_relu(self):
        t = np.linspace(-5.0, 5.0, 401)
        relu = np.maximum(t, 0.0)
        for alpha in (2.0, 10.0, 50.0):
            gap = np.abs(Softplus(alpha)(t) - relu).max()
            assert gap <= np.log(2.0) / alpha + 1e-15


class TestSerialization:
    @pytest.mark.parametrize("act", ALL)
    def test_roundtrip(self, act):
        assert activation_from_dict(act.to_dict()) == act

    def test_softplus_hash_and_repr(self):
        assert hash(Softplus(2)) == hash(Softplus(2.0))
        assert len({Softplus(2), Softplus(2.0), Softplus(3.0), Sigmoid()}) == 3
        assert repr(Softplus(2.5)) == "softplus(alpha=2.5)"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation_from_dict({"kind": "tanh"})

    @pytest.mark.parametrize("d", [{"kind": "softplus"},
                                   {"kind": "sigmoid", "alpha": 3}])
    def test_alpha_exactly_for_softplus(self, d):
        with pytest.raises(ValueError, match="alpha"):
            activation_from_dict(d)

    @pytest.mark.parametrize("alpha", ["10", True, -1.0, 0.0, float("inf"),
                                       float("nan"), [1.0], None])
    def test_softplus_alpha_must_be_a_positive_finite_number(self, alpha):
        with pytest.raises(ValueError):
            activation_from_dict({"kind": "softplus", "alpha": alpha})
