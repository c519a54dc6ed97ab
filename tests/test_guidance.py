import math

import numpy as np
import pytest

from synthvid.flowlab import NonFiniteStateError, VelocityModel, integrate
from synthvid.guidance import (
    GuidanceParams,
    default_guidance_params,
    guidance_delta,
    run_simdrop_experiment,
    simdrop_velocity,
)


class _ScalarModel:
    """Duck-typed model returning a fixed value per condition label."""

    def __init__(self, by_cond, data_dim=1):
        self.data_dim = data_dim
        self._by_cond = by_cond

    def velocity(self, x, t, cond):
        value = self._by_cond[cond]
        return np.full(np.asarray(x).shape, value, dtype=float)


class _LinearModel:
    """v(x) = scale * x + offset[cond]; linear in its parameters."""

    def __init__(self, scale, offsets, data_dim=2):
        self.data_dim = data_dim
        self.scale = scale
        self.offsets = offsets

    def velocity(self, x, t, cond):
        return self.scale * np.asarray(x, dtype=float) + self.offsets[cond]


def test_guidance_delta_cancels_for_equal_conditions():
    model = VelocityModel(data_dim=3, cond_dim=3, seed=1)
    x = np.array([0.1, -0.4, 0.2])
    delta = guidance_delta(model, x, 0.5, 1, 1)
    assert (delta == 0.0).all()


def test_guidance_delta_scalar_arithmetic():
    model = _ScalarModel({1: 1.0, 0: 0.4})
    delta = guidance_delta(model, np.zeros(1), 0.5, 1, 0)
    assert delta[0] == pytest.approx(0.6, abs=1e-15)


def test_guidance_delta_additive_over_models(rng):
    a = _LinearModel(0.5, {0: np.array([0.1, -0.2]), 1: np.array([0.3, 0.0])})
    b = _LinearModel(-0.2, {0: np.array([0.0, 0.4]), 1: np.array([-0.1, 0.2])})

    class _Sum:
        data_dim = 2

        def velocity(self, x, t, cond):
            return a.velocity(x, t, cond) + b.velocity(x, t, cond)

    x = rng.standard_normal(2)
    combined = guidance_delta(_Sum(), x, 0.3, 0, 1)
    assert np.allclose(combined,
                       guidance_delta(a, x, 0.3, 0, 1) + guidance_delta(b, x, 0.3, 0, 1),
                       atol=1e-12)


def test_simdrop_worked_example():
    gen = _ScalarModel({"t": 1.0, "n": 0.4})
    ref = _ScalarModel({"t_hat": 0.9, "n_hat": 0.2})
    params = GuidanceParams(alpha=0.2, beta=0.3, t="t", n="n", t_hat="t_hat", n_hat="n_hat")
    v = simdrop_velocity(gen, ref, np.zeros(1), 0.5, params)
    # 1.0 - 0.2*(0.9-0.2) + 0.3*(1.0-0.4) = 1.04
    assert v[0] == pytest.approx(1.04, abs=1e-12)


def test_alpha_zero_reduces_to_cfg_bitwise(rng):
    for trial in range(50):
        gen = VelocityModel(data_dim=3, cond_dim=3, seed=trial)
        ref = VelocityModel(data_dim=3, cond_dim=3, seed=1000 + trial)
        x, time = rng.standard_normal(3), float(rng.uniform(0.1, 1.0))
        params = GuidanceParams(alpha=0.0, beta=0.3, t=0, n=1, t_hat=2, n_hat=None)
        base = gen.velocity(x, time, 0)
        cfg = base + 0.3 * (base - gen.velocity(x, time, 1))
        assert (simdrop_velocity(gen, ref, x, time, params) == cfg).all()


def test_alpha_zero_sampling_is_cfg_sampling_bitwise(rng):
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=3)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=4)
    params = GuidanceParams(alpha=0.0, beta=0.3, t=0, n=1, t_hat=2, n_hat=None)

    def cfg(x, t):
        base = gen.velocity(x, t, 0)
        return base + 0.3 * (base - gen.velocity(x, t, 1))

    x1 = rng.standard_normal((16, 3))
    guided = integrate(lambda x, t: simdrop_velocity(gen, ref, x, t, params), x1, 20)
    assert (guided == integrate(cfg, x1, 20)).all()


def test_alpha_beta_zero_reduces_to_unguided_bitwise(rng):
    for trial in range(50):
        gen = VelocityModel(data_dim=3, cond_dim=3, seed=trial)
        ref = VelocityModel(data_dim=3, cond_dim=3, seed=2000 + trial)
        x, time = rng.standard_normal(3), float(rng.uniform(0.1, 1.0))
        params = GuidanceParams(alpha=0.0, beta=0.0, t=0, n=1, t_hat=2, n_hat=None)
        assert (simdrop_velocity(gen, ref, x, time, params) == gen.velocity(x, time, 0)).all()


def test_alpha_zero_evaluates_no_reference_model():
    class _Unused:
        data_dim = 1

        def velocity(self, x, t, cond):
            raise AssertionError("reference model evaluated at alpha = 0")

    gen = _ScalarModel({"t": 1.0, "n": 0.4})
    params = GuidanceParams(alpha=0.0, beta=0.3, t="t", n="n", t_hat="t_hat", n_hat="n_hat")
    assert simdrop_velocity(gen, _Unused(), np.zeros(1), 0.5, params)[0] == 1.0 + 0.3 * 0.6


def test_velocity_affine_in_alpha_and_beta(rng):
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=5)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=6)
    x = rng.standard_normal(3)

    def v(alpha, beta):
        return simdrop_velocity(gen, ref, x, 0.7,
                                GuidanceParams(alpha=alpha, beta=beta,
                                               t=0, n=1, t_hat=2, n_hat=None))

    # affine in alpha: second difference vanishes across three values
    second_alpha = v(0.0, 0.3) - 2.0 * v(0.1, 0.3) + v(0.2, 0.3)
    assert np.abs(second_alpha).max() < 1e-12
    second_beta = v(0.1, 0.0) - 2.0 * v(0.1, 0.3) + v(0.1, 0.6)
    assert np.abs(second_beta).max() < 1e-12


def test_step_advances_bookkeeping():
    gen = _ScalarModel({None: 0.5, 1: 0.5, 2: 0.5})
    params = GuidanceParams(alpha=0.0, beta=0.0, t=None, n=1, t_hat=2, n_hat=None)
    times = []

    def field(x, t):
        times.append(t)
        return simdrop_velocity(gen, gen, x, t, params)

    out = integrate(field, np.array([1.0]), 10)
    assert times == [1.0 - k * 0.1 for k in range(10)]
    assert out[0] == pytest.approx(1.0 - 10 * 0.1 * 0.5)


def test_state_rejects_non_finite():
    gen = _ScalarModel({None: np.inf, 1: 0.0}, data_dim=3)
    ref = _ScalarModel({2: 0.0, None: 0.0}, data_dim=3)
    with pytest.raises(NonFiniteStateError, match="step 0"):
        run_simdrop_experiment(gen, ref, default_guidance_params(0.1), n_samples=4, seed=0)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        GuidanceParams(alpha=-0.1)


@pytest.mark.parametrize("weight", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_non_finite_weights_rejected_by_name(name, weight):
    with pytest.raises(ValueError, match=f"^{name}: expected a finite guidance weight"):
        GuidanceParams(**{name: weight})


def test_empty_experiment_flags_undefined_stats():
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=7)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=8)
    report = run_simdrop_experiment(gen, ref, default_guidance_params(0.1),
                                    n_samples=0, seed=1)
    assert report.n_samples == 0
    assert report.angular_coverage == 0.0
    assert report.artifact_mean is None
    assert report.artifact_abs_mean is None


def test_experiment_deterministic():
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=9)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=10)
    params = default_guidance_params(0.2)
    a = run_simdrop_experiment(gen, ref, params, n_samples=64, seed=3)
    b = run_simdrop_experiment(gen, ref, params, n_samples=64, seed=3)
    assert a == b


def test_experiment_requires_matching_dims():
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=11)
    ref = VelocityModel(data_dim=2, cond_dim=3, seed=12)
    with pytest.raises(ValueError):
        run_simdrop_experiment(gen, ref, default_guidance_params(0.1), 10, seed=0)


def test_experiment_rejects_a_negative_sample_count():
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=13)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=14)
    with pytest.raises(ValueError, match="^n_samples: expected a count >= 0, got -1$"):
        run_simdrop_experiment(gen, ref, default_guidance_params(0.1), -1, seed=0)


@pytest.mark.parametrize("n_samples", [0, 8])
def test_experiment_rejects_zero_steps(n_samples):
    gen = VelocityModel(data_dim=3, cond_dim=3, seed=13)
    ref = VelocityModel(data_dim=3, cond_dim=3, seed=14)
    with pytest.raises(ValueError, match="^n_steps: expected an integer >= 1, got 0$"):
        run_simdrop_experiment(gen, ref, default_guidance_params(0.1), n_samples, seed=0,
                               n_steps=0)
