"""Parameter store and Adadelta update rule."""

import numpy as np
import pytest

from spanqa.diffmath import ParameterStore, Tensor, glorot_uniform, make_rng

# Two-step scalar trace with g = 1, rho = 0.95, eps = 1e-6 (no learning rate), computed
# by an independent reference script:
#   step 1: square_avg = 0.05,   delta = 0.0044720912343108364
#   step 2: square_avg = 0.0975, delta = 0.0045290622655332052
STEP1_DELTA = 0.0044720912343108364
STEP2_DELTA = 0.0045290622655332052


def scalar_store(value=0.0):
    store = ParameterStore()
    p = store.register("p", Tensor(np.array(value)))
    return store, p


def test_single_step_matches_reference():
    store, p = scalar_store()
    p.grad = np.array(1.0)
    store.adadelta_step()
    assert p.data == pytest.approx(-STEP1_DELTA, abs=1e-18)


def test_two_identical_steps_second_delta_not_smaller():
    store, p = scalar_store()
    p.grad = np.array(1.0)
    store.adadelta_step()
    after_first = float(p.data)
    p.grad = np.array(1.0)
    store.adadelta_step()
    second_delta = after_first - float(p.data)
    assert second_delta == pytest.approx(STEP2_DELTA, abs=1e-18)
    assert second_delta >= STEP1_DELTA


def test_zero_gradient_leaves_parameter_decays_accumulators():
    store, p = scalar_store(3.0)
    p.grad = np.array(1.0)
    store.adadelta_step()
    sq_before = float(store._square_avg["p"])
    p.grad = np.array(0.0)
    store.adadelta_step()
    assert float(p.data) == pytest.approx(3.0 - STEP1_DELTA)
    assert float(store._square_avg["p"]) == pytest.approx(0.95 * sq_before)


def test_grads_zeroed_after_step():
    store, p = scalar_store()
    p.grad = np.array(1.0)
    store.adadelta_step()
    assert p.grad is None


def test_accumulators_are_allocated_at_the_first_step():
    """A model that only predicts never steps, so it holds no accumulators."""
    store, p = scalar_store()
    assert store._square_avg == {} and store._accum_delta == {}
    p.grad = np.array(1.0)
    store.adadelta_step()
    assert list(store._square_avg) == list(store._accum_delta) == ["p"]


def test_untouched_grad_treated_as_zero():
    store, p = scalar_store(1.5)
    store.adadelta_step()
    assert float(p.data) == 1.5


def test_nonfinite_gradient_rejected_with_name():
    store = ParameterStore()
    a = store.register("alpha", Tensor(np.zeros(2)))
    b = store.register("beta", Tensor(np.zeros(2)))
    a.grad = np.array([1.0, 1.0])
    b.grad = np.array([np.nan, 1.0])
    before = a.data.copy()
    with pytest.raises(FloatingPointError, match="beta"):
        store.adadelta_step()
    # the failed step must not have moved any parameter
    np.testing.assert_array_equal(a.data, before)


def test_duplicate_name_rejected():
    store = ParameterStore()
    store.register("w", Tensor(np.zeros(1)))
    with pytest.raises(ValueError, match="duplicate"):
        store.register("w", Tensor(np.zeros(1)))


def test_iteration_is_lexicographic():
    store = ParameterStore()
    for name in ["zeta", "alpha", "mid"]:
        store.register(name, Tensor(np.zeros(1)))
    assert store.names() == ["alpha", "mid", "zeta"]
    assert [n for n, _ in store.items()] == ["alpha", "mid", "zeta"]


def test_registered_tensors_require_grad():
    store = ParameterStore()
    t = store.register("w", Tensor(np.zeros(3)))
    assert t.requires_grad


def test_glorot_uniform_bounds_and_determinism():
    a = glorot_uniform((20, 30), make_rng(41, 2))
    bound = np.sqrt(6.0 / 50.0)
    assert a.shape == (20, 30)
    assert np.all(np.abs(a) <= bound)
    b = glorot_uniform((20, 30), make_rng(41, 2))
    np.testing.assert_array_equal(a, b)
