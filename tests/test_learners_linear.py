import numpy as np
import pytest

from driftstream.core import FeatureKind, Schema
from driftstream.learners import OnlineLogisticRegression, softmax_loss_and_gradient

from conftest import gaussian_instances


def make_schema(d, k):
    return Schema(
        feature_names=tuple(f"f{i}" for i in range(d)),
        feature_kinds=(FeatureKind.NUMERIC,) * d,
        class_labels=tuple(f"c{i}" for i in range(k)),
    )


def finite_difference_gradient(W, b, x, y, l2, h=1e-6):
    dW = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up = W.copy()
            up[i, j] += h
            down = W.copy()
            down[i, j] -= h
            loss_up, _, _ = softmax_loss_and_gradient(up, b, x, y, l2)
            loss_down, _, _ = softmax_loss_and_gradient(down, b, x, y, l2)
            dW[i, j] = (loss_up - loss_down) / (2 * h)
    db = np.zeros_like(b)
    for j in range(b.shape[0]):
        up = b.copy()
        up[j] += h
        down = b.copy()
        down[j] -= h
        loss_up, _, _ = softmax_loss_and_gradient(W, up, x, y, l2)
        loss_down, _, _ = softmax_loss_and_gradient(W, down, x, y, l2)
        db[j] = (loss_up - loss_down) / (2 * h)
    return dW, db


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(5):
        d, k = 4, 3
        W = rng.normal(size=(d, k))
        b = rng.normal(size=k)
        x = rng.normal(size=d)
        y = int(rng.integers(k))
        _, dW, db = softmax_loss_and_gradient(W, b, x, y, l2=1.0)
        fd_W, fd_b = finite_difference_gradient(W, b, x, y, l2=1.0)
        assert np.allclose(dW, fd_W, rtol=1e-5, atol=1e-7)
        assert np.allclose(db, fd_b, rtol=1e-5, atol=1e-7)


def test_first_step_moves_weights_toward_true_class():
    schema = make_schema(2, 3)
    model = OnlineLogisticRegression(schema)
    # Two warm-up points give the scaler a spread; weights are still zero
    # until the clip/update path runs, so check the first real update.
    model.learn_one(np.array([1.0, 0.0]), 1)
    model.learn_one(np.array([-1.0, 2.0]), 1)
    W_before = model.W.copy()
    model.learn_one(np.array([3.0, 2.0]), 2)
    delta = model.W - W_before
    x_std = model._standardize(np.array([3.0, 2.0]))
    # Column of the true class moves along +x_std, the others along -x_std.
    for i in np.nonzero(x_std)[0]:
        assert np.sign(delta[i, 2]) == np.sign(x_std[i]) or delta[i, 2] == 0
        assert np.sign(delta[i, 0]) == -np.sign(x_std[i]) or delta[i, 0] == 0


def test_scale_invariance_of_standardized_stream():
    schema = make_schema(3, 3)
    instances = gaussian_instances(np.array([[0, 0, 0], [3, 1, -1], [-2, 2, 2]]), 300, seed=13)

    def run(scale):
        model = OnlineLogisticRegression(schema)
        labels = []
        for inst in instances:
            labels.append(model.predict(inst.x * scale))
            model.learn_one(inst.x * scale, inst.y)
        return labels

    base = run(1.0)
    scaled = run(10.0)
    assert base[2:] == scaled[2:]


def test_one_sgd_step_moves_other_predictions_boundedly():
    # Single-step bound: at a fixed point, the logit change is at most
    # ||x|| * ||dW|| + ||db||, and softmax is 1-Lipschitz in its logits.
    schema = make_schema(2, 3)
    model = OnlineLogisticRegression(schema)
    rng = np.random.default_rng(5)
    for _ in range(20):
        model.learn_one(rng.normal(size=2), int(rng.integers(3)))
    probe_std = model._standardize(rng.normal(size=2))

    def scores_at(W, b):
        z = probe_std @ W + b
        e = np.exp(z - z.max())
        return e / e.sum(), z

    W_before, b_before = model.W.copy(), model.b.copy()
    model.learn_one(rng.normal(size=2), 1)
    before, z_before = scores_at(W_before, b_before)
    after, z_after = scores_at(model.W, model.b)
    delta_z = np.linalg.norm(z_after - z_before)
    assert delta_z <= (
        np.linalg.norm(probe_std) * np.linalg.norm(model.W - W_before, ord=2)
        + np.linalg.norm(model.b - b_before)
        + 1e-12
    )
    assert np.linalg.norm(after - before) <= delta_z + 1e-12


def test_config_rejects_negative_values():
    with pytest.raises(ValueError):
        OnlineLogisticRegression(make_schema(2, 2), learning_rate=-0.1)
