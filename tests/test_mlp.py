"""Numpy MLP tests (the learned-model substrate)."""
import copy
import pickle

import numpy as np
import pytest

from repro.ml.mlp import MLP, _sigmoid, hidden_for


def test_hidden_for_matches_paper():
    # 2 coordinate inputs + 100 block-id classes -> 51 hidden units.
    assert hidden_for(100) == 51
    assert hidden_for(4) == 4  # floored for tiny leaves
    assert hidden_for(10_000) == 51  # capped at the paper's width


def test_deterministic_init():
    a, b = MLP(2, 8, seed=42), MLP(2, 8, seed=42)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
    c = MLP(2, 8, seed=43)
    assert not np.array_equal(a.W1, c.W1)


def test_fit_linear_1d():
    rng = np.random.default_rng(0)
    X = rng.random((500, 1))
    y = 0.8 * X[:, 0] + 0.1
    m = MLP(1, 8, seed=0)
    m.fit(X, y, epochs=400, lr=0.05)
    pred = m.predict(X)
    assert np.max(np.abs(pred - y)) < 0.05


def test_fit_linear_2d():
    rng = np.random.default_rng(1)
    X = rng.random((500, 2))
    y = 0.5 * X[:, 0] + 0.4 * X[:, 1]
    m = MLP(2, 8, seed=0)
    m.fit(X, y, epochs=400, lr=0.05)
    assert np.mean((m.predict(X) - y) ** 2) < 1e-3


def test_fit_monotone_cdf_like():
    """The actual shape RSMI learns: a skewed CDF."""
    X = np.sort(np.random.default_rng(2).random(1000) ** 4)[:, None]
    y = np.arange(1000) / 999
    m = MLP(1, 16, seed=0)
    m.fit(X, y, epochs=500, lr=0.05)
    assert np.mean((m.predict(X) - y) ** 2) < 5e-3


def test_loss_decreases():
    rng = np.random.default_rng(3)
    X = rng.random((300, 2))
    y = X[:, 0] * X[:, 1]
    m = MLP(2, 16, seed=0)
    l_early = m.fit(X, y, epochs=5, lr=0.03)
    l_late = m.fit(X, y, epochs=300, lr=0.03)
    assert l_late < l_early


def test_fit_deterministic():
    rng = np.random.default_rng(4)
    X = rng.random((200, 2))
    y = X.sum(axis=1) / 2
    a, b = MLP(2, 8, seed=7), MLP(2, 8, seed=7)
    a.fit(X, y, epochs=50)
    b.fit(X, y, epochs=50)
    assert np.array_equal(a.W1, b.W1) and np.array_equal(a.b2, b.b2)


def _fitted(n_in, hidden, seed=5, epochs=30):
    X = np.random.default_rng(seed).random((200, n_in))
    m = MLP(n_in, hidden, seed=0)
    m.fit(X, X[:, 0], epochs=epochs)
    return m, X


def test_predict_one_matches_predict():
    """One inference rule: the batch and the scalar pass are bit-equal."""
    for n_in in (1, 2):
        for hidden in (4, 33, 51):
            m, X = _fitted(n_in, hidden)
            singles = np.array([m.predict_one(*map(float, row)) for row in X])
            assert np.array_equal(m.predict(X), singles), (n_in, hidden)


def test_predict_one_uses_weights_of_latest_fit():
    m, X = _fitted(2, 8)
    before = m.predict_one(0.3, 0.7)
    m.fit(X, X[:, 1], epochs=30)
    assert m.predict_one(0.3, 0.7) != before
    fresh = MLP.from_state(m.state())
    assert m.predict_one(0.3, 0.7) == fresh.predict_one(0.3, 0.7)


def test_empty_fit_is_noop():
    m = MLP(2, 4, seed=0)
    w = m.W1.copy()
    assert m.fit(np.empty((0, 2)), np.empty(0)) == 0.0
    assert np.array_equal(m.W1, w)


def test_state_roundtrip():
    """``from_state``, ``deepcopy`` and pickling keep predictions bit-equal."""
    m, X = _fitted(2, 8, seed=6, epochs=40)
    for c in (MLP.from_state(m.state()), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert np.array_equal(m.predict(X), c.predict(X))
        assert all(m.predict_one(*map(float, r)) == c.predict_one(*map(float, r)) for r in X)


def test_n_params_and_size():
    m = MLP(2, 51, seed=0)
    assert m.n_params == 2 * 51 + 51 + 51 + 1
    assert m.size_bytes() == m.n_params * 4


def test_extreme_inputs_do_not_overflow():
    m = MLP(2, 8, seed=0)
    v = m.predict_one(1e6, -1e6)
    assert np.isfinite(v)
    out = m.predict(np.array([[1e6, -1e6], [0.0, 0.0]]))
    assert np.all(np.isfinite(out))
    m1 = MLP(1, 8, seed=0)
    assert np.isfinite(m1.predict_one(1e6)) and np.isfinite(m1.predict_one(-1e6))
    assert np.all(np.isfinite(m1.predict(np.array([[1e6], [-1e6], [0.0]]))))


# -- the flat-vector Adam against the per-array loop it replaced -----------

def _sigmoid_masked(z):
    """The boolean-mask sigmoid the training loop used before, frozen."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _fit_per_array(m, X, y, epochs, lr=0.03):
    """The per-array Adam loop ``MLP.fit`` ran before, frozen as the oracle:
    four parameter arrays, a loss every epoch, the masked sigmoid."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    n = len(X)
    if n == 0:
        return 0.0
    params = [m.W1, m.b1, m.W2, m.b2]
    mo = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1m, b2m, eps = 0.9, 0.999, 1e-8
    loss = 0.0
    for t in range(1, epochs + 1):
        h_in = X @ m.W1 + m.b1
        h = _sigmoid_masked(h_in)
        pred = h @ m.W2 + m.b2
        err = pred - y
        loss = float(np.mean(err**2))
        g_pred = 2.0 * err / n
        gW2 = h.T @ g_pred
        gb2 = g_pred.sum(axis=0)
        g_h = g_pred @ m.W2.T * h * (1.0 - h)
        gW1 = X.T @ g_h
        gb1 = g_h.sum(axis=0)
        for i, (p, g) in enumerate(zip(params, [gW1, gb1, gW2, gb2])):
            mo[i] = b1m * mo[i] + (1 - b1m) * g
            v[i] = b2m * v[i] + (1 - b2m) * g * g
            mh = mo[i] / (1 - b1m**t)
            vh = v[i] / (1 - b2m**t)
            p -= lr * mh / (np.sqrt(vh) + eps)
    return loss


def _fit_cases():
    rng = np.random.default_rng(12)
    for n_in in (1, 2):
        for hidden in (4, 13, 33, 51):
            for n in (1, 2, 37, 3000):
                X = rng.random((n, n_in))
                yield n_in, hidden, X, X.sum(axis=1) / n_in, "cdf"
            X = rng.random((37, n_in))
            X[:, 0] = 0.25  # a constant column
            yield n_in, hidden, X, rng.random(37), "const"
            # A target the sigmoid layer cannot reach drives units to saturation.
            X = rng.random((37, n_in))
            yield n_in, hidden, X * 40.0 - 20.0, np.where(X[:, 0] > 0.5, 50.0, -50.0), "sat"


@pytest.mark.parametrize("epochs", [0, 1, 50])
def test_fit_bit_identical_to_reference(epochs):
    """One flat Adam step and the mask-free sigmoid give the weights and
    the loss of the per-array loop bit for bit."""
    for n_in, hidden, X, y, kind in _fit_cases():
        new, ref = MLP(n_in, hidden, seed=3), MLP(n_in, hidden, seed=3)
        loss = new.fit(X, y, epochs=epochs, lr=0.05)
        want = _fit_per_array(ref, X, y, epochs, lr=0.05)
        case = (n_in, hidden, len(X), kind, epochs)
        assert loss == want, case
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(new, name), getattr(ref, name)), (name, case)
        assert new.predict_one(0.3, 0.6) == MLP.from_state(ref.state()).predict_one(0.3, 0.6)


def test_sigmoid_equals_masked_form():
    edges = [0.0, 1e-300, 30.0, 745.0, 800.0, np.inf]
    z = np.array(edges + [-e for e in edges] + [np.nan])
    z = np.concatenate([z, np.random.default_rng(0).normal(0.0, 20.0, 10_000)])
    got, want = _sigmoid(z), _sigmoid_masked(z)
    assert np.array_equal(np.isnan(got), np.isnan(z))
    real = ~np.isnan(z)
    assert np.array_equal(got[real].view(np.uint64), want[real].view(np.uint64))
