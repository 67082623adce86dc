"""Minimal feed-forward network — the PyTorch substitute.

The paper's sub-models are MLPs with one sigmoid hidden layer whose width
is (#inputs + #output classes)/2 (51 for 2 coordinates and 100 block
ids), trained with SGD on the L2 loss for 500 epochs. PyTorch is not
available offline, so this module implements the same architecture in
numpy with full-batch Adam (which reaches the same loss plateau in far
fewer iterations; the substitution is documented in DESIGN.md). Error
bounds derived after training keep queries correct regardless of the
optimiser used.

One training epoch is a handful of whole-array numpy operations: the
weights are views of one flat parameter vector and the gradients views of
another, so one Adam step covers all four parameter arrays, and the
sigmoid needs no boolean mask. Each operation keeps the operands and order
of the per-array formulas, so the trained weights are the same bits
(``tests/test_mlp.py`` keeps the per-array loop as the oracle).

numpy trains; one scalar forward pass in Python floats, :func:`_forward`,
is the only inference rule. ``predict`` applies it to each row of a
matrix and ``predict_one`` to one point, so the build's groups and error
bounds come bit for bit from the function queries call. One call costs
1-2 µs at 4 hidden units and grows with the width, where a numpy pass
costs 11-20 µs at any width (``benchmarks/bench_model.py`` on a shared
4-core Xeon, CPython 3.11). That cost assumes Python float inputs: on
numpy scalars every operation of the loop runs as numpy scalar arithmetic
at about twice the cost, for the same bits. RSMI's queries reach the
models through ``core.rsmi._slot``, which is where coordinates become
Python floats.

Models are pickled when shipped to/from Spark executors; ``state`` /
``from_state`` give a stable plain-dict representation.
"""
from __future__ import annotations

from math import exp

import numpy as np

MAX_HIDDEN = 51  # paper's width for 100 output classes


def hidden_for(n_classes: int, n_in: int = 2) -> int:
    """Paper's hidden-width rule, floored for tiny leaves."""
    return int(min(MAX_HIDDEN, max(4, (n_in + n_classes) // 2)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function without overflow: ``1 / (1 + e)`` for
    ``z >= 0`` and ``e / (1 + e)`` below, where ``e = exp(-|z|)``. One
    ``exp`` over the whole array serves both branches (``-|z|`` is exactly
    ``-z`` or ``z``), so no element is gathered or scattered by a mask."""
    e = np.exp(np.copysign(z, -1.0))  # exp(-|z|)
    h = np.where(z >= 0, 1.0, e)
    e += 1.0
    h /= e
    return h


def _forward(rows: tuple, b2: float, x: float, y: float) -> float:
    """The forward pass of one point, given the hidden units as
    ``(-b1[j], -W1[0, j], -W1[1, j], W2[j, 0])`` rows of Python floats.

    With the first layer negated, ``u`` is ``-z`` bit for bit (IEEE
    rounding is symmetric), so the loop feeds ``exp`` directly. Only the
    overflow side is clamped: for ``z > 500``, ``exp(-z)`` vanishes beside
    1.0 and a clamp there would change nothing."""
    out = 0.0
    for b, a, c, w in rows:
        u = b + x * a + y * c
        if u > 500.0:
            u = 500.0
        out += w / (1.0 + exp(u))
    return out + b2


class MLP:
    """``n_in -> hidden (sigmoid) -> 1 (linear)`` regression network, for
    one or two inputs."""

    def __init__(self, n_in: int = 2, hidden: int = MAX_HIDDEN, seed: int = 0):
        if n_in not in (1, 2):
            raise ValueError(f"MLP takes 1 or 2 inputs, not {n_in}")
        self.n_in = n_in
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        s1 = np.sqrt(6.0 / (n_in + hidden))
        s2 = np.sqrt(6.0 / (hidden + 1))
        self.W1 = rng.uniform(-s1, s1, (n_in, hidden))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.uniform(-s2, s2, (hidden, 1))
        self.b2 = np.zeros(1)
        self._set_rows()

    def _set_rows(self) -> None:
        """Copy the weights into the Python floats :func:`_forward` reads;
        called wherever the weights are set. A 1-input model gets a zero
        weight for ``y``."""
        c = (-self.W1[1]).tolist() if self.n_in == 2 else [0.0] * self.hidden
        self._rows = tuple(
            zip((-self.b1).tolist(), (-self.W1[0]).tolist(), c, self.W2[:, 0].tolist())
        )
        self._b2 = float(self.b2[0])

    # -- training ----------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 300,
        lr: float = 0.03,
    ) -> float:
        """Full-batch Adam on mean-squared error; returns the final loss.

        ``X`` must be normalised to ~[0, 1] per column and ``y`` to
        [0, 1] (the caller's responsibility, as in the paper).
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
        n = len(X)
        if n == 0:
            return 0.0
        # The weights become views of one flat vector and the gradients
        # views of another, so that Adam runs once over all parameters.
        theta, params = self._flat()
        for view, p in zip(params, (self.W1, self.b1, self.W2, self.b2)):
            view[...] = p
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2 = params
        g, (gW1, gb1, gW2, gb2) = self._flat()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        b1m, b2m, eps = 0.9, 0.999, 1e-8
        err = None
        for t in range(1, epochs + 1):
            # In-place steps spare the (n, H) temporaries; each IEEE
            # operation and its operand order is that of the plain formulas.
            z = X @ W1
            z += b1
            h = _sigmoid(z)
            err = h @ W2
            err += b2
            err -= y
            # backprop
            g_pred = 2.0 * err / n
            np.matmul(h.T, g_pred, out=gW2)
            g_pred.sum(axis=0, out=gb2)
            g_h = g_pred @ W2.T
            g_h *= h
            g_h *= 1.0 - h
            np.matmul(X.T, g_h, out=gW1)
            g_h.sum(axis=0, out=gb1)
            m = b1m * m + (1 - b1m) * g
            v = b2m * v + (1 - b2m) * g * g
            theta -= lr * (m / (1 - b1m**t)) / (np.sqrt(v / (1 - b2m**t)) + eps)
        self._set_rows()
        return 0.0 if err is None else float(np.mean(err**2))

    def _flat(self) -> tuple:
        """A zero vector and its ``W1, b1, W2, b2`` shaped views. Each view
        starts on a 16-byte boundary, as a freshly allocated array does:
        OpenBLAS's dot kernel, which a one-row fit calls, sums in an order
        that depends on that alignment. The padding stays zero."""
        H = self.hidden
        sizes = (self.n_in * H, H, H, 1)
        offs = np.cumsum([0] + [s + s % 2 for s in sizes]).tolist()
        flat = np.zeros(offs[-1])
        W1, b1, W2, b2 = (flat[a : a + s] for a, s in zip(offs, sizes))
        return flat, (W1.reshape(self.n_in, H), b1, W2.reshape(H, 1), b2)

    # -- inference ---------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """:func:`_forward` over the rows of ``X`` (shape ``(n, n_in)``)."""
        X = np.asarray(X, dtype=np.float64)
        xs = X[:, 0].tolist()
        ys = X[:, 1].tolist() if self.n_in == 2 else [0.0] * len(xs)
        rows, b2 = self._rows, self._b2
        return np.array([_forward(rows, b2, x, y) for x, y in zip(xs, ys)], dtype=np.float64)

    def predict_one(self, x: float, y: float = 0.0) -> float:
        """Single-point forward pass (the query-time hot path)."""
        return _forward(self._rows, self._b2, x, y)

    # -- bookkeeping -------------------------------------------------------
    @property
    def n_params(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def size_bytes(self) -> int:
        # Stored as float32 on "disk", like the paper's PyTorch models.
        return self.n_params * 4

    def state(self) -> dict:
        return {
            "n_in": self.n_in,
            "hidden": self.hidden,
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
        }

    @classmethod
    def from_state(cls, st: dict) -> "MLP":
        m = cls.__new__(cls)
        m.n_in = int(st["n_in"])
        m.hidden = int(st["hidden"])
        m.W1 = np.asarray(st["W1"], dtype=np.float64)
        m.b1 = np.asarray(st["b1"], dtype=np.float64)
        m.W2 = np.asarray(st["W2"], dtype=np.float64)
        m.b2 = np.asarray(st["b2"], dtype=np.float64)
        m._set_rows()
        return m
