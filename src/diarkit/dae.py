"""Stacked denoising autoencoder for nonlinear dimension reduction.

Two autoencoders are pretrained greedily (input -> hidden, hidden ->
bottleneck) on corrupted inputs against clean targets, then assembled into
a single 5-layer network whose encoder half produces the bottleneck
features. Plain numpy, mini-batch gradient descent with momentum.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .features import FeatureMatrix

MODEL_MAGIC = b"SDAE"
MODEL_VERSION = 1

# The one layout: encoder tanh then sigmoid, decoder sigmoid then linear.
ACTIVATIONS = ("tanh", "sigmoid", "sigmoid", "linear")

# The per-epoch clean loss is measured on every (n // CLEAN_LOSS_ROWS)-th
# training row: 512 to 1023 rows, or all of them below 1024. It is only
# recorded, so no parameter depends on the sample.
CLEAN_LOSS_ROWS = 512

# The training recipe, the same for both autoencoders.
BOTTLENECK_DIM = 21
CORRUPTION_LEVEL = 0.2  # std of the additive Gaussian noise
# The loss sums squared error over every input dim (1001 for 7 spliced
# channels), so the step has to be small: at 0.01 SGD is chaotic and the
# trained features follow the BLAS summation order, i.e. the thread count.
LEARNING_RATE = 0.001
MOMENTUM = 0.05  # fraction of the previous SGD step each step keeps
EPOCHS = 10
BATCH_SIZE = 256
# Rows per ``corrupt`` call on the drawing thread: numpy's normal draw holds
# the GIL, so short slices let the training thread run between them.
DRAW_ROWS = 32


@dataclass
class Network:
    """Symmetric 5-layer autoencoder with the ``ACTIVATIONS`` layout; layers
    0..1 are the encoder. Layer sizes are read from the weight shapes."""

    weights: list[np.ndarray]  # (n_in, n_out) per transition
    biases: list[np.ndarray]
    train_losses: list[list[float]] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(ACTIVATIONS) or len(self.biases) != len(ACTIVATIONS):
            raise ValueError(f"need {len(ACTIVATIONS)} weight matrices and bias vectors, got {len(self.weights)}")
        dims = self.layer_dims
        if dims != dims[::-1]:
            raise ValueError(f"layer sizes {dims} are not symmetric")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} parameter shape mismatch")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")

    @property
    def layer_dims(self) -> list[int]:
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[-1]]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def bottleneck_dim(self) -> int:
        return self.weights[1].shape[-1]

    def encode(self, X: np.ndarray) -> np.ndarray:
        a = np.asarray(X, dtype=np.float64)
        for w, b, act in zip(self.weights[:2], self.biases[:2], ACTIVATIONS[:2]):
            a = _layer(a, w, b, act)
        return a


def _layer(a, w, b, kind):
    """``kind`` activation of ``a @ w + b`` in the product's own buffer (the
    expression ``a @ w + b`` is about 3x slower on a 256x1001 output)."""
    z = a @ w
    z += b
    if kind == "sigmoid":  # 1 / (1 + exp(-z))
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    return np.tanh(z, out=z) if kind == "tanh" else z


def _act_deriv_from_output(a, kind):
    """Derivative of a tanh or sigmoid layer from its output. A linear
    layer's is 1, so ``loss_and_grads`` skips that multiply."""
    return 1.0 - a**2 if kind == "tanh" else a * (1.0 - a)


def _init_layer(n_in: int, n_out: int, rng: np.random.Generator):
    """Glorot-uniform weights and zero biases, for every activation: the
    4x wider range often used for sigmoid layers drives about a third of
    the bottleneck outputs into saturation."""
    scale = np.sqrt(6.0 / (n_in + n_out))
    w = rng.uniform(-scale, scale, size=(n_in, n_out))
    return w, np.zeros(n_out)


def corrupt(x: np.ndarray, level: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise of std ``level``; identity at level 0. The
    noise is scaled and added in the buffer it is drawn into, with the bits
    of ``level * z + x`` (and the draws of ``rng.normal(0.0, level)``)."""
    if level == 0.0:
        return x
    noisy = rng.standard_normal(x.shape)
    noisy *= level
    noisy += x
    return noisy


def _forward(weights, biases, activations, x_in, x_target):
    """The activations of every layer (input first) and the output error. A
    linear output layer's buffer is overwritten by the error: no derivative
    reads it."""
    acts = [np.asarray(x_in, dtype=np.float64)]
    for w, b, kind in zip(weights, biases, activations):
        acts.append(_layer(acts[-1], w, b, kind))
    diff = np.subtract(acts[-1], x_target, out=acts[-1] if activations[-1] == "linear" else None)
    return acts, diff


def loss_and_grads(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    activations: list[str],
    x_in: np.ndarray,
    x_target: np.ndarray,
):
    """Mean (over batch) summed squared reconstruction error and its
    gradients for a feed-forward chain of any depth. Each delta is formed in
    the buffer of the error or product it scales, and the target is let go
    once the error is formed."""
    acts, diff = _forward(weights, biases, activations, x_in, x_target)
    del x_target
    loss = float((diff**2).sum() / len(x_in))
    grads_w, grads_b = [], []
    delta = np.multiply(2.0 / len(x_in), diff, out=diff)
    if activations[-1] != "linear":
        delta *= _act_deriv_from_output(acts[-1], activations[-1])
    for i in range(len(weights) - 1, -1, -1):
        grads_w.append(acts[i].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = delta @ weights[i].T
            delta *= _act_deriv_from_output(acts[i], activations[i - 1])
    return loss, grads_w[::-1], grads_b[::-1]


def _noisy_batches(X, rng):
    """Every epoch's ``permutation`` of the rows, then each mini-batch's rows
    and their corrupted copy, drawn ``DRAW_ROWS`` rows at a time: one
    sequential stream with the bits of one ``corrupt`` call per batch."""
    n = len(X)
    for _ in range(EPOCHS):
        order = rng.permutation(n)
        for lo in range(0, n, BATCH_SIZE):
            idx = order[lo : lo + BATCH_SIZE]
            noisy = np.empty((len(idx), X.shape[1]))
            for a in range(0, len(idx), DRAW_ROWS):
                noisy[a : a + DRAW_ROWS] = corrupt(X[idx[a : a + DRAW_ROWS]], CORRUPTION_LEVEL, rng)
            yield idx, noisy


def _train_single_dae(X, n_hidden, acts, rng):
    """Mini-batch SGD with momentum. After the two initial weight draws the
    rng belongs to one worker thread, which draws the next batch's noise
    while this thread runs the current step's products."""
    n, n_in = X.shape
    w_enc, b_enc = _init_layer(n_in, n_hidden, rng)
    w_dec, b_dec = _init_layer(n_hidden, n_in, rng)
    weights, biases = [w_enc, w_dec], [b_enc, b_dec]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    sample = X[:: max(1, n // CLEAN_LOSS_ROWS)]

    def clean_loss():  # the loss of loss_and_grads, squared in the error's buffer
        diff = _forward(weights, biases, acts, sample, sample)[1]
        return float(np.square(diff, out=diff).sum() / len(sample))

    losses = [clean_loss()]
    batches = _noisy_batches(X, rng)
    with ThreadPoolExecutor(max_workers=1) as drawer:
        pending = drawer.submit(next, batches)
        for epoch in range(EPOCHS):
            for _ in range(0, n, BATCH_SIZE):
                idx, noisy = pending.result()
                # One batch ahead, so two noisy batches are held at a time;
                # past the last one the stream ends with no further draw.
                pending = drawer.submit(next, batches, None)
                loss, gw, gb = loss_and_grads(weights, biases, acts, noisy, X[idx])
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged at epoch {epoch}, loss history so far: {losses}"
                    )
                for i in range(len(weights)):  # v = MOMENTUM * v - LEARNING_RATE * g, in place
                    vel_w[i] *= MOMENTUM
                    vel_w[i] -= np.multiply(gw[i], LEARNING_RATE, out=gw[i])
                    vel_b[i] *= MOMENTUM
                    vel_b[i] -= np.multiply(gb[i], LEARNING_RATE, out=gb[i])
                    weights[i] += vel_w[i]
                    biases[i] += vel_b[i]
                del gw, gb  # not held through the next step's forward pass
            losses.append(clean_loss())
    return (w_enc, b_enc), (w_dec, b_dec), losses


def pretrain_stack(X: np.ndarray, hidden_dim: int, seed: int) -> Network:
    """Greedy layer-wise pretraining: a tanh/linear autoencoder on the raw
    feature rows ``X``, then a sigmoid/sigmoid one on its codes down to
    ``BOTTLENECK_DIM``. Deterministic given ``seed``; per-epoch clean
    reconstruction losses, measured on a fixed strided sample of the rows,
    are kept on the result.
    """
    if len(X) < BATCH_SIZE:
        raise ValueError(f"need at least {BATCH_SIZE} frames to train (got {len(X)})")
    rng = np.random.default_rng(seed)

    enc1, dec1, losses1 = _train_single_dae(X, hidden_dim, ACTIVATIONS[::3], rng)
    codes = _layer(X, enc1[0], enc1[1], ACTIVATIONS[0])
    enc2, dec2, losses2 = _train_single_dae(codes, BOTTLENECK_DIM, ACTIVATIONS[1:3], rng)

    return Network(
        weights=[enc1[0], enc2[0], dec2[0], dec1[0]],
        biases=[enc1[1], enc2[1], dec2[1], dec1[1]],
        train_losses=[losses1, losses2],
    )


def bottleneck(net: Network, f: FeatureMatrix) -> FeatureMatrix:
    """Encoder-only forward pass (no corruption at inference)."""
    if f.dim != net.input_dim:
        raise ValueError(f"feature dim {f.dim} does not match network input {net.input_dim}")
    return replace(f, data=net.encode(f.data))


def network_bytes(net: Network) -> bytes:
    """The model file: magic, version, layer count and layer sizes, then each
    layer's weights and biases as row-major little-endian float64."""
    dims = net.layer_dims
    layers = [a.astype("<f8").tobytes(order="C") for pair in zip(net.weights, net.biases) for a in pair]
    return struct.pack(f"<4sII{len(dims)}I", MODEL_MAGIC, MODEL_VERSION, len(dims), *dims) + b"".join(layers)


def load_network(path: str) -> Network:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than the 12-byte model header")
    magic, version, n_dims = struct.unpack_from("<4sII", data)
    if magic != MODEL_MAGIC:
        raise ValueError(f"{path}: not a network model file")
    if version != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    at = 12 + 4 * n_dims
    if len(data) < at:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than the header and its {n_dims} layer sizes")
    dims = struct.unpack_from(f"<{n_dims}I", data, 12)
    expected = 8 * sum(n_in * n_out + n_out for n_in, n_out in zip(dims, dims[1:]))
    if len(data) - at != expected:
        raise ValueError(f"{path}: {len(data) - at} bytes of weights, the header declares {expected}")
    weights, biases = [], []
    for n_in, n_out in zip(dims, dims[1:]):
        weights.append(np.frombuffer(data, "<f8", count=n_in * n_out, offset=at).reshape(n_in, n_out).copy())
        biases.append(np.frombuffer(data, "<f8", count=n_out, offset=at + 8 * n_in * n_out).copy())
        at += 8 * (n_in * n_out + n_out)
    return Network(weights=weights, biases=biases)
