import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from diarkit import dae
from diarkit.dae import bottleneck, corrupt, load_network, network_bytes, pretrain_stack
from diarkit.features import FeatureMatrix


def random_network(input_dim, hidden_dim, bottleneck_dim, seed):
    """Untrained network with the standard layout and small random biases,
    for gradient checks and model-file tests."""
    rng = np.random.default_rng(seed)
    dims = [input_dim, hidden_dim, bottleneck_dim, hidden_dim, input_dim]
    weights, biases = [], []
    for i in range(4):
        w, b = dae._init_layer(dims[i], dims[i + 1], rng)
        weights.append(w)
        biases.append(rng.normal(0.0, 0.1, size=b.shape))
    return dae.Network(weights=weights, biases=biases)


@pytest.fixture
def recipe(monkeypatch):
    """Sets ``dae``'s training constants for one test, by lower-case name:
    ``recipe(epochs=2, batch_size=64)``. Small data needs small networks."""

    def set_constants(**values):
        for name, value in values.items():
            monkeypatch.setattr(dae, name.upper(), value)

    return set_constants


def test_corrupt_level_zero_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 5))
    assert np.array_equal(corrupt(x, 0.0, rng), x)


def test_corrupt_gaussian_noise_std():
    # Monte-Carlo check of the noise model on zero input
    rng = np.random.default_rng(2)
    x = np.zeros(100_000)
    noisy = corrupt(x, 0.2, rng)
    assert 0.195 <= noisy.std() <= 0.205


def test_corrupt_has_the_bits_of_scaled_draws_plus_input():
    x = np.random.default_rng(3).normal(size=(64, 9))
    noisy = corrupt(x, 0.3, np.random.default_rng(4))
    assert noisy.tobytes() == (0.3 * np.random.default_rng(4).standard_normal(x.shape) + x).tobytes()
    assert noisy is not x


def test_gradients_match_finite_differences():
    # oracle: central differences on the full-stack reconstruction loss
    net = random_network(7, 4, 2, seed=42)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(6, 7))
    _, gw, gb = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
    h = 1e-5
    checks = 0
    worst = 0.0
    rel_errors = []
    for li in range(4):
        w = net.weights[li]
        for _ in range(4):
            i, j = rng.integers(w.shape[0]), rng.integers(w.shape[1])
            orig = w[i, j]
            w[i, j] = orig + h
            up, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
            w[i, j] = orig - h
            dn, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
            w[i, j] = orig
            numeric = (up - dn) / (2 * h)
            analytic = gw[li][i, j]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
            rel_errors.append(rel)
            worst = max(worst, rel)
            checks += 1
        b = net.biases[li]
        j = rng.integers(b.shape[0])
        orig = b[j]
        b[j] = orig + h
        up, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
        b[j] = orig - h
        dn, _, _ = dae.loss_and_grads(net.weights, net.biases, dae.ACTIVATIONS, X, X)
        b[j] = orig
        numeric = (up - dn) / (2 * h)
        rel = abs(numeric - gb[li][j]) / max(abs(numeric), abs(gb[li][j]), 1e-8)
        worst = max(worst, rel)
        checks += 1
    assert checks >= 20
    assert worst < 1e-4


def rank_one_features(n=600, dim=24, seed=0):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    scalars = rng.normal(size=(n, 1))
    return scalars * direction


def test_rank_one_data_is_compressible(recipe):
    X = rank_one_features()
    recipe(corruption_level=0.0, epochs=5, batch_size=64, learning_rate=0.02, bottleneck_dim=3)
    net = pretrain_stack(X, hidden_dim=8, seed=0)
    losses = net.train_losses[0]
    assert losses[-1] < 0.25 * losses[0]


def test_pretrain_deterministic(recipe):
    X = rank_one_features(seed=1)
    recipe(epochs=2, batch_size=64, bottleneck_dim=3)
    n1 = pretrain_stack(X, hidden_dim=8, seed=5)
    n2 = pretrain_stack(X, hidden_dim=8, seed=5)
    for w1, w2 in zip(n1.weights, n2.weights):
        assert np.array_equal(w1, w2)


def test_clean_loss_matches_loss_and_grads_exactly(recipe):
    # The per-epoch clean loss is a forward-only pass; it must be the very
    # value the training step's loss_and_grads gives on the same weights.
    X = rank_one_features(n=300, dim=12, seed=4)
    recipe(epochs=2, batch_size=64, bottleneck_dim=3)
    net = pretrain_stack(X, hidden_dim=6, seed=3)
    w, b = net.weights, net.biases
    first, _, _ = dae.loss_and_grads([w[0], w[3]], [b[0], b[3]], ["tanh", "linear"], X, X)
    codes = np.tanh(X @ w[0] + b[0])
    second, _, _ = dae.loss_and_grads([w[1], w[2]], [b[1], b[2]], ["sigmoid", "sigmoid"], codes, codes)
    assert net.train_losses[0][-1] == first
    assert net.train_losses[1][-1] == second


def test_clean_loss_uses_a_fixed_strided_sample(recipe):
    # 2000 rows: the clean loss reads every 2000 // 512 = 3rd row, taken
    # without drawing from the training stream.
    X = rank_one_features(n=2000, dim=12, seed=4)
    recipe(epochs=1, bottleneck_dim=3)
    net = pretrain_stack(X, hidden_dim=6, seed=3)
    w, b = net.weights, net.biases
    first, _, _ = dae.loss_and_grads([w[0], w[3]], [b[0], b[3]], ["tanh", "linear"], X[::3], X[::3])
    codes = np.tanh(X @ w[0] + b[0])
    second, _, _ = dae.loss_and_grads([w[1], w[2]], [b[1], b[2]], ["sigmoid", "sigmoid"], codes[::3], codes[::3])
    assert net.train_losses[0][-1] == first
    assert net.train_losses[1][-1] == second


def test_training_loss_mostly_non_increasing(recipe):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(512, 16)) @ rng.normal(size=(16, 16)) * 0.5
    recipe(corruption_level=0.1, batch_size=64, bottleneck_dim=4)
    net = pretrain_stack(X, hidden_dim=8, seed=2)
    for losses in net.train_losses:
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).mean() >= 0.8, losses


def test_pretrain_needs_enough_frames():
    with pytest.raises(ValueError, match="frames"):
        pretrain_stack(np.zeros((10, 4)), hidden_dim=3, seed=0)


def test_divergence_aborts_with_diagnostics(recipe):
    X = rank_one_features(n=300, dim=10, seed=9) * 100
    recipe(learning_rate=1e6, batch_size=64, bottleneck_dim=2)
    with pytest.raises(RuntimeError, match="diverged"), np.errstate(all="ignore"):
        pretrain_stack(X, hidden_dim=6, seed=0)


def test_bottleneck_dims_and_range(recipe):
    X = rank_one_features(n=400, dim=20, seed=3)
    recipe(epochs=2, batch_size=64, bottleneck_dim=5)
    net = pretrain_stack(X, hidden_dim=10, seed=0)
    f = FeatureMatrix(X)
    out = bottleneck(net, f)
    assert out.dim == 5
    assert out.n_frames == f.n_frames
    assert ((out.data > 0) & (out.data < 1)).all()  # sigmoid bottleneck


def wide_features(n, dim=1001, rank=3, seed=0):
    """Standardized rank-3-plus-noise rows as wide as criterion 1's spliced
    input (7 channels x 13 MFCCs x 11 frames). The strong low-rank part is
    what made the old default step chaotic."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, dim)) + 0.5 * rng.normal(size=(n, dim))
    return (X - X.mean(axis=0)) / X.std(axis=0)


def test_bottleneck_not_saturated_on_wide_input():
    X = wide_features(2048)
    out = pretrain_stack(X, hidden_dim=91, seed=0).encode(X)
    saturated = ((out < 0.01) | (out > 0.99)).mean()
    assert saturated <= 0.05, saturated


_TRAIN_IN_CHILD = """
import sys
import numpy as np
from diarkit.dae import pretrain_stack
X = np.load(sys.argv[1])
np.save(sys.argv[2], pretrain_stack(X, hidden_dim=91, seed=0).encode(X))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to run OpenBLAS with two threads")
def test_bottleneck_independent_of_blas_threads(tmp_path):
    # OpenBLAS splits matrix products differently at 1 and 2 threads, so the
    # sums differ in the last bits; stable training must not amplify that.
    np.save(tmp_path / "X.npy", wide_features(4096))
    src = os.path.dirname(os.path.dirname(dae.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _TRAIN_IN_CHILD, str(tmp_path / "X.npy"), str(tmp_path / f"bnf{threads}.npy")],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath),
        )
        for threads in ("1", "2")
    }
    try:
        for threads, child in children.items():
            assert child.wait(timeout=300) == 0, f"training at {threads} BLAS threads failed"
    finally:
        for child in children.values():
            child.kill()
    one, two = (np.load(tmp_path / f"bnf{threads}.npy") for threads in children)
    assert np.abs(one - two).max() <= 1e-9


def test_bottleneck_rowwise_stateless(recipe):
    X = rank_one_features(n=300, dim=12, seed=4)
    recipe(epochs=1, batch_size=64, bottleneck_dim=2)
    net = pretrain_stack(X, hidden_dim=6, seed=1)
    f = FeatureMatrix(np.vstack([X[:5], X[:5]]))
    out = bottleneck(net, f).data
    np.testing.assert_array_equal(out[:5], out[5:])


def test_bottleneck_dim_mismatch():
    net = random_network(8, 4, 2, seed=0)
    with pytest.raises(ValueError, match="dim"):
        bottleneck(net, FeatureMatrix(np.zeros((3, 5))))


def test_network_save_load_round_trip(tmp_path):
    net = random_network(9, 5, 3, seed=6)
    path = tmp_path / "model.sdae"
    path.write_bytes(network_bytes(net))
    back = load_network(str(path))
    assert back.layer_dims == net.layer_dims
    for w1, w2 in zip(net.weights, back.weights):
        assert np.array_equal(w1, w2)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4, 9))
    np.testing.assert_array_equal(net.encode(X), back.encode(X))


def write_model(path, dims, seed=0):
    """A model file in the ``network_bytes`` format with any list of layer
    sizes, including ones ``Network`` refuses."""
    rng = np.random.default_rng(seed)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", dae.MODEL_MAGIC, dae.MODEL_VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for n_in, n_out in zip(dims, dims[1:]):
            fh.write(rng.normal(size=(n_in, n_out)).astype("<f8").tobytes())
            fh.write(rng.normal(size=n_out).astype("<f8").tobytes())


@pytest.mark.parametrize(
    "dims, message",
    [((286, 91, 21, 91), "need 4"), ((9, 5, 3, 4, 9), "not symmetric"), ((9, 5, 3, 5, 9, 5, 9), "need 4")],
    ids=["four-sizes", "asymmetric", "seven-sizes"],
)
def test_load_network_refuses_other_layouts(tmp_path, dims, message):
    path = tmp_path / "model.sdae"
    write_model(path, dims)
    with pytest.raises(ValueError, match=message):
        load_network(str(path))


WRONG_WEIGHTS = r"\d+ bytes of weights, the header declares"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: data[:6], "6 bytes, shorter than the 12-byte model header"),
        (lambda data: data[:20], "20 bytes, shorter than the header and its 5 layer sizes"),
        (lambda data: data[:-8], WRONG_WEIGHTS),
        (lambda data: data[:-1], WRONG_WEIGHTS),
        (lambda data: data + b"\x00" * 8, WRONG_WEIGHTS),
    ],
    ids=["short-header", "short-sizes", "short-layer", "short-byte", "padded"],
)
def test_load_network_refuses_wrong_length(tmp_path, edit, message):
    # A model file cut off by a failed write, or one with bytes appended,
    # fails naming the file instead of deep inside struct or numpy.
    path = tmp_path / "model.sdae"
    path.write_bytes(edit(network_bytes(random_network(9, 5, 3, seed=6))))
    with pytest.raises(ValueError, match=r"model\.sdae: " + message):
        load_network(str(path))


def test_load_network_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="model"):
        load_network(str(path))
