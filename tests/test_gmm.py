import math

import mpmath
import numpy as np
import pytest

from diarkit import gmm
from diarkit.gmm import Gmm, em_fit, em_refine, kmeans_init, merge_init


def two_cluster_data(seed=0, centers=(0.0, 100.0), n=500):
    rng = np.random.default_rng(seed)
    a = rng.normal(centers[0], 1.0, size=(n, 1))
    b = rng.normal(centers[1], 1.0, size=(n, 1))
    return np.vstack([a, b])


def test_log_likelihood_standard_normal_at_zero():
    g = Gmm(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    expected = math.log(1.0 / math.sqrt(2 * math.pi))
    assert abs(g.log_likelihood(np.array([[0.0]])) - expected) < 1e-12
    assert abs(expected + 0.918939) < 1e-6


def test_log_likelihood_additivity_under_duplication():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 3))
    g = em_fit(X, 2, seed=0)
    single = g.log_likelihood(X)
    double = g.log_likelihood(np.vstack([X, X]))
    assert abs(double - 2 * single) < 1e-9


def test_log_likelihood_matches_high_precision_sum():
    # oracle: evaluate the mixture density in 50-digit arithmetic
    rng = np.random.default_rng(2)
    weights = np.array([0.3, 0.7])
    means = np.array([[0.5, -1.0], [2.0, 1.5]])
    variances = np.array([[0.8, 1.2], [2.0, 0.5]])
    g = Gmm(weights=weights, means=means, variances=variances)
    X = rng.normal(size=(10, 2))
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for x in X:
            density = mpmath.mpf(0)
            for m in range(2):
                quad = mpmath.mpf(0)
                norm = mpmath.mpf(1)
                for d in range(2):
                    quad += (mpmath.mpf(x[d]) - mpmath.mpf(means[m, d])) ** 2 / mpmath.mpf(variances[m, d])
                    norm /= mpmath.sqrt(2 * mpmath.pi * mpmath.mpf(variances[m, d]))
                density += mpmath.mpf(weights[m]) * norm * mpmath.exp(-quad / 2)
            total += mpmath.log(density)
        expected = float(total)
    assert abs(g.log_likelihood(X) - expected) < 1e-10


def broadcast_log_densities(g, X):
    """Direct formula: log w + log N(x; mu, diag sigma2) with the squared
    distance summed term by term."""
    quad = ((X[:, None, :] - g.means[None]) ** 2 / g.variances[None]).sum(axis=2)
    const = -0.5 * (g.dim * math.log(2 * math.pi) + np.log(g.variances).sum(axis=1))
    return np.log(g.weights) + const - 0.5 * quad


@pytest.mark.parametrize("case", ["unit", "offset", "floored_constant", "twelve_components"])
def test_component_log_densities_match_broadcast_formula(case):
    rng = np.random.default_rng(11)
    M, dim = (12 if case == "twelve_components" else 3), 6
    X = rng.normal(size=(100, dim))
    means = rng.normal(size=(M, dim))
    variances = rng.uniform(0.5, 2.0, size=(M, dim))
    if case == "offset":
        X += 1e3
        means += 1e3
        variances = rng.uniform(0.9, 1.1, size=(M, dim))
    elif case == "floored_constant":
        # a dimension the data never leaves, its variance at the absolute
        # floor: any cancellation there is scaled by 1 / ABS_VAR_FLOOR
        X[:, 0] = 7.0
        means[:, 0] = 7.0
        variances[:, 0] = gmm.ABS_VAR_FLOOR
    weights = rng.dirichlet(np.ones(M)) if M != 3 else [0.2, 0.3, 0.5]
    g = Gmm(weights=weights, means=means, variances=variances)
    np.testing.assert_allclose(g.component_log_densities(X), broadcast_log_densities(g, X), rtol=0, atol=1e-9)


def test_log_likelihood_invariant_under_component_permutation():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    g = em_fit(X, 3, seed=1)
    perm = [2, 0, 1]
    swapped = Gmm(weights=g.weights[perm], means=g.means[perm], variances=g.variances[perm])
    assert abs(g.log_likelihood(X) - swapped.log_likelihood(X)) < 1e-9


def test_log_likelihood_dim_mismatch():
    g = Gmm(weights=[1.0], means=[[0.0, 0.0]], variances=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="dim"):
        g.log_likelihood(np.zeros((5, 3)))


def test_kmeans_single_component_is_sample_stats():
    rng = np.random.default_rng(4)
    X = rng.normal(2.0, 3.0, size=(200, 2))
    g = kmeans_init(X, 1, seed=0)
    np.testing.assert_allclose(g.means[0], X.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(g.variances[0], X.var(axis=0), atol=1e-12)


def test_kmeans_separated_clusters():
    X = two_cluster_data(seed=5)
    g = kmeans_init(X, 2, seed=0)
    found = sorted(g.means.ravel())
    assert abs(found[0] - 0.0) < 0.5
    assert abs(found[1] - 100.0) < 0.5


def test_kmeans_frames_equal_components():
    X = np.array([[0.0], [10.0], [20.0]])
    g = kmeans_init(X, 3, seed=0)
    assert sorted(g.means.ravel().tolist()) == [0.0, 10.0, 20.0]
    floor = gmm.variance_floor(X)
    np.testing.assert_allclose(g.variances, np.tile(floor, (3, 1)))


def test_kmeans_too_few_frames():
    with pytest.raises(ValueError):
        kmeans_init(np.zeros((2, 1)), 3, seed=0)


def test_em_single_gaussian_recovers_sample_stats():
    rng = np.random.default_rng(6)
    X = rng.normal(-1.0, 2.0, size=(300, 2))
    g = em_refine(kmeans_init(X, 1, seed=0), X, max_iters=1)
    np.testing.assert_allclose(g.means[0], X.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(g.variances[0], X.var(axis=0), atol=1e-12)


def test_em_two_components_recover_centers():
    X = two_cluster_data(seed=7)
    g = em_fit(X, 2, seed=0)
    found = sorted(g.means.ravel())
    assert abs(found[0] - 0.0) < 0.5
    assert abs(found[1] - 100.0) < 0.5
    np.testing.assert_allclose(sorted(g.weights), [0.5, 0.5], atol=0.05)


def test_em_monotone_log_likelihood_many_datasets():
    rng = np.random.default_rng(8)
    for trial in range(50):
        dim = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(max(30, 2 * m), 200))
        X = rng.normal(size=(n, dim)) * rng.uniform(0.5, 3) + rng.normal(size=dim)
        g = em_fit(X, m, seed=trial)
        hist = np.array(g.fit_history)
        assert (np.diff(hist) >= -1e-8).all(), f"trial {trial}: {hist}"


def test_em_variance_floor_enforced():
    X = np.vstack([np.zeros((50, 2)), np.ones((50, 2))])
    g = em_fit(X, 2, seed=0)
    floor = gmm.variance_floor(X)
    assert (g.variances >= floor - 1e-15).all()


def test_em_needs_twice_the_components():
    with pytest.raises(ValueError, match="frames"):
        em_fit(np.zeros((3, 1)), 2, seed=0)


def test_merge_init_preserves_weight_simplex():
    rng = np.random.default_rng(9)
    g1 = em_fit(rng.normal(size=(50, 2)), 2, seed=0)
    g2 = em_fit(rng.normal(size=(50, 2)), 2, seed=1)
    merged = merge_init(g1, g2)
    assert merged.n_components == 4
    assert abs(merged.weights.sum() - 1.0) < 1e-12


def test_em_refine_warm_start_is_monotone_from_given_params():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(120, 3))
    g0 = kmeans_init(X, 2, seed=0)
    start_ll = g0.log_likelihood(X)
    g1 = em_refine(g0, X, max_iters=10)
    assert g1.log_likelihood(X) >= start_ll - 1e-8


def test_em_refine_records_its_final_total_log_likelihood():
    rng = np.random.default_rng(12)
    X = np.vstack([rng.normal(0.0, 1.0, size=(150, 3)), rng.normal(4.0, 1.0, size=(150, 3))])
    g = em_refine(kmeans_init(X, 3, seed=0), X, max_iters=5, tol=0.0)
    assert g.fit_log_likelihood == g.log_likelihood(X)
    assert g.fit_history[-1] == float(g.per_frame_log_likelihood(X).mean())
