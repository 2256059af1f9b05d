"""Diagonal-covariance Gaussian mixtures fitted with EM.

Used as the emission densities of HMM states and as the models behind the
equal-parameter-count merge test, so the variance floor and the exact
log-likelihood bookkeeping matter more than raw speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LOG_2PI = np.log(2.0 * np.pi)

# Relative variance floor: fraction of the global per-dimension variance.
VAR_FLOOR_FRACTION = 1e-3
ABS_VAR_FLOOR = 1e-12
WEIGHT_FLOOR = 1e-10


@dataclass
class Gmm:
    weights: np.ndarray  # (M,), simplex
    means: np.ndarray  # (M, dim)
    variances: np.ndarray  # (M, dim), diagonal covariances
    fit_history: list[float] = field(default_factory=list, repr=False, compare=False)
    # Total log-likelihood of the data ``em_refine`` fitted, at these
    # parameters; the merge test reads its gain from it.
    fit_log_likelihood: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {self.weights.sum()}, expected 1")
        if (self.variances <= 0).any():
            raise ValueError("variances must be positive")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component_log_densities(self, X: np.ndarray) -> np.ndarray:
        """(frames, M) matrix of log w_m + log N(x; mu_m, diag sigma2_m), the
        squared distance expanded into matrix products. Data and means are
        centred on the mean of the component means first: the expansion
        subtracts terms of size (x / sigma)^2, which would swamp the distance
        when both sit far from 0 relative to sigma.

        The result is the transpose of a C-ordered (M, frames) array, so
        ``.T`` gives component-major rows that reductions over components
        walk contiguously."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise ValueError(f"dim mismatch: data {X.shape[1]}, model {self.dim}")
        centre = self.means.mean(axis=0)
        Xc, mc = X - centre, self.means - centre
        precision = 1.0 / self.variances
        const = np.log(self.weights) - 0.5 * (
            self.dim * LOG_2PI + np.log(self.variances).sum(axis=1) + (mc**2 * precision).sum(axis=1)
        )
        return (const[:, None] - 0.5 * (precision @ (Xc**2).T) + (mc * precision) @ Xc.T).T

    def per_frame_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        return _log_sum_exp(self.component_log_densities(X).T)

    def log_likelihood(self, X: np.ndarray) -> float:
        return float(self.per_frame_log_likelihood(X).sum())


def _log_sum_exp(lp: np.ndarray) -> np.ndarray:
    """Per-frame log-sum-exp of a component-major (M, frames) array."""
    m = lp.max(axis=0)
    return m + np.log(np.exp(lp - m).sum(axis=0))


def variance_floor(X: np.ndarray) -> np.ndarray:
    return np.maximum(VAR_FLOOR_FRACTION * np.asarray(X, dtype=np.float64).var(axis=0), ABS_VAR_FLOOR)


def kmeans_init(X: np.ndarray, n_components: int, seed: int) -> Gmm:
    """k-means++ seeding followed by a short Lloyd refinement; empty clusters
    are re-seeded from the farthest point."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, dim = X.shape
    if n < n_components:
        raise ValueError(f"need at least {n_components} frames, got {n}")
    rng = np.random.default_rng(seed)
    floor = variance_floor(X)

    centers = np.empty((n_components, dim))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for k in range(1, n_components):
        total = d2.sum()
        if total <= 0:
            centers[k] = X[rng.integers(n)]
        else:
            centers[k] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[k]) ** 2).sum(axis=1))

    for _ in range(20):
        dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        new_centers = centers.copy()
        for k in range(n_components):
            members = X[assign == k]
            if len(members) == 0:
                far = dists.min(axis=1).argmax()
                new_centers[k] = X[far]
            else:
                new_centers[k] = members.mean(axis=0)
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers

    dists = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = dists.argmin(axis=1)
    weights = np.empty(n_components)
    means = np.empty((n_components, dim))
    variances = np.empty((n_components, dim))
    for k in range(n_components):
        members = X[assign == k]
        if len(members) == 0:
            members = X[[dists.min(axis=1).argmax()]]
        weights[k] = max(len(members) / n, WEIGHT_FLOOR)
        means[k] = members.mean(axis=0)
        variances[k] = np.maximum(members.var(axis=0), floor)
    weights /= weights.sum()
    return Gmm(weights=weights, means=means, variances=variances)


def em_refine(g: Gmm, X: np.ndarray, max_iters: int = 20, tol: float = 1e-4) -> Gmm:
    """EM from an existing model (warm start), so the data log-likelihood is
    non-decreasing from the given parameters onward."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    X2 = X**2
    n = len(X)
    floor = variance_floor(X)
    weights, means, variances = g.weights.copy(), g.means.copy(), g.variances.copy()
    history = []
    for _ in range(max_iters):
        model = Gmm(weights=weights, means=means, variances=variances)
        lp = model.component_log_densities(X).T  # (M, frames)
        log_norm = _log_sum_exp(lp)
        mean_ll = float(log_norm.mean())
        if not np.isfinite(mean_ll):
            raise RuntimeError(f"non-finite likelihood at EM iteration {len(history)}")
        history.append(mean_ll)
        resp = np.exp(lp - log_norm)
        nk = resp.sum(axis=1)
        weights = np.maximum(nk / n, WEIGHT_FLOOR)
        weights /= weights.sum()
        safe_nk = np.maximum(nk, 1e-300)[:, None]
        means = (resp @ X) / safe_nk
        variances = np.maximum((resp @ X2) / safe_nk - means**2, floor)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol:
            break
    out = Gmm(weights=weights, means=means, variances=variances)
    final = out.per_frame_log_likelihood(X)
    out.fit_log_likelihood = float(final.sum())
    history.append(float(final.mean()))
    out.fit_history = history
    return out


def em_fit(X: np.ndarray, n_components: int, seed: int) -> Gmm:
    """k-means initialization plus EM on a diagonal GMM."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if len(X) < 2 * n_components:
        raise ValueError(f"need at least {2 * n_components} frames for {n_components} components")
    init = kmeans_init(X, n_components, seed)
    return em_refine(init, X)


def merge_init(g1: Gmm, g2: Gmm) -> Gmm:
    """Pool the children's components with halved weights: same parameter
    count as the two children together."""
    if g1.dim != g2.dim:
        raise ValueError("cannot merge mixtures of different dimension")
    return Gmm(
        weights=np.concatenate([g1.weights, g2.weights]) / 2.0,
        means=np.vstack([g1.means, g2.means]),
        variances=np.vstack([g1.variances, g2.variances]),
    )
