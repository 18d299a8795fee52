"""Gaussian and Gaussian-mixture algebra.

All mixture weights live in the log domain and are combined with
log-sum-exp; the pairwise geometric-mean fusion of two mixtures with
exponents (w, 1-w) multiplies every cross pair of components, so linear
weights underflow quickly on a 4-D state space.

Conventions:
- a Gaussian power integrates in closed form,
      N(x; m, P)^w = beta(w, P) * N(x; m, P / w),
      beta(w, P) = det(2*pi*P/w)^(1/2) / det(2*pi*P)^(w/2)
- the geometric mean of two Gaussians is the covariance-intersection
  Gaussian, i.e. the weighted arithmetic mean of the information pairs
  (P^-1, P^-1 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every element; lean replacement for the scipy
    version (hot path)."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -np.inf
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(a - m).sum()))

# Relative floor on the smallest covariance eigenvalue.
PD_RTOL = 1e-12


class PositiveDefiniteError(ValueError):
    """Covariance is not symmetric positive-definite within tolerance."""


class EmptyFusionError(ValueError):
    """Every pairwise fusion weight underflowed to zero."""


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2, batched over leading axes."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def check_pd(cov: np.ndarray) -> None:
    with np.errstate(over="ignore"):  # overflowing entries give NaN eigenvalues, which fail below
        eig = np.linalg.eigvalsh(symmetrize(cov))
    if not (eig[..., -1].min() > 0.0 and (eig[..., 0] >= PD_RTOL * eig[..., -1]).all()):
        raise PositiveDefiniteError(
            f"covariance is not positive-definite within tolerance "
            f"(eigenvalue range {eig.min():.3e}..{eig.max():.3e})"
        )


def log_beta(omega: float, cov: np.ndarray) -> float:
    """log of the Gaussian-power normalizer beta(w, P); batched over leading axes."""
    d = cov.shape[-1]
    sign, logdet = np.linalg.slogdet(symmetrize(cov))
    if np.any(sign <= 0):
        raise PositiveDefiniteError("covariance has non-positive determinant in beta factor")
    return 0.5 * (1.0 - omega) * (d * LOG_2PI + logdet) - 0.5 * d * math.log(omega)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted Gaussian sum stored as stacked arrays: log_w (n,), means
    (n, d) and covs (n, d, d), with n >= 1. A normalized mixture has
    logsumexp(log_w) == 0.

    The record adopts its arrays as given: every producer builds float64
    arrays with exactly symmetric covariances, and the mixtures that come
    from outside are checked where they enter, by wire decode and by
    scenario load. `total_log_weight` sums log_w when asked.
    """

    log_w: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    @property
    def n_components(self) -> int:
        return self.log_w.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def total_log_weight(self) -> float:
        return logsumexp(self.log_w)

    def normalized(self) -> "GaussianMixture":
        total = self.total_log_weight()
        if not math.isfinite(total):
            raise ValueError("cannot normalize a zero-mass mixture")
        return GaussianMixture(self.log_w - total, self.means, self.covs)

    def argmax_component(self) -> int:
        """Index of the heaviest component (first on ties)."""
        return int(np.argmax(self.log_w))


def gm_key(p: GaussianMixture) -> tuple:
    """Content key for memoizing per-pdf computations; cached on the object."""
    try:
        return object.__getattribute__(p, "_content_key")
    except AttributeError:
        key = (p.log_w.tobytes(), p.means.tobytes(), p.covs.tobytes())
        object.__setattr__(p, "_content_key", key)
        return key


# Pivots whose gates one batched solve computes: enough for nearly every
# mixture an update reduces, while the (block, unclaimed, d) arrays stay
# small for the hundreds of components a fused pair of mixtures can have.
PIVOT_BLOCK = 16


def _rows(a: np.ndarray, idx: list[int]) -> np.ndarray:
    """a[idx] for sorted distinct indices, without a copy when idx is every row."""
    return a if len(idx) == len(a) else a[idx]


def gm_merge_prune_cap(
    p: GaussianMixture,
    merge_thresh: float,
    trunc_thresh: float,
    max_components: int,
) -> GaussianMixture:
    """Prune light components, merge near ones, cap the count, renormalize.

    merge_thresh is the squared-Mahalanobis gate, measured in the metric of
    the heavier (pivot) component of each cluster. Merging is
    moment-preserving. Cap-by-weight ties keep the earlier component.

    Salmond's greedy clustering: the heaviest component still unclaimed is
    the next pivot and claims every unclaimed component inside its gate.
    The distances from up to PIVOT_BLOCK unclaimed pivots come from one
    batched solve over their stacked covariances, whose columns have the
    bits of a solve per pivot; a mixture truncated to one component needs
    none. Singleton clusters, the common case, get their moments in one
    vectorized pass with the arithmetic of a one-member sum. Larger
    clusters are summed one at a time, since a batched sum could change the
    summation order. Neither moment sum is symmetric in the last bit, so the
    covariances are symmetrized: they come out exactly symmetric.
    """
    if p.n_components == 1:
        return p if p.log_w[0] == 0.0 else p.normalized()
    w = np.exp(p.log_w - p.total_log_weight())

    order = (-w).argsort(kind="stable")
    wo = w[order]
    order = order[(wo >= trunc_thresh) & (wo > 0.0)]
    if order.size == 0:
        order = np.array([int(np.argmax(w))])
    means, covs, ws = p.means[order], p.covs[order], w[order]  # heaviest first

    k = order.size
    clusters: list[list[int]] = []
    alive = [True] * k
    if k == 1:  # its own cluster, with no distance to compute
        clusters, alive = [[0]], [False]
    # pivot i -> (columns unclaimed when its block was solved, inside i's gate)
    gate: dict[int, tuple[list[int], list[bool]]] = {}
    for i in range(k):
        if not alive[i]:
            continue
        if i not in gate:
            cols = [j for j in range(k) if alive[j]]
            piv = [j for j in cols if j >= i][:PIVOT_BLOCK]
            diff = _rows(means, cols)[None, :, :] - _rows(means, piv)[:, None, :]
            sol = np.linalg.solve(_rows(covs, piv), diff.transpose(0, 2, 1)).transpose(0, 2, 1)
            inside = (np.einsum("ijk,ijk->ij", diff, sol) <= merge_thresh).tolist()
            gate.update((r, (cols, row)) for r, row in zip(piv, inside))
        cols, row = gate[i]
        cluster = [j for j, g in zip(cols, row) if g and alive[j]]
        for j in cluster:
            alive[j] = False
        clusters.append(cluster)

    wl = ws.tolist()
    tots = [wl[c[0]] if len(c) == 1 else ws[c].sum() for c in clusters]
    if len(clusters) > max_components:
        top = np.sort(np.argsort(-np.array(tots), kind="stable")[:max_components]).tolist()
        clusters, tots = [clusters[i] for i in top], [tots[i] for i in top]

    # a singleton's moments take the arithmetic of a one-member sum, which
    # starts from 0.0 and so turns -0.0 into 0.0; they are formed for the
    # first member of every cluster, and larger clusters overwrite theirs
    n, d = len(clusters), means.shape[1]
    if any(len(c) == 1 for c in clusters):
        first = [c[0] for c in clusters]
        sw, sm = _rows(ws, first)[:, None], _rows(means, first)
        mu = (0.0 + sw * sm) / sw
        dmu = sm - mu
        cv = (sw[:, :, None] * _rows(covs, first) + (0.0 + (sw * dmu)[:, :, None] * dmu[:, None, :])) / sw[:, :, None]
    else:
        mu, cv = np.empty((n, d)), np.empty((n, d, d))
    for out, cluster in enumerate(clusters):
        if len(cluster) != 1:
            cw, tot = ws[cluster], tots[out]
            mu[out] = (cw @ means[cluster]) / tot
            dmu = means[cluster] - mu[out]
            cv[out] = ((cw[:, None, None] * covs[cluster]).sum(axis=0) + (cw[:, None] * dmu).T @ dmu) / tot

    lw = np.log(np.array(tots) / sum(tots))
    return GaussianMixture(lw, mu, symmetrize(cv))


def _single_pair_chernoff(p_a: GaussianMixture, p_b: GaussianMixture, omega: float):
    """Closed-form fusion of two single-Gaussian mixtures (exact)."""
    d = p_a.dim
    pa, pb = p_a.covs[0], p_b.covs[0]
    ia, ib = np.linalg.inv(pa), np.linalg.inv(pb)
    cov = symmetrize(np.linalg.inv(omega * ia + (1.0 - omega) * ib))
    mean = cov @ (omega * (ia @ p_a.means[0]) + (1.0 - omega) * (ib @ p_b.means[0]))
    sep = pa / omega + pb / (1.0 - omega)
    dmu = p_a.means[0] - p_b.means[0]
    sign_a, logdet_a = np.linalg.slogdet(pa)
    sign_b, logdet_b = np.linalg.slogdet(pb)
    sign_s, logdet_s = np.linalg.slogdet(sep)
    if min(sign_a, sign_b, sign_s) <= 0:
        raise PositiveDefiniteError("covariance has non-positive determinant in pairwise fusion")
    log_mass = (
        omega * p_a.log_w[0]
        + (1.0 - omega) * p_b.log_w[0]
        + 0.5 * (1.0 - omega) * (d * LOG_2PI + logdet_a)
        - 0.5 * d * math.log(omega)
        + 0.5 * omega * (d * LOG_2PI + logdet_b)
        - 0.5 * d * math.log(1.0 - omega)
        - 0.5 * (d * LOG_2PI + logdet_s + dmu @ np.linalg.solve(sep, dmu))
    )
    return GaussianMixture(np.zeros(1), mean[None, :], cov[None, :, :]), float(log_mass)


def _pairwise_chernoff(p_a: GaussianMixture, p_b: GaussianMixture, omega: float):
    """All-pairs fused components and log weights for exponents (w, 1-w)."""
    na, nb, d = p_a.n_components, p_b.n_components, p_a.dim
    ia = np.linalg.inv(symmetrize(p_a.covs))
    ib = np.linalg.inv(symmetrize(p_b.covs))
    info = omega * ia[:, None] + (1.0 - omega) * ib[None, :]
    cov = symmetrize(np.linalg.inv(info))
    vec = omega * np.einsum("ijk,ik->ij", ia, p_a.means)[:, None, :] + (1.0 - omega) * np.einsum(
        "ijk,ik->ij", ib, p_b.means
    )[None, :, :]
    mean = np.einsum("abjk,abk->abj", cov, vec)

    lb_a = log_beta(omega, p_a.covs)       # (na,)
    lb_b = log_beta(1.0 - omega, p_b.covs)  # (nb,)
    sep = p_a.covs[:, None] / omega + p_b.covs[None, :] / (1.0 - omega)
    dmu = p_a.means[:, None, :] - p_b.means[None, :, :]
    sign, logdet = np.linalg.slogdet(symmetrize(sep))
    if np.any(sign <= 0):
        raise PositiveDefiniteError("separation covariance not positive-definite")
    quad = np.einsum("abj,abj->ab", dmu, np.linalg.solve(sep, dmu[..., None])[..., 0])
    log_sep = -0.5 * (d * LOG_2PI + logdet + quad)
    log_alpha = (
        omega * p_a.log_w[:, None]
        + (1.0 - omega) * p_b.log_w[None, :]
        + lb_a[:, None]
        + lb_b[None, :]
        + log_sep
    )
    return log_alpha.reshape(na * nb), mean.reshape(na * nb, d), cov.reshape(na * nb, d, d)


def gm_chernoff_pair(
    p_a: GaussianMixture,
    p_b: GaussianMixture,
    omega: float,
) -> tuple[GaussianMixture, float]:
    """Geometric-mean fusion p_a^w * p_b^(1-w) approximated component-pairwise.

    Returns the normalized fused mixture and the log of the pre-normalization
    mass, i.e. the mixture approximation of log integral(p_a^w p_b^(1-w)).
    Exponents 0 and 1 short-circuit to the corresponding input with zero
    log-mass.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if omega == 0.0:
        return p_b, 0.0
    if omega == 1.0:
        return p_a, 0.0
    if p_a.n_components == 1 and p_b.n_components == 1:
        return _single_pair_chernoff(p_a, p_b, omega)
    log_alpha, mean, cov = _pairwise_chernoff(p_a, p_b, omega)
    finite = np.isfinite(log_alpha)
    if not finite.any():
        raise EmptyFusionError("all pairwise fusion weights underflowed")
    log_alpha, mean, cov = log_alpha[finite], mean[finite], cov[finite]
    log_mass = float(logsumexp(log_alpha))
    return GaussianMixture(log_alpha - log_mass, mean, cov), log_mass


def gm_chernoff_multi(
    inputs: list[tuple[GaussianMixture, float]],
    merge_thresh: float,
) -> tuple[GaussianMixture, float]:
    """Weighted geometric mean of several mixtures by folded pairwise fusion.

    inputs is a list of (mixture, weight) with non-negative weights summing
    to 1. Sequentially fuses with renormalized exponents; the accumulated
    log normalizer is sum_i W_i * log eta_i with W_i the cumulative weight,
    which telescopes to log integral(prod p_i^w_i). A single input is
    returned unchanged with zero log-mass.

    The fold accumulator is merged at merge_thresh before each further
    pairwise step, since close components degrade the pairwise
    approximation; the inputs are fused as given.
    """
    if not inputs:
        raise ValueError("need at least one fusion input")
    acc, w_acc = inputs[0]
    log_norm = 0.0
    acc_is_fused = False
    for p, w in inputs[1:]:
        w_new = w_acc + w
        if w_new == 0.0:
            continue
        if acc_is_fused and acc.n_components > 1:
            acc = gm_merge_prune_cap(acc, merge_thresh, 0.0, acc.n_components)
        acc, log_eta = gm_chernoff_pair(acc, p, w_acc / w_new)
        acc_is_fused = True
        log_norm += w_new * log_eta
        w_acc = w_new
    return acc, log_norm
