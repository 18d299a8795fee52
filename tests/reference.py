"""Reference implementations the tests check the package against.

Closed-form single-Gaussian algebra, mixture moments and pointwise
densities, the delta-GLMB with explicit association tags and its
marginalization, the M-delta-GLMB prediction that builds every candidate
union before truncating, the Metropolis weights of an arc set with
consensus-matrix convergence checks, and TOA/DOA sensor factories. The
package itself never needs them, so they live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
import scipy.special

from distmot.densities import NORMALIZATION_ATOL, Label, LabelSet, MdGlmbDensity, MdGlmbHypothesis
from distmot.gm import LOG_2PI, GaussianMixture, PositiveDefiniteError, check_pd, log_beta, logsumexp, symmetrize
from distmot.sensors import SensorModel


# --- single Gaussians -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Single Gaussian with mean (d,) and symmetric PD covariance (d,d),
    converted from the literals a test writes and checked."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean of length {mean.size}")
        if not np.isfinite(mean).all() or not np.isfinite(cov).all():
            raise ValueError("Gaussian parameters must be finite")
        cov = symmetrize(cov)
        check_pd(cov)
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


class DegenerateExponentError(ValueError):
    """Chernoff exponent of 0 or 1 makes a beta factor undefined."""


@dataclass(frozen=True, eq=False)
class InformationPair:
    """Natural-parameter form (P^-1, P^-1 m) of a Gaussian."""

    info_matrix: np.ndarray
    info_vector: np.ndarray

    def __post_init__(self):
        m = symmetrize(np.array(self.info_matrix, dtype=float))
        v = np.array(self.info_vector, dtype=float).reshape(-1)
        if m.shape != (v.size, v.size):
            raise ValueError("information matrix/vector shapes disagree")
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "info_matrix", m)
        object.__setattr__(self, "info_vector", v)

    @classmethod
    def from_gaussian(cls, g: Gaussian) -> "InformationPair":
        info = np.linalg.inv(g.cov)
        return cls(info, info @ g.mean)

    def to_gaussian(self) -> Gaussian:
        cov = np.linalg.inv(self.info_matrix)
        return Gaussian(cov @ self.info_vector, cov)


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(x; mean, cov); x may be (d,) or (m, d)."""
    d = mean.size
    sign, logdet = np.linalg.slogdet(symmetrize(cov))
    if sign <= 0:
        raise PositiveDefiniteError("covariance has non-positive determinant")
    dx = np.atleast_2d(x) - mean
    sol = np.linalg.solve(cov, dx.T).T
    quad = np.einsum("ij,ij->i", dx, sol)
    out = -0.5 * (d * LOG_2PI + logdet + quad)
    return out[0] if np.ndim(x) == 1 else out


def gaussian_product(a: Gaussian, b: Gaussian) -> Gaussian:
    """Normalized pointwise product (the + of information pairs)."""
    ia, ib = InformationPair.from_gaussian(a), InformationPair.from_gaussian(b)
    return InformationPair(ia.info_matrix + ib.info_matrix, ia.info_vector + ib.info_vector).to_gaussian()


def gaussian_power(g: Gaussian, alpha: float) -> Gaussian:
    """Normalized power p^alpha, alpha > 0 (information pair scaled by alpha)."""
    if alpha <= 0:
        raise ValueError("power exponent must be positive")
    return Gaussian(g.mean, g.cov / alpha)


def gaussian_ci(a: Gaussian, b: Gaussian, omega: float) -> Gaussian:
    """Covariance intersection: weighted arithmetic mean of information pairs.

    Returns the Gaussian with covariance [w*Pa^-1 + (1-w)*Pb^-1]^-1 and the
    correspondingly averaged mean.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    ia, ib = InformationPair.from_gaussian(a), InformationPair.from_gaussian(b)
    info = omega * ia.info_matrix + (1.0 - omega) * ib.info_matrix
    vec = omega * ia.info_vector + (1.0 - omega) * ib.info_vector
    return InformationPair(info, vec).to_gaussian()


def chernoff_weight(a: Gaussian, b: Gaussian, log_alpha_a: float, log_alpha_b: float, omega: float) -> float:
    """Log weight of the fused component for the pair (a, b) at exponent omega.

    log alpha_bar = w*log(alpha_a) + (1-w)*log(alpha_b)
                    + log beta(w, Pa) + log beta(1-w, Pb)
                    + log N(mu_a - mu_b; 0, Pa/w + Pb/(1-w))
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must be in [0, 1], got {omega}")
    if omega in (0.0, 1.0):
        raise DegenerateExponentError("chernoff_weight undefined at omega in {0, 1}; caller must special-case")
    sep_cov = a.cov / omega + b.cov / (1.0 - omega)
    return (
        omega * log_alpha_a
        + (1.0 - omega) * log_alpha_b
        + log_beta(omega, a.cov)
        + log_beta(1.0 - omega, b.cov)
        + float(gaussian_logpdf(a.mean - b.mean, np.zeros(a.mean.size), sep_cov))
    )


# --- Gaussian mixtures ------------------------------------------------------


def mixture(log_w, means, covs) -> GaussianMixture:
    """A mixture from the literals a test writes, in the form every producer
    of the package builds: float64 arrays, exactly symmetric covariances,
    read-only."""
    arrays = (np.atleast_1d(np.array(log_w, dtype=float)), np.array(means, dtype=float), symmetrize(np.array(covs, dtype=float)))
    for a in arrays:
        a.setflags(write=False)
    return GaussianMixture(*arrays)


def single(g: Gaussian) -> GaussianMixture:
    return mixture(np.zeros(1), g.mean[None, :], g.cov[None, :, :])


def gm_from_components(components: Iterable[tuple[float, Gaussian]]) -> GaussianMixture:
    comps = list(components)
    if not comps:
        raise ValueError("gm_from_components needs at least one component")
    return mixture([c[0] for c in comps], np.stack([c[1].mean for c in comps]), np.stack([c[1].cov for c in comps]))


def gm_components(p: GaussianMixture) -> Iterator[tuple[float, Gaussian]]:
    for i in range(p.n_components):
        yield float(p.log_w[i]), Gaussian(p.means[i], p.covs[i])


def gm_pdf(p: GaussianMixture, x) -> np.ndarray:
    """Mixture density at x; x may be scalar-state (m, d) or (d,)."""
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    per = np.stack([p.log_w[i] + gaussian_logpdf(xs, p.means[i], p.covs[i]) for i in range(p.n_components)])
    out = np.exp(scipy.special.logsumexp(per, axis=0))
    return out[0] if np.ndim(x) == 1 else out


def gm_mean(p: GaussianMixture) -> np.ndarray:
    w = np.exp(p.log_w - p.total_log_weight())
    return w @ p.means


def gm_covariance(p: GaussianMixture) -> np.ndarray:
    w = np.exp(p.log_w - p.total_log_weight())
    m = w @ p.means
    dx = p.means - m
    return np.einsum("i,ijk->jk", w, p.covs) + np.einsum("i,ij,ik->jk", w, dx, dx)


def gm_merge_prune_cap_loop(
    p: GaussianMixture,
    merge_thresh: float,
    trunc_thresh: float,
    max_components: int,
) -> GaussianMixture:
    """gm_merge_prune_cap with one solve and one moment sum per pivot.

    The package's version batches the pivot metric and the singleton
    moments; it must return these arrays bit for bit. Both symmetrize the
    merged covariances.
    """
    if p.n_components == 1:
        return p if p.log_w[0] == 0.0 else p.normalized()
    w = np.exp(p.log_w - p.total_log_weight())

    order = np.argsort(-w, kind="stable")
    order = order[(w[order] >= trunc_thresh) & (w[order] > 0.0)]
    if order.size == 0:
        order = np.array([int(np.argmax(w))])
    means, covs, ws = p.means[order], p.covs[order], w[order]  # heaviest first

    merged: list[tuple[float, np.ndarray, np.ndarray]] = []
    alive = np.ones(order.size, dtype=bool)
    for i in range(order.size):
        if not alive[i]:
            continue
        idx = np.flatnonzero(alive)
        dx = means[idx] - means[i]
        sol = np.linalg.solve(covs[i], dx.T).T
        d2 = np.einsum("ij,ij->i", dx, sol)
        cluster = idx[d2 <= merge_thresh]
        cw = ws[cluster]
        tot = cw.sum()
        mu = (cw @ means[cluster]) / tot
        dmu = means[cluster] - mu
        cov = ((cw[:, None, None] * covs[cluster]).sum(axis=0) + (cw[:, None] * dmu).T @ dmu) / tot
        merged.append((tot, mu, cov))
        alive[cluster] = False

    if len(merged) > max_components:
        cluster_w = np.array([m[0] for m in merged])
        top = np.sort(np.argsort(-cluster_w, kind="stable")[:max_components])
        merged = [merged[i] for i in top]

    tot = sum(m[0] for m in merged)
    lw = np.log(np.array([m[0] / tot for m in merged]))
    mu = np.stack([m[1] for m in merged])
    cv = np.stack([m[2] for m in merged])
    return GaussianMixture(lw, mu, symmetrize(cv))


# --- delta-GLMB with association tags -----------------------------------------


@dataclass(frozen=True, eq=False)
class DeltaGlmbComponent:
    label_set: LabelSet
    assoc_tag: object
    log_weight: float
    pdfs: tuple[GaussianMixture, ...]

    def pdf(self, label: Label) -> GaussianMixture:
        return self.pdfs[self.label_set.index(label)]


@dataclass(frozen=True, eq=False)
class DeltaGlmbDensity:
    """Delta-GLMB with explicit discrete association tags; weights normalized over (I, tag)."""

    components: tuple[DeltaGlmbComponent, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("delta-GLMB needs at least one component")
        keys = [(c.label_set, c.assoc_tag) for c in self.components]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (label set, tag) components")
        total = logsumexp([c.log_weight for c in self.components])
        if abs(total) > NORMALIZATION_ATOL:
            raise ValueError(f"component weights not normalized (log total {total:.3e})")


def marginalize_delta_glmb(d: DeltaGlmbDensity) -> MdGlmbDensity:
    """Sum the discrete tags out of a delta-GLMB; preserves cardinality and intensity."""
    groups: dict[LabelSet, list[DeltaGlmbComponent]] = {}
    for c in d.components:
        groups.setdefault(c.label_set, []).append(c)
    hyps = []
    for label_set, comps in groups.items():
        log_w = float(logsumexp([c.log_weight for c in comps]))
        pdfs = []
        for i, _ in enumerate(label_set):
            lw = np.concatenate([c.pdfs[i].log_w + (c.log_weight - log_w) for c in comps])
            mu = np.concatenate([c.pdfs[i].means for c in comps])
            cv = np.concatenate([c.pdfs[i].covs for c in comps])
            pdfs.append(GaussianMixture(lw, mu, cv).normalized())
        hyps.append(MdGlmbHypothesis(label_set, log_w, tuple(pdfs)))
    return MdGlmbDensity.from_unnormalized(hyps)


# --- prediction ----------------------------------------------------------------


def mdglmb_predict_build_all(
    posterior: MdGlmbDensity,
    motion,
    birth,
    k: int,
    max_hypotheses: int,
) -> MdGlmbDensity:
    """`filters.mdglmb_predict` as it was before it stopped drawing pairs:
    build a hypothesis for each of the 4 max_hypotheses best (survivor,
    birth) pairs, sort them and keep max_hypotheses."""
    from distmot.densities import k_best_bernoulli_subsets
    from distmot.filters import _k_best_products, _lse, _mix_contributions, _normalized, kalman_predict_mixture

    birth_labels = birth.labels_at(k)
    subset_cap = max(4 * max_hypotheses, 64)
    surv_w: dict[LabelSet, list[float]] = {}
    surv_pdfs: dict[LabelSet, dict[Label, list[tuple[float, GaussianMixture]]]] = {}
    for h in posterior.hypotheses:
        labels = h.label_set
        predicted = [kalman_predict_mixture(pdf, motion) for pdf in h.pdfs]
        for idx, rel_logw in k_best_bernoulli_subsets(np.full(len(labels), motion.survival_prob), subset_cap):
            key = tuple(labels[i] for i in idx)
            logw = h.log_weight + rel_logw
            surv_w.setdefault(key, []).append(logw)
            per_label = surv_pdfs.setdefault(key, {})
            for i in idx:
                per_label.setdefault(labels[i], []).append((logw, predicted[i]))
    surv = sorted(((key, _lse(ws)) for key, ws in surv_w.items()), key=lambda t: (-t[1], t[0]))

    births = k_best_bernoulli_subsets(np.array([e.existence for e in birth.entries]), subset_cap)
    birth_sets = [
        (tuple(birth_labels[i] for i in idx), lw, tuple(birth.entries[i].pdf for i in idx))
        for idx, lw in births
    ]
    pairs = list(_k_best_products([w for _, w in surv], [w for _, w, _ in birth_sets], 4 * max_hypotheses))

    hyps = []
    for i, j in pairs:
        surv_key, surv_logw = surv[i]
        b_key, b_logw, b_pdfs = birth_sets[j]
        label_set = surv_key + b_key
        pdfs = []
        for lab in label_set:
            if lab in b_key:
                pdfs.append(b_pdfs[b_key.index(lab)])
            else:
                pdfs.append(_mix_contributions(_normalized(surv_pdfs[surv_key][lab])))
        hyps.append(MdGlmbHypothesis(label_set, surv_logw + b_logw, tuple(pdfs)))
    hyps.sort(key=lambda h: (-h.log_weight, h.label_set))
    return MdGlmbDensity.from_unnormalized(hyps[:max_hypotheses])


# --- consensus matrices -------------------------------------------------------


def metropolis_weights_from_arcs(nodes: tuple, arcs) -> np.ndarray:
    """Metropolis weights of a directed graph given as (i, j) arcs, each node
    implicitly its own in-neighbour: entry (i, j) of an arc is
    1 / (1 + max(|N(i)|, |N(j)|)) and the diagonal absorbs the remainder.
    The in-neighbours are found by scanning every arc and ordered as nodes
    lists them; `network.metropolis_weights` must match this bit for bit."""
    arcs = frozenset(arcs)

    def in_neighbours(j):
        out = {i for i, jj in arcs if jj == j}
        out.add(j)
        return tuple(sorted(out, key=nodes.index))

    n = len(nodes)
    idx = {node: i for i, node in enumerate(nodes)}
    deg = {node: len(in_neighbours(node)) for node in nodes}
    w = np.zeros((n, n))
    for node in nodes:
        i = idx[node]
        for other in in_neighbours(node):
            if other == node:
                continue
            w[i, idx[other]] = 1.0 / (1.0 + max(deg[node], deg[other]))
        w[i, i] = 1.0 - w[i].sum()
    return w


def is_doubly_stochastic(omega: np.ndarray, atol: float = 1e-12) -> bool:
    return bool(np.abs(omega.sum(axis=0) - 1.0).max() <= atol)


def is_primitive(omega: np.ndarray) -> bool:
    """Wielandt bound: a non-negative n x n matrix is primitive iff
    A^(n^2 - 2n + 2) is strictly positive."""
    n = len(omega)
    power = np.linalg.matrix_power(omega, n * n - 2 * n + 2)
    return bool((power > 0).all())


def consensus_matrix_power_check(omega: np.ndarray, n: int) -> float:
    """Max absolute deviation of the entries of Omega^n from 1/|N|."""
    target = 1.0 / len(omega)
    power = np.linalg.matrix_power(omega, n)
    return float(np.abs(power - target).max())


# --- sensors ----------------------------------------------------------------


def make_toa(position, noise_std=100.0, clutter_rate=0.0, detection_prob=0.99, r_max=70711.0) -> SensorModel:
    return SensorModel("toa", tuple(position), noise_std, clutter_rate, detection_prob, (0.0, r_max))


def make_doa(position, noise_std=math.radians(1.0), clutter_rate=0.0, detection_prob=0.99) -> SensorModel:
    return SensorModel("doa", tuple(position), noise_std, clutter_rate, detection_prob, (-math.pi, math.pi))
