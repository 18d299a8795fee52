"""Local-node filtering: M-delta-GLMB and LMB prediction/update recursions.

The update likelihood per track and association is
    psi_Z(x, l; theta) = P_D g(z_theta | x, l) / kappa(z_theta)   theta(l) > 0
                       = 1 - P_D                                  theta(l) = 0
with the sensor's constant detection probability P_D, and per-hypothesis
weights are proportional to the prior weight times the product of expected
psi values over the hypothesis labels. Association maps come from ranked
assignment on the per-track log psi matrix; the posterior is
re-marginalized over maps within each label set after every update, so no
association history index is carried between steps.

Each update does each piece of work once: psi rows are cached per distinct
track pdf, the pdf conditioned on a measurement is built only when a ranked
map selects it, and each distinct marginalized mixture is merged once
however many hypotheses share it. A label's marginalized mixture is looked
up by its psi row and the normalized (log weight, measurement) pairs it
mixes before it is built from them, so a hypothesis that repeats one
already seen builds nothing; the theta groups of all labels come from one
pass over each hypothesis's maps.

The update searches only the hypotheses that can pass the prune floor,
hyp_prune_thresh times the summed weight of every hypothesis's maps. A
hypothesis's maps weigh at most its prior weight plus the row-order sum of
its psi rows' maxima plus log k, so it is searched in descending order of
that bound, and the search stops at the first bound below the floor of the
weights found so far: that hypothesis and every one after it are pruned
whatever the others weigh. The kept set is then settled by two floors, over
the found weights alone and with the skipped bounds added. If a found
weight lies between them, or none lies certainly above both, the skipped
hypotheses are searched too and the floor is taken as before; so the output
never depends on the search order or on the bounds.

Prediction marginalizes the survivor superset sum over prior hypotheses
exactly: each predicted label set mixes the propagated pdfs of every prior
hypothesis that can shrink onto it, weighted by the motion model's constant
survival probability P_S, which does not depend on the state: a survivor's
pdf is only Kalman-predicted. Survivor and birth subsets are paired best
first, and a pair is built into a hypothesis only while it can still make
the max_hypotheses cut; a survivor subset's mixtures are built when its
first pair is. Labels are (birth step, index) tuples, so a predicted label
set is the survivor subset followed by the birth subset.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .assignment import ranked_assignments
from .densities import (
    Label,
    LabelSet,
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
    cardinality_distribution_lmb,
    cardinality_distribution_mdglmb,
    k_best_bernoulli_subsets,
    lmb_from_mdglmb,
    lmb_to_mdglmb,
)
from .gm import GaussianMixture, gm_key, gm_merge_prune_cap, symmetrize
from .sensors import SensorModel, unscented_update_mixture


class FilterDegeneracyError(RuntimeError):
    """The filter lost every hypothesis; the harness names the trial seed and step."""


@dataclass
class UpdateDiagnostics:
    dropped_components: int = 0


@dataclass(frozen=True, eq=False)
class MotionModel:
    """Linear-Gaussian motion with a constant survival probability.

    The record adopts its fields as given: ncv_motion_model builds a square
    transition and an exactly symmetric PSD noise covariance, both read-only,
    from the sampling interval, noise and P_S that scenario load checks.
    """

    transition: np.ndarray
    noise_cov: np.ndarray
    survival_prob: float


def ncv_motion_model(sampling_interval: float, accel_noise_std: float, survival_prob: float) -> MotionModel:
    """Nearly-constant-velocity model on [px, vx, py, vy]."""
    t = sampling_interval
    f1 = np.array([[1.0, t], [0.0, 1.0]])
    q1 = accel_noise_std**2 * np.array([[t**4 / 4.0, t**3 / 2.0], [t**3 / 2.0, t**2]])
    z = np.zeros((2, 2))
    f = np.block([[f1, z], [z, f1]])
    q = np.block([[q1, z], [z, q1]])
    f.setflags(write=False)
    q.setflags(write=False)
    return MotionModel(f, q, survival_prob)


@dataclass(frozen=True, eq=False)
class BirthEntry:
    index: int
    existence: float
    pdf: GaussianMixture


@dataclass(frozen=True, eq=False)
class BirthModel:
    """Static birth table instantiated with fresh labels (k, index) every step.

    The table and its entries adopt their fields as given: scenario load
    numbers the entries 1..n, checks each existence in [0, 1], and rejects
    a repeated birth location.
    """

    entries: tuple[BirthEntry, ...]

    def labels_at(self, k: int) -> list[Label]:
        return [(k, e.index) for e in self.entries]


@dataclass(frozen=True, eq=False)
class FilterConfig:
    max_hypotheses: int = 1000
    hyp_prune_thresh: float = 0.0
    assignments_per_hypothesis: int = 8
    gm_merge_thresh: float = 4.0
    gm_trunc_thresh: float = 1e-4
    gm_max_components: int = 25
    lmb_prune_thresh: float = 1e-4


def _lse(values: list[float]) -> float:
    if not values:
        return -math.inf
    m = max(values)
    if not math.isfinite(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in values))


def _slack(n: int, *values: float) -> float:
    """Twice a bound on the rounding of a log-sum-exp of n terms and of the
    few additions around it, at the magnitude of the given values: each
    term's exp is off by 2 eps relative to the largest, their sum by n eps,
    and the log and each addition by an ulp."""
    return (8 * n + 32) * sys.float_info.epsilon * (1.0 + sum(abs(v) for v in values))


def kalman_predict_mixture(gm: GaussianMixture, motion: MotionModel) -> GaussianMixture:
    f, q = motion.transition, motion.noise_cov
    covs = symmetrize(np.matmul(np.matmul(f, gm.covs), f.T)) + q
    return GaussianMixture(gm.log_w, gm.means @ f.T, covs)


def _normalized(contribs: list[tuple[float, object]]) -> list[tuple[float, object]]:
    total = _lse([c for c, _ in contribs])
    return [(c - total, p) for c, p in contribs]


def _mix_contributions(contribs: list[tuple[float, GaussianMixture]]) -> GaussianMixture:
    """Mixture of pdfs weighted by the given normalized log weights."""
    lw = np.concatenate([p.log_w + c for c, p in contribs])
    mu = np.concatenate([p.means for _, p in contribs])
    cv = np.concatenate([p.covs for _, p in contribs])
    return GaussianMixture(lw, mu, cv)


def _k_best_products(a: list[float], b: list[float], k: int):
    """Yield the index pairs of the k largest a[i] + b[j], largest first;
    both lists sorted descending, so the sums come in non-increasing order."""
    heap = [(-(a[0] + b[0]), 0, 0)]
    seen = {(0, 0)}
    for _ in range(k):
        if not heap:
            return
        _, i, j = heapq.heappop(heap)
        yield i, j
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if ni < len(a) and nj < len(b) and (ni, nj) not in seen:
                seen.add((ni, nj))
                heapq.heappush(heap, (-(a[ni] + b[nj]), ni, nj))


def mdglmb_predict(
    posterior: MdGlmbDensity,
    motion: MotionModel,
    birth: BirthModel,
    k: int,
    max_hypotheses: int,
) -> MdGlmbDensity:
    """Survival/birth prediction of a marginalized delta-GLMB.

    Predicted label sets are unions of a birth subset and a survivor subset;
    survivor weights sum the Bernoulli(P_S) survival products over every
    prior hypothesis containing the subset, and survivor pdfs mix the
    matching prior pdfs, each only Kalman-predicted. At P_S = 0 the only
    survivor subset is the empty one, holding the summed prior weight.
    Survivor and birth subsets are each capped at max(4 max_hypotheses, 64).
    Unions are drawn best first, at most 4 max_hypotheses of them, and only
    until max_hypotheses are held and the next one is lighter than all of
    them; the output is truncated to max_hypotheses and renormalized.
    """
    birth_labels = birth.labels_at(k)
    posterior_labels = posterior.label_space()
    for bl in birth_labels:
        if bl in posterior_labels:
            raise ValueError(f"birth label {bl} collides with an existing track")

    subset_cap = max(4 * max_hypotheses, 64)

    # survivor part: accumulate weights and pdf contributions per label subset
    surv_w: dict[LabelSet, list[float]] = {}
    # per subset, one contribution list per label, in label order
    surv_pdfs: dict[LabelSet, list[list[tuple[float, GaussianMixture]]]] = {}
    # with a constant P_S the survivor subsets depend only on the label count
    subsets: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for h in posterior.hypotheses:
        labels = h.label_set
        predicted = [kalman_predict_mixture(pdf, motion) for pdf in h.pdfs]
        n = len(labels)
        if n not in subsets:
            subsets[n] = k_best_bernoulli_subsets(np.full(n, motion.survival_prob), subset_cap)
        for idx, rel_logw in subsets[n]:
            key = tuple(labels[i] for i in idx)
            logw = h.log_weight + rel_logw
            surv_w.setdefault(key, []).append(logw)
            per_label = surv_pdfs.setdefault(key, [[] for _ in idx])
            for contribs, i in zip(per_label, idx):
                contribs.append((logw, predicted[i]))

    surv = sorted(
        ((key, _lse(ws)) for key, ws in surv_w.items()),
        key=lambda t: (-t[1], t[0]),
    )

    # birth part
    births = k_best_bernoulli_subsets(np.array([e.existence for e in birth.entries]), subset_cap)
    birth_sets = [
        (tuple(birth_labels[i] for i in idx), lw, tuple(birth.entries[i].pdf for i in idx))
        for idx, lw in births
    ]

    # combine: weights multiply, label sets union. The pairs come in
    # non-increasing weight, the sum the final sort uses, so once
    # max_hypotheses are held a lighter pair and all after it would be cut.
    hyps = []
    mixed: dict[LabelSet, tuple[GaussianMixture, ...]] = {}
    for i, j in _k_best_products([w for _, w in surv], [w for _, w, _ in birth_sets], 4 * max_hypotheses):
        surv_key, surv_logw = surv[i]
        b_key, b_logw, b_pdfs = birth_sets[j]
        log_w = surv_logw + b_logw
        if len(hyps) >= max_hypotheses and log_w < hyps[-1].log_weight:
            break
        surv_mixed = mixed.get(surv_key)
        if surv_mixed is None:
            surv_mixed = mixed[surv_key] = tuple(_mix_contributions(_normalized(c)) for c in surv_pdfs[surv_key])
        # survivors were born before step k, so they sort before its births
        hyps.append(MdGlmbHypothesis(surv_key + b_key, log_w, surv_mixed + b_pdfs))

    hyps.sort(key=lambda h: (-h.log_weight, h.label_set))
    return MdGlmbDensity.from_unnormalized(hyps[:max_hypotheses])


class _PsiRow:
    """log psi of one track pdf over [miss, z_1, ..., z_m] and its maximum,
    with the pdf conditioned on each measurement built the first time a map
    asks for it. A misdetection leaves the pdf unchanged."""

    __slots__ = ("log_psi", "best", "_pdf", "_tot", "_log_det", "_gain", "_resid", "_covs", "_cond")

    def __init__(self, log_psi, best, pdf, tot, log_det, gain, resid, covs):
        self.log_psi = log_psi
        self.best = best
        self._pdf = pdf
        self._tot = tot
        self._log_det = log_det
        self._gain = gain
        self._resid = resid
        self._covs = covs
        self._cond: list[GaussianMixture | None] = [pdf] + [None] * (log_psi.size - 1)

    def cond(self, j: int) -> GaussianMixture:
        hit = self._cond[j]
        if hit is None:
            hit = self._cond[j] = self._build(j)
        return hit

    def _build(self, j: int) -> GaussianMixture:
        pdf = self._pdf
        tot = self._tot[j - 1]
        if not np.isfinite(tot):
            return pdf
        keep = np.isfinite(self._log_det[:, j - 1])
        means = pdf.means[keep] + self._gain[keep] * self._resid[keep, j - 1, None]
        return GaussianMixture(self._log_det[keep, j - 1] - tot, means, self._covs[keep])


class _PsiTable:
    """Per-update cache of psi rows keyed by track-pdf content.

    P_D is the sensor's constant, so the miss score log psi[0] is exactly
    log(1 - P_D) for every track, and log P_D and log(1 - P_D) are taken
    once per table. A row's detection scores come from one batched
    unscented update against every measurement and one log-sum-exp per
    measurement over the components, taken row-wise on the transposed
    (m, n) detection matrix so that each sum runs over one contiguous row,
    in the order a single-column sum would. Conditioned pdfs are left to
    `_PsiRow.cond`, which builds each on first use and keeps it, so most of
    them, for measurements no ranked map selects, are never built.
    """

    def __init__(self, Z, sensor: SensorModel, diagnostics: UpdateDiagnostics):
        self.Z = np.asarray(Z, dtype=float)
        self.sensor = sensor
        self.diag = diagnostics
        # each -inf at its end of [0, 1]; numpy's log, which the detection
        # scores have always used, can differ from math.log in the last bit
        pd = sensor.detection_prob
        self.log_pd = float(np.log(pd)) if pd > 0.0 else -math.inf
        self.log_miss = math.log1p(-pd) if pd < 1.0 else -math.inf
        # filter-side clutter model: uniform density over the sensor's
        # measurement space for every received z. In the kappa -> 0 limit a
        # measurement no clutter can explain forces an association; kappa is
        # kept at least 1e-30 so that the ratio stays finite and maps ordered
        lo, hi = sensor.measurement_space
        self.log_kappa = np.full(self.Z.size, math.log(max(sensor.clutter_rate / (hi - lo), 1e-30)))
        self._rows: dict = {}

    def row(self, pdf: GaussianMixture) -> _PsiRow:
        key = gm_key(pdf)
        hit = self._rows.get(key)
        if hit is None:
            hit = self._rows[key] = self._compute(pdf)
        return hit

    def _compute(self, pdf: GaussianMixture) -> _PsiRow:
        m = self.Z.size
        log_psi = np.empty(m + 1)
        log_psi[0] = self.log_miss
        if not m:
            return _PsiRow(log_psi, self.log_miss, pdf, None, None, None, None, None)
        ll, gain, resid, covs, ok = unscented_update_mixture(pdf, self.Z, self.sensor)
        if not ok.all():
            self.diag.dropped_components += int((~ok).sum())
        alpha = pdf.log_w - pdf.total_log_weight()
        log_det = (alpha + self.log_pd)[:, None] + ll  # (n, m)
        per_z = np.ascontiguousarray(log_det.T)
        tot = per_z.max(axis=1, initial=-np.inf)
        live = np.isfinite(tot)
        sums = np.exp(per_z[live] - tot[live, None]).sum(axis=1)
        tot[live] += [math.log(s) for s in sums.tolist()]
        log_psi[1:] = tot - self.log_kappa
        return _PsiRow(log_psi, float(log_psi.max()), pdf, tot, log_det, gain, resid, covs)


def _weight_bound(log_weight: float, rows: list[_PsiRow], log_k: float) -> float:
    """Upper bound on the log-sum-exp of a hypothesis's k best map weights.

    Every map scores at most the sum of its rows' maxima added in row order
    from 0.0, as the search bounds its branches, and at most k maps are
    summed, so the bound is the prior weight plus that sum plus log k; 4 ulps
    cover the rounding of log and of the last addition in `_lse`.
    """
    best = 0.0
    for r in rows:
        best += r.best
    top = log_weight + best
    ub = top + log_k
    return ub + 4.0 * math.ulp(abs(top) + log_k) if math.isfinite(ub) else ub


def reduce_mdglmb_pdfs(d: MdGlmbDensity, cfg: FilterConfig) -> MdGlmbDensity:
    """Merge/prune/cap every per-label mixture; hypothesis weights unchanged.

    Mixtures shared between hypotheses are reduced once.
    """
    cache: dict[tuple, GaussianMixture] = {}

    def reduce_one(p: GaussianMixture) -> GaussianMixture:
        key = gm_key(p)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = gm_merge_prune_cap(p, cfg.gm_merge_thresh, cfg.gm_trunc_thresh, cfg.gm_max_components)
        return hit

    hyps = [
        MdGlmbHypothesis(h.label_set, h.log_weight, tuple(reduce_one(p) for p in h.pdfs))
        for h in d.hypotheses
    ]
    return MdGlmbDensity(tuple(hyps))


def reduce_lmb_pdfs(d: LmbDensity, cfg: FilterConfig) -> LmbDensity:
    return LmbDensity(
        tuple(
            LmbEntry(e.label, e.existence, gm_merge_prune_cap(e.pdf, cfg.gm_merge_thresh, cfg.gm_trunc_thresh, cfg.gm_max_components))
            for e in d.entries
        )
    )


def lmb_prune(d: LmbDensity, existence_thresh: float, max_tracks: int) -> LmbDensity:
    """Drop negligible tracks and cap the count by existence (label-order ties)."""
    kept = [e for e in d.entries if e.existence >= existence_thresh]
    kept.sort(key=lambda e: (-e.existence, e.label))
    return LmbDensity(tuple(kept[:max_tracks]))


def mdglmb_update(
    predicted: MdGlmbDensity,
    Z,
    sensor: SensorModel,
    cfg: FilterConfig,
    diagnostics: UpdateDiagnostics,
) -> MdGlmbDensity:
    """Measurement update with per-hypothesis ranked assignment, then
    marginalization over association maps within each label set.

    Each hypothesis keeps its top assignments_per_hypothesis maps; its
    weight w(I) sums its maps' weights, prior weight times map score. It is
    pruned below hyp_prune_thresh times the joint total, the sum of w(I)
    over all hypotheses (the heaviest is kept if none passes); the rest are
    truncated to max_hypotheses and normalized once, by from_unnormalized.

    Hypotheses are searched in descending `_weight_bound`, and the search
    stops at the first bound below the floor of the weights found so far,
    kept as a running maximum and scaled sum. If every found weight is then
    certainly above or below the floor, whatever the skipped hypotheses
    weigh up to their bounds, and one is above, the found ones above are
    kept. Otherwise the skipped hypotheses are searched as well and the
    floor is taken over all, so the output equals that of a full search.
    """
    table = _PsiTable(Z, sensor, diagnostics)
    m = table.Z.size
    k = cfg.assignments_per_hypothesis
    log_k = math.log(k)
    log_thresh = math.log(cfg.hyp_prune_thresh) if cfg.hyp_prune_thresh > 0.0 else -math.inf

    # A label's mixture is fixed by its psi row and the normalized
    # (log weight, measurement) pairs it mixes, so it is looked up by them
    # and only a miss builds and reduces it.
    reduced: dict[tuple, GaussianMixture] = {}

    def search(h: MdGlmbHypothesis, rows: list[_PsiRow]) -> MdGlmbHypothesis | None:
        log_score = np.stack([r.log_psi for r in rows]) if rows else np.zeros((0, m + 1))
        maps = [(theta, h.log_weight + score) for theta, score in ranked_assignments(log_score, k)]
        if not maps:
            return None
        log_w = _lse([w for _, w in maps])
        groups: list[dict[int, list[float]]] = [{} for _ in rows]
        for theta, w in maps:
            for g, j in zip(groups, theta):
                g.setdefault(j, []).append(w)
        pdfs = []
        for row, g in zip(rows, groups):
            contribs = tuple(_normalized([(_lse(ws) - log_w, j) for j, ws in sorted(g.items())]))
            hit = reduced.get((row, contribs))
            if hit is None:
                mixed = _mix_contributions([(c, row.cond(j)) for c, j in contribs])
                hit = reduced[row, contribs] = gm_merge_prune_cap(mixed, cfg.gm_merge_thresh, cfg.gm_trunc_thresh, cfg.gm_max_components)
            pdfs.append(hit)
        return MdGlmbHypothesis(h.label_set, log_w, tuple(pdfs))

    candidates = []
    for h in predicted.hypotheses:
        if math.isfinite(h.log_weight):
            rows = [table.row(pdf) for pdf in h.pdfs]
            candidates.append((_weight_bound(h.log_weight, rows, log_k), h, rows))
    candidates.sort(key=lambda c: -c[0])
    n = len(candidates)

    hyps = []
    top, scaled = -math.inf, 0.0  # the found weights sum to top + log(scaled)
    searched = 0
    for ub, h, rows in candidates:
        if scaled:
            floor = log_thresh + top + math.log(scaled)
            if ub < floor - _slack(n, floor, log_thresh):
                break
        searched += 1
        found = search(h, rows)
        if found is None:
            continue
        hyps.append(found)
        w = found.log_weight
        if w > top:
            scaled, top = scaled * math.exp(top - w) + 1.0, w
        else:
            scaled += math.exp(w - top)

    skipped = candidates[searched:]
    if skipped:
        found_w = [h.log_weight for h in hyps]
        lo = log_thresh + _lse(found_w)
        hi = log_thresh + _lse(found_w + [ub for ub, _, _ in skipped])
        keep_from, prune_below = hi + _slack(n, hi, log_thresh), lo - _slack(n, lo, log_thresh)
        kept = [h for h in hyps if h.log_weight >= keep_from]
        if kept and not any(prune_below <= w < keep_from for w in found_w):
            kept.sort(key=lambda h: (-h.log_weight, h.label_set))
            return MdGlmbDensity.from_unnormalized(kept[: cfg.max_hypotheses])
        hyps += [found for found in (search(h, rows) for _, h, rows in skipped) if found is not None]

    if not hyps:
        raise FilterDegeneracyError("update produced no feasible association for any hypothesis")
    hyps.sort(key=lambda h: (-h.log_weight, h.label_set))
    if cfg.hyp_prune_thresh > 0.0:
        floor = log_thresh + _lse([h.log_weight for h in hyps])
        hyps = [h for h in hyps if h.log_weight >= floor] or hyps[:1]
    hyps = hyps[: cfg.max_hypotheses]
    return MdGlmbDensity.from_unnormalized(hyps)


def lmb_predict(posterior: LmbDensity, motion: MotionModel, birth: BirthModel, k: int) -> LmbDensity:
    """Surviving tracks plus fresh birth tracks.

    A survivor keeps its label with existence r * P_S and its pdf only
    Kalman-predicted; at P_S = 0 no track survives.
    """
    ps = motion.survival_prob
    # P_S = 0 leaves no survivor, rather than survivors of existence 0
    survivors = posterior.entries if ps > 0.0 else ()
    entries = [LmbEntry(e.label, e.existence * ps, kalman_predict_mixture(e.pdf, motion)) for e in survivors]
    existing = {e.label for e in entries}
    for be, lab in zip(birth.entries, birth.labels_at(k)):
        if lab in existing:
            raise ValueError(f"birth label {lab} collides with an existing track")
        entries.append(LmbEntry(lab, be.existence, be.pdf))
    return LmbDensity(tuple(entries))


def lmb_update(
    predicted: LmbDensity,
    Z,
    sensor: SensorModel,
    cfg: FilterConfig,
    diagnostics: UpdateDiagnostics,
) -> LmbDensity:
    """Expand to label-set hypotheses, update, and collapse back to an LMB.

    The collapse keeps the unlabeled intensity: r(l) is the summed weight of
    updated hypotheses containing l and p(., l) the matching mixture.
    """
    expanded = lmb_to_mdglmb(predicted, cfg.max_hypotheses)
    updated = mdglmb_update(expanded, Z, sensor, cfg, diagnostics)
    return lmb_from_mdglmb(updated)


def extract_estimates_mdglmb(d: MdGlmbDensity) -> list[tuple[Label, np.ndarray]]:
    """MAP-cardinality estimate: heaviest hypothesis of the MAP cardinality,
    one state per label from the heaviest mixture component."""
    pmf = cardinality_distribution_mdglmb(d)
    n_star = int(np.argmax(pmf))
    candidates = [h for h in d.hypotheses if len(h.label_set) == n_star]
    candidates.sort(key=lambda h: (-h.log_weight, h.label_set))
    best = candidates[0]
    return [(lab, pdf.means[pdf.argmax_component()].copy()) for lab, pdf in zip(best.label_set, best.pdfs)]


def extract_estimates_lmb(d: LmbDensity) -> list[tuple[Label, np.ndarray]]:
    """MAP cardinality of the Bernoulli sum, then the labels with the largest
    existence probabilities (label-order ties)."""
    if not d.entries:
        return []
    pmf = cardinality_distribution_lmb(d)
    c_star = int(np.argmax(pmf))
    ranked = sorted(d.entries, key=lambda e: (-e.existence, e.label))[:c_star]
    ranked.sort(key=lambda e: e.label)
    return [(e.label, e.pdf.means[e.pdf.argmax_component()].copy()) for e in ranked]


def centralized_mdglmb_step(
    posterior: MdGlmbDensity,
    motion: MotionModel,
    birth: BirthModel,
    k: int,
    all_sensor_measurements: list[tuple[SensorModel, np.ndarray]],
    cfg: FilterConfig,
    diagnostics: UpdateDiagnostics,
) -> MdGlmbDensity:
    """One predict followed by sequential single-sensor updates (iterated corrector)."""
    d = mdglmb_predict(posterior, motion, birth, k, max_hypotheses=cfg.max_hypotheses)
    d = reduce_mdglmb_pdfs(d, cfg)
    for sensor, Z in all_sensor_measurements:
        d = mdglmb_update(d, Z, sensor, cfg, diagnostics)
    return d
