"""Labeled multi-object densities: LMB and marginalized delta-GLMB.

An M-delta-GLMB is a finite family {(w(I), {p(.,l;I)}_{l in I})} over label
sets I with weights summing to 1; an LMB is {(r(l), p(.,l))} with independent
per-label existence probabilities. Hypothesis weights are kept as
log-weights and normalized with log-sum-exp.

A label is the tuple (birth step k, index i among step k's births) and a
label set a tuple of labels, so labels compare and hash as tuples do.

The records adopt their fields as given; each container only sorts its
members into canonical label order. `check_density` holds every invariant
and runs where a density enters from outside (`wire.density_from_dict`):
on every density exchanged in a consensus round, since the neighbours fuse
the decoded payload.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .gm import GaussianMixture, logsumexp

# A label set is sorted and duplicate-free, so tuple equality is set equality.
Label = tuple[int, int]
LabelSet = tuple[Label, ...]

NORMALIZATION_ATOL = 1e-9
PDF_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class LmbEntry:
    label: Label
    existence: float
    pdf: GaussianMixture


@dataclass(frozen=True, eq=False)
class LmbDensity:
    """Finite map label -> (existence, pdf), stored sorted by label."""

    entries: tuple[LmbEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries, key=lambda e: e.label)))

    @classmethod
    def empty(cls) -> "LmbDensity":
        return cls(())

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.entries)

    def entry(self, label: Label) -> LmbEntry | None:
        try:
            index = object.__getattribute__(self, "_index")
        except AttributeError:
            index = {e.label: e for e in self.entries}
            object.__setattr__(self, "_index", index)
        return index.get(label)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class MdGlmbHypothesis:
    """One label set with its log weight and one pdf per label (aligned order)."""

    label_set: LabelSet
    log_weight: float
    pdfs: tuple[GaussianMixture, ...]

    def pdf(self, label: Label) -> GaussianMixture:
        return self.pdfs[self.label_set.index(label)]


@dataclass(frozen=True, eq=False)
class MdGlmbDensity:
    """Marginalized delta-GLMB: one (log weight, per-label pdfs) per label set,
    stored sorted by label set."""

    hypotheses: tuple[MdGlmbHypothesis, ...]

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(sorted(self.hypotheses, key=lambda h: h.label_set)))

    @classmethod
    def from_unnormalized(cls, hyps: list[MdGlmbHypothesis]) -> "MdGlmbDensity":
        finite = [h for h in hyps if math.isfinite(h.log_weight)]
        if not finite:
            raise ValueError("no hypothesis with finite weight")
        total = logsumexp([h.log_weight for h in finite])
        return cls(tuple(MdGlmbHypothesis(h.label_set, h.log_weight - total, h.pdfs) for h in finite))

    @classmethod
    def empty(cls) -> "MdGlmbDensity":
        return cls((MdGlmbHypothesis((), 0.0, ()),))

    def hypothesis(self, label_set: LabelSet) -> MdGlmbHypothesis | None:
        try:
            index = object.__getattribute__(self, "_index")
        except AttributeError:
            index = {h.label_set: h for h in self.hypotheses}
            object.__setattr__(self, "_index", index)
        return index.get(label_set)

    def label_space(self) -> LabelSet:
        out: set[Label] = set()
        for h in self.hypotheses:
            out.update(h.label_set)
        return tuple(sorted(out))

    def __len__(self):
        return len(self.hypotheses)


def _check_increasing(labels: tuple[Label, ...], where) -> None:
    for a, b in zip(labels, labels[1:]):
        if not a < b:
            raise ValueError(f"label {b} in {where} is duplicated or out of order")


def check_density(d: LmbDensity | MdGlmbDensity) -> None:
    """Raise ValueError, naming the offending label set or label, unless d is
    a valid labeled density.

    M-delta-GLMB: at least one hypothesis; label sets strictly increasing
    (sorted and duplicate-free), as is the hypothesis order; one pdf per
    label, each normalized within PDF_ATOL; log weights summing to 1 within
    NORMALIZATION_ATOL. LMB: labels strictly increasing; existences in
    [0, 1]; every pdf normalized within PDF_ATOL.
    """
    if isinstance(d, MdGlmbDensity):
        if not d.hypotheses:
            raise ValueError("density needs at least one hypothesis (the empty set is allowed)")
        previous = None
        for h in d.hypotheses:
            labels = h.label_set
            _check_increasing(labels, labels)
            if previous is not None and not previous < labels:
                raise ValueError(f"hypothesis {labels} is duplicated or out of order")
            previous = labels
            if len(h.pdfs) != len(labels):
                raise ValueError(f"hypothesis {labels} carries {len(h.pdfs)} pdfs for {len(labels)} labels")
            for lab, pdf in zip(labels, h.pdfs):
                if not abs(pdf.total_log_weight()) <= PDF_ATOL:
                    raise ValueError(f"pdf for {lab} in hypothesis {labels} is not normalized")
        total = logsumexp([h.log_weight for h in d.hypotheses])
        if not abs(total) <= NORMALIZATION_ATOL:  # NaN fails too
            raise ValueError(f"hypothesis weights not normalized (log total {total:.3e})")
    elif isinstance(d, LmbDensity):
        _check_increasing(d.labels, "the LMB density")
        for e in d.entries:
            if not 0.0 <= e.existence <= 1.0:
                raise ValueError(f"existence probability {e.existence} outside [0, 1] for {e.label}")
            if not abs(e.pdf.total_log_weight()) <= PDF_ATOL:
                raise ValueError(f"pdf for {e.label} is not normalized")
    else:
        raise TypeError(f"cannot check {type(d).__name__}")


def cardinality_distribution_mdglmb(d: MdGlmbDensity) -> np.ndarray:
    """pmf over object count n = 0..max |I|."""
    n_max = max(len(h.label_set) for h in d.hypotheses)
    log_terms: list[list[float]] = [[] for _ in range(n_max + 1)]
    for h in d.hypotheses:
        log_terms[len(h.label_set)].append(h.log_weight)
    pmf = np.array([math.exp(logsumexp(t)) if t else 0.0 for t in log_terms])
    return pmf / pmf.sum()


def cardinality_distribution_lmb(d: LmbDensity) -> np.ndarray:
    """pmf of the sum of independent per-label Bernoulli existences."""
    pmf = np.array([1.0])
    for e in d.entries:
        pmf = np.convolve(pmf, [1.0 - e.existence, e.existence])
    return pmf


def intensity_mdglmb(d: MdGlmbDensity, label: Label) -> tuple[float, GaussianMixture]:
    """Existence mass sum_{I owning label} w(I) and the matching pdf mixture
    of a label that some hypothesis holds."""
    log_ws, parts = [], []
    for h in d.hypotheses:
        if label in h.label_set:
            log_ws.append(h.log_weight)
            parts.append(h.pdf(label))
    log_mass = logsumexp(log_ws)
    lw = np.concatenate([p.log_w + (w - log_mass) for p, w in zip(parts, log_ws)])
    mu = np.concatenate([p.means for p in parts])
    cv = np.concatenate([p.covs for p in parts])
    return float(math.exp(log_mass)), GaussianMixture(lw, mu, cv)


def lmb_from_mdglmb(d: MdGlmbDensity) -> LmbDensity:
    """LMB with the same per-label existence mass and intensity."""
    entries = []
    for label in d.label_space():
        mass, pdf = intensity_mdglmb(d, label)
        # the summed weights can round above 1
        entries.append(LmbEntry(label, min(mass, 1.0), pdf))
    return LmbDensity(tuple(entries))


def k_best_bernoulli_subsets(probs: np.ndarray, k: int) -> list[tuple[tuple[int, ...], float]]:
    """The k highest-weight subsets of independent Bernoulli(p_i) trials.

    Returns (sorted index tuple, log weight) pairs in descending weight;
    log weight = sum_in log p + sum_out log(1-p). p_i = 0 is never
    included, p_i = 1 always.
    """
    probs = np.asarray(probs, dtype=float)
    forced = [i for i, p in enumerate(probs) if p >= 1.0]
    optional = [i for i, p in enumerate(probs) if 0.0 < p < 1.0]
    base = sum(math.log1p(-probs[i]) for i in optional)
    odds = {i: math.log(probs[i]) - math.log1p(-probs[i]) for i in optional}

    best = set(forced) | {i for i in optional if odds[i] > 0}
    best_logw = base + sum(odds[i] for i in optional if odds[i] > 0)

    costs = sorted(((abs(odds[i]), i) for i in optional), key=lambda t: (t[0], t[1]))
    out = [(tuple(sorted(best)), best_logw)]
    if k <= 1:
        return out
    limit = min(k, 1 << len(optional))

    # enumerate deviation sets by increasing total cost; a deviation toggles
    # membership of one optional index relative to the best subset
    heap: list[tuple[float, tuple[int, ...]]] = []
    if costs:
        heapq.heappush(heap, (costs[0][0], (0,)))
    while heap and len(out) < limit:
        cost, devs = heapq.heappop(heap)
        subset = set(best)
        for pos in devs:
            subset.symmetric_difference_update({costs[pos][1]})
        out.append((tuple(sorted(subset)), best_logw - cost))
        last = devs[-1]
        if last + 1 < len(costs):
            heapq.heappush(heap, (cost + costs[last + 1][0], devs + (last + 1,)))
            heapq.heappush(heap, (cost - costs[last][0] + costs[last + 1][0], devs[:-1] + (last + 1,)))
    return out


def lmb_to_mdglmb(d: LmbDensity, max_hypotheses: int) -> MdGlmbDensity:
    """Expand an LMB into its max_hypotheses best label-set hypotheses by
    weight, renormalized after truncation."""
    probs = np.array([e.existence for e in d.entries])
    subsets = k_best_bernoulli_subsets(probs, max_hypotheses)
    hyps = []
    for idx, log_w in subsets:
        labels = tuple(d.entries[i].label for i in idx)
        pdfs = tuple(d.entries[i].pdf for i in idx)
        hyps.append(MdGlmbHypothesis(labels, log_w, pdfs))
    return MdGlmbDensity.from_unnormalized(hyps)
