"""Kullback-Leibler-average fusion of labeled densities and one consensus round.

The weighted KLA of multi-object densities is their normalized weighted
geometric mean. For marginalized delta-GLMBs the fused weight of a label
set L combines the weighted log prior weights with the per-label fusion
masses eta^(L)(l) = integral prod_i p_i(x, l; L)^{w_i} dx, taken from the
Gaussian-mixture fusion itself so weight and pdf fusion stay consistent.
For LMBs the fused existence is r_tilde / (q_tilde + r_tilde) with
q_tilde = prod (1 - r_i)^{w_i} and r_tilde = eta * prod r_i^{w_i}.

One consensus round, as each node runs it in the paper: fuse the
in-neighbours' densities with the node's consensus weights, merging the
fold accumulator at the filter's merge threshold, then reduce the fused
mixtures. Fusion weights are taken as given: consensus weights enter
through `network.ConsensusMatrix`, which checks that they are non-negative
and that each row sums to 1.
"""

from __future__ import annotations

import math
import warnings

from .densities import (
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
)
from .filters import FilterConfig, reduce_lmb_pdfs, reduce_mdglmb_pdfs
from .gm import gm_chernoff_multi, gm_key
from .network import ConsensusMatrix, NetworkGraph


class FusionDegenerateWarning(UserWarning):
    """No hypothesis survived the intersection; fused density fell back to empty."""


def fuse_mdglmb(
    inputs: list[tuple[MdGlmbDensity, float]],
    merge_thresh: float,
) -> MdGlmbDensity:
    """Weighted KLA of marginalized delta-GLMB densities.

    Only label sets present in every positively-weighted input survive
    (absent hypotheses carry zero weight and annihilate the geometric
    mean). If no common hypothesis exists the fused density degenerates to
    the empty-set hypothesis and a FusionDegenerateWarning is emitted.
    """
    active = [(d, w) for d, w in inputs if w > 0.0]
    if len(active) == 1:
        return active[0][0]

    common = set(h.label_set for h in active[0][0].hypotheses)
    for d, _ in active[1:]:
        common &= {h.label_set for h in d.hypotheses}

    # the same pdf combination recurs across hypotheses; fuse each once
    fused_cache: dict[tuple, tuple] = {}
    hyps = []
    for label_set in sorted(common):
        per_input = [(d.hypothesis(label_set), w) for d, w in active]
        log_w = sum(w * h.log_weight for h, w in per_input)
        pdfs = []
        # every input hypothesis carries label_set, so pdf i of each is label i's
        for i in range(len(label_set)):
            parts = [(h.pdfs[i], w) for h, w in per_input]
            key = tuple(gm_key(p) for p, _ in parts)
            hit = fused_cache.get(key)
            if hit is None:
                hit = gm_chernoff_multi(parts, merge_thresh)
                fused_cache[key] = hit
            fused, log_eta = hit
            pdfs.append(fused)
            log_w += log_eta
        if math.isfinite(log_w):
            hyps.append(MdGlmbHypothesis(label_set, log_w, tuple(pdfs)))

    if not hyps:
        warnings.warn("empty hypothesis intersection; falling back to the empty-set hypothesis", FusionDegenerateWarning)
        return MdGlmbDensity.empty()
    return MdGlmbDensity.from_unnormalized(hyps)


def fuse_lmb(
    inputs: list[tuple[LmbDensity, float]],
    merge_thresh: float,
) -> LmbDensity:
    """Weighted KLA of LMB densities.

    A label missing from any positively-weighted input fuses to existence
    zero (its geometric-mean existence product vanishes) and is dropped, so
    a track must be present at every in-neighbour to survive.
    """
    active = [(d, w) for d, w in inputs if w > 0.0]
    if len(active) == 1:
        return active[0][0]

    common = set(active[0][0].labels)
    for d, _ in active[1:]:
        common &= set(d.labels)

    entries = []
    for lab in sorted(common):
        per_input = [(d.entry(lab), w) for d, w in active]
        fused_pdf, log_eta = gm_chernoff_multi([(e.pdf, w) for e, w in per_input], merge_thresh)
        log_q = sum(w * math.log1p(-e.existence) if e.existence < 1.0 else -math.inf for e, w in per_input)
        log_r_prod = sum(w * math.log(e.existence) if e.existence > 0.0 else -math.inf for e, w in per_input)
        log_r = log_eta + log_r_prod
        if log_r == -math.inf:
            continue
        if log_q == -math.inf:
            r_bar = 1.0
        else:
            # r_tilde / (q_tilde + r_tilde) computed in the log domain
            r_bar = 1.0 / (1.0 + math.exp(log_q - log_r))
        entries.append(LmbEntry(lab, r_bar, fused_pdf))
    return LmbDensity(tuple(entries))


def consensus_run(
    node_densities: list,
    g: NetworkGraph,
    omega: ConsensusMatrix,
    cfg: FilterConfig,
) -> list:
    """One synchronous consensus round: every node fuses its in-neighbours'
    densities with its consensus-matrix weights, then reduces the mixtures.

    Densities are immutable snapshots, so every fusion reads the inputs.
    The density type (M-delta-GLMB or LMB) picks the fusion and reduction.
    Each fold accumulator is merged at cfg.gm_merge_thresh.
    """
    if len(node_densities) != len(g.nodes):
        raise ValueError("one density per graph node required")
    if omega.nodes != tuple(g.nodes):
        raise ValueError("consensus matrix node order does not match the graph")
    if isinstance(node_densities[0], MdGlmbDensity):
        fuse, reduce = fuse_mdglmb, reduce_mdglmb_pdfs
    elif isinstance(node_densities[0], LmbDensity):
        fuse, reduce = fuse_lmb, reduce_lmb_pdfs
    else:
        raise TypeError(f"cannot fuse densities of type {type(node_densities[0]).__name__}")
    index = {node: i for i, node in enumerate(g.nodes)}
    out = []
    for node in g.nodes:
        pairs = [(node_densities[index[j]], omega.weight(node, j)) for j in g.in_neighbours(node)]
        out.append(reduce(fuse(pairs, cfg.gm_merge_thresh), cfg))
    return out
