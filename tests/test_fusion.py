import math

import numpy as np
import pytest

from distmot.densities import (
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
)
from distmot.filters import FilterConfig, reduce_lmb_pdfs, reduce_mdglmb_pdfs
from distmot.fusion import FusionDegenerateWarning, consensus_run, fuse_lmb, fuse_mdglmb
from distmot.network import metropolis_weights, neighbour_lists
from reference import Gaussian, gm_covariance, gm_mean, mixture, single
from set_integral import geometric_mean_evaluator, mdglmb_evaluator, subset_integral, subset_moments

L1, L2 = (0, 1), (0, 2)
CFG = FilterConfig()


def g1(mean, var=1.0):
    return single(Gaussian([mean], [[var]]))


def single_hyp_density(gaussian):
    return MdGlmbDensity((MdGlmbHypothesis((L1,), 0.0, (single(gaussian),)),))


def random_gaussian(rng, d=4):
    a = rng.normal(size=(d, d))
    return Gaussian(rng.normal(scale=2.0, size=d), a @ a.T + 0.5 * np.eye(d))


def two_label_scalar_density(rng):
    w = rng.dirichlet(np.ones(4))
    hyps = [
        MdGlmbHypothesis((), math.log(w[0]), ()),
        MdGlmbHypothesis((L1,), math.log(w[1]), (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)),)),
        MdGlmbHypothesis((L2,), math.log(w[2]), (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)),)),
        MdGlmbHypothesis(
            (L1, L2),
            math.log(w[3]),
            (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)), g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0))),
        ),
    ]
    return MdGlmbDensity.from_unnormalized(hyps)


class TestFuseMdglmb:
    def test_identical_inputs_fixed_point(self):
        rng = np.random.default_rng(1)
        d = two_label_scalar_density(rng)
        fused = fuse_mdglmb([(d, 0.7), (d, 0.3)], CFG.gm_merge_thresh)
        for h, g in zip(fused.hypotheses, d.hypotheses):
            assert h.label_set == g.label_set
            assert h.log_weight == pytest.approx(g.log_weight, abs=1e-9)
            for pa, pb in zip(h.pdfs, g.pdfs):
                assert np.allclose(pa.means, pb.means, atol=1e-9)
                assert np.allclose(pa.covs, pb.covs, atol=1e-9)

    def test_weight_one_zero_returns_first(self):
        rng = np.random.default_rng(2)
        a, b = two_label_scalar_density(rng), two_label_scalar_density(rng)
        fused = fuse_mdglmb([(a, 1.0), (b, 0.0)], CFG.gm_merge_thresh)
        assert fused is a

    def test_intersection_only_common_hypotheses(self):
        a = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.5), ()),
            MdGlmbHypothesis((L1,), math.log(0.5), (g1(0.0),)),
        ])
        b = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.5), ()),
            MdGlmbHypothesis((L2,), math.log(0.5), (g1(1.0),)),
        ])
        fused = fuse_mdglmb([(a, 0.5), (b, 0.5)], CFG.gm_merge_thresh)
        assert [h.label_set for h in fused.hypotheses] == [()]

    def test_empty_intersection_falls_back_with_warning(self):
        a = MdGlmbDensity((MdGlmbHypothesis((L1,), 0.0, (g1(0.0),)),))
        b = MdGlmbDensity((MdGlmbHypothesis((L2,), 0.0, (g1(1.0),)),))
        with pytest.warns(FusionDegenerateWarning):
            fused = fuse_mdglmb([(a, 0.5), (b, 0.5)], CFG.gm_merge_thresh)
        assert [h.label_set for h in fused.hypotheses] == [()]

    def test_matches_set_integral_oracle(self):
        # direct grid evaluation of the normalized weighted geometric mean
        rng = np.random.default_rng(7)
        a, b = two_label_scalar_density(rng), two_label_scalar_density(rng)
        omegas = (0.6, 0.4)
        fused = fuse_mdglmb([(a, omegas[0]), (b, omegas[1])], CFG.gm_merge_thresh)

        grid = np.linspace(-30.0, 30.0, 1201)
        ev = geometric_mean_evaluator([(mdglmb_evaluator(a), omegas[0]), (mdglmb_evaluator(b), omegas[1])])
        masses = {}
        for labels in [(), (L1,), (L2,), (L1, L2)]:
            masses[labels] = subset_integral(ev, labels, grid)
        total = sum(masses.values())
        for labels, mass in masses.items():
            got = math.exp(fused.hypothesis(labels).log_weight)
            assert got == pytest.approx(mass / total, rel=1e-3)
        # pdf moments against grid moments for the 2-label hypothesis
        _, means, variances = subset_moments(ev, (L1, L2), grid)
        h = fused.hypothesis((L1, L2))
        for i in range(2):
            assert gm_mean(h.pdfs[i])[0] == pytest.approx(means[i], rel=1e-3, abs=1e-6)
            assert gm_covariance(h.pdfs[i])[0, 0] == pytest.approx(variances[i], rel=1e-3)


class TestFuseLmb:
    def test_identical_single_entry_fixed_point(self):
        d = LmbDensity((LmbEntry(L1, 0.09, g1(0.0)),))
        fused = fuse_lmb([(d, 0.5), (d, 0.5)], CFG.gm_merge_thresh)
        assert fused.entry(L1).existence == pytest.approx(0.09, abs=1e-12)

    def test_two_inputs_balanced_existence(self):
        # q_tilde = (0.8*0.2)^0.5 = 0.4, r_tilde = (0.2*0.8)^0.5 = 0.4 -> 0.5
        pdf = g1(1.0)
        a = LmbDensity((LmbEntry(L1, 0.2, pdf),))
        b = LmbDensity((LmbEntry(L1, 0.8, pdf),))
        fused = fuse_lmb([(a, 0.5), (b, 0.5)], CFG.gm_merge_thresh)
        assert fused.entry(L1).existence == pytest.approx(0.5, abs=1e-10)

    def test_weight_one_zero(self):
        a = LmbDensity((LmbEntry(L1, 0.3, g1(0.0)),))
        b = LmbDensity((LmbEntry(L1, 0.9, g1(5.0)),))
        assert fuse_lmb([(a, 1.0), (b, 0.0)], CFG.gm_merge_thresh) is a

    def test_label_missing_from_one_input_dies(self):
        a = LmbDensity((LmbEntry(L1, 0.5, g1(0.0)), LmbEntry(L2, 0.5, g1(1.0))))
        b = LmbDensity((LmbEntry(L1, 0.5, g1(0.2)),))
        fused = fuse_lmb([(a, 0.5), (b, 0.5)], CFG.gm_merge_thresh)
        assert fused.labels == (L1,)

    def test_existences_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = LmbDensity((LmbEntry(L1, rng.uniform(), g1(rng.normal())),))
            b = LmbDensity((LmbEntry(L1, rng.uniform(), g1(rng.normal())),))
            w = rng.uniform(0.1, 0.9)
            fused = fuse_lmb([(a, w), (b, 1.0 - w)], CFG.gm_merge_thresh)
            if fused.entries:
                assert 0.0 <= fused.entry(L1).existence <= 1.0


def scalar_mixture(rng, n):
    return mixture(
        np.log(rng.dirichlet(np.ones(n))),
        rng.normal(scale=3.0, size=(n, 1)),
        rng.uniform(0.5, 2.0, size=(n, 1, 1)),
    )


def consensus_rounds(densities, omega, n_rounds):
    for _ in range(n_rounds):
        densities = consensus_run(densities, omega, CFG)
    return densities


class TestConsensusRun:
    def graph4(self):
        return neighbour_lists(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_identical_densities_fixed_point(self):
        rng = np.random.default_rng(6)
        g = self.graph4()
        omega = metropolis_weights(g)
        d = two_label_scalar_density(rng)
        out = consensus_rounds([d] * 4, omega, 3)
        for o in out:
            for h, e in zip(o.hypotheses, d.hypotheses):
                assert h.label_set == e.label_set
                assert h.log_weight == pytest.approx(e.log_weight, abs=1e-9)

    def test_ci_equivalence_against_information_pairs(self):
        # single-Gaussian single-hypothesis consensus == information-pair averaging
        rng = np.random.default_rng(8)
        g = self.graph4()
        omega = metropolis_weights(g)
        gaussians = [random_gaussian(rng) for _ in range(4)]
        densities = [single_hyp_density(ga) for ga in gaussians]

        infos = [np.linalg.inv(ga.cov) for ga in gaussians]
        vecs = [info @ ga.mean for info, ga in zip(infos, gaussians)]
        for n in range(1, 6):
            densities = consensus_run(densities, omega, CFG)
            new_infos = [sum(omega[i, j] * infos[j] for j in range(4)) for i in range(4)]
            new_vecs = [sum(omega[i, j] * vecs[j] for j in range(4)) for i in range(4)]
            infos, vecs = new_infos, new_vecs
            for i in range(4):
                cov = np.linalg.inv(infos[i])
                mean = cov @ vecs[i]
                pdf = densities[i].hypotheses[0].pdfs[0]
                assert np.allclose(pdf.means[0], mean, atol=1e-8), f"round {n} node {i}"
                assert np.allclose(pdf.covs[0], cov, atol=1e-8)

    def test_two_node_lmb_converges_to_unweighted_kla(self):
        omega = metropolis_weights(neighbour_lists(2, [(0, 1)]))
        a = LmbDensity((LmbEntry(L1, 0.2, g1(0.0, 1.0)),))
        b = LmbDensity((LmbEntry(L1, 0.8, g1(4.0, 2.0)),))
        target = fuse_lmb([(a, 0.5), (b, 0.5)], CFG.gm_merge_thresh)
        out = consensus_rounds([a, b], omega, 30)
        for node in out:
            assert node.entry(L1).existence == pytest.approx(target.entry(L1).existence, abs=1e-6)
            assert gm_mean(node.entry(L1).pdf)[0] == pytest.approx(gm_mean(target.entry(L1).pdf)[0], abs=1e-6)
            assert gm_covariance(node.entry(L1).pdf)[0, 0] == pytest.approx(
                gm_covariance(target.entry(L1).pdf)[0, 0], abs=1e-6
            )

    @pytest.mark.parametrize("kind", ["mdglmb", "lmb"])
    def test_round_fuses_then_reduces_each_node(self, kind):
        # a path graph: the middle node folds three inputs, so its fold
        # accumulator is merged, and the ends fuse two with other weights
        rng = np.random.default_rng(12)
        g = neighbour_lists(3, [(0, 1), (1, 2)])
        omega = metropolis_weights(g)
        cfg = FilterConfig(gm_max_components=4)
        if kind == "mdglmb":
            fuse, reduce = fuse_mdglmb, reduce_mdglmb_pdfs
            densities = [
                MdGlmbDensity.from_unnormalized([
                    MdGlmbHypothesis((), math.log(0.2), ()),
                    MdGlmbHypothesis((L1,), math.log(0.3), (scalar_mixture(rng, 3),)),
                    MdGlmbHypothesis((L1, L2), math.log(0.5), (scalar_mixture(rng, 2), scalar_mixture(rng, 3))),
                ])
                for _ in g
            ]
        else:
            fuse, reduce = fuse_lmb, reduce_lmb_pdfs
            densities = [
                LmbDensity((LmbEntry(L1, 0.6, scalar_mixture(rng, 3)), LmbEntry(L2, 0.4, scalar_mixture(rng, 2))))
                for _ in g
            ]

        out = consensus_run(densities, omega, cfg)

        def pdfs(d):
            return [p for h in d.hypotheses for p in h.pdfs] if kind == "mdglmb" else [e.pdf for e in d.entries]

        for node, got in enumerate(out):
            pairs = [(densities[j], float(omega[node, j])) for j in g[node]]
            want = reduce(fuse(pairs, cfg.gm_merge_thresh), cfg)
            assert len(pdfs(got)) == len(pdfs(want)) > 0
            for p, q in zip(pdfs(got), pdfs(want)):
                assert p.n_components <= cfg.gm_max_components
                for x, y in ((p.log_w, q.log_w), (p.means, q.means), (p.covs, q.covs)):
                    assert x.tobytes() == y.tobytes()
            if kind == "mdglmb":
                assert [h.log_weight for h in got.hypotheses] == [h.log_weight for h in want.hypotheses]
            else:
                assert [e.existence for e in got.entries] == [e.existence for e in want.entries]
