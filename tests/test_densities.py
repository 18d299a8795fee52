import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot.densities import (
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
    cardinality_distribution_lmb,
    cardinality_distribution_mdglmb,
    check_density,
    intensity_mdglmb,
    k_best_bernoulli_subsets,
    lmb_from_mdglmb,
    lmb_to_mdglmb,
)
from distmot.gm import Gaussian, GaussianMixture
from distmot.labels import EMPTY_LABEL_SET, Label, LabelSet
from distmot.wire import density_from_json, density_to_dict
from reference import DeltaGlmbComponent, DeltaGlmbDensity, gm_mean, marginalize_delta_glmb


def g1(mean, var=1.0):
    return GaussianMixture.single(Gaussian([mean], [[var]]))


L1, L2, L3 = Label(0, 1), Label(0, 2), Label(1, 1)


def random_mdglmb(rng, labels, dim=1):
    """Random density with one hypothesis per subset of `labels`."""
    hyps = []
    weights = rng.dirichlet(np.ones(2 ** len(labels)))
    for w, subset in zip(weights, itertools.chain.from_iterable(
        itertools.combinations(labels, n) for n in range(len(labels) + 1)
    )):
        pdfs = tuple(g1(rng.normal(scale=3.0), rng.uniform(0.5, 2.0)) for _ in subset)
        hyps.append(MdGlmbHypothesis(LabelSet(subset), math.log(w), pdfs))
    return MdGlmbDensity.from_unnormalized(hyps)


def decode_hypotheses(label_lists, log_weights=None):
    """density_from_json of a document with one hypothesis per label list,
    each label carrying a unit Gaussian; the wire order is kept as given."""
    log_weights = log_weights or [-math.log(len(label_lists))] * len(label_lists)
    doc = {"schema": "lrfs-density/1", "kind": "mdglmb", "hypotheses": []}
    pdf = density_to_dict(LmbDensity((LmbEntry(L1, 1.0, g1(0.0)),)))["entries"][0]["pdf"]
    for labels, lw in zip(label_lists, log_weights):
        pairs = [list(l.as_pair()) for l in labels]
        doc["hypotheses"].append(
            {"labels": pairs, "log_weight": lw, "tracks": [{"label": p, "pdf": pdf} for p in pairs]}
        )
    return density_from_json(json.dumps(doc))


class TestLabels:
    def test_label_ordering(self):
        assert Label(0, 1) < Label(0, 2) < Label(1, 1) < Label(1, 2)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Label(-1, 1)
        with pytest.raises(ValueError):
            Label(0, 0)

    def test_labelset_sorted_and_unique(self):
        # decoding sorts a label list; check_density rejects an unsorted or
        # duplicated label set
        d = decode_hypotheses([[L3, L1, L2]])
        assert d.hypotheses[0].label_set.labels == (L1, L2, L3)
        for labels in [(L2, L1), (L1, L1)]:
            with pytest.raises(ValueError, match=r"\(0,[12]\)"):
                check_density(MdGlmbDensity((MdGlmbHypothesis(LabelSet(labels), 0.0, (g1(0.0), g1(1.0))),)))
        with pytest.raises(ValueError, match="duplicated or out of order"):
            decode_hypotheses([[L1, L1]])

    def test_labelset_set_equality(self):
        # the decoded label set is the same whatever the order on the wire
        a = decode_hypotheses([[L2, L1]]).hypotheses[0].label_set
        b = decode_hypotheses([[L1, L2]]).hypotheses[0].label_set
        assert a == b and hash(a) == hash(b)


class TestCardinalityMdglmb:
    def test_empty_only(self):
        d = MdGlmbDensity.empty()
        assert cardinality_distribution_mdglmb(d).tolist() == [1.0]

    def test_two_hypotheses(self):
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.3), ()),
            MdGlmbHypothesis(LabelSet((L1,)), math.log(0.7), (g1(0.0),)),
        ])
        assert np.allclose(cardinality_distribution_mdglmb(d), [0.3, 0.7])

    def test_random_three_labels_vs_enumeration(self):
        rng = np.random.default_rng(0)
        d = random_mdglmb(rng, (L1, L2, L3))
        pmf = cardinality_distribution_mdglmb(d)
        # oracle: walk all 8 subsets and bin the weights by subset size
        expect = np.zeros(4)
        for h in d.hypotheses:
            expect[len(h.label_set)] += math.exp(h.log_weight)
        assert np.allclose(pmf, expect, atol=1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestCardinalityLmb:
    def test_single_entry(self):
        d = LmbDensity((LmbEntry(L1, 0.09, g1(0.0)),))
        assert np.allclose(cardinality_distribution_lmb(d), [0.91, 0.09])

    def test_two_fair_entries(self):
        d = LmbDensity((LmbEntry(L1, 0.5, g1(0.0)), LmbEntry(L2, 0.5, g1(1.0))))
        assert np.allclose(cardinality_distribution_lmb(d), [0.25, 0.5, 0.25])

    def test_ten_entries_vs_exhaustive(self):
        labels = [Label(0, i) for i in range(1, 11)]
        d = LmbDensity(tuple(LmbEntry(l, 0.09, g1(float(i))) for i, l in enumerate(labels)))
        pmf = cardinality_distribution_lmb(d)
        expect = np.zeros(11)
        for included in itertools.product([0, 1], repeat=10):
            w = math.prod(0.09 if b else 0.91 for b in included)
            expect[sum(included)] += w
        assert np.allclose(pmf, expect, atol=1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)


class TestIntensity:
    def test_certain_single_label(self):
        pdf = g1(2.0)
        d = MdGlmbDensity((MdGlmbHypothesis(LabelSet((L1,)), 0.0, (pdf,)),))
        mass, mix = intensity_mdglmb(d, L1)
        assert mass == pytest.approx(1.0)
        assert np.allclose(mix.means, pdf.means)

    def test_partial_existence(self):
        pdf = g1(2.0)
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.4), ()),
            MdGlmbHypothesis(LabelSet((L1,)), math.log(0.6), (pdf,)),
        ])
        mass, mix = intensity_mdglmb(d, L1)
        assert mass == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(mix.means, pdf.means)
        assert mix.is_normalized(atol=1e-9)

    def test_three_hypothesis_hand_sum(self):
        pa, pb = g1(0.0), g1(5.0)
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.2), ()),
            MdGlmbHypothesis(LabelSet((L1,)), math.log(0.3), (pa,)),
            MdGlmbHypothesis(LabelSet((L1, L2)), math.log(0.5), (pb, g1(9.0))),
        ])
        mass, mix = intensity_mdglmb(d, L1)
        assert mass == pytest.approx(0.8, abs=1e-12)
        # mixture is 0.3/0.8 at 0 and 0.5/0.8 at 5
        assert gm_mean(mix)[0] == pytest.approx(5.0 * 0.5 / 0.8, abs=1e-12)

    def test_unknown_label(self):
        d = MdGlmbDensity.empty()
        mass, mix = intensity_mdglmb(d, L1)
        assert mass == 0.0 and mix.n_components == 0


class TestMarginalizeDeltaGlmb:
    def test_single_tag_identity(self):
        pdf = g1(1.0)
        d = DeltaGlmbDensity((
            DeltaGlmbComponent(LabelSet((L1,)), "t0", math.log(0.6), (pdf,)),
            DeltaGlmbComponent(EMPTY_LABEL_SET, "t0", math.log(0.4), ()),
        ))
        m = marginalize_delta_glmb(d)
        assert np.allclose(cardinality_distribution_mdglmb(m), [0.4, 0.6])
        assert np.allclose(m.hypothesis(LabelSet((L1,))).pdfs[0].means, pdf.means)

    def test_equal_weight_tags_mix_pdfs(self):
        ga, gb = g1(0.0), g1(4.0)
        d = DeltaGlmbDensity((
            DeltaGlmbComponent(LabelSet((L1,)), 0, math.log(0.5), (ga,)),
            DeltaGlmbComponent(LabelSet((L1,)), 1, math.log(0.5), (gb,)),
        ))
        m = marginalize_delta_glmb(d)
        h = m.hypothesis(LabelSet((L1,)))
        assert h.log_weight == pytest.approx(0.0, abs=1e-12)
        assert gm_mean(h.pdfs[0])[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(np.exp(h.pdfs[0].log_w), [0.5, 0.5])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_preserves_cardinality_and_intensity(self, seed):
        rng = np.random.default_rng(seed)
        labels = (L1, L2)
        comps = []
        n_tags = rng.integers(1, 4)
        weights = rng.dirichlet(np.ones(4 * n_tags)).reshape(4, n_tags)
        subsets = [(), (L1,), (L2,), (L1, L2)]
        for si, subset in enumerate(subsets):
            for t in range(n_tags):
                pdfs = tuple(g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)) for _ in subset)
                comps.append(DeltaGlmbComponent(LabelSet(subset), t, math.log(weights[si, t]), pdfs))
        d = DeltaGlmbDensity(tuple(comps))
        m = marginalize_delta_glmb(d)

        # cardinality oracle straight off the delta-GLMB components
        card = np.zeros(3)
        for c in d.components:
            card[len(c.label_set)] += math.exp(c.log_weight)
        assert np.allclose(cardinality_distribution_mdglmb(m), card, atol=1e-12)

        # per-label intensity: mass and first moment
        for lab in labels:
            mass = sum(math.exp(c.log_weight) for c in d.components if lab in c.label_set)
            first = sum(
                math.exp(c.log_weight) * gm_mean(c.pdf(lab))[0]
                for c in d.components
                if lab in c.label_set
            )
            got_mass, got_pdf = intensity_mdglmb(m, lab)
            assert got_mass == pytest.approx(mass, abs=1e-12)
            if mass > 0:
                assert gm_mean(got_pdf)[0] * got_mass == pytest.approx(first, abs=1e-12)


class TestLmbConversions:
    def test_from_mdglmb_fifty_fifty(self):
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.5), ()),
            MdGlmbHypothesis(LabelSet((L1,)), math.log(0.5), (g1(0.0),)),
        ])
        lmb = lmb_from_mdglmb(d)
        assert lmb.entry(L1).existence == pytest.approx(0.5, abs=1e-12)

    def test_from_mdglmb_uniform_two_labels(self):
        hyps = []
        for subset in [(), (L1,), (L2,), (L1, L2)]:
            pdfs = tuple(g1(0.0) for _ in subset)
            hyps.append(MdGlmbHypothesis(LabelSet(subset), math.log(0.25), pdfs))
        lmb = lmb_from_mdglmb(MdGlmbDensity.from_unnormalized(hyps))
        assert lmb.entry(L1).existence == pytest.approx(0.5, abs=1e-12)
        assert lmb.entry(L2).existence == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_phd_mass_matches_expected_cardinality(self, seed):
        rng = np.random.default_rng(seed)
        d = random_mdglmb(rng, (L1, L2, L3))
        lmb = lmb_from_mdglmb(d)
        pmf = cardinality_distribution_mdglmb(d)
        expected_n = float(np.arange(pmf.size) @ pmf)
        total_r = sum(e.existence for e in lmb.entries)
        assert total_r == pytest.approx(expected_n, abs=1e-12)

    def test_to_mdglmb_single_entry(self):
        lmb = LmbDensity((LmbEntry(L1, 0.09, g1(0.0)),))
        d = lmb_to_mdglmb(lmb, 2)
        assert math.exp(d.hypothesis(EMPTY_LABEL_SET).log_weight) == pytest.approx(0.91, abs=1e-12)
        assert math.exp(d.hypothesis(LabelSet((L1,))).log_weight) == pytest.approx(0.09, abs=1e-12)

    def test_to_mdglmb_zero_existence(self):
        lmb = LmbDensity((LmbEntry(L1, 0.0, g1(0.0)),))
        d = lmb_to_mdglmb(lmb, 2)
        assert len(d) == 1 and d.hypotheses[0].label_set == EMPTY_LABEL_SET

    def test_to_mdglmb_three_entries_full_enumeration(self):
        rs = [0.2, 0.5, 0.9]
        lmb = LmbDensity(tuple(LmbEntry(l, r, g1(0.0)) for l, r in zip((L1, L2, L3), rs)))
        d = lmb_to_mdglmb(lmb, 8)
        assert len(d) == 8
        # weights sum to one exactly: product over labels of (1-r) + r
        total = sum(math.exp(h.log_weight) for h in d.hypotheses)
        assert total == pytest.approx(1.0, abs=1e-12)
        # spot-check one subset against the Bernoulli product
        w = math.exp(d.hypothesis(LabelSet((L1, L3))).log_weight)
        assert w == pytest.approx(0.2 * 0.5 * 0.9, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        rs = rng.uniform(0.05, 0.95, size=3)
        lmb = LmbDensity(tuple(
            LmbEntry(l, float(r), g1(rng.normal())) for l, r in zip((L1, L2, L3), rs)
        ))
        back = lmb_from_mdglmb(lmb_to_mdglmb(lmb, 8))
        assert back.labels == lmb.labels
        for e, f in zip(lmb.entries, back.entries):
            assert f.existence == pytest.approx(e.existence, abs=1e-12)


class TestKBestSubsets:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_matches_exhaustive_ranking(self, seed, k):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 0.99, size=5)
        got = k_best_bernoulli_subsets(probs, k)
        all_subsets = []
        for included in itertools.product([0, 1], repeat=5):
            lw = sum(math.log(probs[i]) if b else math.log(1 - probs[i]) for i, b in enumerate(included))
            all_subsets.append((tuple(i for i, b in enumerate(included) if b), lw))
        all_subsets.sort(key=lambda t: -t[1])
        assert len(got) == min(k, 32)
        got_ws = [w for _, w in got]
        exp_ws = [w for _, w in all_subsets[: len(got)]]
        assert np.allclose(got_ws, exp_ws, atol=1e-10)
        # weights are descending and subsets unique
        assert all(a >= b - 1e-12 for a, b in zip(got_ws, got_ws[1:]))
        assert len({s for s, _ in got}) == len(got)

    def test_degenerate_probabilities(self):
        got = k_best_bernoulli_subsets(np.array([0.0, 1.0, 0.6]), 8)
        assert got[0][0] == (1, 2)
        assert len(got) == 2  # only index 2 is optional
        assert got[0][1] == pytest.approx(math.log(0.6))
        assert got[1][1] == pytest.approx(math.log(0.4))


class TestValidation:
    """check_density, on internal results and on densities arriving over the wire."""

    def test_mdglmb_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            check_density(MdGlmbDensity((MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.5), ()),)))
        with pytest.raises(ValueError, match="not normalized"):
            decode_hypotheses([[], [L1]], [math.log(0.5), math.log(0.4)])
        decode_hypotheses([[], [L1]], [math.log(0.5), math.log(0.5)])

    def test_mdglmb_rejects_duplicate_sets(self):
        with pytest.raises(ValueError, match=r"hypothesis \{\} is duplicated"):
            check_density(MdGlmbDensity((
                MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.5), ()),
                MdGlmbHypothesis(EMPTY_LABEL_SET, math.log(0.5), ()),
            )))
        with pytest.raises(ValueError, match=r"hypothesis \{\(0,1\),\(0,2\)\} is duplicated"):
            decode_hypotheses([[L1, L2], [L2, L1]])

    def test_mdglmb_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one hypothesis"):
            check_density(MdGlmbDensity(()))

    def test_lmb_rejects_bad_existence(self):
        with pytest.raises(ValueError, match=r"outside \[0, 1\] for \(0,1\)"):
            check_density(LmbDensity((LmbEntry(L1, 1.5, g1(0.0)),)))
        doc = density_to_dict(LmbDensity((LmbEntry(L1, 0.5, g1(0.0)),)))
        doc["entries"][0]["existence"] = 1.5
        with pytest.raises(ValueError, match=r"outside \[0, 1\] for \(0,1\)"):
            density_from_json(json.dumps(doc))
        # rounding within 1e-12 of [0, 1] is clamped on decode
        doc["entries"][0]["existence"] = 1.0 + 1e-13
        assert density_from_json(json.dumps(doc)).entries[0].existence == 1.0

    def test_rejects_nan_log_weight(self):
        text = '{"schema":"lrfs-density/1","kind":"mdglmb","hypotheses":[{"labels":[],"log_weight":NaN,"tracks":[]}]}'
        with pytest.raises(ValueError, match="hypothesis weights not normalized"):
            density_from_json(text)
        with pytest.raises(ValueError, match="hypothesis weights not normalized"):
            decode_hypotheses([(), (L1,)], [float("nan"), 0.0])

    def test_lmb_rejects_duplicate_labels(self):
        doc = density_to_dict(LmbDensity((LmbEntry(L1, 0.5, g1(0.0)),)))
        doc["entries"].append(doc["entries"][0])
        with pytest.raises(ValueError, match=r"label \(0,1\) in the LMB density is duplicated"):
            density_from_json(json.dumps(doc))

    def test_lmb_rejects_unnormalized_pdf(self):
        pdf = GaussianMixture(np.array([math.log(0.5)]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        with pytest.raises(ValueError, match=r"pdf for \(0,1\) is not normalized"):
            check_density(LmbDensity((LmbEntry(L1, 0.5, pdf),)))
        check_density(LmbDensity((LmbEntry(L1, 0.0, GaussianMixture.empty(1)),)))

    def test_hypothesis_pdf_count_mismatch(self):
        with pytest.raises(ValueError, match=r"hypothesis \{\(0,1\),\(0,2\)\} carries 1 pdfs for 2 labels"):
            check_density(MdGlmbDensity((MdGlmbHypothesis(LabelSet((L1, L2)), 0.0, (g1(0.0),)),)))
        with pytest.raises(ValueError, match=r"pdf for \(0,2\) in hypothesis \{\(0,1\),\(0,2\)\} is not normalized"):
            check_density(MdGlmbDensity((MdGlmbHypothesis(LabelSet((L1, L2)), 0.0, (g1(0.0), GaussianMixture.empty(1))),)))

    def test_internal_results_pass(self):
        rng = np.random.default_rng(4)
        d = random_mdglmb(rng, (L1, L2, L3))
        check_density(d)
        check_density(lmb_from_mdglmb(d))
        check_density(lmb_to_mdglmb(lmb_from_mdglmb(d), 8))
        # enough labels that a set of them does not iterate in label order
        labels = tuple(Label(k, i) for k in range(0, 40, 3) for i in (1, 2))
        wide = MdGlmbDensity((MdGlmbHypothesis(LabelSet(labels), 0.0, tuple(g1(0.0) for _ in labels)),))
        assert wide.label_space().labels == labels
        check_density(lmb_from_mdglmb(wide))
