import itertools
import math

import numpy as np
import pytest

from distmot import filters
from distmot.densities import (
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
    cardinality_distribution_mdglmb,
    intensity_mdglmb,
    lmb_from_mdglmb,
    lmb_to_mdglmb,
)
from distmot.filters import (
    BirthEntry,
    BirthModel,
    FilterConfig,
    FilterDegeneracyError,
    MotionModel,
    UpdateDiagnostics,
    centralized_mdglmb_step,
    extract_estimates_lmb,
    extract_estimates_mdglmb,
    kalman_predict_mixture,
    lmb_predict,
    lmb_prune,
    lmb_update,
    mdglmb_predict,
    mdglmb_update,
    ncv_motion_model,
)
from distmot.assignment import ranked_assignments
from distmot.filters import _lse, _mix_contributions, _normalized, _PsiTable, _weight_bound
from distmot.gm import GaussianMixture, gm_merge_prune_cap, logsumexp
from distmot.sensors import unscented_update_mixture
from reference import Gaussian, gm_covariance, gm_mean, make_doa, make_toa, mdglmb_predict_build_all, mixture, single
from test_assignment import exhaustive_assignments

L1, L2, L3 = (0, 1), (0, 2), (1, 1)


def g1(mean, var=1.0):
    return single(Gaussian([mean], [[var]]))


def g4(px, py, vx=0.0, vy=0.0, pos_var=1e4, vel_var=100.0):
    return single(
        Gaussian([px, vx, py, vy], np.diag([pos_var, vel_var, pos_var, vel_var]))
    )


def linear_px_sensor(noise_std=1.0, clutter_rate=1.0, detection_prob=0.9, space=(-1e4, 1e4)):
    """Duck-typed sensor measuring the first state coordinate; exact for the UT."""

    class _Linear:
        kind = "linear"
        angular = False

        def __init__(self):
            self.noise_std = noise_std
            self.clutter_rate = clutter_rate
            self.detection_prob = detection_prob
            self.measurement_space = space

        def h(self, states):
            s = np.atleast_2d(np.asarray(states, dtype=float))
            out = s[:, 0]
            return float(out[0]) if np.ndim(states) == 1 else out

    return _Linear()


IDENTITY_MOTION = MotionModel(np.eye(1), np.zeros((1, 1)) + 1e-12, 0.99)


def motion_1d(ps=0.99):
    return MotionModel(np.eye(1), [[0.1]], ps)


class TestNcvModel:
    def test_matrices_match_definition(self):
        m = ncv_motion_model(5.0, 5.0, 0.99)
        t = 5.0
        assert np.allclose(m.transition, [[1, t, 0, 0], [0, 1, 0, 0], [0, 0, 1, t], [0, 0, 0, 1]])
        q1 = 25.0 * np.array([[t**4 / 4, t**3 / 2], [t**3 / 2, t**2]])
        assert np.allclose(m.noise_cov[:2, :2], q1)
        assert np.allclose(m.noise_cov[2:, 2:], q1)
        assert np.allclose(m.noise_cov[:2, 2:], 0.0)


class TestMdglmbPredict:
    def test_empty_posterior_single_birth(self):
        birth = BirthModel((BirthEntry(1, 0.09, g1(5.0)),))
        pred = mdglmb_predict(MdGlmbDensity.empty(), motion_1d(), birth, k=3, max_hypotheses=8)
        assert len(pred) == 2
        w_empty = math.exp(pred.hypothesis(()).log_weight)
        lab = (3, 1)
        h1 = pred.hypothesis((lab,))
        assert w_empty == pytest.approx(0.91, abs=1e-12)
        assert math.exp(h1.log_weight) == pytest.approx(0.09, abs=1e-12)
        assert np.allclose(h1.pdfs[0].means, [[5.0]])

    def test_certain_survival_no_birth_preserves_weights(self):
        hyps = [
            MdGlmbHypothesis((), math.log(0.3), ()),
            MdGlmbHypothesis((L1,), math.log(0.7), (g1(2.0),)),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        motion = MotionModel(np.eye(1) * 2.0, [[0.5]], 1.0)
        pred = mdglmb_predict(d, motion, BirthModel(()), k=1, max_hypotheses=8)
        assert np.allclose(cardinality_distribution_mdglmb(pred), [0.3, 0.7])
        h = pred.hypothesis((L1,))
        assert np.allclose(h.pdfs[0].means, [[4.0]])  # Kalman-predicted mean 2*2
        assert np.allclose(h.pdfs[0].covs, [[[0.5 + 4.0]]])

    def test_two_label_survival_weights_match_subset_sum_oracle(self):
        ps = 0.99
        hyps = [
            MdGlmbHypothesis((), math.log(0.2), ()),
            MdGlmbHypothesis((L1,), math.log(0.3), (g1(0.0),)),
            MdGlmbHypothesis((L2,), math.log(0.1), (g1(1.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.4), (g1(2.0), g1(3.0))),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        pred = mdglmb_predict(d, motion_1d(ps), BirthModel(()), k=1, max_hypotheses=8)

        # oracle: w(L) = ps^|L| * sum_{J >= L} (1-ps)^(|J|-|L|) w(J)
        weights = {(): 0.2, (L1,): 0.3, (L2,): 0.1, (L1, L2): 0.4}
        for labels in [(), (L1,), (L2,), (L1, L2)]:
            expect = 0.0
            for sup, w in weights.items():
                if set(labels) <= set(sup):
                    expect += ps ** len(labels) * (1 - ps) ** (len(sup) - len(labels)) * w
            got = math.exp(pred.hypothesis(labels).log_weight)
            assert got == pytest.approx(expect, abs=1e-12)

    def test_predicted_pdf_mixes_over_superset_hypotheses(self):
        ps = 0.5
        hyps = [
            MdGlmbHypothesis((L1,), math.log(0.5), (g1(0.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.5), (g1(10.0), g1(3.0))),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        pred = mdglmb_predict(d, MotionModel(np.eye(1), [[1e-9]], ps), BirthModel(()), k=1, max_hypotheses=8)
        h = pred.hypothesis((L1,))
        # {L1} survivor set receives mass 0.5*ps from hypothesis {L1} and
        # 0.5*ps*(1-ps) from {L1,L2}; pdf mean mixes 0 and 10 accordingly
        w_a, w_b = 0.5 * ps, 0.5 * ps * (1 - ps)
        assert gm_mean(h.pdfs[0])[0] == pytest.approx(10.0 * w_b / (w_a + w_b), abs=1e-9)

    def test_truncates_to_max_hypotheses(self):
        birth = BirthModel(tuple(BirthEntry(i, 0.3, g1(float(i))) for i in range(1, 6)))
        pred = mdglmb_predict(MdGlmbDensity.empty(), motion_1d(), birth, k=0, max_hypotheses=8)
        assert len(pred) == 8
        total = sum(math.exp(h.log_weight) for h in pred.hypotheses)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("max_hypotheses", [1, 3, 50])
    @pytest.mark.parametrize("prior", ["empty", "three_labels"])
    def test_stopping_early_matches_building_all(self, max_hypotheses, prior):
        # equal birth existences tie many (survivor, birth) pairs at the
        # truncation boundary, as do the equal prior weights
        if prior == "empty":
            d = MdGlmbDensity.empty()
        else:
            d = MdGlmbDensity.from_unnormalized([
                MdGlmbHypothesis((), math.log(0.1), ()),
                MdGlmbHypothesis((L1,), math.log(0.2), (g1(0.0),)),
                MdGlmbHypothesis((L2,), math.log(0.2), (g1(1.0),)),
                MdGlmbHypothesis((L1, L2), math.log(0.25), (g1(2.0), g1(3.0, 2.0))),
                MdGlmbHypothesis((L1, L3), math.log(0.25), (g1(4.0), g1(5.0))),
            ])
        birth = BirthModel(tuple(BirthEntry(i, 0.2, g1(10.0 * i)) for i in range(1, 7)))
        got = mdglmb_predict(d, motion_1d(0.9), birth, 2, max_hypotheses)
        want = mdglmb_predict_build_all(d, motion_1d(0.9), birth, 2, max_hypotheses)
        assert len(got) == len(want) == min(max_hypotheses, 320 if prior == "three_labels" else 64)
        assert_same_density(got, want)

    @pytest.mark.parametrize("max_hypotheses", [1, 2, 3, 4])
    def test_stopping_early_keeps_boundary_ties(self, max_hypotheses):
        # survival probability and birth existences are equal, so the
        # survivor and birth subset weights are the same list and pairs (i, j)
        # and (j, i) tie exactly; the heap pops ({}, {(2, 1)}) before
        # ({L1}, {}), whose label set sorts first, so a cut at 2 must look
        # past the pair it would stop at
        d = MdGlmbDensity.from_unnormalized([MdGlmbHypothesis((L1, L2), 0.0, (g1(0.0), g1(1.0)))])
        birth = BirthModel((BirthEntry(1, 0.2, g1(10.0)), BirthEntry(2, 0.2, g1(20.0))))
        got = mdglmb_predict(d, motion_1d(0.2), birth, 2, max_hypotheses)
        want = mdglmb_predict_build_all(d, motion_1d(0.2), birth, 2, max_hypotheses)
        if max_hypotheses == 2:
            assert [h.label_set for h in got.hypotheses] == [(), (L1,)]
        assert_same_density(got, want)

    def test_survivor_subsets_drawn_once_per_label_count(self, monkeypatch):
        # with a constant P_S the survivor subsets depend only on the label
        # count: five prior hypotheses of 0, 1 and 2 labels need three draws,
        # plus one for the births
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.1), ()),
            MdGlmbHypothesis((L1,), math.log(0.2), (g1(0.0),)),
            MdGlmbHypothesis((L2,), math.log(0.2), (g1(1.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.25), (g1(2.0), g1(3.0, 2.0))),
            MdGlmbHypothesis((L1, L3), math.log(0.25), (g1(4.0), g1(5.0))),
        ])
        birth = BirthModel(tuple(BirthEntry(i, 0.2, g1(10.0 * i)) for i in range(1, 4)))
        draws = []
        draw = filters.k_best_bernoulli_subsets

        def counted(probs, k):
            draws.append(len(probs))
            return draw(probs, k)

        monkeypatch.setattr(filters, "k_best_bernoulli_subsets", counted)
        got = mdglmb_predict(d, motion_1d(0.9), birth, 2, 50)
        assert sorted(draws) == [0, 1, 2, 3]
        assert_same_density(got, mdglmb_predict_build_all(d, motion_1d(0.9), birth, 2, 50))

    def test_survivor_pdf_is_kalman_prediction(self):
        # P_S is constant, so survival re-weights no component: the survivor
        # pdf of a multi-component track is its Kalman prediction, bit for bit
        motion = ncv_motion_model(5.0, 5.0, 0.9)
        pdf = random_track_pdf(np.random.default_rng(2), 5).normalized()
        d = MdGlmbDensity((MdGlmbHypothesis((L1,), 0.0, (pdf,)),))
        got = mdglmb_predict(d, motion, BirthModel(()), k=1, max_hypotheses=8).hypothesis((L1,)).pdfs[0]
        assert_same_pdf(got, kalman_predict_mixture(pdf, motion))

    def test_zero_survival_keeps_only_births(self):
        hyps = [
            MdGlmbHypothesis((), math.log(0.2), ()),
            MdGlmbHypothesis((L1,), math.log(0.3), (g1(0.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.5), (g1(2.0), g1(3.0))),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        b1, b2 = g1(10.0), g1(20.0)
        birth = BirthModel((BirthEntry(1, 0.2, b1), BirthEntry(2, 0.6, b2)))
        pred = mdglmb_predict(d, motion_1d(0.0), birth, k=2, max_hypotheses=8)
        # the empty survivor set holds the summed prior weight 1, so the
        # hypotheses are the birth subsets with their Bernoulli weights
        want = {
            (): 0.8 * 0.4,
            ((2, 1),): 0.2 * 0.4,
            ((2, 2),): 0.8 * 0.6,
            ((2, 1), (2, 2)): 0.2 * 0.6,
        }
        assert {h.label_set for h in pred.hypotheses} == set(want)
        for h in pred.hypotheses:
            assert math.exp(h.log_weight) == pytest.approx(want[h.label_set], abs=1e-12)
        both = pred.hypothesis(((2, 1), (2, 2)))
        assert both.pdfs[0] is b1 and both.pdfs[1] is b2


def assert_same_pdf(got, want):
    """Equal log weights, means and covariances, bit for bit."""
    for x, y in ((got.log_w, want.log_w), (got.means, want.means), (got.covs, want.covs)):
        assert x.tobytes() == y.tobytes()


def assert_same_density(got, want):
    """Equal label sets, log weights and pdfs, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got.hypotheses, want.hypotheses):
        assert a.label_set == b.label_set
        assert float.hex(a.log_weight) == float.hex(b.log_weight)
        assert len(a.pdfs) == len(b.pdfs)
        for p, q in zip(a.pdfs, b.pdfs):
            for x, y in ((p.log_w, q.log_w), (p.means, q.means), (p.covs, q.covs)):
                assert x.tobytes() == y.tobytes()


def psi_bar(track_pdf, z_index, Z, sensor):
    """Expected association likelihood and conditioned pdf for one track.

    z_index = 0 is the misdetection branch; z_index = j > 0 conditions on
    measurement Z[j-1].
    """
    row = _PsiTable(Z, sensor, UpdateDiagnostics()).row(track_pdf)
    return float(row.log_psi[z_index]), row.cond(z_index)


def eager_psi_row(table, pdf):
    """Reference construction: log psi by one log-sum-exp per measurement and
    every conditioned pdf built up front from the (n, m, d) posterior means."""
    m = table.Z.size
    log_psi = np.empty(m + 1)
    cond = [pdf] * (m + 1)
    alpha = pdf.log_w - pdf.total_log_weight()
    pd = table.sensor.detection_prob
    log_psi[0] = math.log1p(-pd) if pd < 1.0 else -np.inf
    if m:
        ll, gain, resid, covs, _ = unscented_update_mixture(pdf, table.Z, table.sensor)
        mus = pdf.means[:, None, :] + gain[:, None, :] * resid[:, :, None]
        with np.errstate(divide="ignore"):
            log_det = (alpha + np.log(pd))[:, None] + ll
        for j in range(m):
            tot = float(logsumexp(log_det[:, j]))
            log_psi[j + 1] = tot - table.log_kappa[j]
            if np.isfinite(tot):
                keep = np.isfinite(log_det[:, j])
                cond[j + 1] = GaussianMixture(log_det[keep, j] - tot, mus[keep, j], covs[keep])
    return log_psi, cond


def random_track_pdf(rng, n, spread=100.0, pos_var=1e4):
    """n overlapping components, so that no single one dominates a log-sum-exp."""
    center = rng.uniform(-20 * spread, 20 * spread, 2)
    means = np.column_stack([center[0] + rng.normal(0, spread, n), rng.normal(0, 10, n), center[1] + rng.normal(0, spread, n), rng.normal(0, 10, n)])
    covs = []
    for _ in range(n):
        a = rng.normal(size=(4, 4)) * math.sqrt(pos_var) / 10
        covs.append(a @ a.T + np.diag([pos_var, 100.0, pos_var, 100.0]))
    return mixture(rng.normal(size=n), means, covs)


# P_D 0 makes every detection column -inf (P_D 1 does so for the miss
# column). The id is that of the label-dependent P_D it replaced, which was
# 0 for one of the two labels, so that the test ids stay the same.
NO_DETECTION = pytest.param(0.0, id="label_pd")


class TestLazyConditioning:
    """The lazy table returns exactly what the eager construction built."""

    @staticmethod
    def assert_rows_equal(table, pdf):
        want_psi, want_cond = eager_psi_row(table, pdf)
        row = table.row(pdf)
        assert np.array_equal(row.log_psi, want_psi)
        for j in reversed(range(want_psi.size)):
            got = row.cond(j)
            assert got is row.cond(j)
            if want_cond[j] is pdf:
                assert got is pdf
            assert np.array_equal(got.log_w, want_cond[j].log_w)
            assert np.array_equal(got.means, want_cond[j].means)
            assert np.array_equal(got.covs, want_cond[j].covs)
            assert got.total_log_weight() == want_cond[j].total_log_weight()

    @pytest.mark.parametrize("pd", [0.8, 1.0, NO_DETECTION])
    @pytest.mark.parametrize("kind", ["toa", "doa", "linear"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixtures_and_scans(self, seed, kind, pd):
        # up to 16 overlapping components: a log-sum-exp over 8 or more
        # comparable terms is where the order of summation can show
        rng = np.random.default_rng(seed)
        if kind == "toa":
            sensor = make_toa((-500.0, 300.0), noise_std=50.0, clutter_rate=5.0, detection_prob=pd)
            pdf = random_track_pdf(rng, int(rng.integers(1, 17)))
        elif kind == "doa":
            sensor = make_doa((400.0, -700.0), clutter_rate=5.0, detection_prob=pd)
            pdf = random_track_pdf(rng, int(rng.integers(1, 17)))
        else:
            sensor = linear_px_sensor(noise_std=0.3, clutter_rate=1.0, detection_prob=pd, space=(-10.0, 10.0))
            pdf = random_track_pdf(rng, int(rng.integers(1, 17)), spread=0.3, pos_var=0.05)
        lo, hi = sensor.measurement_space
        near = [sensor.h(pdf.means[i]) for i in rng.integers(0, pdf.n_components, 12)]
        Z = np.concatenate([near, rng.uniform(lo, hi, int(rng.integers(0, 4)))])
        self.assert_rows_equal(_PsiTable(Z, sensor, UpdateDiagnostics()), pdf)

    @pytest.mark.parametrize("pd", [0.8, NO_DETECTION])
    def test_no_measurements(self, pd):
        rng = np.random.default_rng(3)
        table = _PsiTable([], make_doa((0.0, 0.0), detection_prob=pd), UpdateDiagnostics())
        pdf = random_track_pdf(rng, 9)
        self.assert_rows_equal(table, pdf)
        assert table.row(pdf).log_psi.shape == (1,)

    def test_impossible_detection_returns_prior(self):
        rng = np.random.default_rng(5)
        sensor = make_toa((0.0, 0.0), noise_std=50.0, clutter_rate=5.0, detection_prob=0.0)
        pdf = random_track_pdf(rng, 4)
        row = _PsiTable([100.0, 900.0], sensor, UpdateDiagnostics()).row(pdf)
        assert np.all(row.log_psi[1:] == -np.inf)
        assert row.cond(1) is pdf and row.cond(2) is pdf


class TestPsiBar:
    def test_constant_pd_misdetection_exact(self):
        sensor = linear_px_sensor(detection_prob=0.7)
        pdf = g4(100.0, 0.0)
        log_psi, cond = psi_bar(pdf, 0, [], sensor)
        assert log_psi == pytest.approx(math.log(0.3), abs=1e-12)
        assert cond is pdf

    def test_miss_score_is_exactly_log_one_minus_pd(self):
        # a multi-component track, whose normalized log weights do not sum
        # back to exactly 0 in a log-sum-exp
        pdf = random_track_pdf(np.random.default_rng(2), 5).normalized()
        row = _PsiTable([100.0], make_toa((0.0, 0.0), detection_prob=0.8), UpdateDiagnostics()).row(pdf)
        assert row.log_psi[0] == math.log1p(-0.8)

    def test_certain_detection_misdetect_impossible(self):
        sensor = linear_px_sensor(detection_prob=1.0)
        log_psi, _ = psi_bar(g4(0.0, 0.0), 0, [], sensor)
        assert log_psi == -np.inf

    def test_detection_matches_kalman_likelihood(self):
        # perfect linear sensor, z at the prior mean: psi = P_D * N(0; 0, S) / kappa
        sensor = linear_px_sensor(noise_std=2.0, clutter_rate=4.0, detection_prob=0.9, space=(-100.0, 100.0))
        prior_var = 9.0
        pdf = single(Gaussian([5.0, 0.0, 0.0, 0.0], np.diag([prior_var, 1.0, 1.0, 1.0])))
        z = 5.0
        log_psi, cond = psi_bar(pdf, 1, [z], sensor)
        s = prior_var + 4.0
        kappa = 4.0 / 200.0
        expect = math.log(0.9) + (-0.5 * math.log(2 * math.pi * s)) - math.log(kappa)
        assert log_psi == pytest.approx(expect, abs=1e-9)
        # conditioned mean pulled toward z (already there)
        assert cond.means[0][0] == pytest.approx(5.0, abs=1e-9)


def brute_force_update_weights(predicted, Z, sensor):
    """Exhaustive (I, theta) weight table computed straight from psi_bar."""
    out = {}
    for h in predicted.hypotheses:
        n = len(h.label_set)
        for theta in itertools.product(range(len(Z) + 1), repeat=n):
            pos = [t for t in theta if t > 0]
            if len(set(pos)) != len(pos):
                continue
            lw = h.log_weight
            for i, pdf in enumerate(h.pdfs):
                psi, _ = psi_bar(pdf, theta[i], Z, sensor)
                lw += psi
            if math.isfinite(lw):
                out[(h.label_set, theta)] = lw
    total = math.log(sum(math.exp(v) for v in out.values()))
    return {k: v - total for k, v in out.items()}


class TestMdglmbUpdate:
    def test_empty_measurements_reweights_by_misdetection(self):
        sensor = linear_px_sensor(detection_prob=0.9)
        hyps = [
            MdGlmbHypothesis((), math.log(0.5), ()),
            MdGlmbHypothesis((L1,), math.log(0.5), (g4(0.0, 0.0),)),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        cfg = FilterConfig()
        post = mdglmb_update(d, [], sensor, cfg, UpdateDiagnostics())
        # weights 0.5 : 0.5*0.1, renormalized; ranking shifts toward the empty set
        w0 = math.exp(post.hypothesis(()).log_weight)
        w1 = math.exp(post.hypothesis((L1,)).log_weight)
        assert w0 == pytest.approx(0.5 / 0.55, abs=1e-12)
        assert w1 == pytest.approx(0.05 / 0.55, abs=1e-12)

    def test_single_track_single_measurement_hand_ratio(self):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=2.0, detection_prob=0.99, space=(-50.0, 50.0))
        pdf = g4(0.0, 0.0, pos_var=4.0, vel_var=1.0)
        d = MdGlmbDensity((MdGlmbHypothesis((L1,), 0.0, (pdf,)),))
        z = 1.0
        post = mdglmb_update(d, [z], sensor, FilterConfig(gm_merge_thresh=0.0, gm_trunc_thresh=0.0), UpdateDiagnostics())
        # only hypothesis is {L1}; its pdf mixes the miss and hit branches.
        # hand-computed psi values:
        s = 4.0 + 1.0
        q = math.exp(-0.5 * (math.log(2 * math.pi * s) + z * z / s))
        kappa = 2.0 / 100.0
        psi_miss = 0.01
        psi_hit = 0.99 * q / kappa
        h = post.hypothesis((L1,))
        assert math.exp(h.log_weight) == pytest.approx(1.0, abs=1e-12)
        # mixture splits between prior (miss) and updated (hit) components
        w = np.exp(h.pdfs[0].log_w)
        assert sorted(w.tolist()) == pytest.approx(
            sorted([psi_miss / (psi_miss + psi_hit), psi_hit / (psi_miss + psi_hit)]), abs=1e-9
        )

    def test_two_tracks_two_measurements_vs_enumeration(self, monkeypatch):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=3.0, detection_prob=0.9, space=(-60.0, 60.0))
        hyps = [
            MdGlmbHypothesis((), math.log(0.2), ()),
            MdGlmbHypothesis((L1,), math.log(0.3), (g4(-5.0, 0.0, pos_var=4.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.5), (g4(-5.0, 0.0, pos_var=4.0), g4(6.0, 0.0, pos_var=9.0))),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        Z = [-4.0, 7.0]
        cfg = FilterConfig()
        monkeypatch.setattr(filters, "ranked_assignments", exhaustive_assignments)
        post = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
        table = brute_force_update_weights(d, Z, sensor)
        for h in post.hypotheses:
            expect = math.log(sum(math.exp(v) for (ls, _), v in table.items() if ls == h.label_set))
            assert h.log_weight == pytest.approx(expect, abs=1e-10)

    def test_prune_floor_is_relative_to_joint_total(self, monkeypatch):
        # the floor is hyp_prune_thresh times the summed weight of every
        # hypothesis's maps; the kept hypotheses are normalized among
        # themselves, and the heaviest is kept when none passes
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=3.0, detection_prob=0.9, space=(-60.0, 60.0))
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.2), ()),
            MdGlmbHypothesis((L1,), math.log(0.3), (g4(-5.0, 0.0, pos_var=4.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.5), (g4(-5.0, 0.0, pos_var=4.0), g4(6.0, 0.0, pos_var=9.0))),
        ])
        Z = [-4.0, 7.0]
        monkeypatch.setattr(filters, "ranked_assignments", exhaustive_assignments)
        table = brute_force_update_weights(d, Z, sensor)
        exact = {h.label_set: sum(math.exp(v) for (ls, _), v in table.items() if ls == h.label_set) for h in d.hypotheses}
        light, middle, heavy = sorted(exact.values())
        for thresh, kept in ((math.sqrt(light * middle), (middle, heavy)), (1.0, (heavy,))):
            cfg = FilterConfig(hyp_prune_thresh=thresh, assignments_per_hypothesis=16)
            post = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
            assert sorted(h.label_set for h in post.hypotheses) == sorted(ls for ls, w in exact.items() if w in kept)
            assert len(post) == len(kept) < len(exact)
            for h in post.hypotheses:
                assert math.exp(h.log_weight) == pytest.approx(exact[h.label_set] / sum(kept), abs=1e-10)

    def test_ranked_equals_exhaustive_with_large_k(self, monkeypatch):
        sensor = linear_px_sensor(noise_std=1.5, clutter_rate=2.0, detection_prob=0.85, space=(-60.0, 60.0))
        hyps = [
            MdGlmbHypothesis((L1,), math.log(0.4), (g4(-3.0, 0.0, pos_var=4.0),)),
            MdGlmbHypothesis((L1, L2), math.log(0.6), (g4(-3.0, 0.0, pos_var=4.0), g4(4.0, 0.0, pos_var=4.0))),
        ]
        d = MdGlmbDensity.from_unnormalized(hyps)
        Z = [-2.5, 3.5]
        cfg = FilterConfig(assignments_per_hypothesis=16)
        a = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
        monkeypatch.setattr(filters, "ranked_assignments", exhaustive_assignments)
        b = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
        assert len(a) == len(b)
        for ha, hb in zip(a.hypotheses, b.hypotheses):
            assert ha.label_set == hb.label_set
            assert ha.log_weight == pytest.approx(hb.log_weight, abs=1e-12)

    def test_vacuous_update_identity(self):
        sensor = linear_px_sensor(detection_prob=0.0, clutter_rate=0.0)
        pdf = g4(1.0, 2.0)
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.4), ()),
            MdGlmbHypothesis((L1,), math.log(0.6), (pdf,)),
        ])
        post = mdglmb_update(d, [], sensor, FilterConfig(), UpdateDiagnostics())
        assert np.allclose(cardinality_distribution_mdglmb(post), [0.4, 0.6], atol=1e-12)
        assert np.allclose(post.hypothesis((L1,)).pdfs[0].means, pdf.means)


def rebuilt_update(predicted, Z, sensor, cfg):
    """mdglmb_update as a full search: every hypothesis is searched, every
    label's mixture is built and merged anew from the raw map weights,
    grouping maps by measurement one label at a time, and the prune floor is
    taken over all hypotheses before the cap."""
    table = _PsiTable(Z, sensor, UpdateDiagnostics())
    hyps = []
    for h in predicted.hypotheses:
        rows = [table.row(pdf) for pdf in h.pdfs]
        log_score = np.stack([r.log_psi for r in rows]) if rows else np.zeros((0, table.Z.size + 1))
        maps = [(theta, h.log_weight + score) for theta, score in ranked_assignments(log_score, cfg.assignments_per_hypothesis)]
        if not math.isfinite(h.log_weight) or not maps:
            continue
        log_w = _lse([w for _, w in maps])
        pdfs = []
        for i, row in enumerate(rows):
            groups: dict[int, list[float]] = {}
            for theta, w in maps:
                groups.setdefault(theta[i], []).append(w)
            contribs = [(_lse(ws) - log_w, row.cond(j)) for j, ws in sorted(groups.items())]
            mixed = _mix_contributions(_normalized(contribs))
            pdfs.append(gm_merge_prune_cap(mixed, cfg.gm_merge_thresh, cfg.gm_trunc_thresh, cfg.gm_max_components))
        hyps.append(MdGlmbHypothesis(h.label_set, log_w, tuple(pdfs)))
    if not hyps:
        raise FilterDegeneracyError("no feasible association")
    hyps.sort(key=lambda h: (-h.log_weight, h.label_set))
    if cfg.hyp_prune_thresh > 0.0:
        floor = math.log(cfg.hyp_prune_thresh) + _lse([h.log_weight for h in hyps])
        hyps = [h for h in hyps if h.log_weight >= floor] or hyps[:1]
    return MdGlmbDensity.from_unnormalized(hyps[: cfg.max_hypotheses])


class TestUpdateMemo:
    def test_one_merge_per_row_and_contributions(self, monkeypatch):
        # L1 and L2 carry one shared pdf in hypotheses of equal weight, so
        # {L1} and {L2}, and {L1, L3} and {L2, L3}, get the same maps and
        # weights: 6 label mixtures, 3 distinct (row, contributions)
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=3.0, detection_prob=0.9, space=(-60.0, 60.0))
        shared, other = g4(-5.0, 0.0, pos_var=4.0), g4(6.0, 0.0, pos_var=9.0)
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.1), ()),
            MdGlmbHypothesis((L1,), math.log(0.2), (shared,)),
            MdGlmbHypothesis((L2,), math.log(0.2), (shared,)),
            MdGlmbHypothesis((L1, L3), math.log(0.25), (shared, other)),
            MdGlmbHypothesis((L2, L3), math.log(0.25), (shared, other)),
        ])
        Z = [-4.0, 7.0]
        cfg = FilterConfig()
        want = rebuilt_update(d, Z, sensor, cfg)

        calls = {"merge": 0, "mix": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(filters, "gm_merge_prune_cap", counted("merge", filters.gm_merge_prune_cap))
        monkeypatch.setattr(filters, "_mix_contributions", counted("mix", filters._mix_contributions))
        got = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
        assert calls == {"merge": 3, "mix": 3}

        assert len(got) == len(want) == 5
        for a, b in zip(got.hypotheses, want.hypotheses):
            assert a.label_set == b.label_set and a.log_weight == b.log_weight
            for p, q in zip(a.pdfs, b.pdfs):
                for x, y in ((p.log_w, q.log_w), (p.means, q.means), (p.covs, q.covs)):
                    assert x.tobytes() == y.tobytes()


def counted_searches(monkeypatch):
    """Wrap the update's ranked assignment; the list receives each call's track count."""
    calls = []

    def wrapper(log_score, k):
        calls.append(log_score.shape[0])
        return ranked_assignments(log_score, k)

    monkeypatch.setattr(filters, "ranked_assignments", wrapper)
    return calls


def update_or_none(fn, *args):
    try:
        return fn(*args)
    except FilterDegeneracyError:
        return None


def random_update_case(rng, pd, thresh):
    """Up to 12 hypotheses over 4 labels, whose pdfs come from a pool of 5 so
    that rows repeat, and whose weights come from 3 levels so that they tie;
    a scan of 0-5 measurements, some near the pool's means."""
    pool = [g4(float(rng.uniform(-30.0, 30.0)), 0.0, pos_var=float(rng.choice([1.0, 4.0, 25.0]))) for _ in range(5)]
    labels = [(0, i) for i in range(1, 5)]
    subsets = [c for r in range(5) for c in itertools.combinations(labels, r)]
    levels = rng.normal(0.0, 2.0, 3)
    hyps = [
        MdGlmbHypothesis(subsets[i], float(rng.choice(levels)), tuple(pool[j] for j in rng.integers(0, 5, len(subsets[i]))))
        for i in rng.choice(len(subsets), size=int(rng.integers(1, 13)), replace=False)
    ]
    n_near = int(rng.integers(0, 4))
    Z = [float(pool[j].means[0, 0] + rng.normal(0.0, 1.0)) for j in rng.integers(0, 5, n_near)]
    Z += rng.uniform(-40.0, 40.0, int(rng.integers(0, 6 - n_near))).tolist()
    sensor = linear_px_sensor(noise_std=1.0, clutter_rate=2.0, detection_prob=pd, space=(-40.0, 40.0))
    cfg = FilterConfig(
        max_hypotheses=int(rng.choice([2, 5, 1000])),
        hyp_prune_thresh=thresh,
        assignments_per_hypothesis=int(rng.choice([1, 3, 8])),
    )
    return MdGlmbDensity.from_unnormalized(hyps), Z, sensor, cfg


class TestBoundedSearch:
    """The update searches in descending weight bound and stops once the
    rest are certainly pruned, with the outputs of a full search."""

    @pytest.mark.parametrize("thresh", [0.0, 1e-5, 3e-3, 0.5])
    @pytest.mark.parametrize("pd", [0.9, 1.0, NO_DETECTION])
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_full_search(self, seed, pd, thresh):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            d, Z, sensor, cfg = random_update_case(rng, pd, thresh)
            want = update_or_none(rebuilt_update, d, Z, sensor, cfg)
            got = update_or_none(mdglmb_update, d, Z, sensor, cfg, UpdateDiagnostics())
            assert (got is None) == (want is None)
            if got is not None:
                assert_same_density(got, want)

    def test_searches_fewer_hypotheses_than_it_holds(self, monkeypatch):
        # twelve hypotheses, each a tenth of the one before it: at a floor
        # of 1e-3 the lightest are pruned however their maps score
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=2.0, detection_prob=0.9, space=(-60.0, 60.0))
        pdfs = [g4(float(x), 0.0, pos_var=4.0) for x in (-20.0, -5.0, 10.0, 25.0)]
        labels = [(0, i) for i in range(1, 5)]
        subsets = [c for r in range(5) for c in itertools.combinations(range(4), r)][:12]
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis(tuple(labels[i] for i in c), -2.3 * rank, tuple(pdfs[i] for i in c))
            for rank, c in enumerate(subsets)
        ])
        Z = [-19.0, 11.0, 40.0]
        cfg = FilterConfig(hyp_prune_thresh=1e-3)
        want = rebuilt_update(d, Z, sensor, cfg)
        calls = counted_searches(monkeypatch)
        got = mdglmb_update(d, Z, sensor, cfg, UpdateDiagnostics())
        assert len(calls) < len(d) == 12
        assert_same_density(got, want)

    def test_weight_between_the_floors_searches_everything(self, monkeypatch):
        # An empty scan gives each hypothesis one map, so its bound is its
        # weight times k = 8. After () and {L1} the bound of {L1, L2} is
        # below the floor, but adding it to the total lifts the floor above
        # {L1}'s weight; the update must search {L1, L2} to decide.
        sensor = linear_px_sensor(detection_prob=0.5)
        pdf = g4(0.0, 0.0)
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), 0.0, ()),
            MdGlmbHypothesis((L1,), 0.0, (pdf,)),
            MdGlmbHypothesis((L1, L2), math.log(0.16), (pdf, pdf)),
        ])
        cfg = FilterConfig(hyp_prune_thresh=0.3)
        table = _PsiTable([], sensor, UpdateDiagnostics())
        w = [h.log_weight - len(h.label_set) * math.log(2.0) for h in d.hypotheses]
        ub = [_weight_bound(h.log_weight, [table.row(p) for p in h.pdfs], math.log(8)) for h in d.hypotheses]
        lo = math.log(0.3) + _lse(w[:2])
        hi = math.log(0.3) + _lse(w[:2] + ub[2:])
        assert ub[2] < lo <= w[1] < hi

        want = rebuilt_update(d, [], sensor, cfg)
        calls = counted_searches(monkeypatch)
        got = mdglmb_update(d, [], sensor, cfg, UpdateDiagnostics())
        assert calls == [0, 1, 2]
        assert_same_density(got, want)
        assert [h.label_set for h in got.hypotheses] == [(), (L1,)]

    @pytest.mark.parametrize("pd", [0.9, 1.0, NO_DETECTION])
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_covers_the_map_weights(self, seed, pd):
        rng = np.random.default_rng(seed)
        sensor = linear_px_sensor(noise_std=0.3, clutter_rate=1.0, detection_prob=pd, space=(-10.0, 10.0))
        pdfs = [random_track_pdf(rng, int(rng.integers(1, 6)), spread=0.3, pos_var=0.05) for _ in range(4)]
        Z = [sensor.h(p.means[0]) for p in pdfs[:3]] + rng.uniform(-10.0, 10.0, 2).tolist()
        table = _PsiTable(Z, sensor, UpdateDiagnostics())
        for _ in range(30):
            rows = [table.row(pdfs[j]) for j in rng.integers(0, 4, int(rng.integers(0, 5)))]
            for r in rows:
                assert r.best == r.log_psi.max()
            log_score = np.stack([r.log_psi for r in rows]) if rows else np.zeros((0, len(Z) + 1))
            log_weight = float(rng.normal(0.0, 10.0 ** rng.integers(-2, 4)))
            k = int(rng.integers(1, 40))
            maps = ranked_assignments(log_score, k)
            if maps:
                assert _lse([log_weight + score for _, score in maps]) <= _weight_bound(log_weight, rows, math.log(k))


class TestLmbPredict:
    def test_constant_survival_scales_existence(self):
        d = LmbDensity((LmbEntry(L1, 0.5, g1(0.0)),))
        pred = lmb_predict(d, motion_1d(0.99), BirthModel(()), k=1)
        assert pred.entry(L1).existence == pytest.approx(0.495, abs=1e-12)

    def test_survivor_is_kalman_prediction_with_existence_r_ps(self):
        motion = ncv_motion_model(5.0, 5.0, 0.9)
        pdf = random_track_pdf(np.random.default_rng(2), 5).normalized()
        pred = lmb_predict(LmbDensity((LmbEntry(L1, 0.6, pdf),)), motion, BirthModel(()), k=1)
        assert pred.entry(L1).existence == 0.6 * 0.9
        assert_same_pdf(pred.entry(L1).pdf, kalman_predict_mixture(pdf, motion))

    def test_zero_survival_drops_every_survivor(self):
        d = LmbDensity((LmbEntry(L1, 0.5, g1(0.0)), LmbEntry(L2, 1.0, g1(1.0))))
        birth = BirthModel((BirthEntry(1, 0.09, g1(5.0)),))
        pred = lmb_predict(d, motion_1d(0.0), birth, k=1)
        assert pred.labels == ((1, 1),)
        assert pred.entry((1, 1)).existence == 0.09

    def test_empty_posterior_paper_birth_table(self):
        birth = BirthModel(tuple(BirthEntry(i, 0.09, g1(float(i) * 10.0)) for i in range(1, 11)))
        pred = lmb_predict(LmbDensity.empty(), motion_1d(), birth, k=4)
        assert len(pred) == 10
        assert all(e.existence == pytest.approx(0.09) for e in pred.entries)
        assert pred.labels == tuple((4, i) for i in range(1, 11))


class TestLmbUpdate:
    def test_vacuous_update_is_identity(self):
        sensor = linear_px_sensor(detection_prob=0.0, clutter_rate=0.0)
        d = LmbDensity((LmbEntry(L1, 0.4, g4(0.0, 0.0)), LmbEntry(L2, 0.7, g4(5.0, 0.0))))
        post = lmb_update(d, [], sensor, FilterConfig(), UpdateDiagnostics())
        for lab in (L1, L2):
            assert post.entry(lab).existence == pytest.approx(d.entry(lab).existence, abs=1e-12)
            assert np.allclose(post.entry(lab).pdf.means, d.entry(lab).pdf.means)

    def test_single_entry_single_measurement_hand_computation(self):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=2.0, detection_prob=0.9, space=(-50.0, 50.0))
        r = 0.3
        pdf = g4(0.0, 0.0, pos_var=4.0)
        d = LmbDensity((LmbEntry(L1, r, pdf),))
        z = 0.5
        post = lmb_update(d, [z], sensor, FilterConfig(), UpdateDiagnostics())
        # three (I, theta) pairs: (empty), ({L1}, miss), ({L1}, hit)
        s = 5.0
        q = math.exp(-0.5 * (math.log(2 * math.pi * s) + z * z / s))
        kappa = 2.0 / 100.0
        w_empty = 1 - r
        w_miss = r * 0.1
        w_hit = r * 0.9 * q / kappa
        expect_r = (w_miss + w_hit) / (w_empty + w_miss + w_hit)
        assert post.entry(L1).existence == pytest.approx(expect_r, abs=1e-10)

    def test_collapse_preserves_unlabeled_phd(self):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=2.0, detection_prob=0.9, space=(-50.0, 50.0))
        d = LmbDensity((LmbEntry(L1, 0.4, g4(-4.0, 0.0, pos_var=4.0)), LmbEntry(L2, 0.6, g4(5.0, 0.0, pos_var=4.0))))
        cfg = FilterConfig()
        expanded = lmb_to_mdglmb(d, cfg.max_hypotheses)
        updated = mdglmb_update(expanded, [-3.0, 6.0], sensor, cfg, UpdateDiagnostics())
        collapsed = lmb_from_mdglmb(updated)
        post = lmb_update(d, [-3.0, 6.0], sensor, cfg, UpdateDiagnostics())
        for lab in (L1, L2):
            mass, _ = intensity_mdglmb(updated, lab)
            assert post.entry(lab).existence == pytest.approx(mass, abs=1e-9)
            assert post.entry(lab).existence == pytest.approx(collapsed.entry(lab).existence, abs=1e-12)


class TestExtraction:
    def test_mdglmb_map_cardinality_zero(self):
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.7), ()),
            MdGlmbHypothesis((L1,), math.log(0.3), (g1(0.0),)),
        ])
        assert extract_estimates_mdglmb(d) == []

    def test_mdglmb_single_object(self):
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((), math.log(0.2), ()),
            MdGlmbHypothesis((L1,), math.log(0.8), (g1(3.0),)),
        ])
        est = extract_estimates_mdglmb(d)
        assert len(est) == 1
        assert est[0][0] == L1
        assert est[0][1][0] == pytest.approx(3.0)

    def test_mdglmb_tie_breaks_lexicographically(self):
        d = MdGlmbDensity.from_unnormalized([
            MdGlmbHypothesis((L2,), math.log(0.5), (g1(2.0),)),
            MdGlmbHypothesis((L1,), math.log(0.5), (g1(1.0),)),
        ])
        est = extract_estimates_mdglmb(d)
        assert est[0][0] == L1

    def test_lmb_small_existence_gives_empty(self):
        d = LmbDensity((LmbEntry(L1, 0.09, g1(0.0)),))
        assert extract_estimates_lmb(d) == []

    def test_lmb_top_two_of_three(self):
        d = LmbDensity((
            LmbEntry(L1, 0.9, g1(1.0)),
            LmbEntry(L2, 0.8, g1(2.0)),
            LmbEntry(L3, 0.1, g1(3.0)),
        ))
        # exhaustive pmf oracle
        pmf = np.zeros(4)
        for inc in itertools.product([0, 1], repeat=3):
            rs = [0.9, 0.8, 0.1]
            w = math.prod(r if b else 1 - r for r, b in zip(rs, inc))
            pmf[sum(inc)] += w
        assert int(np.argmax(pmf)) == 2
        est = extract_estimates_lmb(d)
        assert [e[0] for e in est] == [L1, L2]

    def test_lmb_equal_existence_tie_label_order(self):
        d = LmbDensity((LmbEntry(L2, 0.8, g1(2.0)), LmbEntry(L1, 0.8, g1(1.0))))
        est = extract_estimates_lmb(d)
        # C* = 2 here (pmf [0.04, 0.32, 0.64]), both labels selected, sorted
        assert [e[0] for e in est] == [L1, L2]


class TestCentralized:
    def test_single_sensor_equals_predict_update(self):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=1.0, detection_prob=0.9, space=(-50.0, 50.0))
        birth = BirthModel((BirthEntry(1, 0.09, g4(0.0, 0.0)),))
        motion = ncv_motion_model(1.0, 1.0, 0.99)
        cfg = FilterConfig()
        prior = MdGlmbDensity.empty()
        Z = [0.5]
        a = centralized_mdglmb_step(prior, motion, birth, 0, [(sensor, Z)], cfg, UpdateDiagnostics())
        from distmot.filters import reduce_mdglmb_pdfs

        b = mdglmb_update(reduce_mdglmb_pdfs(mdglmb_predict(prior, motion, birth, 0, cfg.max_hypotheses), cfg), Z, sensor, cfg, UpdateDiagnostics())
        assert len(a) == len(b)
        for ha, hb in zip(a.hypotheses, b.hypotheses):
            assert ha.label_set == hb.label_set
            assert ha.log_weight == pytest.approx(hb.log_weight, abs=1e-12)

    def test_two_identical_sensors_sharpen_posterior(self):
        sensor = linear_px_sensor(noise_std=1.0, clutter_rate=0.5, detection_prob=0.99, space=(-50.0, 50.0))
        birth = BirthModel((BirthEntry(1, 0.2, g4(0.0, 0.0, pos_var=25.0)),))
        motion = ncv_motion_model(1.0, 0.5, 0.99)
        cfg = FilterConfig()
        prior = MdGlmbDensity.empty()
        Z = [0.3]
        one = centralized_mdglmb_step(prior, motion, birth, 0, [(sensor, Z)], cfg, UpdateDiagnostics())
        two = centralized_mdglmb_step(prior, motion, birth, 0, [(sensor, Z), (sensor, Z)], cfg, UpdateDiagnostics())
        lab = (0, 1)
        h1 = one.hypothesis((lab,))
        h2 = two.hypothesis((lab,))
        t1 = np.trace(gm_covariance(h1.pdfs[0]))
        t2 = np.trace(gm_covariance(h2.pdfs[0]))
        assert t2 < t1

    def test_sensor_order_does_not_change_map_cardinality(self):
        s1 = linear_px_sensor(noise_std=1.0, clutter_rate=1.0, detection_prob=0.9, space=(-50.0, 50.0))
        s2 = linear_px_sensor(noise_std=2.0, clutter_rate=2.0, detection_prob=0.8, space=(-50.0, 50.0))
        birth = BirthModel((BirthEntry(1, 0.2, g4(0.0, 0.0, pos_var=25.0)),))
        motion = ncv_motion_model(1.0, 0.5, 0.99)
        cfg = FilterConfig()
        prior = MdGlmbDensity.empty()
        a = centralized_mdglmb_step(prior, motion, birth, 0, [(s1, [0.4]), (s2, [0.6])], cfg, UpdateDiagnostics())
        b = centralized_mdglmb_step(prior, motion, birth, 0, [(s2, [0.6]), (s1, [0.4])], cfg, UpdateDiagnostics())
        import numpy as _np

        ca = int(_np.argmax(cardinality_distribution_mdglmb(a)))
        cb = int(_np.argmax(cardinality_distribution_mdglmb(b)))
        assert ca == cb


class TestHelpers:
    def test_lmb_prune(self):
        d = LmbDensity((
            LmbEntry(L1, 0.5, g1(0.0)),
            LmbEntry(L2, 1e-6, g1(1.0)),
            LmbEntry(L3, 0.4, g1(2.0)),
        ))
        out = lmb_prune(d, 1e-4, 1)
        assert out.labels == (L1,)

    def test_kalman_predict_mixture(self):
        motion = MotionModel(np.array([[2.0]]), np.array([[0.5]]), 1.0)
        gm = g1(3.0, 1.0)
        out = kalman_predict_mixture(gm, motion)
        assert np.allclose(out.means, [[6.0]])
        assert np.allclose(out.covs, [[[4.5]]])
