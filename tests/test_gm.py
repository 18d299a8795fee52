import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot.gm import (
    PIVOT_BLOCK,
    GaussianMixture,
    PositiveDefiniteError,
    gm_chernoff_multi,
    gm_chernoff_pair,
    gm_merge_prune_cap,
)
from reference import (
    DegenerateExponentError,
    Gaussian,
    InformationPair,
    chernoff_weight,
    gaussian_ci,
    gaussian_logpdf,
    gaussian_power,
    gaussian_product,
    gm_covariance,
    gm_from_components,
    gm_mean,
    gm_merge_prune_cap_loop,
    gm_pdf,
    mixture,
    single,
)

LOG_2PI = math.log(2.0 * math.pi)


def random_gaussian(rng, d):
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.3 * np.eye(d)
    return Gaussian(rng.normal(scale=3.0, size=d), cov)


def random_mixture(rng, d, n):
    comps = [(math.log(w), random_gaussian(rng, d)) for w in rng.dirichlet(np.ones(n))]
    return gm_from_components(comps)


def info_pair(g):
    inv = np.linalg.inv(g.cov)
    return inv, inv @ g.mean


def scalar_gm(weights, means, variances):
    lw = np.log(np.asarray(weights, dtype=float))
    mu = np.asarray(means, dtype=float).reshape(-1, 1)
    cv = np.asarray(variances, dtype=float).reshape(-1, 1, 1)
    return mixture(lw, mu, cv)


class TestGaussian:
    def test_rejects_non_pd(self):
        with pytest.raises(PositiveDefiniteError):
            Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Gaussian([np.nan], [[1.0]])

    def test_symmetrizes(self):
        g = Gaussian([0.0, 0.0], [[2.0, 0.1 + 1e-12], [0.1, 2.0]])
        assert np.allclose(g.cov, g.cov.T)

    def test_information_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_gaussian(rng, 4)
            back = InformationPair.from_gaussian(g).to_gaussian()
            assert np.allclose(back.mean, g.mean, rtol=1e-8, atol=1e-10)
            assert np.allclose(back.cov, g.cov, rtol=1e-8, atol=1e-10)


class TestGaussianCi:
    def test_identical_inputs_fixed_point(self):
        g = Gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        f = gaussian_ci(g, g, 0.5)
        assert np.allclose(f.mean, g.mean)
        assert np.allclose(f.cov, g.cov)

    def test_scalar_average(self):
        # information-pair oracle: Phi = 0.5 + 0.5, q = 0.5*0 + 0.5*2
        a, b = Gaussian([0.0], [[1.0]]), Gaussian([2.0], [[1.0]])
        f = gaussian_ci(a, b, 0.5)
        assert np.allclose(f.mean, [1.0])
        assert np.allclose(f.cov, [[1.0]])

    def test_omega_one_returns_first(self):
        rng = np.random.default_rng(3)
        a, b = random_gaussian(rng, 3), random_gaussian(rng, 3)
        f = gaussian_ci(a, b, 1.0)
        assert np.allclose(f.mean, a.mean)
        assert np.allclose(f.cov, a.cov)

    def test_omega_out_of_range(self):
        g = Gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            gaussian_ci(g, g, 1.5)

    def test_consistency_bound_when_b_equals_a(self):
        # fused covariance below omega^-1 * P in the Loewner order
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_gaussian(rng, 4)
            omega = rng.uniform(0.1, 0.9)
            f = gaussian_ci(g, g, omega)
            diff = g.cov / omega - f.cov
            assert np.linalg.eigvalsh(diff).min() >= -1e-9


class TestFusionAlgebraProperties:
    """The product/power operator algebra on single Gaussians."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_product_associative_commutative(self, seed):
        rng = np.random.default_rng(seed)
        p, q, h = (random_gaussian(rng, 3) for _ in range(3))
        lhs = gaussian_product(gaussian_product(p, q), h)
        rhs = gaussian_product(p, gaussian_product(q, h))
        assert np.allclose(lhs.mean, rhs.mean, atol=1e-8)
        assert np.allclose(lhs.cov, rhs.cov, atol=1e-8)
        ab = gaussian_product(p, q)
        ba = gaussian_product(q, p)
        assert np.allclose(ab.mean, ba.mean, atol=1e-8)
        assert np.allclose(ab.cov, ba.cov, atol=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_power_laws(self, seed):
        rng = np.random.default_rng(seed)
        p, q = random_gaussian(rng, 2), random_gaussian(rng, 2)
        alpha, beta = rng.uniform(0.2, 2.0, size=2)
        # (alpha*beta) power = nested powers
        nested = gaussian_power(gaussian_power(p, beta), alpha)
        direct = gaussian_power(p, alpha * beta)
        assert np.allclose(nested.cov, direct.cov, atol=1e-8)
        # unit power is identity
        one = gaussian_power(p, 1.0)
        assert np.allclose(one.mean, p.mean) and np.allclose(one.cov, p.cov)
        # power distributes over the product
        lhs = gaussian_power(gaussian_product(p, q), alpha)
        rhs = gaussian_product(gaussian_power(p, alpha), gaussian_power(q, alpha))
        assert np.allclose(lhs.mean, rhs.mean, atol=1e-8)
        assert np.allclose(lhs.cov, rhs.cov, atol=1e-8)
        # sum of exponents splits into a product of powers
        lhs2 = gaussian_power(p, alpha + beta)
        rhs2 = gaussian_product(gaussian_power(p, alpha), gaussian_power(p, beta))
        assert np.allclose(lhs2.mean, rhs2.mean, atol=1e-8)
        assert np.allclose(lhs2.cov, rhs2.cov, atol=1e-8)


class TestChernoffWeight:
    def test_identical_scalar_components(self):
        # direct evaluation of the fused-weight formula with scalar determinants:
        # log[beta(0.5, 1)^2 * N(0; 0, 4)]
        g = Gaussian([0.0], [[1.0]])
        got = chernoff_weight(g, g, 0.0, 0.0, 0.5)
        log_beta_half = 0.5 * math.log(2.0 * math.pi * 1.0 / 0.5) - 0.25 * math.log(2.0 * math.pi)
        log_sep = -0.5 * (math.log(2.0 * math.pi * 4.0))
        assert got == pytest.approx(2.0 * log_beta_half + log_sep, abs=1e-12)
        # which is exactly log integral(p^0.5 p^0.5) = log 1
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_beta_of_one_is_unity(self):
        from distmot.gm import log_beta

        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_gaussian(rng, 4)
            assert log_beta(1.0, g.cov) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_decay_with_separation(self):
        a = Gaussian([0.0], [[1.0]])
        vals = [
            chernoff_weight(a, Gaussian([sep], [[1.0]]), 0.0, 0.0, 0.5)
            for sep in (0.0, 5.0, 10.0, 50.0)
        ]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_degenerate_exponent(self):
        g = Gaussian([0.0], [[1.0]])
        with pytest.raises(DegenerateExponentError):
            chernoff_weight(g, g, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateExponentError):
            chernoff_weight(g, g, 0.0, 0.0, 1.0)


def grid_log_mass(p_a, p_b, omega, lo, hi, n=20001):
    """Trapezoid quadrature of integral(p_a^w p_b^(1-w)) on a scalar grid."""
    x = np.linspace(lo, hi, n).reshape(-1, 1)
    fa, fb = gm_pdf(p_a, x), gm_pdf(p_b, x)
    return math.log(np.trapezoid(fa**omega * fb ** (1.0 - omega), x[:, 0]))


class TestGmChernoffPair:
    def test_single_identical_fixed_point(self):
        g = Gaussian([1.0, 2.0], [[2.0, 0.2], [0.2, 1.5]])
        p = single(g)
        fused, log_mass = gm_chernoff_pair(p, p, 0.5)
        assert np.allclose(fused.means[0], g.mean, atol=1e-10)
        assert np.allclose(fused.covs[0], g.cov, atol=1e-10)
        assert log_mass == pytest.approx(0.0, abs=1e-10)

    @given(st.integers(0, 2**31 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_single_gaussian_mass_is_unity(self, seed, omega):
        # integral(p^w p^(1-w)) = 1 exactly for a single Gaussian with itself
        rng = np.random.default_rng(seed)
        p = single(random_gaussian(rng, 3))
        _, log_mass = gm_chernoff_pair(p, p, omega)
        assert log_mass == pytest.approx(0.0, abs=1e-9)

    def test_single_components_match_gaussian_ci(self):
        rng = np.random.default_rng(23)
        a, b = random_gaussian(rng, 4), random_gaussian(rng, 4)
        fused, _ = gm_chernoff_pair(single(a), single(b), 0.3)
        ci = gaussian_ci(a, b, 0.3)
        assert np.allclose(fused.means[0], ci.mean, atol=1e-8)
        assert np.allclose(fused.covs[0], ci.cov, atol=1e-8)

    def test_omega_endpoints_short_circuit(self):
        rng = np.random.default_rng(2)
        pa, pb = random_mixture(rng, 2, 2), random_mixture(rng, 2, 3)
        f1, m1 = gm_chernoff_pair(pa, pb, 1.0)
        assert f1 is pa and m1 == 0.0
        f0, m0 = gm_chernoff_pair(pa, pb, 0.0)
        assert f0 is pb and m0 == 0.0

    def test_scalar_mixture_against_grid_quadrature(self):
        # two-vs-one component case, >= 6 sigma separation, 2% tolerance
        p_a = scalar_gm([0.6, 0.4], [0.0, 12.0], [1.0, 1.5])
        p_b = scalar_gm([1.0], [1.0], [2.0])
        for omega in (0.3, 0.5, 0.7):
            fused, log_mass = gm_chernoff_pair(p_a, p_b, omega)
            oracle = grid_log_mass(p_a, p_b, omega, -30.0, 50.0)
            assert math.exp(log_mass) == pytest.approx(math.exp(oracle), rel=0.02)
            # fused density matches the normalized grid product pointwise
            x = np.linspace(-10, 25, 1201).reshape(-1, 1)
            target = gm_pdf(p_a, x) ** omega * gm_pdf(p_b, x) ** (1 - omega) / math.exp(oracle)
            assert np.allclose(gm_pdf(fused, x), target, atol=0.02 * target.max())


class TestGmChernoffMulti:
    # fold math: at merge_thresh 0.0 a pivot claims only exact duplicates, so
    # the accumulator keeps every distinct component (at the production 4.0
    # the merge, and so the fused mixture, depends on the input order)
    def test_single_input_identity(self):
        rng = np.random.default_rng(4)
        p = random_mixture(rng, 2, 3)
        fused, log_norm = gm_chernoff_multi([(p, 1.0)], merge_thresh=0.0)
        assert fused is p and log_norm == 0.0

    def test_three_identical_single_gaussians(self):
        g = Gaussian([0.5, -1.0], [[1.0, 0.1], [0.1, 2.0]])
        p = single(g)
        fused, log_norm = gm_chernoff_multi([(p, 1 / 3), (p, 1 / 3), (p, 1 / 3)], merge_thresh=0.0)
        assert np.allclose(fused.means[0], g.mean, atol=1e-9)
        assert np.allclose(fused.covs[0], g.cov, atol=1e-9)
        assert log_norm == pytest.approx(0.0, abs=1e-9)

    def test_order_invariance_single_gaussians(self):
        rng = np.random.default_rng(9)
        gs = [single(random_gaussian(rng, 4)) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        f1, n1 = gm_chernoff_multi(list(zip(gs, w)), merge_thresh=0.0)
        order = [2, 0, 1]
        f2, n2 = gm_chernoff_multi([(gs[i], w[i]) for i in order], merge_thresh=0.0)
        assert np.allclose(f1.means, f2.means, atol=1e-8)
        assert np.allclose(f1.covs, f2.covs, atol=1e-8)
        assert n1 == pytest.approx(n2, abs=1e-8)

    def test_multi_matches_direct_info_average_for_singles(self):
        # fold of pairwise fusions == weighted arithmetic mean of information pairs
        rng = np.random.default_rng(31)
        gs = [random_gaussian(rng, 4) for _ in range(4)]
        w = rng.dirichlet(np.ones(4))
        fused, _ = gm_chernoff_multi([(single(g), wi) for g, wi in zip(gs, w)], merge_thresh=0.0)
        info = sum(wi * info_pair(g)[0] for g, wi in zip(gs, w))
        vec = sum(wi * info_pair(g)[1] for g, wi in zip(gs, w))
        cov = np.linalg.inv(info)
        assert np.allclose(fused.covs[0], cov, atol=1e-8)
        assert np.allclose(fused.means[0], cov @ vec, atol=1e-8)

    def test_order_invariance_mixtures_within_tolerance(self):
        rng = np.random.default_rng(13)
        ms = [random_mixture(rng, 1, 2) for _ in range(3)]
        w = [0.4, 0.35, 0.25]
        f1, _ = gm_chernoff_multi(list(zip(ms, w)), merge_thresh=0.0)
        f2, _ = gm_chernoff_multi([(ms[i], w[i]) for i in (1, 2, 0)], merge_thresh=0.0)
        # pairwise approximation: orderings agree on moments, not components
        assert np.allclose(gm_mean(f1), gm_mean(f2), atol=1e-6)
        assert np.allclose(gm_covariance(f1), gm_covariance(f2), atol=1e-5)


class TestMergePruneCap:
    def test_identical_pair_merges(self):
        g = Gaussian([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]])
        p = gm_from_components([(math.log(0.5), g), (math.log(0.5), g)])
        out = gm_merge_prune_cap(p, 4.0, 1e-4, 25)
        assert out.n_components == 1
        assert out.log_w[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(out.means[0], g.mean)
        assert np.allclose(out.covs[0], g.cov)

    def test_truncation_threshold(self):
        p = scalar_gm([0.99995, 0.00005], [0.0, 100.0], [1.0, 1.0])
        out = gm_merge_prune_cap(p, 4.0, 1e-4, 25)
        assert out.n_components == 1
        assert out.log_w[0] == pytest.approx(0.0, abs=1e-12)
        assert out.means[0, 0] == pytest.approx(0.0)

    def test_cap_keeps_heaviest(self):
        n = 30
        w = np.linspace(1.0, 2.0, n)
        w /= w.sum()
        means = np.arange(n, dtype=float).reshape(-1, 1) * 100.0
        covs = np.tile(np.eye(1), (n, 1, 1))
        p = mixture(np.log(w), means, covs)
        out = gm_merge_prune_cap(p, 4.0, 0.0, 25)
        assert out.n_components == 25
        # the 25 heaviest are the last 25 of the ramp
        assert np.allclose(sorted(out.means[:, 0].tolist()), [100.0 * i for i in range(5, 30)])
        assert out.total_log_weight() == pytest.approx(0.0, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_merge_preserves_moments(self, seed):
        rng = np.random.default_rng(seed)
        p = random_mixture(rng, 2, 5)
        out = gm_merge_prune_cap(p, 1e9, 0.0, 50)  # everything merges into one
        assert out.n_components == 1
        assert np.allclose(out.means[0], gm_mean(p), atol=1e-8)
        assert np.allclose(out.covs[0], gm_covariance(p), atol=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_output_normalized(self, seed):
        rng = np.random.default_rng(seed)
        p = random_mixture(rng, 2, 6)
        out = gm_merge_prune_cap(p, 4.0, 1e-3, 3)
        assert abs(out.total_log_weight()) < 1e-9


def assert_merge_matches_loop(p, merge_thresh, trunc_thresh, max_components):
    got = gm_merge_prune_cap(p, merge_thresh, trunc_thresh, max_components)
    want = gm_merge_prune_cap_loop(p, merge_thresh, trunc_thresh, max_components)
    for a, b in ((got.log_w, want.log_w), (got.means, want.means), (got.covs, want.covs)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    return got


def clustered_mixture(rng, d, n, weights=None):
    """n random components whose means lie close enough for some to merge."""
    a = rng.normal(size=(n, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.3 * np.eye(d)
    means = rng.normal(scale=rng.choice([0.5, 2.0, 5.0]), size=(n, d))
    w = rng.dirichlet(np.ones(n)) if weights is None else np.asarray(weights, dtype=float)
    return mixture(np.log(w), means, covs)


class TestMergeMatchesLoop:
    """The batched pivot metric and singleton moments give the bits of one
    solve and one moment sum per pivot (reference.gm_merge_prune_cap_loop)."""

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_mixtures(self, n, d):
        rng = np.random.default_rng(100 * d + n)
        for _ in range(6):
            p = clustered_mixture(rng, d, n)
            for thresh in (0.0, 4.0, 1e9):
                for trunc, cap in ((0.0, 25), (1e-2, 3), (0.2, 1)):
                    assert_merge_matches_loop(p, thresh, trunc, cap)

    @pytest.mark.parametrize("n", [40, 150])
    def test_wide_mixtures_span_pivot_blocks(self, n):
        assert n > PIVOT_BLOCK
        rng = np.random.default_rng(n)
        p = clustered_mixture(rng, 4, n)
        for thresh in (0.0, 4.0, 1e9):
            assert_merge_matches_loop(p, thresh, 0.0, n)
            assert_merge_matches_loop(p, thresh, 1e-3, 10)

    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_equal_weights_keep_stable_order(self, n):
        rng = np.random.default_rng(n)
        p = clustered_mixture(rng, 4, n, weights=np.full(n, 1.0 / n))
        for thresh in (0.0, 4.0, 1e9):
            for cap in (1, 2, 25):
                assert_merge_matches_loop(p, thresh, 0.0, cap)

    def test_truncation_to_one_component(self):
        rng = np.random.default_rng(7)
        p = clustered_mixture(rng, 4, 6, weights=[0.005, 0.97, 0.005, 0.01, 0.005, 0.005])
        assert assert_merge_matches_loop(p, 4.0, 0.05, 25).n_components == 1
        # every weight below the threshold: the heaviest one is kept
        assert assert_merge_matches_loop(p, 4.0, 0.99, 25).n_components == 1

    def test_cap_below_cluster_count(self):
        n = 9
        means = np.arange(n, dtype=float)[:, None] * np.array([[100.0, 0.0, -50.0, 1.0]])
        covs = np.tile(np.eye(4), (n, 1, 1))
        p = mixture(np.log(np.linspace(1.0, 2.0, n) / np.linspace(1.0, 2.0, n).sum()), means, covs)
        assert assert_merge_matches_loop(p, 4.0, 0.0, 4).n_components == 4

    @pytest.mark.parametrize("r, merged", [(2.0, True), (np.nextafter(2.0, 3.0), False), (np.nextafter(2.0, 1.0), True)])
    def test_pair_at_the_gate(self, r, merged):
        # pivot at the origin with unit covariance: the pair's distance is r^2
        p = mixture(np.log([0.6, 0.4]), [[0.0, 0.0], [r, 0.0]], [np.eye(2), 2.0 * np.eye(2)])
        out = assert_merge_matches_loop(p, 4.0, 0.0, 25)
        assert out.n_components == (1 if merged else 2)

    def test_signed_zeros(self):
        # a one-member sum turns -0.0 into 0.0; the batched singletons must too
        rng = np.random.default_rng(11)
        p = clustered_mixture(rng, 4, 5)
        means = p.means.copy()
        means[:, 1] = -0.0
        covs = np.tile(np.diag([1.0, 2.0, 3.0, 4.0]), (5, 1, 1))
        covs[:, ~np.eye(4, dtype=bool)] = -0.0
        q = GaussianMixture(p.log_w, means, covs)
        for thresh in (0.0, 4.0):
            assert_merge_matches_loop(q, thresh, 0.0, 25)


class TestMixtureBasics:
    def test_pdf_integrates_to_one(self):
        p = scalar_gm([0.3, 0.7], [0.0, 4.0], [1.0, 0.5])
        x = np.linspace(-15, 20, 4001).reshape(-1, 1)
        assert np.trapezoid(gm_pdf(p, x), x[:, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_matches_direct_formula(self):
        g = Gaussian([1.0], [[2.0]])
        x = 0.3
        expect = -0.5 * (LOG_2PI + math.log(2.0) + (x - 1.0) ** 2 / 2.0)
        assert gaussian_logpdf(np.array([x]), g.mean, g.cov) == pytest.approx(expect, abs=1e-12)
