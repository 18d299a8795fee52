import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot.gm import LOG_2PI, GaussianMixture, symmetrize
from distmot.sensors import (
    DegenerateGeometryError,
    angle_residual,
    simulate_measurements,
    unscented_update_mixture,
    ut_weights,
    wrap_angle,
)
from reference import Gaussian, gm_components, gm_from_components, make_doa, make_toa


def state(px, py, vx=0.0, vy=0.0):
    return np.array([px, vx, py, vy])


def sigma_points(mean, cov):
    d = mean.size
    lam, wm, wc = ut_weights(d)
    scale = np.linalg.cholesky(symmetrize(cov) * (d + lam))
    pts = np.empty((2 * d + 1, d))
    pts[0] = mean
    pts[1 : d + 1] = mean + scale.T
    pts[d + 1 :] = mean - scale.T
    return pts, wm, wc


def unscented_update_fn(prior, z, h, noise_var, angular=False):
    """Reference single-Gaussian unscented update against a scalar
    measurement function; DOA residuals are wrapped into (-pi, pi]."""
    pts, wm, wc = sigma_points(prior.mean, prior.cov)
    hv = np.asarray(h(pts), dtype=float)
    if angular:
        # avoid averaging across the +-pi seam: fold about the central point
        hv = hv[0] + angle_residual(hv, hv[0])
    z_pred = float(wm @ hv)
    dz = hv - z_pred
    s = float(wc @ (dz * dz)) + noise_var
    if s <= 0:
        raise ValueError(f"innovation variance {s} <= 0")
    cross = (wc[:, None] * (pts - prior.mean)).T @ dz
    gain = cross / s
    resid = angle_residual(z, z_pred) if angular else z - z_pred
    post_mean = prior.mean + gain * resid
    post_cov = symmetrize(prior.cov - np.outer(gain, gain) * s)
    log_lik = -0.5 * (LOG_2PI + math.log(s) + resid * resid / s)
    return Gaussian(post_mean, post_cov), float(log_lik)


class TestMeasure:
    def test_toa_three_four_five(self):
        s = make_toa((0.0, 0.0))
        assert s.h(state(3000.0, 4000.0)) == pytest.approx(5000.0)

    def test_doa_straight_ahead(self):
        s = make_doa((0.0, 0.0))
        assert s.h(state(1000.0, 0.0)) == pytest.approx(0.0)

    def test_doa_wrap_seam(self):
        s = make_doa((0.0, 0.0))
        above = s.h(state(-1.0, 1e-9))
        below = s.h(state(-1.0, -1e-9))
        # residual across the seam wraps to ~0
        assert abs(angle_residual(above, below)) < 1e-6
        assert -math.pi < above <= math.pi and -math.pi < below <= math.pi

    def test_doa_degenerate_position(self):
        s = make_doa((10.0, 20.0))
        with pytest.raises(DegenerateGeometryError):
            s.h(state(10.0, 20.0))


class TestWrap:
    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # wrapping only shifts by multiples of 2 pi
        assert (a - w) / (2 * math.pi) == pytest.approx(round((a - w) / (2 * math.pi)), abs=1e-9)

    @given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_residual_odd(self, a, b):
        r1, r2 = angle_residual(a, b), angle_residual(b, a)
        if abs(abs(r1) - math.pi) > 1e-9:
            assert r1 == pytest.approx(-r2, abs=1e-9)

    def test_pi_vs_minus_pi(self):
        assert angle_residual(math.pi, -math.pi) == pytest.approx(0.0)


class TestUnscentedUpdate:
    def test_linear_surrogate_matches_kalman(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(4, 4))
            prior = Gaussian(rng.normal(scale=5.0, size=4), a @ a.T + np.eye(4))
            z, r = rng.normal(scale=3.0), 0.7
            post, log_lik = unscented_update_fn(prior, z, lambda s: np.atleast_2d(s)[:, 0], r, False)
            # closed-form Kalman oracle with H = [1 0 0 0]
            H = np.array([[1.0, 0.0, 0.0, 0.0]])
            S = (H @ prior.cov @ H.T).item() + r
            K = (prior.cov @ H.T / S).reshape(-1)
            mean = prior.mean + K * (z - prior.mean[0])
            cov = prior.cov - np.outer(K, K) * S
            ll = -0.5 * (math.log(2 * math.pi * S) + (z - prior.mean[0]) ** 2 / S)
            assert np.allclose(post.mean, mean, atol=1e-8)
            assert np.allclose(post.cov, cov, atol=1e-8)
            assert log_lik == pytest.approx(ll, abs=1e-8)

    def test_zero_innovation_keeps_mean(self):
        prior = Gaussian([3000.0, 10.0, 4000.0, -5.0], np.diag([1e4, 100.0, 1e4, 100.0]))
        s = make_toa((0.0, 0.0))
        pts, wm, _ = sigma_points(prior.mean, prior.cov)
        z_pred = float(wm @ s.h(pts))
        post, _ = unscented_update_fn(prior, z_pred, s.h, s.noise_std**2)
        assert np.allclose(post.mean, prior.mean, atol=1e-6)

    def test_innovation_floor_is_noise_variance(self):
        prior = Gaussian([3000.0, 0.0, 4000.0, 0.0], np.diag([1e4, 100.0, 1e4, 100.0]))
        s = make_toa((0.0, 0.0), noise_std=100.0)
        pts_var = []
        _, log_lik = unscented_update_fn(prior, s.h(prior.mean), s.h, s.noise_std**2)
        # innovation variance >= noise variance: loglik at zero residual bounded
        assert log_lik <= -0.5 * math.log(2 * math.pi * 100.0**2)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        comps = []
        for _ in range(3):
            a = rng.normal(size=(4, 4))
            comps.append((math.log(1 / 3), Gaussian(
                np.array([5000.0, 10.0, 3000.0, -10.0]) + rng.normal(scale=100.0, size=4),
                a @ a.T * 100.0 + np.diag([1e4, 25.0, 1e4, 25.0]),
            )))
        gm = gm_from_components(comps)
        sensor = make_doa((0.0, 0.0), noise_std=math.radians(1.0))
        zs = np.array([0.5, 0.6])
        ll, gain, resid, covs = unscented_update_mixture(gm, zs, sensor)
        assert gain.shape == (3, 4) and resid.shape == (3, 2)
        for i, (_, g) in enumerate(gm_components(gm)):
            for j, z in enumerate(zs):
                post, lik = unscented_update_fn(g, z, sensor.h, sensor.noise_std**2, True)
                assert ll[i, j] == pytest.approx(lik, abs=1e-10)
                assert np.allclose(gm.means[i] + gain[i] * resid[i, j], post.mean, atol=1e-8)
                assert np.allclose(covs[i], post.cov, atol=1e-8)

    @staticmethod
    def sound_and(cov):
        """A two-component mixture: one sound component, then one with cov."""
        covs = np.stack([np.diag([1e4, 100.0, 1e4, 100.0]), cov])
        means = np.array([[3000.0, 10.0, 4000.0, -5.0], [5000.0, 0.0, 3000.0, 0.0]])
        return GaussianMixture(np.full(2, math.log(0.5)), means, covs)

    def test_covariance_not_positive_definite_raises(self):
        # the second covariance has a negative eigenvalue, so the batch's
        # Cholesky factorization fails
        gm = self.sound_and(np.diag([1e4, -1.0, 1e4, 100.0]))
        with pytest.raises(np.linalg.LinAlgError):
            unscented_update_mixture(gm, np.array([5000.0]), make_toa((0.0, 0.0)))

    @pytest.mark.parametrize("make", [make_toa, make_doa])
    def test_overflowing_covariance_raises(self, make):
        # 8e307 is finite, but scaled by d + lambda = 3 for the sigma points
        # it overflows: a range's innovation variance is then NaN, while a
        # bearing's stays finite and only its gain is not
        gm = self.sound_and(np.diag([8e307] * 4))
        sensor = make((0.0, 0.0))
        message = rf"^{sensor.kind} sensor at \(0\.0, 0\.0\): unscented update of component 1 is not finite \("
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match=message):
            unscented_update_mixture(gm, np.array([0.5]), sensor)


class TestSimulate:
    def test_no_detection_no_clutter(self):
        s = make_toa((0.0, 0.0), clutter_rate=0.0, detection_prob=0.0)
        rng = np.random.default_rng(0)
        truth = [((0, 1), state(1000.0, 2000.0))]
        for _ in range(20):
            assert simulate_measurements(truth, s, rng).size == 0

    def test_clutter_rate_statistics(self):
        s = make_toa((0.0, 0.0), clutter_rate=5.0, detection_prob=0.0)
        rng = np.random.default_rng(42)
        counts = [simulate_measurements([], s, rng).size for _ in range(10_000)]
        mean = np.mean(counts)
        # Poisson(5): SE of the mean over 1e4 draws is sqrt(5/1e4)
        assert abs(mean - 5.0) < 3.0 * math.sqrt(5.0 / 10_000)

    def test_detection_statistics(self):
        s = make_toa((0.0, 0.0), clutter_rate=0.0, detection_prob=0.99)
        rng = np.random.default_rng(7)
        truth = [((0, i + 1), state(1000.0 * (i + 1), 500.0)) for i in range(5)]
        counts = [simulate_measurements(truth, s, rng).size for _ in range(10_000)]
        mean = np.mean(counts)
        se = math.sqrt(5 * 0.99 * 0.01 / 10_000)
        assert abs(mean - 4.95) < 4.0 * se

    def test_reproducible_bit_exact(self):
        s = make_doa((0.0, 0.0), clutter_rate=3.0, detection_prob=0.9)
        truth = [((0, 1), state(1000.0, 2000.0))]
        a = simulate_measurements(truth, s, np.random.default_rng(123))
        b = simulate_measurements(truth, s, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_doa_measurements_in_space(self):
        s = make_doa((0.0, 0.0), clutter_rate=10.0, detection_prob=1.0)
        rng = np.random.default_rng(5)
        truth = [((0, 1), state(-1000.0, 1.0))]  # near the seam
        for _ in range(50):
            zs = simulate_measurements(truth, s, rng)
            assert ((zs > -math.pi) & (zs <= math.pi)).all()


def test_ut_params_default_kappa():
    lam, wm, wc = ut_weights(4)
    assert lam == pytest.approx(-1.0)
    assert wm.sum() == pytest.approx(1.0)
    assert wm[0] == pytest.approx(-1.0 / 3.0)


@pytest.mark.parametrize("d", range(1, 9))
def test_ut_weights_equal_the_general_formula(d):
    """Bit for bit the scaled unscented transform with alpha 1, beta 2 and
    kappa 3 - d, in the general formula's order of operations."""
    alpha, beta, kappa = 1.0, 2.0, 3.0 - d
    lam = alpha**2 * (d + kappa) - d
    wm = np.full(2 * d + 1, 0.5 / (d + lam))
    wm[0] = lam / (d + lam)
    wc = wm.copy()
    wc[0] += 1.0 - alpha**2 + beta
    got_lam, got_wm, got_wc = ut_weights(d)
    assert got_lam == lam and d + got_lam == 3.0
    assert np.array_equal(got_wm, wm) and np.array_equal(got_wc, wc)
