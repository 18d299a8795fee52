"""TOA/DOA sensor models, unscented measurement updates, and simulation.

Sensors measure either range (TOA, meters) or bearing (DOA, radians in
(-pi, pi]) from a fixed planar position; the kinematic state is
[px, vx, py, vy]. Measurement updates are unscented (the sensor functions
are non-linear); bearing residuals are wrapped. Clutter is Poisson with a
uniform spatial distribution over the sensor's measurement space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gm import LOG_2PI, GaussianMixture, symmetrize

TWO_PI = 2.0 * math.pi


class DegenerateGeometryError(ValueError):
    """Bearing is undefined for an object at the sensor position."""


def wrap_angle(a):
    """Wrap into (-pi, pi]."""
    w = np.mod(np.asarray(a, dtype=float) + math.pi, TWO_PI) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if np.ndim(a) == 0 else w


def angle_residual(a, b):
    return wrap_angle(np.asarray(a) - np.asarray(b))


def ut_weights(d: int):
    """Unscented-transform spread lambda and the mean and covariance weights
    for alpha = 1, beta = 2 and kappa = 3 - d, so that d + lambda = 3."""
    lam = 3.0 - d
    wm = np.full(2 * d + 1, 0.5 / 3.0)
    wm[0] = lam / 3.0
    wc = wm.copy()
    wc[0] += 2.0
    return lam, wm, wc


@dataclass(frozen=True, eq=False)
class SensorModel:
    """A single TOA or DOA sensor with clutter and detection models.

    detection_prob is the constant P_D of every object.
    measurement_space is the (lo, hi) support of the uniform clutter density.
    The record adopts its fields as given: scenario load checks them (kind
    "toa" or "doa", a finite position, noise_std > 0, clutter_rate >= 0,
    detection_prob in [0, 1]).
    """

    kind: str
    position: tuple[float, float]
    noise_std: float
    clutter_rate: float
    detection_prob: float
    measurement_space: tuple[float, float]

    @property
    def angular(self) -> bool:
        return self.kind == "doa"

    def h(self, states: np.ndarray) -> np.ndarray:
        """Measurement function on one state (4,) or a batch (n, 4)."""
        s = np.atleast_2d(np.asarray(states, dtype=float))
        dx = s[:, 0] - self.position[0]
        dy = s[:, 2] - self.position[1]
        if self.kind == "toa":
            out = np.hypot(dx, dy)
        else:
            if np.any((dx == 0.0) & (dy == 0.0)):
                raise DegenerateGeometryError(f"object at DOA sensor position {self.position}")
            out = wrap_angle(np.arctan2(dy, dx))
        return float(out[0]) if np.ndim(states) == 1 else out


def unscented_update_mixture(gm: GaussianMixture, zs: np.ndarray, sensor: SensorModel):
    """Batched unscented update of every component against every measurement
    of one sensor.

    Returns (log_lik (n, nz), gain (n, d), resid (n, nz), post_covs (n, d, d),
    valid (n,)). The posterior mean of component i given measurement j is
    means[i] + gain[i] * resid[i, j], formed by the caller for the pairs it
    needs; the posterior covariance does not depend on the measurement
    value. Components whose innovation variance fails are flagged invalid.
    """
    n, d = gm.n_components, gm.dim
    zs = np.asarray(zs, dtype=float)
    nz = zs.size
    lam, wm, wc = ut_weights(d)
    try:
        scale = np.linalg.cholesky(symmetrize(gm.covs) * (d + lam))
    except np.linalg.LinAlgError:
        # retry per component so one bad covariance does not sink the batch
        scale = np.zeros((n, d, d))
        bad = np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                scale[i] = np.linalg.cholesky(symmetrize(gm.covs[i]) * (d + lam))
            except np.linalg.LinAlgError:
                bad[i] = True
        if bad.all():
            return np.full((n, nz), -np.inf), np.zeros((n, d)), np.zeros((n, nz)), gm.covs.copy(), ~bad
    else:
        bad = np.zeros(n, dtype=bool)

    pts = np.empty((n, 2 * d + 1, d))
    pts[:, 0] = gm.means
    pts[:, 1 : d + 1] = gm.means[:, None, :] + np.swapaxes(scale, 1, 2)
    pts[:, d + 1 :] = gm.means[:, None, :] - np.swapaxes(scale, 1, 2)

    hv = np.asarray(sensor.h(pts.reshape(-1, d)), dtype=float).reshape(n, 2 * d + 1)
    if sensor.angular:
        hv = hv[:, :1] + angle_residual(hv, hv[:, :1])
    z_pred = hv @ wm
    dz = hv - z_pred[:, None]
    s = (dz * dz) @ wc + sensor.noise_std**2
    bad |= s <= 0
    s = np.where(bad, 1.0, s)

    cross = np.einsum("k,nkd,nk->nd", wc, pts - gm.means[:, None, :], dz)
    gain = cross / s[:, None]
    if sensor.angular:
        resid = angle_residual(zs[None, :], z_pred[:, None])
    else:
        resid = zs[None, :] - z_pred[:, None]
    post_covs = symmetrize(gm.covs - np.einsum("ni,nj->nij", gain, gain) * s[:, None, None])
    log_lik = -0.5 * (LOG_2PI + np.log(s)[:, None] + resid * resid / s[:, None])
    log_lik[bad] = -np.inf
    return log_lik, gain, resid, post_covs, ~bad


def simulate_measurements(truth: list, sensor: SensorModel, rng: np.random.Generator) -> np.ndarray:
    """Detections (in truth order) followed by Poisson clutter.

    truth is a list of (label, state) pairs. Each object is detected with
    probability P_D; detections are h(state) plus Gaussian noise (bearings
    re-wrapped). Clutter locations are uniform over the measurement space.
    """
    out = []
    for _, state in truth:
        if rng.random() < sensor.detection_prob:
            z = sensor.h(np.asarray(state, dtype=float)) + rng.normal(scale=sensor.noise_std)
            out.append(wrap_angle(z) if sensor.angular else z)
    lo, hi = sensor.measurement_space
    n_clutter = rng.poisson(sensor.clutter_rate)
    out.extend(rng.uniform(lo, hi, size=n_clutter).tolist())
    return np.array(out, dtype=float)
