"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and
asserts both the numeric tolerance and its runtime budget. The desk-scale
experiments run once per configuration through module-scoped fixtures.
"""

import dataclasses
import itertools
import math
import os
import time

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
)
from distmot.filters import FilterConfig, UpdateDiagnostics, mdglmb_update
from distmot.fusion import consensus_run, fuse_lmb, fuse_mdglmb
from distmot.harness import run_experiment, run_trial, trial_seed_for
from distmot.network import metropolis_weights, neighbour_lists
from distmot.ospa import ospa
from distmot.scenario import Scenario, load_scenario, with_overrides
from reference import (
    DeltaGlmbComponent,
    DeltaGlmbDensity,
    Gaussian,
    consensus_matrix_power_check,
    gm_covariance,
    gm_mean,
    gm_pdf,
    marginalize_delta_glmb,
    single,
)
from set_integral import geometric_mean_evaluator, mdglmb_evaluator, subset_integral, subset_moments
from test_assignment import exhaustive_assignments

L1, L2 = (0, 1), (0, 2)
CFG = FilterConfig()

WORKERS = min(8, os.cpu_count() or 1)

STEADY = slice(15, 36)


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def g1(mean, var=1.0):
    return single(Gaussian([mean], [[var]]))


def random_two_label_mdglmb(rng):
    w = rng.dirichlet(np.ones(4))
    return MdGlmbDensity.from_unnormalized([
        MdGlmbHypothesis((), math.log(w[0]), ()),
        MdGlmbHypothesis((L1,), math.log(w[1]), (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)),)),
        MdGlmbHypothesis((L2,), math.log(w[2]), (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)),)),
        MdGlmbHypothesis(
            (L1, L2), math.log(w[3]),
            (g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)), g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0))),
        ),
    ])


def test_criterion_1_mdglmb_fusion_closure_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    grid = np.linspace(-30.0, 30.0, 1201)
    omegas = (0.6, 0.4)
    worst = 0.0
    for _ in range(3):
        a, b = random_two_label_mdglmb(rng), random_two_label_mdglmb(rng)
        fused = fuse_mdglmb([(a, omegas[0]), (b, omegas[1])], CFG.gm_merge_thresh)
        ev = geometric_mean_evaluator([(mdglmb_evaluator(a), omegas[0]), (mdglmb_evaluator(b), omegas[1])])
        masses = {ls: subset_integral(ev, ls, grid) for ls in [(), (L1,), (L2,), (L1, L2)]}
        total = sum(masses.values())
        for ls, mass in masses.items():
            got = math.exp(fused.hypothesis(ls).log_weight)
            worst = max(worst, abs(got - mass / total) / (mass / total))
        _, means, variances = subset_moments(ev, (L1, L2), grid)
        h = fused.hypothesis((L1, L2))
        for i in range(2):
            worst = max(worst, abs(gm_mean(h.pdfs[i])[0] - means[i]) / max(abs(means[i]), 1e-6))
            worst = max(worst, abs(gm_covariance(h.pdfs[i])[0, 0] - variances[i]) / variances[i])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 10.0
    report(1, "M-delta-GLMB fusion vs set-integral grid", ok,
           f"max relative deviation {worst:.2e} (tol 1e-3), {elapsed:.1f}s (budget 10s)")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_2_lmb_fusion_closure_oracle():
    start = time.perf_counter()
    # identical-pdf cases: eta = 1, r_bar has an exact closed form
    worst_exact = 0.0
    pdf = g1(1.0, 1.5)
    for r1, r2, w in [(0.2, 0.8, 0.5), (0.09, 0.09, 0.3), (0.5, 0.7, 0.25), (0.95, 0.1, 0.6)]:
        a = LmbDensity((LmbEntry(L1, r1, pdf),))
        b = LmbDensity((LmbEntry(L1, r2, pdf),))
        fused = fuse_lmb([(a, w), (b, 1.0 - w)], CFG.gm_merge_thresh)
        q = (1 - r1) ** w * (1 - r2) ** (1 - w)
        r = r1**w * r2 ** (1 - w)
        worst_exact = max(worst_exact, abs(fused.entry(L1).existence - r / (q + r)))
    # the balanced fixture: r = (0.2, 0.8) at equal weights fuses to 1/2
    balanced = fuse_lmb([
        (LmbDensity((LmbEntry(L1, 0.2, pdf),)), 0.5),
        (LmbDensity((LmbEntry(L1, 0.8, pdf),)), 0.5),
    ], CFG.gm_merge_thresh)
    worst_exact = max(worst_exact, abs(balanced.entry(L1).existence - 0.5))

    # differing pdfs: eta from independent scalar quadrature
    rng = np.random.default_rng(5)
    grid = np.linspace(-40.0, 40.0, 8001)
    worst_grid = 0.0
    for _ in range(5):
        pa, pb = g1(rng.normal(scale=3.0), rng.uniform(0.5, 2.0)), g1(rng.normal(scale=3.0), rng.uniform(0.5, 2.0))
        r1, r2 = rng.uniform(0.05, 0.95, size=2)
        w = rng.uniform(0.2, 0.8)
        fused = fuse_lmb(
            [(LmbDensity((LmbEntry(L1, r1, pa),)), w), (LmbDensity((LmbEntry(L1, r2, pb),)), 1 - w)], CFG.gm_merge_thresh
        )
        eta = np.trapezoid(gm_pdf(pa, grid.reshape(-1, 1)) ** w * gm_pdf(pb, grid.reshape(-1, 1)) ** (1 - w), grid)
        q = (1 - r1) ** w * (1 - r2) ** (1 - w)
        r = eta * r1**w * r2 ** (1 - w)
        worst_grid = max(worst_grid, abs(fused.entry(L1).existence - r / (q + r)) / (r / (q + r)))
    elapsed = time.perf_counter() - start
    ok = worst_exact < 1e-10 and worst_grid < 1e-3 and elapsed < 5.0
    report(2, "LMB fusion vs closed forms", ok,
           f"identical-pdf dev {worst_exact:.2e} (tol 1e-10), grid dev {worst_grid:.2e} (tol 1e-3), "
           f"{elapsed:.1f}s (budget 5s)")
    assert worst_exact < 1e-10
    assert worst_grid < 1e-3
    assert elapsed < 5.0


def test_criterion_3_ci_equivalence_over_consensus():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    omega = metropolis_weights(neighbour_lists(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    gaussians = []
    for _ in range(4):
        a = rng.normal(size=(4, 4))
        gaussians.append(Gaussian(rng.normal(scale=2.0, size=4), a @ a.T + 0.5 * np.eye(4)))
    densities = [
        MdGlmbDensity((MdGlmbHypothesis((L1,), 0.0, (single(ga),)),))
        for ga in gaussians
    ]
    infos = [np.linalg.inv(ga.cov) for ga in gaussians]
    vecs = [info @ ga.mean for info, ga in zip(infos, gaussians)]

    worst = 0.0
    for _ in range(5):
        densities = consensus_run(densities, omega, CFG)
        infos = [sum(omega[i, j] * infos[j] for j in range(4)) for i in range(4)]
        vecs = [sum(omega[i, j] * vecs[j] for j in range(4)) for i in range(4)]
        for i in range(4):
            cov = np.linalg.inv(infos[i])
            mean = cov @ vecs[i]
            pdf = densities[i].hypotheses[0].pdfs[0]
            worst = max(worst, np.abs(pdf.means[0] - mean).max(), np.abs(pdf.covs[0] - cov).max())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    report(3, "consensus equals information-pair arithmetic", ok,
           f"max deviation over 5 rounds x 4 nodes: {worst:.2e} (tol 1e-8), {elapsed:.2f}s (budget 1s)")
    assert worst < 1e-8
    assert elapsed < 1.0


def test_criterion_4_consensus_matrix_convergence():
    start = time.perf_counter()
    omega = metropolis_weights(neighbour_lists(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (1, 5)]))
    d1 = consensus_matrix_power_check(omega, 1)
    d3 = consensus_matrix_power_check(omega, 3)
    d10 = consensus_matrix_power_check(omega, 10)
    elapsed = time.perf_counter() - start
    ok = d3 < d1 and d10 < 0.05 and elapsed < 1.0
    report(4, "Metropolis power convergence on 7-node diameter-3 graph", ok,
           f"dev(1)={d1:.3f}, dev(3)={d3:.3f}, dev(10)={d10:.4f} (< 0.05), {elapsed:.2f}s (budget 1s)")
    assert d3 < d1
    assert d10 < 0.05
    assert elapsed < 1.0


def test_criterion_5_update_exhaustive_vs_ranked(monkeypatch):
    start = time.perf_counter()

    class LinearSensor:
        angular = False
        noise_std = 1.2
        clutter_rate = 2.0
        detection_prob = 0.9
        measurement_space = (-60.0, 60.0)

        def h(self, states):
            s = np.atleast_2d(np.asarray(states, dtype=float))
            out = s[:, 0]
            return float(out[0]) if np.ndim(states) == 1 else out

    def track(px, pos_var):
        return single(Gaussian([px, 0.0, 0.0, 0.0], np.diag([pos_var, 1.0, 1.0, 1.0])))

    predicted = MdGlmbDensity.from_unnormalized([
        MdGlmbHypothesis((), math.log(0.2), ()),
        MdGlmbHypothesis((L1,), math.log(0.3), (track(-4.0, 4.0),)),
        MdGlmbHypothesis((L1, L2), math.log(0.5), (track(-4.0, 4.0), track(5.0, 9.0))),
    ])
    Z = [-3.2, 5.9]
    cfg = FilterConfig(assignments_per_hypothesis=16)
    a = mdglmb_update(predicted, Z, LinearSensor(), cfg, UpdateDiagnostics())
    monkeypatch.setattr(filters, "ranked_assignments", exhaustive_assignments)
    b = mdglmb_update(predicted, Z, LinearSensor(), cfg, UpdateDiagnostics())
    assert len(a) == len(b)
    worst = 0.0
    for ha, hb in zip(a.hypotheses, b.hypotheses):
        assert ha.label_set == hb.label_set
        worst = max(worst, abs(ha.log_weight - hb.log_weight))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(5, "ranked K=16 equals exhaustive association update", ok,
           f"max |log-weight diff| {worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_6_marginalization_preserves_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n_tags = int(rng.integers(1, 4))
        subsets = [(), (L1,), (L2,), (L1, L2)]
        weights = rng.dirichlet(np.ones(4 * n_tags)).reshape(4, n_tags)
        comps = []
        for si, subset in enumerate(subsets):
            for t in range(n_tags):
                pdfs = tuple(g1(rng.normal(scale=2.0), rng.uniform(0.5, 2.0)) for _ in subset)
                comps.append(DeltaGlmbComponent(subset, t, math.log(weights[si, t]), pdfs))
        d = DeltaGlmbDensity(tuple(comps))
        m = marginalize_delta_glmb(d)

        card = np.zeros(3)
        for c in d.components:
            card[len(c.label_set)] += math.exp(c.log_weight)
        worst = max(worst, np.abs(cardinality_distribution_mdglmb(m) - card).max())

        for lab in (L1, L2):
            mass = sum(math.exp(c.log_weight) for c in d.components if lab in c.label_set)
            first = sum(
                math.exp(c.log_weight) * gm_mean(c.pdf(lab))[0] for c in d.components if lab in c.label_set
            )
            got_mass, got_pdf = intensity_mdglmb(m, lab)
            worst = max(worst, abs(got_mass - mass))
            worst = max(worst, abs(got_mass * gm_mean(got_pdf)[0] - first))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    report(6, "marginalization preserves cardinality and intensity", ok,
           f"max deviation over 100 densities {worst:.2e} (tol 1e-12), {elapsed:.1f}s (budget 5s)")
    assert worst < 1e-12
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def desk():
    return load_scenario("desk_small")


@pytest.fixture(scope="module")
def desk_runs(desk):
    start = time.perf_counter()
    runs = {
        "mdglmb_n1": run_experiment(desk, "consensus-mdglmb", workers=WORKERS),
        "mdglmb_n3": run_experiment(with_overrides(desk, consensus_steps=3), "consensus-mdglmb", workers=WORKERS),
        "centralized": run_experiment(desk, "centralized-mdglmb", workers=WORKERS),
        "lmb_n1": run_experiment(desk, "consensus-lmb", workers=WORKERS),
    }
    runs["elapsed"] = time.perf_counter() - start
    return runs


def steady_stats(result):
    """Network-averaged cardinality error and OSPA over the STEADY steps."""
    per_node = np.abs(result.est_card_mean - result.truth_card[None, :])
    card_err = float(per_node.mean(axis=0)[STEADY].mean())
    mean_ospa = float(result.ospa_mean.mean(axis=0)[STEADY].mean())
    return card_err, mean_ospa


def with_clutter_rate(s: Scenario, rate: float) -> Scenario:
    return dataclasses.replace(s, sensors=tuple(dataclasses.replace(x, clutter_rate=rate) for x in s.sensors))


def test_criterion_7_desk_scale_tracking(desk_runs):
    card_md, ospa_md = steady_stats(desk_runs["mdglmb_n1"])
    card_lmb, ospa_lmb = steady_stats(desk_runs["lmb_n1"])
    _, ospa_n3 = steady_stats(desk_runs["mdglmb_n3"])
    _, ospa_cen = steady_stats(desk_runs["centralized"])
    elapsed = desk_runs["elapsed"]

    ordering = ospa_cen <= ospa_n3 * 1.15 and ospa_n3 <= ospa_md * 1.15
    ok = (card_md < 0.3 and ospa_md < 300.0 and card_lmb < 0.3 and ospa_lmb < 300.0
          and ordering and elapsed < 300.0)
    report(7, "desk-scale tracking, high SNR, 20 trials", ok,
           f"mdglmb N=1 card err {card_md:.3f} (<0.3), OSPA {ospa_md:.0f} m (<300); "
           f"lmb card err {card_lmb:.3f}, OSPA {ospa_lmb:.0f} m; "
           f"ordering centralized {ospa_cen:.0f} <= 1.15*N3 {ospa_n3:.0f} <= 1.15*N1 {ospa_md:.0f}; "
           f"{elapsed:.0f}s (budget 300s)")
    assert card_md < 0.3
    assert ospa_md < 300.0
    assert card_lmb < 0.3
    assert ospa_lmb < 300.0
    assert ospa_cen <= ospa_n3 * 1.15
    assert ospa_n3 <= ospa_md * 1.15
    assert elapsed < 300.0


def test_criterion_8_low_snr_qualitative(desk):
    start = time.perf_counter()
    low = with_clutter_rate(desk, 15.0)
    md = run_experiment(low, "consensus-mdglmb", workers=WORKERS)
    lmb = run_experiment(low, "consensus-lmb", workers=WORKERS)
    card_md, _ = steady_stats(md)
    card_lmb, _ = steady_stats(lmb)
    elapsed = time.perf_counter() - start

    lmb_fails = card_lmb >= 0.5
    ok = card_md < 0.5 and elapsed < 300.0
    detail = (f"mdglmb card err {card_md:.3f} (<0.5); lmb card err {card_lmb:.3f} "
              f"({'fails as published' if lmb_fails else 'UNEXPECTEDLY SUCCEEDS - flag for review'}); "
              f"{elapsed:.0f}s (budget 300s)")
    report(8, "low-SNR qualitative reproduction", ok, detail)
    if not lmb_fails:
        print("NOTE: consensus-lmb succeeded at this reduced scale; flagged for review, not a failure.")
    assert card_md < 0.5
    assert elapsed < 300.0


def test_criterion_9_ospa_metric_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        x = rng.uniform(0, 2000, size=(n, 2))
        y = rng.uniform(0, 2000, size=(m, 2))
        got = ospa(x, y, 600.0, 2.0).total
        xn, ym = (x, y) if n <= m else (y, x)
        n2, m2 = min(n, m), max(n, m)
        if m2 == 0:
            brute = 0.0
        elif n2 == 0:
            brute = 600.0
        else:
            best = math.inf
            for perm in itertools.permutations(range(m2), n2):
                cost = sum(min(np.hypot(*(xn[i] - ym[j])), 600.0) ** 2 for i, j in enumerate(perm))
                best = min(best, cost)
            brute = math.sqrt((best + 600.0**2 * (m2 - n2)) / m2)
        worst = max(worst, abs(got - brute))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(9, "OSPA vs brute-force permutations, 1000 pairs", ok,
           f"max |diff| {worst:.2e} (tol 1e-9), {elapsed:.1f}s (budget 10s)")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_10_determinism_with_workers(desk):
    start = time.perf_counter()
    short = dataclasses.replace(with_overrides(desk, trials=4), steps=20)

    seed0 = trial_seed_for(short.seed, 0)
    direct_a = run_trial(short, "consensus-mdglmb", seed0)
    direct_b = run_trial(short, "consensus-mdglmb", seed0)
    assert direct_a.to_json() == direct_b.to_json()

    serial = run_experiment(short, "consensus-mdglmb", workers=1, keep_trials=True)
    pooled = run_experiment(short, "consensus-mdglmb", workers=8, keep_trials=True)
    identical = all(
        a.to_json() == b.to_json() for a, b in zip(serial.trial_results, pooled.trial_results)
    )
    assert serial.trial_results[0].to_json() == direct_a.to_json()
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 120.0
    report(10, "byte-identical reruns incl. 8 workers", ok,
           f"4 trials serial vs 8-worker pool identical: {identical}; {elapsed:.0f}s (budget 120s)")
    assert identical
    assert elapsed < 120.0
