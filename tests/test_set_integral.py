import math

import numpy as np
import pytest

from distmot.densities import (
    LmbDensity,
    LmbEntry,
    MdGlmbDensity,
    MdGlmbHypothesis,
)
from reference import Gaussian, gm_pdf, single
from set_integral import (
    geometric_mean_evaluator,
    lmb_evaluator,
    mdglmb_evaluator,
    set_integral,
    subset_integral,
)

L1, L2 = (0, 1), (0, 2)
GRID = np.linspace(-25.0, 25.0, 1501)


def g1(mean, var=1.0):
    return single(Gaussian([mean], [[var]]))


def test_lmb_single_label_integrates_to_one():
    d = LmbDensity((LmbEntry(L1, 0.3, g1(1.0)),))
    total = set_integral(lmb_evaluator(d), [L1], GRID)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_mdglmb_two_labels_integrates_to_one():
    hyps = [
        MdGlmbHypothesis((), math.log(0.2), ()),
        MdGlmbHypothesis((L1,), math.log(0.3), (g1(-2.0),)),
        MdGlmbHypothesis((L2,), math.log(0.1), (g1(3.0, 2.0),)),
        MdGlmbHypothesis((L1, L2), math.log(0.4), (g1(0.0), g1(4.0))),
    ]
    d = MdGlmbDensity.from_unnormalized(hyps)
    total = set_integral(mdglmb_evaluator(d), [L1, L2], GRID)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_unnormalized_lmb_product_matches_binomial_closed_form():
    # integral of prod_i pi_i^{w_i} over the full label space equals
    # prod_l (q_tilde(l) + r_tilde(l)) with q/r tilde the weighted products
    omegas = (0.6, 0.4)
    r_a = {L1: 0.3, L2: 0.7}
    r_b = {L1: 0.5, L2: 0.4}
    mean_a = {L1: -1.0, L2: 2.0}
    mean_b = {L1: 0.5, L2: 3.0}
    da = LmbDensity(tuple(LmbEntry(l, r_a[l], g1(mean_a[l])) for l in (L1, L2)))
    db = LmbDensity(tuple(LmbEntry(l, r_b[l], g1(mean_b[l], 1.5)) for l in (L1, L2)))
    ev = geometric_mean_evaluator([(lmb_evaluator(da), omegas[0]), (lmb_evaluator(db), omegas[1])])
    total = set_integral(ev, [L1, L2], GRID)

    expect = 1.0
    for l in (L1, L2):
        q = (1 - r_a[l]) ** omegas[0] * (1 - r_b[l]) ** omegas[1]
        # eta by independent scalar quadrature
        x = GRID.reshape(-1, 1)
        eta = np.trapezoid(
            gm_pdf(da.entry(l).pdf, x) ** omegas[0] * gm_pdf(db.entry(l).pdf, x) ** omegas[1], GRID
        )
        r = eta * r_a[l] ** omegas[0] * r_b[l] ** omegas[1]
        expect *= q + r
    assert total == pytest.approx(expect, rel=1e-3)


def test_subset_integral_empty_set():
    d = LmbDensity((LmbEntry(L1, 0.25, g1(0.0)),))
    assert subset_integral(lmb_evaluator(d), [], GRID) == pytest.approx(0.75, abs=1e-12)
