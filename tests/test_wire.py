import math

import numpy as np
import pytest

from distmot.densities import LmbDensity, LmbEntry, MdGlmbDensity, MdGlmbHypothesis
from distmot.gm import Gaussian
from distmot.wire import (
    density_from_json,
    density_to_json,
    exchange_bytes_actual,
    exchange_bytes_reference,
)
from reference import gm_from_components

L1, L2 = (2, 1), (3, 1)


def gm4(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4))
    return gm_from_components(
        [(math.log(0.5), Gaussian(rng.normal(size=4), a @ a.T + np.eye(4))),
         (math.log(0.5), Gaussian(rng.normal(size=4), np.eye(4)))]
    )


def test_lmb_round_trip():
    d = LmbDensity((LmbEntry(L1, 0.09, gm4(0)), LmbEntry(L2, 0.5, gm4(1))))
    back = density_from_json(density_to_json(d))
    assert isinstance(back, LmbDensity)
    assert back.labels == d.labels
    for a, b in zip(d.entries, back.entries):
        assert b.existence == a.existence
        assert np.array_equal(b.pdf.log_w, a.pdf.log_w)
        assert np.array_equal(b.pdf.means, a.pdf.means)
        assert np.array_equal(b.pdf.covs, a.pdf.covs)


def test_mdglmb_round_trip():
    d = MdGlmbDensity.from_unnormalized([
        MdGlmbHypothesis((), math.log(0.4), ()),
        MdGlmbHypothesis((L1, L2), math.log(0.6), (gm4(2), gm4(3))),
    ])
    back = density_from_json(density_to_json(d))
    assert isinstance(back, MdGlmbDensity)
    assert [h.label_set for h in back.hypotheses] == [h.label_set for h in d.hypotheses]
    for a, b in zip(d.hypotheses, back.hypotheses):
        assert b.log_weight == a.log_weight
        for pa, pb in zip(a.pdfs, b.pdfs):
            assert np.array_equal(pa.means, pb.means)
            assert np.array_equal(pa.covs, pb.covs)


def test_serialization_deterministic():
    d = LmbDensity((LmbEntry(L1, 0.09, gm4(0)),))
    assert density_to_json(d) == density_to_json(d)


def test_reference_byte_count_lmb():
    # 4 * (1 + (4 + 10) * |labels|)
    d = LmbDensity((LmbEntry(L1, 0.09, gm4(0)), LmbEntry(L2, 0.5, gm4(1))))
    assert exchange_bytes_reference(d) == 4 * (1 + 14 * 2)
    assert exchange_bytes_actual(d) == len(density_to_json(d).encode())


def test_reference_byte_count_mdglmb():
    # 4 * sum_I (1 + (4 + 10) * |I|)
    d = MdGlmbDensity.from_unnormalized([
        MdGlmbHypothesis((), math.log(0.4), ()),
        MdGlmbHypothesis((L1, L2), math.log(0.6), (gm4(2), gm4(3))),
    ])
    assert exchange_bytes_reference(d) == 4 * ((1 + 0) + (1 + 14 * 2))


def test_unknown_schema_rejected():
    with pytest.raises(ValueError):
        density_from_json('{"schema": "nope", "kind": "lmb", "entries": []}')
