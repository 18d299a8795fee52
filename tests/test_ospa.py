import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot.ospa import ospa


def brute_force_ospa(x, y, c, p):
    n, m = len(x), len(y)
    if n > m:
        x, y, n, m = y, x, m, n
    if m == 0:
        return 0.0
    if n == 0:
        return c
    best = math.inf
    for perm in itertools.permutations(range(m), n):
        cost = sum(min(np.hypot(*(x[i] - y[j])), c) ** p for i, j in enumerate(perm))
        best = min(best, cost)
    return ((best + c**p * (m - n)) / m) ** (1.0 / p)


def test_empty_sets():
    r = ospa(np.zeros((0, 2)), np.zeros((0, 2)), 600.0, 2.0)
    assert r.total == 0.0 and r.localization == 0.0 and r.cardinality == 0.0


def test_one_empty_pure_cardinality():
    r = ospa(np.array([[0.0, 0.0]]), np.zeros((0, 2)), 600.0, 2.0)
    assert r.total == 600.0
    assert r.cardinality == 600.0
    assert r.localization == 0.0


def test_two_singletons_100m_apart():
    r = ospa(np.array([[0.0, 0.0]]), np.array([[100.0, 0.0]]), 600.0, 2.0)
    assert r.total == pytest.approx(100.0)
    assert r.localization == pytest.approx(100.0)
    assert r.cardinality == 0.0


def test_extracts_positions_from_four_state():
    x = np.array([[3.0, 99.0, 4.0, -99.0]])
    y = np.array([[0.0, 0.0]])
    assert ospa(x, y, 600.0, 2.0).total == pytest.approx(5.0)


def test_decomposition_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0, 2000, size=(rng.integers(0, 5), 2))
        y = rng.uniform(0, 2000, size=(rng.integers(0, 5), 2))
        r = ospa(x, y, 600.0, 2.0)
        assert r.total**2 == pytest.approx(r.localization**2 + r.cardinality**2, abs=1e-6)
        assert 0.0 <= r.total <= 600.0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    x = rng.uniform(0, 1500, size=(n, 2))
    y = rng.uniform(0, 1500, size=(m, 2))
    got = ospa(x, y, 600.0, 2.0).total
    assert got == pytest.approx(brute_force_ospa(x, y, 600.0, 2.0), abs=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_symmetry(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1500, size=(int(rng.integers(0, 4)), 2))
    y = rng.uniform(0, 1500, size=(int(rng.integers(0, 4)), 2))
    assert ospa(x, y, 600.0, 2.0).total == ospa(y, x, 600.0, 2.0).total


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        sets = [rng.uniform(0, 2000, size=(int(rng.integers(0, 4)), 2)) for _ in range(3)]
        dxy = ospa(sets[0], sets[1], 600.0, 2.0).total
        dyz = ospa(sets[1], sets[2], 600.0, 2.0).total
        dxz = ospa(sets[0], sets[2], 600.0, 2.0).total
        assert dxz <= dxy + dyz + 1e-9


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ospa(np.zeros((1, 2)), np.zeros((1, 2)), 0.0, 2.0)
    with pytest.raises(ValueError):
        ospa(np.zeros((1, 2)), np.zeros((1, 2)), 600.0, 0.5)
