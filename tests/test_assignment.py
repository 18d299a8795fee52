import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot import assignment
from distmot.assignment import _dense_table, _ranked_dense, _ranked_murty, ranked_assignments


def enumerate_assignment_vectors(n_tracks: int, n_meas: int):
    """All valid maps (tuples theta with distinct positive entries)."""
    for theta in itertools.product(range(n_meas + 1), repeat=n_tracks):
        positive = [t for t in theta if t > 0]
        if len(set(positive)) == len(positive):
            yield theta


def exhaustive_assignments(log_score, k=None):
    """Reference: every valid map with a finite score, in ranked order.

    Same contract as ranked_assignments; k is accepted and ignored, so the
    reference can stand in for it.
    """
    log_score = np.asarray(log_score, dtype=float)
    n = log_score.shape[0]
    if n == 0:
        return [((), 0.0)]
    out = []
    for theta in enumerate_assignment_vectors(n, log_score.shape[1] - 1):
        score = float(sum(log_score[i, t] for i, t in enumerate(theta)))
        if np.isfinite(score):
            out.append((score, theta))
    out.sort(key=lambda t: (-t[0], t[1]))
    return [(theta, score) for score, theta in out]


def test_association_map_rejects_shared_measurement():
    # both tracks strongly prefer measurement 1: (1, 1) would score best,
    # but no map may give one measurement to two tracks
    log_score = np.array([[0.0, 5.0, -5.0], [0.0, 5.0, -5.0]])
    for search in (_ranked_dense, _ranked_murty, ranked_assignments):
        got = [theta for theta, _ in search(log_score, 100)]
        assert (1, 1) not in got and (2, 2) not in got
        assert (0, 0) in got  # shared misdetection is fine
        assert got[:2] == [(0, 1), (1, 0)]
        assert len(got) == 7


def test_one_track_one_measurement():
    log_score = np.array([[np.log(0.3), np.log(2.0)]])
    maps = ranked_assignments(log_score, 5)
    assert [theta for theta, _ in maps] == [(1,), (0,)]
    assert maps[0][1] == pytest.approx(np.log(2.0))
    assert maps[1][1] == pytest.approx(np.log(0.3))


def test_two_by_two_all_equal_gives_seven_maps_in_lex_order():
    log_score = np.zeros((2, 3))
    maps = ranked_assignments(log_score, 100)
    got = [theta for theta, _ in maps]
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert all(s == 0.0 for _, s in maps)


def test_empty_tracks():
    maps = ranked_assignments(np.zeros((0, 4)), 3)
    assert maps == [((), 0.0)]


def test_zero_measurements_single_map():
    log_score = np.array([[np.log(0.3)], [np.log(0.4)]])
    maps = ranked_assignments(log_score, 10)
    assert len(maps) == 1
    assert maps[0][0] == (0, 0)
    assert maps[0][1] == pytest.approx(np.log(0.3) + np.log(0.4))


def test_infinite_misdetection_dropped():
    # certain detection: the misdetection map has probability zero
    log_score = np.array([[-np.inf, 0.5]])
    maps = ranked_assignments(log_score, 5)
    assert [theta for theta, _ in maps] == [(1,)]


@given(st.integers(0, 2**31 - 1), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_random_instances_match_exhaustive(seed, k):
    rng = np.random.default_rng(seed)
    n, m = 3, 4
    log_score = rng.normal(size=(n, m + 1))
    expect = exhaustive_assignments(log_score)[:k]
    for search in (_ranked_dense, _ranked_murty, ranked_assignments):
        got = search(log_score, k)
        assert [g[0] for g in got] == [e[0] for e in expect]
        assert np.allclose([g[1] for g in got], [e[1] for e in expect], atol=1e-12)
        # every map sends distinct tracks to distinct measurements
        for theta, _ in got:
            assert type(theta) is tuple and all(type(t) is int for t in theta)
            positive = [t for t in theta if t > 0]
            assert len(set(positive)) == len(positive)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_murty_finds_every_map(seed):
    rng = np.random.default_rng(seed)
    n, m = 2, 3
    log_score = rng.normal(size=(n, m + 1))
    count = len(list(enumerate_assignment_vectors(n, m)))
    got = _ranked_murty(log_score, 1000)
    assert len(got) == count
    scores = [s for _, s in got]
    assert scores == sorted(scores, reverse=True)
    assert len({g[0] for g in got}) == count


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_murty_stops_at_k(monkeypatch, k):
    # every popped map but the k-th is partitioned into n subproblems
    rng = np.random.default_rng(k)
    n, m = 3, 4
    log_score = rng.normal(size=(n, m + 1))
    solves = []
    real = assignment.linear_sum_assignment

    def counting(cost):
        solves.append(1)
        return real(cost)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    got = _ranked_murty(log_score, k)
    assert len(solves) == 1 + n * (k - 1)
    assert got == exhaustive_assignments(log_score)[:k]


def test_dense_table_is_cached_read_only():
    table = _dense_table(3, 5)
    assert _dense_table(3, 5) is table
    assert not table.flags.writeable
    assert [tuple(t) for t in table.tolist()] == sorted(enumerate_assignment_vectors(3, 4))
    log_score = np.random.default_rng(0).normal(size=(3, 5))
    _ranked_dense(log_score, 4)
    assert _dense_table(3, 5) is table
