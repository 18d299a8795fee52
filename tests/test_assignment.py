import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from distmot.assignment import ranked_assignments


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
    got = [theta for theta, _ in ranked_assignments(log_score, 100)]
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


@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(1, 12),
    st.booleans(),
    st.sampled_from([0.0, 0.2]),
)
@settings(max_examples=200, deadline=None)
def test_random_instances_match_exhaustive(seed, n, m, k, integer, p_inf):
    # integer-valued scores make ties common; -inf cells make pairings impossible
    rng = np.random.default_rng(seed)
    log_score = rng.integers(-2, 3, size=(n, m + 1)).astype(float) if integer else rng.normal(size=(n, m + 1))
    log_score[rng.random(size=(n, m + 1)) < p_inf] = -np.inf
    got = ranked_assignments(log_score, k)
    assert got == exhaustive_assignments(log_score)[:k]
    # every map sends distinct tracks to distinct measurements
    for theta, score in got:
        assert type(theta) is tuple and all(type(t) is int for t in theta)
        assert type(score) is float
        positive = [t for t in theta if t > 0]
        assert len(set(positive)) == len(positive)


def test_identical_rows_tie_at_kth_map():
    # tracks 3 and 4 have bit-identical rows, so the maps (0, 3, 4, 0, 2) and
    # (0, 3, 4, 2, 0) score the same and straddle the k-th position; the
    # lexicographically smaller one is kept
    row = [0.96, -0.2, 0.02, 1.55, 0.55, -0.51]
    log_score = np.array(
        [
            [2.04, -2.56, 0.42, -0.57, -0.45, -0.22],
            [-2.02, -0.23, -0.87, 3.32, 0.23, -0.35],
            [-0.28, -0.67, -1.06, -0.39, 0.48, -0.24],
            row,
            row,
        ]
    )
    expect = exhaustive_assignments(log_score)
    assert [theta for theta, _ in expect[3:5]] == [(0, 3, 4, 0, 2), (0, 3, 4, 2, 0)]
    assert expect[3][1] == expect[4][1]
    assert expect[2][1] > expect[3][1]
    assert ranked_assignments(log_score, 4) == expect[:4]


def test_all_tied_grid_returns_lexicographically_first_maps():
    # 21**9 maps score 0.0: a search that visited every tied completion would not finish
    first = itertools.islice(
        (theta for theta in itertools.product(range(21), repeat=9) if len({t for t in theta if t}) == sum(t > 0 for t in theta)),
        50,
    )
    assert ranked_assignments(np.zeros((9, 21)), 50) == [(theta, 0.0) for theta in first]


def test_wide_instance_scores_sum_in_row_order():
    # nine tracks with scores spread over six decades, where a pairwise sum
    # differs from the row-order sum in the last bits
    rng = np.random.default_rng(5)
    log_score = rng.normal(size=(9, 2)) * 10.0 ** rng.uniform(-3, 3, size=(9, 2))
    assert ranked_assignments(log_score, 10) == exhaustive_assignments(log_score)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_murty_finds_every_map(seed):
    rng = np.random.default_rng(seed)
    n, m = 2, 3
    log_score = rng.normal(size=(n, m + 1))
    count = len(list(enumerate_assignment_vectors(n, m)))
    got = ranked_assignments(log_score, 1000)
    assert len(got) == count
    scores = [s for _, s in got]
    assert scores == sorted(scores, reverse=True)
    assert len({g[0] for g in got}) == count
