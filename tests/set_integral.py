"""Brute-force set integrals on a scalar kinematic space.

Test oracle: the set integral of f over a finite label space reduces to a
sum over label subsets of ordinary integrals, one integration variable per
label. Grid quadrature (trapezoid) keeps it independent of any closed-form
machinery it is used to check. Tractable for <= 3 labels.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from distmot.densities import Label, LmbDensity, MdGlmbDensity
from reference import gm_pdf

# evaluator(labels, X) -> density values at the labeled sets
# {(X[j, 0], labels[0]), ..., (X[j, n-1], labels[n-1])} for each grid row j.
SetDensityEvaluator = Callable[[tuple[Label, ...], np.ndarray], np.ndarray]


def _grid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros_like(grid)
    w[1:] += 0.5 * np.diff(grid)
    w[:-1] += 0.5 * np.diff(grid)
    return w


def subset_integral(evaluator: SetDensityEvaluator, labels: Sequence[Label], grid: np.ndarray) -> float:
    """Integral over the states of one fixed label subset."""
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        return float(evaluator((), np.zeros((1, 0)))[0])
    axes = np.meshgrid(*([grid] * n), indexing="ij")
    points = np.stack([a.reshape(-1) for a in axes], axis=1)
    values = evaluator(labels, points)
    w = _grid_weights(grid)
    wprod = np.ones(1)
    for _ in range(n):
        wprod = np.multiply.outer(wprod, w).reshape(-1)
    return float(values @ wprod)


def subset_moments(evaluator: SetDensityEvaluator, labels: Sequence[Label], grid: np.ndarray):
    """Per-label mean and variance of the (unnormalized) restriction to one subset."""
    labels = tuple(labels)
    n = len(labels)
    axes = np.meshgrid(*([grid] * n), indexing="ij")
    points = np.stack([a.reshape(-1) for a in axes], axis=1)
    values = evaluator(labels, points)
    w = _grid_weights(grid)
    wprod = np.ones(1)
    for _ in range(n):
        wprod = np.multiply.outer(wprod, w).reshape(-1)
    mass = values @ wprod
    means = np.array([(values * points[:, i]) @ wprod for i in range(n)]) / mass
    variances = np.array([(values * (points[:, i] - means[i]) ** 2) @ wprod for i in range(n)]) / mass
    return float(mass), means, variances


def set_integral(evaluator: SetDensityEvaluator, label_space: Sequence[Label], grid: np.ndarray) -> float:
    """Sum of subset integrals over every subset of the label space."""
    labels = tuple(label_space)
    total = 0.0
    for n in range(len(labels) + 1):
        for subset in itertools.combinations(labels, n):
            total += subset_integral(evaluator, subset, grid)
    return total


def mdglmb_evaluator(d: MdGlmbDensity) -> SetDensityEvaluator:
    """Pointwise multi-object density of a marginalized delta-GLMB (scalar states)."""

    def evaluate(labels: tuple[Label, ...], points: np.ndarray) -> np.ndarray:
        h = d.hypothesis(tuple(sorted(labels)))
        if h is None or len(set(labels)) != len(labels):
            return np.zeros(points.shape[0])
        out = np.full(points.shape[0], np.exp(h.log_weight))
        for i, lab in enumerate(labels):
            out *= gm_pdf(h.pdf(lab), points[:, i : i + 1])
        return out

    return evaluate


def lmb_evaluator(d: LmbDensity) -> SetDensityEvaluator:
    """Pointwise multi-object density of an LMB (scalar states)."""

    def evaluate(labels: tuple[Label, ...], points: np.ndarray) -> np.ndarray:
        if len(set(labels)) != len(labels):
            return np.zeros(points.shape[0])
        absent = 1.0
        for e in d.entries:
            if e.label not in labels:
                absent *= 1.0 - e.existence
        out = np.full(points.shape[0], absent)
        for i, lab in enumerate(labels):
            entry = d.entry(lab)
            if entry is None:
                return np.zeros(points.shape[0])
            out *= entry.existence * gm_pdf(entry.pdf, points[:, i : i + 1])
        return out

    return evaluate


def geometric_mean_evaluator(parts: list[tuple[SetDensityEvaluator, float]]) -> SetDensityEvaluator:
    """Unnormalized weighted geometric mean prod_i f_i^{w_i} of set densities."""

    def evaluate(labels: tuple[Label, ...], points: np.ndarray) -> np.ndarray:
        out = np.ones(points.shape[0])
        for ev, w in parts:
            out *= ev(labels, points) ** w
        return out

    return evaluate
