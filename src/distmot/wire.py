"""Wire format for the densities exchanged between nodes.

JSON documents, schema "lrfs-density/1". Labels are [k, i] pairs of
integers (birth step k >= 0, index i >= 1, checked on decode),
hypothesis weights are log-weights, component covariances are row-major
flat lists. Values are serialized in double precision; the reference byte
accounting below assumes 4-byte floats with a single Gaussian per track
(1 weight + 4 mean + 10 upper-triangle covariance entries per label), so
both counts are reported by the harness.
"""

from __future__ import annotations

import json

import numpy as np

from .densities import Label, LmbDensity, LmbEntry, MdGlmbDensity, MdGlmbHypothesis, check_density
from .gm import GaussianMixture

SCHEMA = "lrfs-density/1"


def _pdf_to_dict(pdf: GaussianMixture) -> dict:
    return {
        "log_weights": pdf.log_w.tolist(),
        "means": pdf.means.tolist(),
        "covariances": [c.reshape(-1).tolist() for c in pdf.covs],
    }


def _pdf_from_dict(doc: dict) -> GaussianMixture:
    lw = np.array(doc["log_weights"], dtype=float)
    mu = np.array(doc["means"], dtype=float)
    d = mu.shape[1] if mu.ndim == 2 else 0
    cv = np.array(doc["covariances"], dtype=float).reshape(-1, d, d)
    return GaussianMixture(lw, mu, cv)


def density_to_dict(d: LmbDensity | MdGlmbDensity) -> dict:
    if isinstance(d, LmbDensity):
        return {
            "schema": SCHEMA,
            "kind": "lmb",
            "entries": [
                {"label": list(e.label), "existence": e.existence, "pdf": _pdf_to_dict(e.pdf)}
                for e in d.entries
            ],
        }
    if isinstance(d, MdGlmbDensity):
        return {
            "schema": SCHEMA,
            "kind": "mdglmb",
            "hypotheses": [
                {
                    "labels": [list(l) for l in h.label_set],
                    "log_weight": h.log_weight,
                    "tracks": [
                        {"label": list(l), "pdf": _pdf_to_dict(p)}
                        for l, p in zip(h.label_set, h.pdfs)
                    ],
                }
                for h in d.hypotheses
            ],
        }
    raise TypeError(f"cannot serialize {type(d).__name__}")


def density_to_json(d: LmbDensity | MdGlmbDensity) -> str:
    return json.dumps(density_to_dict(d), separators=(",", ":"))


def _existence(r) -> float:
    """Values within 1e-12 of [0, 1] are rounding and are clamped into it;
    `check_density` rejects the rest."""
    return float(min(max(r, 0.0), 1.0)) if -1e-12 <= r <= 1.0 + 1e-12 else r


def _label(value) -> Label:
    """The label a wire [k, i] pair names: integers (not bools), birth step
    k >= 0 and index i >= 1."""
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        and value[0] >= 0
        and value[1] >= 1
    ):
        return (value[0], value[1])
    raise ValueError(f"label {value!r} is not a pair [k, i] of integers with k >= 0 and i >= 1")


def density_from_dict(doc: dict) -> LmbDensity | MdGlmbDensity:
    """Decode and check a density document; the only way a density enters
    from outside."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {doc.get('schema')!r}")
    if doc["kind"] == "lmb":
        d = LmbDensity(
            tuple(
                LmbEntry(_label(e["label"]), _existence(e["existence"]), _pdf_from_dict(e["pdf"]))
                for e in doc["entries"]
            )
        )
    elif doc["kind"] == "mdglmb":
        hyps = []
        for h in doc["hypotheses"]:
            labels = tuple(sorted(_label(l) for l in h["labels"]))
            by_label = {_label(t["label"]): _pdf_from_dict(t["pdf"]) for t in h["tracks"]}
            pdfs = tuple(by_label[l] for l in labels)
            hyps.append(MdGlmbHypothesis(labels, h["log_weight"], pdfs))
        d = MdGlmbDensity(tuple(hyps))
    else:
        raise ValueError(f"unknown density kind {doc['kind']!r}")
    check_density(d)
    return d


def density_from_json(text: str) -> LmbDensity | MdGlmbDensity:
    return density_from_dict(json.loads(text))


FLOATS_PER_TRACK = 4 + 10  # mean + upper-triangle covariance of a 4-D Gaussian


def exchange_bytes_reference(d: LmbDensity | MdGlmbDensity) -> int:
    """Nominal per-broadcast byte count at 4 bytes per float."""
    if isinstance(d, LmbDensity):
        return 4 * (1 + FLOATS_PER_TRACK * len(d.entries))
    if isinstance(d, MdGlmbDensity):
        return 4 * sum(1 + FLOATS_PER_TRACK * len(h.label_set) for h in d.hypotheses)
    raise TypeError(f"cannot size {type(d).__name__}")


def exchange_bytes_actual(d: LmbDensity | MdGlmbDensity) -> int:
    """Size of the serialized JSON payload in bytes."""
    return len(density_to_json(d).encode("utf-8"))
