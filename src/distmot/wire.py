"""Wire format for the densities exchanged between nodes.

JSON documents, schema "lrfs-density/1". Labels are [k, i] pairs of
integers (birth step k >= 0, index i >= 1, checked on decode),
hypothesis weights are log-weights, component covariances are row-major
flat lists (positive definite, checked on decode). Values are serialized
in double precision; the reference byte accounting below assumes 4-byte
floats with a single Gaussian per track (1 weight + 4 mean + 10
upper-triangle covariance entries per label), so both counts are reported
by the harness.
"""

from __future__ import annotations

import json

import numpy as np

from .densities import Label, LmbDensity, LmbEntry, MdGlmbDensity, MdGlmbHypothesis, check_density
from .gm import GaussianMixture, check_pd

SCHEMA = "lrfs-density/1"


def _pdf_to_dict(pdf: GaussianMixture) -> dict:
    return {
        "log_weights": pdf.log_w.tolist(),
        "means": pdf.means.tolist(),
        "covariances": [c.reshape(-1).tolist() for c in pdf.covs],
    }


def _pdf_from_dict(doc, where: str) -> GaussianMixture:
    lw, mu, cv = (_numbers(doc, key, where) for key in ("log_weights", "means", "covariances"))
    d = mu.shape[1] if mu.ndim == 2 else 0
    try:
        pdf = GaussianMixture(lw, mu, cv.reshape(-1, d, d))
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    if pdf.n_components:
        try:
            check_pd(pdf.covs)
        except ValueError as e:
            raise ValueError(f"{where}.covariances: {e}") from None
    return pdf


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


def _field(doc, key: str, where: str, kind: type = object):
    """doc[key] of a JSON object, which must be a `kind`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not an object")
    if key not in doc:
        raise ValueError(f"{where} has no {key!r}")
    if not isinstance(doc[key], kind):
        raise ValueError(f"{where}.{key} is not a {kind.__name__}")
    return doc[key]


def _numbers(doc, key: str, where: str, scalar: bool = False):
    """A real number (an int or float, not a bool or a numeric string) if
    scalar, else a list, possibly nested, of real numbers as a float array."""
    value = _field(doc, key, where, object if scalar else list)
    try:
        a = np.array(value, dtype=object)
        if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in a.flat) and not (scalar and a.ndim):
            return float(a) if scalar else a.astype(float)
    except (ValueError, OverflowError):  # ragged nesting, or an int beyond float range
        pass
    raise ValueError(f"{where}.{key} is not {'a number' if scalar else 'a list of numbers'}")


def _label(value, where: str) -> Label:
    """The label a wire [k, i] pair names: integers (not bools), birth step
    k >= 0 and index i >= 1."""
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value) and value[0] >= 0 and value[1] >= 1:
        return (value[0], value[1])
    raise ValueError(f"{where}: label {value!r} is not a pair [k, i] of integers with k >= 0 and i >= 1")


def density_from_dict(doc: dict) -> LmbDensity | MdGlmbDensity:
    """Decode and check a density document; the only way a density enters
    from outside. A malformed document raises a ValueError naming the field."""
    if _field(doc, "schema", "document") != SCHEMA:
        raise ValueError(f"unknown schema {doc['schema']!r}")
    kind = _field(doc, "kind", "document")
    if kind == "lmb":
        entries = []
        for i, e in enumerate(_field(doc, "entries", "document", list)):
            w = f"entries[{i}]"
            label, pdf = _label(_field(e, "label", w), w), _pdf_from_dict(_field(e, "pdf", w), f"{w}.pdf")
            entries.append(LmbEntry(label, _existence(_numbers(e, "existence", w, scalar=True)), pdf))
        d = LmbDensity(tuple(entries))
    elif kind == "mdglmb":
        hyps = []
        for i, h in enumerate(_field(doc, "hypotheses", "document", list)):
            w = f"hypotheses[{i}]"
            labels = tuple(sorted(_label(l, f"{w}.labels") for l in _field(h, "labels", w, list)))
            tracks = _field(h, "tracks", w, list)
            by_label = {}
            for j, t in enumerate(tracks):
                tw = f"{w}.tracks[{j}]"
                by_label[_label(_field(t, "label", tw), tw)] = _pdf_from_dict(_field(t, "pdf", tw), f"{tw}.pdf")
            if len(tracks) != len(labels) or any(l not in by_label for l in labels):
                raise ValueError(f"{w}.tracks do not hold one track for each label of {labels}")
            hyps.append(MdGlmbHypothesis(labels, _numbers(h, "log_weight", w, scalar=True), tuple(by_label[l] for l in labels)))
        d = MdGlmbDensity(tuple(hyps))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
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
