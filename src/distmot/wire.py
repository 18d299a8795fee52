"""Wire format for the densities exchanged between nodes.

JSON documents, schema "lrfs-density/1". Labels are [k, i] pairs of
integers (birth step k >= 0, index i >= 1, checked on decode),
hypothesis weights are log-weights, component covariances are row-major
flat lists (positive definite, checked on decode). Values are serialized
in double precision; the reference byte accounting below assumes 4-byte
floats with a single Gaussian per track (1 weight + 4 mean + 10
upper-triangle covariance entries per label), so both counts are reported
by the harness.

In each consensus round a node's density is encoded once
(`exchange_bytes_actual`), and its neighbours fuse what that payload
decodes to (`density_from_json`). So every exchanged density passes the
decode checks and `check_density`. A density the package sends decodes
bit for bit to the one it encoded.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import accumulate, chain

import numpy as np

from .densities import Label, LmbDensity, LmbEntry, MdGlmbDensity, MdGlmbHypothesis, check_density
from .gm import GaussianMixture, check_pd, symmetrize

SCHEMA = "lrfs-density/1"


def _pdf_to_dict(pdf: GaussianMixture) -> dict:
    return {
        "log_weights": pdf.log_w.tolist(),
        "means": pdf.means.tolist(),
        "covariances": [c.reshape(-1).tolist() for c in pdf.covs],
    }


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


# The types json.loads gives numbers; bool is neither.
_REAL = {int, float}
_PDF_KEYS = ("log_weights", "means", "covariances")


def _number(doc, key: str, where: str) -> float:
    """A real number: an int or float, not a bool or a numeric string. An
    isinstance test, so that the numpy scalars a `density_to_dict`
    document can hold as weights and existences pass too."""
    value = _field(doc, key, where)
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an int beyond float range
        pass
    raise ValueError(f"{where}.{key} is not a number")


def _numbers(doc, key: str, where: str) -> np.ndarray:
    """A list, possibly nested, of real numbers as a float array."""
    value = _field(doc, key, where, list)
    try:
        a = np.array(value, dtype=object)
        if all(type(x) in _REAL for x in a.flat):
            return a.astype(float)
    except (ValueError, OverflowError):  # ragged nesting, or an int beyond float range
        pass
    raise ValueError(f"{where}.{key} is not a list of numbers")


def _raise_shape_fault(doc, where: str) -> None:
    """Raise the ValueError naming the first fault of one mixture's lists:
    a list that is not of numbers, no component, or disagreeing shapes."""
    lw, mu, cv = (_numbers(doc, key, where) for key in _PDF_KEYS)
    n = lw.size
    if n == 0:
        raise ValueError(f"{where}: a mixture needs at least one component")
    if lw.ndim != 1:
        raise ValueError(f"{where}.log_weights is not a flat list of numbers")
    if mu.shape != (n, 4):
        raise ValueError(f"{where}.means: shape {mu.shape} is not ({n}, 4), one 4-D state per log weight")
    if cv.shape != (n, 16):
        raise ValueError(f"{where}: cannot reshape covariances of shape {cv.shape} into ({n}, 4, 4)")


def _rows(lists, width: int) -> list | None:
    """The items of lists of rows, flattened in order, if every row is a
    list of `width` items; else None."""
    rows = list(chain.from_iterable(lists))
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        return list(chain.from_iterable(rows))
    return None


def _mixtures(pdfs: list[tuple[object, str]]) -> list[GaussianMixture]:
    """The received mixtures of one density, given as (document, field
    path) pairs, checked for everything the filters take as given: at
    least one component, 4-D states [px, vx, py, vy], agreeing shapes,
    finite means and covariances, log weights neither NaN nor +inf, and
    covariances positive definite once symmetrized.

    Each check runs once on all the density's components: one type test
    per field, one finiteness pass, one `check_pd` on the stacked
    covariances. A failed check names the first mixture that fails it,
    found from the per-component mask where there is one, and otherwise
    by checking the mixtures alone in order: a shape fault's message
    needs that mixture's lists, and LAPACK does not say which matrix did
    not converge. The arrays are frozen; each mixture holds views of them.
    """
    if not pdfs:
        return []
    lws, mus, cvs = zip(*([_field(doc, key, where, list) for key in _PDF_KEYS] for doc, where in pdfs))
    sizes = list(map(len, lws))
    lw, mu, cv = list(chain.from_iterable(lws)), _rows(mus, 4), _rows(cvs, 16)
    shaped = (
        mu is not None and cv is not None and 0 not in sizes
        and list(map(len, mus)) == sizes == list(map(len, cvs))
        and all(set(map(type, a)) <= _REAL for a in (lw, mu, cv))
    )
    try:
        numbers = np.array(lw + mu + cv, dtype=float) if shaped else None
    except OverflowError:  # an int beyond float range
        numbers = None
    if numbers is None:
        for doc, where in pdfs:
            _raise_shape_fault(doc, where)
    numbers.setflags(write=False)
    n = len(lw)
    lw, mu, cv = numbers[:n], numbers[n:5 * n].reshape(n, 4), numbers[5 * n:].reshape(n, 4, 4)
    ends = list(accumulate(sizes))

    def first(bad: np.ndarray) -> str:
        """The field path of the mixture holding the first bad component."""
        return pdfs[bisect_right(ends, bad.argmax())][1]

    if not np.isfinite(numbers[n:]).all():
        finite = np.isfinite(mu).all(axis=1) & np.isfinite(cv).all(axis=(1, 2))
        raise ValueError(f"{first(~finite)}: mixture parameters must be finite")
    below_inf = lw < np.inf  # False for NaN too
    if not below_inf.all():
        raise ValueError(f"{first(~below_inf)}: log weights must be < inf and not NaN")
    try:
        check_pd(cv)  # of the symmetrized covariances
    except ValueError:  # not positive definite, or eigenvalues that did not converge
        for (_, where), k, b in zip(pdfs, sizes, ends):
            try:
                check_pd(cv[b - k:b])  # its message gives this mixture's eigenvalue range
            except ValueError as e:
                raise ValueError(f"{where}.covariances: {e}") from None
    cv = symmetrize(cv)
    cv.setflags(write=False)
    return [GaussianMixture(lw[b - k:b], mu[b - k:b], cv[b - k:b]) for k, b in zip(sizes, ends)]


def _label(value, where: str) -> Label:
    """The label a wire [k, i] pair names: integers (not bools), birth step
    k >= 0 and index i >= 1."""
    if type(value) is list and len(value) == 2:
        k, i = value
        if type(k) is int and type(i) is int and k >= 0 and i >= 1:
            return (k, i)
    raise ValueError(f"{where}: label {value!r} is not a pair [k, i] of integers with k >= 0 and i >= 1")


def density_from_dict(doc: dict) -> LmbDensity | MdGlmbDensity:
    """Decode and check a density document; the only way a density enters
    from outside. A malformed document raises a ValueError naming the
    field. The mixtures are checked together (`_mixtures`), and the decoded
    density then passes `check_density`."""
    if _field(doc, "schema", "document") != SCHEMA:
        raise ValueError(f"unknown schema {doc['schema']!r}")
    kind = _field(doc, "kind", "document")
    if kind == "lmb":
        labels, existences, pdfs = [], [], []
        for i, e in enumerate(_field(doc, "entries", "document", list)):
            w = f"entries[{i}]"
            labels.append(_label(_field(e, "label", w), w))
            pdfs.append((_field(e, "pdf", w), f"{w}.pdf"))
            existences.append(_existence(_number(e, "existence", w)))
        d = LmbDensity(tuple(map(LmbEntry, labels, existences, _mixtures(pdfs))))
    elif kind == "mdglmb":
        heads, pdfs = [], []
        for i, h in enumerate(_field(doc, "hypotheses", "document", list)):
            w = f"hypotheses[{i}]"
            labels = tuple(sorted(_label(l, f"{w}.labels") for l in _field(h, "labels", w, list)))
            tracks = _field(h, "tracks", w, list)
            by_label = {}
            for j, t in enumerate(tracks):
                tw = f"{w}.tracks[{j}]"
                by_label[_label(_field(t, "label", tw), tw)] = (_field(t, "pdf", tw), f"{tw}.pdf")
            if len(tracks) != len(labels) or any(l not in by_label for l in labels):
                raise ValueError(f"{w}.tracks do not hold one track for each label of {labels}")
            heads.append((labels, _number(h, "log_weight", w)))
            pdfs.extend(by_label[l] for l in labels)
        mixtures = iter(_mixtures(pdfs))
        d = MdGlmbDensity(tuple(
            MdGlmbHypothesis(labels, log_weight, tuple(next(mixtures) for _ in labels)) for labels, log_weight in heads
        ))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    check_density(d)
    return d


def density_from_json(text: str | bytes) -> LmbDensity | MdGlmbDensity:
    """Decode and check a JSON document, given as text or as its UTF-8
    bytes (the payload `exchange_bytes_actual` builds)."""
    return density_from_dict(json.loads(text))


FLOATS_PER_TRACK = 4 + 10  # mean + upper-triangle covariance of a 4-D Gaussian


def exchange_bytes_reference(d: LmbDensity | MdGlmbDensity) -> int:
    """Nominal per-broadcast byte count at 4 bytes per float."""
    if isinstance(d, LmbDensity):
        return 4 * (1 + FLOATS_PER_TRACK * len(d.entries))
    if isinstance(d, MdGlmbDensity):
        return 4 * sum(1 + FLOATS_PER_TRACK * len(h.label_set) for h in d.hypotheses)
    raise TypeError(f"cannot size {type(d).__name__}")


def exchange_bytes_actual(d: LmbDensity | MdGlmbDensity) -> bytes:
    """The UTF-8 JSON payload a node sends in a consensus round: its
    length is the actual byte count, and its decode is what the neighbours
    fuse."""
    return density_to_json(d).encode("utf-8")
