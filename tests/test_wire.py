import math
import re

import numpy as np
import pytest

from distmot.densities import LmbDensity, LmbEntry, MdGlmbDensity, MdGlmbHypothesis
from distmot.wire import (
    density_from_dict,
    density_from_json,
    density_to_dict,
    density_to_json,
    exchange_bytes_actual,
    exchange_bytes_reference,
)
from reference import Gaussian, gm_from_components

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
    assert exchange_bytes_actual(d) == density_to_json(d).encode()


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


def lmb_doc():
    return density_to_dict(LmbDensity((LmbEntry(L1, 0.09, gm4(0)),)))


def mdglmb_doc():
    return density_to_dict(MdGlmbDensity.from_unnormalized([
        MdGlmbHypothesis((), math.log(0.4), ()),
        MdGlmbHypothesis((L1, L2), math.log(0.6), (gm4(2), gm4(3))),
    ]))


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _delete(path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _append_first_track(doc):
    tracks = doc["hypotheses"][1]["tracks"]
    tracks.append(tracks[0])


# (base document, edit, the field the error must name)
MALFORMED = {
    "top_level_list": (list, lambda doc: None, "document is not an object"),
    "missing_kind": (lmb_doc, _delete(["kind"]), "document has no 'kind'"),
    "entries_null": (lmb_doc, _set(["entries"], None), "document.entries is not a list"),
    "entry_not_object": (lmb_doc, _set(["entries", 0], 5), "entries[0] is not an object"),
    "string_existence": (lmb_doc, _set(["entries", 0, "existence"], "0.5"), "entries[0].existence is not a number"),
    "bool_existence": (lmb_doc, _set(["entries", 0, "existence"], True), "entries[0].existence is not a number"),
    "missing_means": (lmb_doc, _delete(["entries", 0, "pdf", "means"]), "entries[0].pdf has no 'means'"),
    "string_means": (lmb_doc, _set(["entries", 0, "pdf", "means"], [["0"] * 4] * 2), "entries[0].pdf.means is not a list of numbers"),
    "bool_in_means": (lmb_doc, _set(["entries", 0, "pdf", "means", 0, 0], True), "entries[0].pdf.means is not a list of numbers"),
    "ragged_covariances": (lmb_doc, _set(["entries", 0, "pdf", "covariances"], [[1.0] * 16, [1.0] * 3]), "entries[0].pdf.covariances is not a list of numbers"),
    "covariance_size": (lmb_doc, _set(["entries", 0, "pdf", "covariances"], [[1.0] * 9] * 2), "entries[0].pdf: cannot reshape"),
    "negative_variance": (lmb_doc, _set(["entries", 0, "pdf", "covariances", 1, 0], -1.0), "entries[0].pdf.covariances: covariance is not positive-definite"),
    "overflowing_covariance": (lmb_doc, _set(["entries", 0, "pdf", "covariances", 1, 0], 1.5e308), "entries[0].pdf.covariances: covariance is not positive-definite"),
    "state_2d": (lmb_doc, _set(["entries", 0, "pdf"], {"log_weights": [0.0], "means": [[0.0, 0.0]], "covariances": [[1.0, 0.0, 0.0, 1.0]]}), "entries[0].pdf.means: shape (1, 2) is not (1, 4)"),
    "empty_pdf": (lmb_doc, _set(["entries", 0, "pdf"], {"log_weights": [], "means": [], "covariances": []}), "entries[0].pdf: a mixture needs at least one component"),
    "nan_mean": (lmb_doc, _set(["entries", 0, "pdf", "means", 0, 2], float("nan")), "entries[0].pdf: mixture parameters must be finite"),
    "inf_covariance": (lmb_doc, _set(["entries", 0, "pdf", "covariances", 1, 5], float("inf")), "entries[0].pdf: mixture parameters must be finite"),
    "nan_log_weight": (lmb_doc, _set(["entries", 0, "pdf", "log_weights", 0], float("nan")), "entries[0].pdf: log weights must be < inf and not NaN"),
    "inf_log_weight": (lmb_doc, _set(["entries", 0, "pdf", "log_weights", 1], float("inf")), "entries[0].pdf: log weights must be < inf and not NaN"),
    "missing_hypotheses": (mdglmb_doc, _delete(["hypotheses"]), "document has no 'hypotheses'"),
    "missing_log_weight": (mdglmb_doc, _delete(["hypotheses", 1, "log_weight"]), "hypotheses[1] has no 'log_weight'"),
    "string_log_weight": (mdglmb_doc, _set(["hypotheses", 0, "log_weight"], "0"), "hypotheses[0].log_weight is not a number"),
    "huge_log_weight": (mdglmb_doc, _set(["hypotheses", 0, "log_weight"], 10**400), "hypotheses[0].log_weight is not a number"),
    "track_missing": (mdglmb_doc, lambda doc: doc["hypotheses"][1]["tracks"].pop(), "hypotheses[1].tracks do not hold one track for each label of ((2, 1), (3, 1))"),
    "extra_track": (mdglmb_doc, _append_first_track, "hypotheses[1].tracks do not hold one track for each label of ((2, 1), (3, 1))"),
    "track_not_object": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 0], []), "hypotheses[1].tracks[0] is not an object"),
    "track_label": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 0, "label"], [2]), "hypotheses[1].tracks[0]: label [2]"),
    # a density's mixtures are checked together: the error names the one at fault
    "second_track_bool": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 1, "pdf", "log_weights", 1], False), "hypotheses[1].tracks[1].pdf.log_weights is not a list of numbers"),
    "second_track_state_2d": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 1, "pdf", "means", 1], [0.0, 0.0]), "hypotheses[1].tracks[1].pdf.means is not a list of numbers"),
    "second_track_nan_mean": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 1, "pdf", "means", 1, 3], float("nan")), "hypotheses[1].tracks[1].pdf: mixture parameters must be finite"),
    "second_track_inf_log_weight": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 1, "pdf", "log_weights", 1], float("inf")), "hypotheses[1].tracks[1].pdf: log weights must be < inf and not NaN"),
    "second_track_not_pd": (mdglmb_doc, _set(["hypotheses", 1, "tracks", 1, "pdf", "covariances", 1, 0], -1.0), "hypotheses[1].tracks[1].pdf.covariances: covariance is not positive-definite"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_document_names_field(name):
    make, edit, field = MALFORMED[name]
    doc = make()
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(field)):
        density_from_dict(doc)


def test_not_pd_error_gives_the_faulty_mixtures_eigenvalues():
    doc = mdglmb_doc()
    doc["hypotheses"][1]["tracks"][1]["pdf"]["covariances"][1][0] = -1.0
    single = {"schema": doc["schema"], "kind": "lmb", "entries": [{"label": [3, 1], "existence": 0.5, "pdf": doc["hypotheses"][1]["tracks"][1]["pdf"]}]}
    with pytest.raises(ValueError) as alone:
        density_from_dict(single)
    with pytest.raises(ValueError) as together:
        density_from_dict(doc)
    assert str(alone.value).split(": ", 1)[1] == str(together.value).split(": ", 1)[1]


def test_payload_bytes_decode():
    d = LmbDensity((LmbEntry(L1, 0.09, gm4(0)),))
    back = density_from_json(exchange_bytes_actual(d))
    assert back.labels == d.labels and np.array_equal(back.entries[0].pdf.covs, d.entries[0].pdf.covs)
