"""Property-based tests for the text model, metrics, and persistence."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import rank_auc
from repro.core.records import WpnRecord, WpnTruth
from repro.core.textsim import SoftCosineModel
from repro.io import record_from_dict, record_to_dict

token = st.text(alphabet="abcdefg", min_size=1, max_size=5)
document = st.lists(token, min_size=1, max_size=8)
corpus_strategy = st.lists(document, min_size=2, max_size=12)


class TestTextSimProperties:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(corpus_strategy)
    def test_similarity_matrix_invariants(self, corpus):
        model = SoftCosineModel(dimensions=4).fit(corpus)
        sim = model.similarity_matrix(corpus)
        assert sim.shape == (len(corpus), len(corpus))
        assert np.allclose(sim, sim.T, atol=1e-9)
        assert (sim >= -1e-9).all() and (sim <= 1.0 + 1e-9).all()
        assert np.allclose(np.diag(sim), 1.0)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(corpus_strategy, st.integers(0, 10))
    def test_duplicate_documents_are_identical(self, corpus, position):
        index = position % len(corpus)
        corpus = corpus + [list(corpus[index])]
        model = SoftCosineModel(dimensions=4).fit(corpus)
        sim = model.similarity_matrix(corpus)
        assert sim[index, -1] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(corpus_strategy)
    def test_distance_complements_similarity(self, corpus):
        model = SoftCosineModel(dimensions=4).fit(corpus)
        dist = model.distance_matrix(corpus)
        assert (dist >= 0).all() and (dist <= 1.0 + 1e-9).all()
        assert np.allclose(np.diag(dist), 0.0)


class TestAucProperties:
    scores = st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=40)

    @settings(max_examples=50)
    @given(scores, st.integers(0, 2**30))
    def test_bounds(self, score_list, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=len(score_list))
        auc = rank_auc(np.array(score_list), labels)
        assert 0.0 <= auc <= 1.0

    @settings(max_examples=50)
    @given(scores, st.integers(0, 2**30))
    def test_complement_symmetry(self, score_list, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=len(score_list))
        if labels.sum() in (0, len(labels)):
            return
        forward = rank_auc(np.array(score_list), labels)
        flipped = rank_auc(-np.array(score_list), labels)
        assert forward + flipped == pytest.approx(1.0, abs=1e-9)


_text = st.text(alphabet="abc XYZ!?", min_size=0, max_size=20)


class TestIoProperties:
    @settings(max_examples=40)
    @given(
        _text, _text,
        st.sampled_from(["desktop", "mobile"]),
        st.booleans(),
        st.floats(0, 1e5, allow_nan=False),
    )
    def test_round_trip(self, title, body, platform, malicious, sent_at):
        record = WpnRecord(
            wpn_id="wpn0000001",
            platform=platform,
            source_url="https://www.src.com/",
            network_name=None if malicious else "Ad-Maven",
            sw_script_url="https://www.src.com/sw.js",
            title=title,
            body=body,
            icon_url="https://www.src.com/icons/x.png",
            sent_at_min=sent_at,
            shown_at_min=sent_at + 1.0,
            clicked_at_min=sent_at + 1.1,
            valid=True,
            landing_url="https://land.xyz/p?x=1",
            redirect_hops=("https://land.xyz/p?x=1",),
            visual_hash="vh",
            landing_ip="1.2.3.4",
            landing_registrant="r@x",
            truth=WpnTruth(
                kind="ad", family_name="survey_scam", category="survey scam",
                campaign_id="cmp00001", operation_id=None,
                malicious=malicious, is_one_off=False,
            ),
        )
        assert record_from_dict(record_to_dict(record)) == record
