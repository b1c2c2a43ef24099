"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adblock.rules import FilterList, parse_rule
from repro.core.clustering import AgglomerativeClusterer
from repro.core.silhouette import average_silhouette
from repro.core.urlsim import url_path_distance_matrix
from repro.util.graph import UnionFind
from repro.util.rng import RngFactory
from repro.util.textproc import jaccard_distance, tokenize_text, tokenize_url_path
from repro.util.domains import effective_second_level_domain
from repro.util.urls import Url

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
token = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
token_set = st.frozensets(token, max_size=8)

host = st.builds(
    lambda labels, tld: ".".join(labels + [tld]),
    st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=8), min_size=1, max_size=3),
    st.sampled_from(["com", "net", "xyz", "co.uk", "com.au"]),
)


@st.composite
def distance_matrix(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


# ----------------------------------------------------------------------
# Jaccard / URL distance
# ----------------------------------------------------------------------
class TestJaccardProperties:
    @given(token_set, token_set)
    def test_symmetry(self, a, b):
        assert jaccard_distance(set(a), set(b)) == jaccard_distance(set(b), set(a))

    @given(token_set)
    def test_identity(self, a):
        assert jaccard_distance(set(a), set(a)) == 0.0

    @given(token_set, token_set)
    def test_bounds(self, a, b):
        assert 0.0 <= jaccard_distance(set(a), set(b)) <= 1.0

    @given(st.lists(token_set, min_size=1, max_size=10))
    def test_matrix_matches_scalar(self, sets):
        matrix = url_path_distance_matrix(sets)
        for i in range(len(sets)):
            for j in range(len(sets)):
                expected = jaccard_distance(set(sets[i]), set(sets[j]))
                assert matrix[i, j] == pytest.approx(expected, abs=1e-9)


# ----------------------------------------------------------------------
# Union-find
# ----------------------------------------------------------------------
class TestUnionFindProperties:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=40))
    def test_components_partition(self, edges):
        uf = UnionFind(range(21))
        for a, b in edges:
            uf.union(a, b)
        comps = uf.components()
        seen = sorted(x for c in comps for x in c)
        assert seen == list(range(21))

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30))
    def test_union_order_irrelevant(self, edges):
        uf1, uf2 = UnionFind(range(16)), UnionFind(range(16))
        for a, b in edges:
            uf1.union(a, b)
        for a, b in reversed(edges):
            uf2.union(a, b)
        def canon(uf):
            return sorted(tuple(sorted(c)) for c in uf.components())
        assert canon(uf1) == canon(uf2)


# ----------------------------------------------------------------------
# Clustering
# ----------------------------------------------------------------------
class TestClusteringProperties:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix())
    def test_dendrogram_shape(self, dist):
        linkage = AgglomerativeClusterer().fit(dist)
        n = dist.shape[0]
        assert len(linkage.merges) == n - 1
        heights = linkage.heights()
        assert (np.diff(heights) >= -1e-9).all()
        assert heights.min() >= 0.0

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix(), st.floats(min_value=0.0, max_value=1.5))
    def test_cut_monotone_in_threshold(self, dist, t):
        linkage = AgglomerativeClusterer().fit(dist)
        low = linkage.cut(t)
        high = linkage.cut(t + 0.2)
        # Raising the threshold can only merge clusters, never split them.
        assert high.max() <= low.max()
        pairs = [(i, j) for i in range(len(low)) for j in range(i)]
        for i, j in pairs:
            if low[i] == low[j]:
                assert high[i] == high[j]

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix())
    def test_full_cut_single_cluster(self, dist):
        linkage = AgglomerativeClusterer().fit(dist)
        labels = linkage.cut(float(linkage.heights().max()) + 1e-6)
        assert labels.max() == 0

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix(max_n=10), st.integers(0, 1000))
    def test_silhouette_bounds(self, dist, seed):
        n = dist.shape[0]
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, max(2, n // 2), size=n)
        score = average_silhouette(dist, labels)
        assert -1.0 <= score <= 1.0


# ----------------------------------------------------------------------
# URLs and domains
# ----------------------------------------------------------------------
class TestUrlProperties:
    @given(host, st.sampled_from(["/", "/a/b", "/x.php"]),
           st.sampled_from(["", "a=1", "a=1&b=2"]))
    def test_parse_roundtrip(self, h, path, query):
        url = Url(host=h, path=path, query=query)
        assert Url.parse(str(url)) == url

    @given(host)
    def test_etld1_is_suffix(self, h):
        etld1 = effective_second_level_domain(h)
        assert h.endswith(etld1)
        assert effective_second_level_domain(etld1) == etld1

    @given(st.text(alphabet="abcXYZ $!.-", max_size=40))
    def test_tokenize_text_never_crashes(self, text):
        tokens = tokenize_text(text)
        assert all(t == t.lower() for t in tokens)

    @given(st.text(alphabet="abc/-_.?&=", max_size=40))
    def test_tokenize_url_path_never_crashes(self, path):
        if "?" in path:
            path, query = path.split("?", 1)
        else:
            query = ""
        tokens = tokenize_url_path("/" + path, query)
        assert all(tokens)


# ----------------------------------------------------------------------
# Filter rules
# ----------------------------------------------------------------------
class TestFilterRuleProperties:
    @given(st.text(alphabet="abc/|^*$@!=.,", max_size=30))
    def test_parse_never_crashes(self, line):
        parse_rule(line)

    @given(st.lists(st.sampled_from(
        ["/ads/", "||x.com^", "@@/ok/", "! c", "/a$domain=d.com", "/x*y|"]
    ), max_size=6), st.sampled_from(
        ["https://x.com/ads/1", "https://d.com/ok/", "https://other.net/"]
    ))
    def test_filterlist_decision_is_boolean(self, rules, url):
        filters = FilterList.parse("\n".join(rules))
        assert filters.should_block(url) in (True, False)


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
class TestRngProperties:
    @given(st.integers(0, 2**31), st.text(alphabet="abc", min_size=1, max_size=8))
    def test_streams_reproducible(self, seed, name):
        a = RngFactory(seed).stream(name).random()
        b = RngFactory(seed).stream(name).random()
        assert a == b


# ----------------------------------------------------------------------
# Cross-validation against scipy's reference hierarchical clustering
# ----------------------------------------------------------------------
from scipy.cluster.hierarchy import fcluster
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform


class TestAgainstScipy:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix())
    def test_average_linkage_heights_match_scipy(self, dist):
        ours = AgglomerativeClusterer().fit(dist)
        reference = scipy_linkage(squareform(dist, checks=False), method="average")
        assert np.allclose(
            np.sort(ours.heights()), np.sort(reference[:, 2]), atol=1e-9
        )

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(distance_matrix(), st.floats(min_value=0.0, max_value=1.2))
    def test_flat_cuts_match_scipy(self, dist, threshold):
        ours = AgglomerativeClusterer().fit(dist).cut(threshold)
        reference_linkage = scipy_linkage(
            squareform(dist, checks=False), method="average"
        )
        reference = fcluster(reference_linkage, t=threshold, criterion="distance")
        # Same partition (up to label renaming): co-membership must agree.
        n = len(ours)
        for i in range(n):
            for j in range(i):
                assert (ours[i] == ours[j]) == (reference[i] == reference[j])
