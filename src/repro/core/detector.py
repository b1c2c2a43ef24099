"""Automated malicious-WPN detector (the paper's proposed future work).

Section 6.3.3: *"our current system is not designed to be an automatic
malicious WPN ad detection system. In our future work, we plan to leverage
the lessons learned ... to investigate how malicious WPN messages can be
accurately detected and blocked in real time."*

This module builds that detector from the measurement pipeline's output:

* **features** — per-WPN observables only (message text statistics, scam
  keywords, landing-domain lexical shape, TLD reputation, redirect-chain
  shape, URL-path shape); no generator ground truth is ever read;
* **model** — L2-regularized logistic regression, implemented from scratch
  on numpy (full-batch gradient descent with feature standardization);
* **supervision** — the intended workflow trains on PushAdMiner's own
  confirmed-malicious labels (what the authors would have exported), and
  evaluates against held-out ground truth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.campaigns import WpnCluster
from repro.core.records import WpnRecord
from repro.util.textproc import tokenize_text
from repro.util.domains import SHADY_TLDS

_SCAM_KEYWORDS = (
    "won", "win", "winner", "prize", "claim", "congratulations", "leaked",
    "infected", "virus", "verify", "locked", "limited", "selected", "free",
    "reward", "urgent", "expires", "hold", "unclaimed", "jackpot",
)

_DIGIT_RE = re.compile(r"\d")

FEATURE_NAMES: Tuple[str, ...] = (
    "scam_keyword_hits",
    "title_has_count_marker",      # "(1) Missed call" style
    "text_exclamations",
    "text_length_tokens",
    "text_digit_tokens",
    "landing_tld_shady",
    "landing_domain_hyphens",
    "landing_domain_digits",
    "landing_domain_length",
    "redirect_hops",
    "path_depth",
    "query_param_count",
    "path_has_php",
    "query_has_affiliate_param",
    "crossed_origin",              # landing eTLD+1 != source eTLD+1
    "page_credential_or_payment_form",
    "page_pressure_elements",      # countdown / popup loop / fake scan
    "page_phone_number",
)

#: Landing-page elements that collect credentials or payment details.
_HARVEST_SIGNALS = frozenset(
    {"credential-form", "payment-form", "investment-form"}
)
#: Pressure/urgency elements typical of scam landing pages.
_PRESSURE_SIGNALS = frozenset(
    {"countdown-timer", "fullscreen-popup-loop", "fake-scan-animation",
     "prize-wheel"}
)


def extract_detector_features(record: WpnRecord) -> List[float]:
    """Handcrafted, fully-observable features for one valid WPN."""
    landing = record.landing
    if landing is None:
        raise ValueError("detector features need a valid landing page")

    text = record.text.lower()
    tokens = tokenize_text(text)
    domain = landing.host
    params = [name for name, _ in landing.query_params()]
    path_parts = [p for p in landing.path.split("/") if p]
    tld = domain.rsplit(".", 1)[-1]

    return [
        float(sum(1 for k in _SCAM_KEYWORDS if k in text)),
        1.0 if re.match(r"^\(\d+\)", record.title) else 0.0,
        float(record.title.count("!") + record.body.count("!")),
        float(len(tokens)),
        float(sum(1 for t in tokens if _DIGIT_RE.search(t))),
        1.0 if tld in SHADY_TLDS else 0.0,
        float(domain.count("-")),
        1.0 if _DIGIT_RE.search(domain) else 0.0,
        float(len(domain)),
        float(len(record.redirect_hops)),
        float(len(path_parts)),
        float(len(params)),
        1.0 if landing.path.endswith(".php") else 0.0,
        1.0 if any(p in ("aff", "sub", "src", "ref", "uid") for p in params) else 0.0,
        1.0 if record.landing_etld1 != record.source_etld1 else 0.0,
        1.0 if set(record.page_signals) & _HARVEST_SIGNALS else 0.0,
        1.0 if set(record.page_signals) & _PRESSURE_SIGNALS else 0.0,
        1.0 if "support-phone-number" in record.page_signals else 0.0,
    ]


def feature_matrix(records: Sequence[WpnRecord]) -> np.ndarray:
    """(n, d) feature matrix over valid records."""
    return np.array([extract_detector_features(r) for r in records], dtype=np.float64)


class LogisticRegression:
    """L2-regularized logistic regression via full-batch gradient descent.

    Small, dependency-free, and deterministic; inputs are standardized
    internally (the statistics learned at fit time are reused at predict
    time).
    """

    def __init__(
        self,
        l2: float = 1e-3,
        learning_rate: float = 0.5,
        iterations: int = 400,
    ):
        if l2 < 0:
            raise ValueError("l2 must be >= 0")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._mean) / self._std

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Train on features X (n, d) and binary labels y (n,)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise ValueError("X must be (n, d) and y (n,)")
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be binary 0/1")

        self._mean = X.mean(axis=0)
        self._std = X.std(axis=0)
        self._std[self._std == 0.0] = 1.0
        Z = self._standardize(X)

        n, d = Z.shape
        self.weights = np.zeros(d)
        self.bias = 0.0
        for _ in range(self.iterations):
            logits = Z @ self.weights + self.bias
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
            error = probs - y
            grad_w = Z.T @ error / n + self.l2 * self.weights
            grad_b = float(error.mean())
            self.weights -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(malicious) per row."""
        if self.weights is None:
            raise RuntimeError("model is not fitted")
        Z = self._standardize(np.asarray(X, dtype=np.float64))
        logits = Z @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(np.int64)


@dataclass
class DetectionMetrics:
    """Binary classification quality on an evaluation set."""

    tp: int
    fp: int
    tn: int
    fn: int
    auc: float

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else 0.0


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC AUC via the rank-sum (Mann-Whitney) formulation, tie-aware."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    position = 1.0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        mean_rank = (position + position + (j - i)) / 2.0
        ranks[order[i : j + 1]] = mean_rank
        position += j - i + 1
        i = j + 1
    positive_rank_sum = float(ranks[labels == 1].sum())
    u = positive_rank_sum - positives * (positives + 1) / 2.0
    return u / (positives * negatives)


def compute_metrics(
    scores: np.ndarray, predictions: np.ndarray, labels: np.ndarray
) -> DetectionMetrics:
    labels = np.asarray(labels).astype(bool)
    predictions = np.asarray(predictions).astype(bool)
    return DetectionMetrics(
        tp=int((predictions & labels).sum()),
        fp=int((predictions & ~labels).sum()),
        tn=int((~predictions & ~labels).sum()),
        fn=int((~predictions & labels).sum()),
        auc=rank_auc(scores, labels.astype(int)),
    )


class MaliciousWpnDetector:
    """Train-on-pipeline-labels, evaluate-against-truth detector."""

    def __init__(self, l2: float = 1e-3, iterations: int = 400):
        self.model = LogisticRegression(l2=l2, iterations=iterations)

    def fit(
        self,
        records: Sequence[WpnRecord],
        malicious_ids: Set[str],
    ) -> "MaliciousWpnDetector":
        """Train from a record corpus and the pipeline's malicious id set."""
        X = feature_matrix(records)
        y = np.array([1.0 if r.wpn_id in malicious_ids else 0.0 for r in records])
        self.model.fit(X, y)
        return self

    def score(self, records: Sequence[WpnRecord]) -> np.ndarray:
        return self.model.predict_proba(feature_matrix(records))

    def evaluate(
        self, records: Sequence[WpnRecord], threshold: float = 0.5
    ) -> DetectionMetrics:
        """Evaluate against generator ground truth (held-out records)."""
        scores = self.score(records)
        predictions = scores >= threshold
        labels = np.array([r.truth.malicious for r in records], dtype=int)
        return compute_metrics(scores, predictions, labels)

    def feature_weights(self) -> Dict[str, float]:
        """Learned weight per named feature (standardized space)."""
        if self.model.weights is None:
            raise RuntimeError("detector is not fitted")
        return dict(zip(FEATURE_NAMES, self.model.weights.tolist()))


def train_test_split(
    records: Sequence[WpnRecord], test_fraction: float = 0.3, seed: int = 0
) -> Tuple[List[WpnRecord], List[WpnRecord]]:
    """Deterministic split keyed by record id (stable across runs)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    import hashlib

    train: List[WpnRecord] = []
    test: List[WpnRecord] = []
    for record in records:
        digest = hashlib.blake2b(
            f"{seed}|{record.wpn_id}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        (test if draw < test_fraction else train).append(record)
    return train, test


# ----------------------------------------------------------------------
# Campaign-level detection (clusters, not messages)
# ----------------------------------------------------------------------
CAMPAIGN_FEATURE_NAMES: Tuple[str, ...] = tuple(
    f"mean_{name}" for name in FEATURE_NAMES
) + (
    "cluster_size",
    "n_source_domains",
    "n_landing_domains",
    "landing_domains_per_message",
    "distinct_titles_ratio",
)


def extract_campaign_features(cluster: WpnCluster) -> List[float]:
    """Aggregate features for one WPN cluster (a candidate campaign).

    Mean of the per-message detector features plus structural signals the
    paper's suspicion rules rely on: source diversity and landing-domain
    rotation ("duplicate ads").
    """
    records = [r for r in cluster.records if r.valid]
    if not records:
        raise ValueError("campaign features need at least one valid record")
    per_message = np.array([extract_detector_features(r) for r in records])
    titles = {r.title for r in records}
    return per_message.mean(axis=0).tolist() + [
        float(len(records)),
        float(len(cluster.source_etld1s)),
        float(len(cluster.landing_etld1s)),
        float(len(cluster.landing_etld1s)) / len(records),
        len(titles) / len(records),
    ]


class MaliciousCampaignDetector:
    """Classify whole WPN clusters as malicious campaigns.

    The paper's closing proposal is a *campaign*-level detector; this one
    trains on the pipeline's malicious-campaign labels and is evaluated
    against ground truth (a cluster is truly malicious if any member is).
    """

    def __init__(self, l2: float = 1e-3, iterations: int = 400):
        self.model = LogisticRegression(l2=l2, iterations=iterations)

    @staticmethod
    def _matrix(clusters: Sequence[WpnCluster]) -> np.ndarray:
        return np.array(
            [extract_campaign_features(c) for c in clusters], dtype=np.float64
        )

    def fit(
        self, clusters: Sequence[WpnCluster], malicious_cluster_ids: Set[int]
    ) -> "MaliciousCampaignDetector":
        X = self._matrix(clusters)
        y = np.array(
            [1.0 if c.cluster_id in malicious_cluster_ids else 0.0 for c in clusters]
        )
        self.model.fit(X, y)
        return self

    def score(self, clusters: Sequence[WpnCluster]) -> np.ndarray:
        return self.model.predict_proba(self._matrix(clusters))

    def evaluate(
        self, clusters: Sequence[WpnCluster], threshold: float = 0.5
    ) -> DetectionMetrics:
        """Ground truth: a cluster with any truly-malicious member."""
        scores = self.score(clusters)
        predictions = scores >= threshold
        labels = np.array(
            [int(any(r.truth.malicious for r in c.records)) for c in clusters]
        )
        return compute_metrics(scores, predictions, labels)

    def feature_weights(self) -> Dict[str, float]:
        if self.model.weights is None:
            raise RuntimeError("detector is not fitted")
        return dict(zip(CAMPAIGN_FEATURE_NAMES, self.model.weights.tolist()))
