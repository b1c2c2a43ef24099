"""Extension: the automated malicious-WPN detector (paper's future work).

Trains logistic regression on PushAdMiner's own confirmed labels and
evaluates against held-out ground truth — the "starting point for an
automated malicious WPN ad campaign detector" section 6.3.3 proposes.
"""

from conftest import paper_vs_measured

from repro.core.detector import MaliciousWpnDetector, train_test_split


def test_detector_train_eval(bench_result):
    malicious = (
        bench_result.labeling.confirmed_malicious_ids
        | bench_result.suspicion.confirmed_malicious_ids
    )
    train, test = train_test_split(bench_result.records, 0.3, seed=0)

    detector = MaliciousWpnDetector().fit(train, malicious)
    metrics = detector.evaluate(test)

    paper_vs_measured("Detector (future work)", [
        ("training WPNs (pipeline labels)", "n/a", len(train)),
        ("held-out WPNs (ground truth)", "n/a", len(test)),
        ("precision", "(proposed)", f"{metrics.precision:.3f}"),
        ("recall", "(proposed)", f"{metrics.recall:.3f}"),
        ("F1", "(proposed)", f"{metrics.f1:.3f}"),
        ("AUC", "(proposed)", f"{metrics.auc:.3f}"),
    ])

    weights = sorted(
        detector.feature_weights().items(), key=lambda kv: -abs(kv[1])
    )
    print("\ntop detector features:")
    for name, weight in weights[:6]:
        print(f"    {name:28s} {weight:+.3f}")

    assert metrics.auc > 0.85
    assert metrics.f1 > 0.6
