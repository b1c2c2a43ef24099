"""Scenario configuration: every knob of the simulated measurement.

``paper_scenario(scale)`` returns the calibration used throughout the
benchmarks: Table 1's per-network URL populations shrunk by ``scale``, with
every *rate* (NPR rate, active-notifier rate, click-validity, blocklist
coverage, ...) kept at the paper's empirical value, so that all measured
fractions should land near the paper's regardless of scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class ScenarioConfig:
    """All generator + crawler + labeling parameters for one experiment."""

    seed: int = 7
    scale: float = 0.125            # Table 1 URL populations multiplier
    study_days: int = 60            # Sep-Oct 2019 in the paper

    # --- seeding / website population -------------------------------
    publisher_share_of_npr: float = 0.80   # NPR sites embedding ad networks
    double_permission_rate: float = 0.05   # JS pre-prompt (rare in 2019 data)
    ranked_fraction: float = 0.36          # Table 2: share in Alexa top 1M

    # --- push behaviour ----------------------------------------------
    active_notifier_rate: float = 0.35     # NPR sites that ever send a WPN
    mean_messages_per_sub: float = 7.0     # WPNs per active desktop sub
    mean_alert_messages: float = 4.0       # WPNs per active alert-site sub
    alert_repeat_rate: float = 0.3         # sites resend identical alerts
                                           # (the WPN-C3 pattern: 4 identical
                                           # bank loan messages from one site)
    first_latency_median_min: float = 3.0  # pilot: 98% arrive within 15 min
    first_latency_sigma: float = 0.75      # lognormal sigma (in log-minutes);
                                           # P(latency < 15 min) ~ 0.98

    # --- campaign population -----------------------------------------
    n_malicious_operations: int = 22
    campaigns_per_operation: Tuple[int, int] = (2, 6)   # inclusive range
    n_benign_ad_campaigns: int = 60

    # --- click / landing behaviour ------------------------------------
    desktop_valid_click_rate: float = 0.77   # 9,570 / 12,441
    mobile_valid_click_rate: float = 0.296   # 2,692 / 9,100
    landing_npr_rate: float = 0.19           # click-found URLs that prompt
    click_delay_min: float = 0.05            # auto-click delay (a few seconds)

    # --- mobile crawl ---------------------------------------------------
    mobile_visit_fraction: float = 0.75      # seed URLs also crawled on mobile
    mobile_message_factor: float = 0.73      # 9,100 / 12,441 per-sub volume
    emulator_malicious_penalty: float = 0.15 # malicious campaigns withhold
                                             # payloads from emulated devices

    # --- blocklists -----------------------------------------------------
    vt_early_rate: float = 0.035    # malicious URL flagged on first scan
    vt_late_rate: float = 0.50      # ... and one month later
    gsb_rate: float = 0.03          # GSB coverage (stayed ~1% of all URLs)
    vt_benign_fp_rate: float = 0.004
    vt_engines: int = 70

    # --- crawl session policy (paper section 6.1.2) ---------------------
    permission_wait_min: float = 5.0
    live_window_min: float = 15.0
    resume_every_min: float = 720.0   # periodic container resume (12 h)
    resume_window_min: float = 10.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.study_days <= 0:
            raise ValueError("study_days must be positive")
        lo, hi = self.campaigns_per_operation
        if lo < 1 or hi < lo:
            raise ValueError("campaigns_per_operation must be a valid range")
        for name in (
            "publisher_share_of_npr", "double_permission_rate", "ranked_fraction",
            "active_notifier_rate", "desktop_valid_click_rate",
            "mobile_valid_click_rate", "landing_npr_rate",
            "mobile_visit_fraction", "vt_early_rate", "vt_late_rate",
            "gsb_rate", "vt_benign_fp_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def study_minutes(self) -> float:
        return self.study_days * 24 * 60.0

    def scaled(self, count: int) -> int:
        """A paper count shrunk by ``scale`` (at least 0)."""
        return int(round(count * self.scale))


def paper_scenario(seed: int = 7, scale: float = 0.125) -> ScenarioConfig:
    """The default calibration reproducing the paper's September-October
    2019 measurement at ``scale`` of its URL population."""
    # Campaign population scales with the URL population so the ratio of
    # campaign size to source diversity stays roughly constant.
    n_ops = max(4, int(round(22 * (scale / 0.125))))
    n_benign = max(8, int(round(60 * (scale / 0.125))))
    return ScenarioConfig(
        seed=seed,
        scale=scale,
        n_malicious_operations=n_ops,
        n_benign_ad_campaigns=n_benign,
    )
