"""PushAdMiner's data collection module.

Seeds URLs from the code-search engine, visits each in an isolated
container session (auto-granting notification permissions), waits for push
messages with the paper's suspend/resume policy, auto-clicks every WPN, and
harvests the browser logs into a :class:`~repro.crawler.harvest.WpnDataset`.

One driver runs every crawl: :class:`~repro.crawler.engine.CrawlEngine`.
The desktop Docker farm and the single mobile device are two platform
waves (:class:`~repro.crawler.engine.PlatformWave`) of one engine run;
:func:`~repro.crawler.harvest.run_full_crawl` and the revisit experiment
call the engine directly, and the latency pilot runs single container
sessions at a fixed start time.
"""

from repro.crawler.seeds import SeedDiscovery, SeedRow
from repro.crawler.session import ContainerSession, SessionResult
from repro.crawler.engine import CrawlEngine, CrawlStats, PlatformWave
from repro.crawler.harvest import WpnDataset, run_full_crawl

__all__ = [
    "SeedDiscovery",
    "SeedRow",
    "ContainerSession",
    "SessionResult",
    "CrawlEngine",
    "CrawlStats",
    "PlatformWave",
    "WpnDataset",
    "run_full_crawl",
]
