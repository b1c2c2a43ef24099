"""Wave-structured, sharded crawl engine.

The paper's crawl is embarrassingly parallel — 20-50 Docker containers, one
isolated browser profile per URL — but a naive port of that parallelism
would make the dataset depend on scheduling order. This engine keeps the
fan-out *and* the bytes: the crawl is organized as two waves (seed URLs,
then click-discovered landing URLs), each wave is split into static shards
of :class:`SessionJob`\\ s, and every shard runs the same pure kernel
(:func:`run_session_tile`) on a :class:`repro.perf.plan.ExecutionPlan`.

Determinism contract, in order of the machinery that enforces it:

1. **Sessions are order-independent pure kernels.** A
   :class:`~repro.crawler.session.ContainerSession` derives its RNG stream,
   FCM namespace, and WPN ids from ``(seed, platform, url)`` — never from
   shared counters or a scheduler-wide ``random.Random`` — so a session's
   output is a function of what it visits, not of when or where it runs.
   A visit without a permission prompt is fully determined by its site:
   it builds no browser and draws nothing, not even a start time, so a
   crawl costs what its prompting sites yield.
2. **Shards are static.** :func:`repro.perf.plan.row_tiles` splits each
   wave by ``(n_jobs, shard_size)`` only; worker count never changes the
   split, and the plan reduces shard results in tile-index order.
3. **Waves are barriers.** Wave 2's job list is derived from *all* of wave
   1's results at once: leads are walked in canonical (seed-order) result
   order, deduplicated first-wins per URL, filtered against seed and
   already-claimed domains, and the materialized jobs sorted by URL. Every
   attribute of a discovered site comes from a keyed stream named by
   ``(platform, url)``.

Together these make the assembled per-platform results — and everything
downstream of them — bit-identical for any ``workers``/``shard_size``
combination, which ``tests/crawler/test_parallel_crawl.py`` locks down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crawler.session import ContainerSession, LandingLead, SessionResult
from repro.obs import Tracer
from repro.perf.plan import ExecutionPlan, Tile
from repro.util.rng import RngFactory
from repro.util.urls import Url
from repro.webenv.content import ALERT_FAMILIES
from repro.webenv.generator import WebEcosystem
from repro.webenv.website import Website, publisher_page_source

#: Sessions per shard. Small enough that a scaled-down crawl still yields
#: several shards per worker (load balance), large enough that one result
#: pickle amortizes a few sessions' work.
DEFAULT_SHARD_SIZE = 8


@dataclass
class CrawlStats:
    """Aggregate counters the measurement sections report.

    Every field is a sum of per-session contributions (or a wave-planning
    count), so accumulation commutes and the totals are independent of the
    order sessions actually executed in.
    """

    visited_urls: int = 0
    npr_urls: int = 0
    granted_urls: int = 0
    registered_sw_urls: int = 0
    discovered_landing_urls: int = 0
    second_wave_urls: int = 0
    notifications_collected: int = 0
    notifications_valid: int = 0
    live_deliveries: int = 0
    queued_deliveries: int = 0

    #: Delivery latency above which a notification is considered to have
    #: waited in the FCM queue for a container resume (matches
    #: :func:`repro.core.timeline.timeline_report`).
    QUEUE_THRESHOLD_MIN = 1.0

    def absorb(self, result: SessionResult) -> None:
        """Fold one session's counters into the totals."""
        self.visited_urls += 1
        if result.requested_permission:
            self.npr_urls += 1
            self.granted_urls += 1  # crawler auto-grants every prompt
        if result.subscriptions:
            self.registered_sw_urls += 1
        self.notifications_collected += len(result.records)
        self.notifications_valid += sum(1 for r in result.records if r.valid)
        for record in result.records:
            if record.delivery_latency_min > CrawlStats.QUEUE_THRESHOLD_MIN:
                self.queued_deliveries += 1
            else:
                self.live_deliveries += 1


@dataclass(frozen=True)
class SessionJob:
    """One container session's full specification, fixed before execution."""

    site: Website
    platform: str
    start_min: float
    emulated: bool = False


@dataclass(frozen=True)
class WaveOperands:
    """Shared read-only operands one wave's shards all see."""

    ecosystem: WebEcosystem
    jobs: Tuple[SessionJob, ...]


def run_session_tile(
    operands: WaveOperands, tile: Tile
) -> List[SessionResult]:
    """Pure shard kernel: run each job's container session, in job order.

    Every session derives its RNG stream, FCM broker namespace, and WPN ids
    from ``(seed, platform, url)`` (see :class:`ContainerSession`),
    so neither shard boundaries nor worker placement can influence a single
    byte of the results.
    """
    out: List[SessionResult] = []
    for job in operands.jobs[tile.start : tile.stop]:
        session = ContainerSession(
            ecosystem=operands.ecosystem,
            site=job.site,
            platform=job.platform,
            start_min=job.start_min,
            emulated=job.emulated,
        )
        out.append(session.run())
    return out


@dataclass(frozen=True)
class PlatformWave:
    """One platform's slice of a crawl wave: its sites and browser mode."""

    platform: str
    sites: Tuple[Website, ...]
    emulated: bool = False

    def __post_init__(self) -> None:
        if self.platform not in ("desktop", "mobile"):
            raise ValueError(f"unknown platform: {self.platform!r}")


@dataclass
class PlatformCrawl:
    """Everything one platform's crawl produced, in canonical order."""

    results: List[SessionResult] = field(default_factory=list)
    stats: CrawlStats = field(default_factory=CrawlStats)


class CrawlEngine:
    """Runs crawl waves as static shards over an execution plan.

    ``workers=1`` (the default) runs shards serially in-process and never
    touches multiprocessing; ``workers>1`` fans shards out to a process
    pool with the ecosystem broadcast once per worker. Both produce
    bit-identical :class:`PlatformCrawl` outputs. Desktop and mobile jobs
    share the same waves, so with ``workers>1`` the two platforms crawl
    concurrently.
    """

    def __init__(
        self,
        ecosystem: WebEcosystem,
        workers: int = 1,
        shard_size: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.ecosystem = ecosystem
        self.workers = workers
        self.shard_size = shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------
    def crawl(self, waves: Sequence[PlatformWave]) -> Dict[str, PlatformCrawl]:
        """Run wave 1 (given sites) and wave 2 (discovered landings).

        Results per platform come back in canonical order: wave-1 jobs in
        the order their sites were given, then wave-2 jobs sorted by URL.
        """
        platforms = [wave.platform for wave in waves]
        if len(set(platforms)) != len(platforms):
            raise ValueError(f"duplicate platforms in waves: {platforms}")
        outcomes: Dict[str, PlatformCrawl] = {
            wave.platform: PlatformCrawl() for wave in waves
        }

        wave1_jobs = self._seed_jobs(waves)
        wave1_results = self._run_wave("crawl.wave1", wave1_jobs)
        self._fold(wave1_jobs, wave1_results, outcomes)

        wave2_jobs: List[SessionJob] = []
        for wave in waves:
            outcome = outcomes[wave.platform]
            leads = [
                lead
                for result in outcome.results
                for lead in result.landing_leads
            ]
            jobs = self._second_wave_jobs(wave, leads, outcome.stats)
            outcome.stats.second_wave_urls = len(jobs)
            wave2_jobs.extend(jobs)
        wave2_results = self._run_wave("crawl.wave2", wave2_jobs)
        self._fold(wave2_jobs, wave2_results, outcomes)
        return outcomes

    # ------------------------------------------------------------------
    def _seed_jobs(self, waves: Sequence[PlatformWave]) -> List[SessionJob]:
        """Wave-1 jobs with keyed start times, in given site order.

        Visits are staggered over the first half of the study so queued
        messages still have time to arrive before the final drain; each
        start time comes from a stream keyed by ``(platform, url)``, so it
        is independent of every other session's draws. A site without a
        prompt yields nothing at any start time, so it gets ``0.0`` and no
        stream is seeded for it.
        """
        config = self.ecosystem.config
        horizon = config.study_minutes * 0.5
        starts = RngFactory(config.seed).child("crawl-start")
        jobs: List[SessionJob] = []
        for wave in waves:
            for site in wave.sites:
                start_min = 0.0
                if site.requests_permission:
                    stream = starts.stream(f"{wave.platform}|{site.url}")
                    start_min = stream.uniform(0.0, horizon)
                jobs.append(
                    SessionJob(
                        site=site,
                        platform=wave.platform,
                        start_min=start_min,
                        emulated=wave.emulated,
                    )
                )
        return jobs

    def _run_wave(self, name: str, jobs: List[SessionJob]) -> List[SessionResult]:
        """Execute one wave's jobs as static shards, results in job order."""
        plan = ExecutionPlan(workers=self.workers, tile_size=self.shard_size)
        operands = WaveOperands(ecosystem=self.ecosystem, jobs=tuple(jobs))
        tiles = plan.tiles(len(jobs))
        results: List[SessionResult] = []
        with self.tracer.span(name) as span:
            span.gauge("sessions", len(jobs))
            span.gauge("shards", len(tiles))
            span.gauge("workers", self.workers)
            for shard in plan.stream(
                run_session_tile, operands, tiles, broadcast=True
            ):
                results.extend(shard)
        return results

    @staticmethod
    def _fold(
        jobs: Sequence[SessionJob],
        results: Sequence[SessionResult],
        outcomes: Dict[str, PlatformCrawl],
    ) -> None:
        """Route one wave's results back to their platforms, in order."""
        for job, result in zip(jobs, results):
            outcome = outcomes[job.platform]
            outcome.results.append(result)
            outcome.stats.absorb(result)

    # ------------------------------------------------------------------
    def _second_wave_jobs(
        self,
        wave: PlatformWave,
        leads: Sequence[LandingLead],
        stats: CrawlStats,
    ) -> List[SessionJob]:
        """Materialize wave-2 jobs for click-discovered landing URLs.

        All discovered URLs count toward the crawl's URL total; only those
        whose pages request notification permission get sessions that can
        yield further WPNs. Leads arrive in canonical wave-1 result order,
        so first-wins dedup is deterministic; every attribute of a
        discovered site is drawn from a stream keyed by ``(platform,
        url)``, never from a shared generator.
        """
        config = self.ecosystem.config
        discovered = RngFactory(config.seed).child("crawl-discovered")
        seed_domains = {s.domain for s in self.ecosystem.websites}
        seen_urls: Set[str] = set()
        claimed_hosts: Set[str] = set()
        jobs: List[SessionJob] = []
        for lead in leads:
            if lead.url in seen_urls:
                continue
            seen_urls.add(lead.url)
            url = Url.parse(lead.url)
            if url.host in seed_domains or url.host in claimed_hosts:
                continue
            claimed_hosts.add(url.host)
            stats.discovered_landing_urls += 1
            if not lead.requests_permission:
                continue
            rng = discovered.stream(f"{wave.platform}|{lead.url}")
            networks = lead.network_names or tuple(
                [rng.choice(sorted(self.ecosystem.networks))]
            )
            own_family = rng.choice(ALERT_FAMILIES)
            markers = tuple(
                self.ecosystem.networks[name].sdk_marker
                for name in networks
                if name in self.ecosystem.networks
            )
            site = Website(
                url=url,
                kind="publisher",
                page_source=publisher_page_source(markers or ("push-sw",)),
                seed_keyword="(discovered-via-click)",
                network_names=networks,
                own_content_family=own_family.name,
                requests_permission=True,
                double_permission=False,
                opt_in_rate=rng.uniform(0.02, 0.4),
                active_notifier=rng.random() < config.active_notifier_rate,
                permission_delay_min=rng.uniform(0.1, 3.0),
                discovered_via_click=True,
            )
            jobs.append(
                SessionJob(
                    site=site,
                    platform=wave.platform,
                    start_min=lead.discovered_at_min,
                    emulated=wave.emulated,
                )
            )
        jobs.sort(key=lambda job: str(job.site.url))
        return jobs
