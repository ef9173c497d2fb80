"""Memory-flat accounting for the online serving loop.

A multi-day soak processes millions of requests; nothing here may grow with
the request count.  Latency quantiles come from a fixed-size log-binned
histogram, and time-series trajectories are kept bounded by decimation: when
the sample buffer fills, every other sample is dropped and the sampling
stride doubles, so a trajectory covers any horizon in at most
``2 * max_points`` slots of memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.validation import check_positive


class StreamingHistogram:
    """Fixed-size log-binned histogram for positive latencies.

    Bins are geometric between ``lo`` and ``hi`` (values outside clamp to the
    edge bins), so relative resolution is constant across six-plus decades of
    decision latency while memory stays a few hundred ints regardless of how
    many observations stream through.
    """

    def __init__(
        self, lo: float = 1e-6, hi: float = 100.0, bins_per_decade: int = 20
    ) -> None:
        check_positive(lo, "lo")
        check_positive(bins_per_decade, "bins_per_decade")
        if hi <= lo:
            raise ValueError(f"hi ({hi}) must exceed lo ({lo})")
        self._log_lo = math.log10(lo)
        self._log_hi = math.log10(hi)
        self._bins = max(1, round((self._log_hi - self._log_lo) * bins_per_decade))
        self._counts = [0] * self._bins
        self._total = 0
        self._sum = 0.0
        self._max = 0.0

    def __len__(self) -> int:
        return self._total

    def record(self, value: float) -> None:
        """Add one observation (clamped into the histogram range)."""
        self._total += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            index = 0
        else:
            frac = (math.log10(value) - self._log_lo) / (self._log_hi - self._log_lo)
            index = min(self._bins - 1, max(0, int(frac * self._bins)))
        self._counts[index] += 1

    def bin_upper_edge(self, q: float) -> float:
        """Upper edge of the bin covering the ``q``-quantile.

        Never below the true quantile of in-range observations, but may sit
        above the observed max; budget gates that must not loosen use it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._total == 0:
            return 0.0
        target = q * self._total
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= target:
                frac = (index + 1) / self._bins
                return 10 ** (self._log_lo + frac * (self._log_hi - self._log_lo))
        return self._max

    def quantile(self, q: float) -> float:
        """Approximate the ``q``-quantile, never above the observed max.

        This is :meth:`bin_upper_edge` clamped to :attr:`max`.
        """
        return min(self.bin_upper_edge(q), self._max)

    @property
    def mean(self) -> float:
        """Exact mean of all observations (tracked outside the bins)."""
        return self._sum / self._total if self._total else 0.0

    @property
    def max(self) -> float:
        """Exact maximum of all observations."""
        return self._max

    def as_dict(self) -> Dict[str, float]:
        """The summary statistics downstream reports embed."""
        return {
            "count": self._total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "max": self._max,
        }


class BoundedTrajectory:
    """A time series whose memory is capped by stride-doubling decimation.

    Samples are offered at a base cadence; once ``max_points`` are held, every
    other retained sample is dropped and the keep-stride doubles.  The result
    is a uniformly spaced sketch of the full horizon that never exceeds
    ``max_points`` entries.
    """

    def __init__(self, max_points: int = 512) -> None:
        check_positive(max_points, "max_points")
        self.max_points = max_points
        self._times: List[float] = []
        self._values: List[float] = []
        self._stride = 1
        self._offered = 0

    def offer(self, time: float, value: float) -> None:
        """Offer one sample; it is kept only on the current stride."""
        keep = self._offered % self._stride == 0
        self._offered += 1
        if not keep:
            return
        self._times.append(time)
        self._values.append(value)
        if len(self._times) >= self.max_points:
            self._times = self._times[::2]
            self._values = self._values[::2]
            self._stride *= 2

    def as_dict(self) -> Dict[str, List[float]]:
        """JSON-friendly ``{"t": [...], "v": [...]}`` view."""
        return {"t": list(self._times), "v": list(self._values)}


@dataclass
class ServingReport:
    """End-of-run statistics of one :class:`OnlinePlacementService` run.

    Outcome taxonomy (every arrival lands in exactly one bucket):

    * ``shed`` — turned away by admission control (policy never consulted),
    * ``accepted`` — placed by some fallback tier and committed,
    * ``rejected`` — every tier declined / timed out / proposed infeasibly,
    * ``commit_failed`` — a tier's placement raced a failure or departure and
      no longer committed.

    Accepted requests can later be ``disrupted`` by a failure; the retry
    pipeline then resolves each disruption as ``replaced`` (re-placed onto
    healthy capacity), ``lost`` (retry budget exhausted) or ``expired``
    (holding time ran out before a retry could land).
    """

    arrivals: int = 0
    shed: int = 0
    accepted: int = 0
    rejected: int = 0
    commit_failed: int = 0
    sla_violations: int = 0
    disrupted: int = 0
    replaced: int = 0
    lost: int = 0
    expired: int = 0
    retry_attempts: int = 0
    max_queue_depth: int = 0
    tier_wins: Dict[str, int] = field(default_factory=dict)
    tier_timeouts: Dict[str, int] = field(default_factory=dict)
    tier_rejections: Dict[str, int] = field(default_factory=dict)
    tier_infeasible: Dict[str, int] = field(default_factory=dict)
    decision_latency: StreamingHistogram = field(default_factory=StreamingHistogram)
    queue_depth_trajectory: BoundedTrajectory = field(
        default_factory=BoundedTrajectory
    )
    shed_rate_trajectory: BoundedTrajectory = field(default_factory=BoundedTrajectory)
    sla_violation_trajectory: BoundedTrajectory = field(
        default_factory=BoundedTrajectory
    )
    admission: Optional[Dict[str, object]] = None
    horizon: float = 0.0
    processed_events: int = 0

    @property
    def shed_ratio(self) -> float:
        """Fraction of arrivals turned away by admission control."""
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of *admitted* requests that were placed."""
        admitted = self.arrivals - self.shed
        return self.accepted / admitted if admitted else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view written to ``results/serving.json``."""
        return {
            "arrivals": self.arrivals,
            "shed": self.shed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "commit_failed": self.commit_failed,
            "sla_violations": self.sla_violations,
            "shed_ratio": self.shed_ratio,
            "acceptance_ratio": self.acceptance_ratio,
            "disrupted": self.disrupted,
            "replaced": self.replaced,
            "lost": self.lost,
            "expired": self.expired,
            "retry_attempts": self.retry_attempts,
            "max_queue_depth": self.max_queue_depth,
            "tier_wins": dict(self.tier_wins),
            "tier_timeouts": dict(self.tier_timeouts),
            "tier_rejections": dict(self.tier_rejections),
            "tier_infeasible": dict(self.tier_infeasible),
            "decision_latency_s": self.decision_latency.as_dict(),
            "trajectories": {
                "queue_depth": self.queue_depth_trajectory.as_dict(),
                "shed_rate": self.shed_rate_trajectory.as_dict(),
                "sla_violation_rate": self.sla_violation_trajectory.as_dict(),
            },
            "admission": self.admission or {},
            "horizon": self.horizon,
            "processed_events": self.processed_events,
        }
