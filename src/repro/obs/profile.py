"""Profiling collectors for the synthesis-side hot loops.

:class:`SiftProfile` samples the dynamic-reordering loop over time —
live BDD node count, cumulative adjacent-level swaps, and wall clock at
every block placement and every convergence pass — turning the sifting
trajectories the paper discusses (Sec. III-B3) into data instead of
prints.  The collector is passed down ``sift_to_convergence`` → ``sift``
and its summary lands in the build trace's ``order`` pass metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["SiftSample", "SiftProfile"]


@dataclass
class SiftSample:
    """One observation of the reordering loop.

    ``counters`` optionally carries the BDD engine's swap, skip, live-node
    and ITE-cache counters (:meth:`repro.bdd.BddManager.sample_counters`)
    taken at the same instant, turning the profile into a timeline of
    cache behavior — not just size — during reordering.
    """

    phase: str     # "start" | "block" | "pass" | "end"
    wall_ms: float  # since profiling started
    size: int       # metric value (chi BDD size or live nodes)
    swaps: int      # cumulative adjacent-level swaps
    counters: Optional[Dict[str, int]] = field(default=None)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "phase": self.phase,
            "wall_ms": round(self.wall_ms, 3),
            "size": self.size,
            "swaps": self.swaps,
        }
        if self.counters is not None:
            out["counters"] = dict(self.counters)
        return out

    @property
    def ite_hit_rate(self) -> Optional[float]:
        """ITE-cache hit rate at this instant, if counters were sampled."""
        if self.counters is None:
            return None
        hits = self.counters.get("ite_cache_hits", 0)
        misses = self.counters.get("ite_cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


class SiftProfile:
    """Time-series collector threaded through the sifting loop."""

    def __init__(self) -> None:
        self.samples: List[SiftSample] = []
        self._t0 = time.perf_counter()
        self._swap_base: int = 0

    def start(
        self,
        size: int,
        swaps: int,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Mark the beginning; later swap counts are relative to this."""
        self._t0 = time.perf_counter()
        self._swap_base = swaps
        self.samples.append(SiftSample("start", 0.0, size, 0, counters))

    def sample(
        self,
        phase: str,
        size: int,
        swaps: int,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.samples.append(
            SiftSample(
                phase,
                (time.perf_counter() - self._t0) * 1000.0,
                size,
                swaps - self._swap_base,
                counters,
            )
        )

    # -- derived figures ---------------------------------------------------

    @property
    def total_swaps(self) -> int:
        return self.samples[-1].swaps if self.samples else 0

    @property
    def wall_ms(self) -> float:
        return self.samples[-1].wall_ms if self.samples else 0.0

    @property
    def passes(self) -> int:
        return sum(1 for s in self.samples if s.phase == "pass")

    @property
    def initial_size(self) -> int:
        return self.samples[0].size if self.samples else 0

    @property
    def final_size(self) -> int:
        return self.samples[-1].size if self.samples else 0

    def summary(self) -> Dict[str, Any]:
        """Compact figures for a build-trace pass-metrics entry."""
        return {
            "sift_passes": self.passes,
            "sift_swaps": self.total_swaps,
            "sift_wall_ms": round(self.wall_ms, 3),
            "sift_size_initial": self.initial_size,
            "sift_size_final": self.final_size,
        }

    def timeline(self) -> List[Dict[str, Any]]:
        """Deterministic per-sample curve points for a build-trace metric.

        Each point carries the phase, live size, cumulative swaps, and —
        when engine counters were sampled — the ITE-cache hit rate and
        live-node count at that instant.  Wall-clock is deliberately
        omitted so the timeline is byte-identical across runs and
        executors; the enclosing trace event carries the timing.
        """
        points: List[Dict[str, Any]] = []
        for s in self.samples:
            point: Dict[str, Any] = {
                "phase": s.phase, "size": s.size, "swaps": s.swaps,
            }
            if s.counters is not None:
                rate = s.ite_hit_rate
                if rate is not None:
                    point["ite_hit_rate"] = round(rate, 4)
                point["live_nodes"] = s.counters.get("live_nodes", s.size)
            points.append(point)
        return points

    def to_dict(self) -> Dict[str, Any]:
        out = self.summary()
        out["samples"] = [s.to_dict() for s in self.samples]
        return out

    def __len__(self) -> int:
        return len(self.samples)
