"""Seeded per-lane stimulus streams for fleet simulation.

Every environment-input event gets an independent Bernoulli presence
process and (for valued events) a uniform value range — but generated
**as planes**: one ``getrandbits(n)`` draw yields one plane covering all
``n`` lanes of a shard, so producing a step of stimulus for 4096
instances costs a handful of big-int draws, not 4096 RNG calls.

Determinism contract (load-bearing for the cross-check and the
``--jobs`` invariance tests):

* each plane is one :meth:`random.Random.getrandbits` draw over the
  shard's lanes, so the stream is a pure function of its seed;
* lanes are partitioned into fixed blocks of ``lanes_per_shard``
  **independent of the worker count**, and each shard's stream is seeded
  from ``(seed, shard_index)`` alone — splitting the same fleet over 1
  or 4 jobs replays the exact same per-lane stimulus;
* the scalar reference replays a lane by regenerating its shard's planes
  and reading the lane's bits — the stream *is* the specification, there
  is no separate scalar path to drift.

Value ranges are restricted to power-of-two spans ``[lo, lo + 2**k - 1]``
so a uniform draw is exactly ``k`` random planes (plus a constant bias);
presence probabilities are quantized to 1/65536 so a Bernoulli plane is
a 16-plane constant comparison.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cfsm.network import Network

__all__ = [
    "EventStimulus",
    "StimulusSpec",
    "StimulusStream",
    "default_spec",
    "shard_seed",
    "load_spec",
]

_PROB_BITS = 16
_PROB_ONE = 1 << _PROB_BITS


def shard_seed(seed: int, shard_index: int) -> int:
    """The RNG seed of one shard (stable mix; independent of job count)."""
    return (seed * 0x9E3779B97F4A7C15 + shard_index + 1) % (1 << 63)


@dataclass(frozen=True)
class EventStimulus:
    """Stimulus of one environment input.

    ``lo``/``hi`` bound the injected value (valued events only); the span
    ``hi - lo + 1`` must be a power of two.
    """

    probability: float = 0.5
    lo: int = 0
    hi: int = 0

    def validate(self, name: str, width: Optional[int]) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"stimulus {name}: probability out of [0, 1]")
        if width is None:
            if (self.lo, self.hi) != (0, 0):
                raise ValueError(f"stimulus {name}: pure event takes no range")
            return
        span = self.hi - self.lo + 1
        if span < 1 or span & (span - 1):
            raise ValueError(
                f"stimulus {name}: range [{self.lo}, {self.hi}] span must be "
                "a power of two"
            )
        if not 0 <= self.lo <= self.hi < (1 << width):
            raise ValueError(
                f"stimulus {name}: range [{self.lo}, {self.hi}] outside "
                f"[0, {(1 << width) - 1}]"
            )

    @property
    def threshold(self) -> int:
        return int(round(self.probability * _PROB_ONE))

    @property
    def value_bits(self) -> int:
        span = self.hi - self.lo + 1
        return span.bit_length() - 1


@dataclass(frozen=True)
class StimulusSpec:
    """Per-event stimulus of a whole network (picklable)."""

    events: Dict[str, EventStimulus] = field(default_factory=dict)

    def validate(self, network: Network) -> None:
        env = {e.name: e.width for e in network.environment_inputs()}
        for name, stim in self.events.items():
            if name not in env:
                raise ValueError(
                    f"stimulus names {name!r}, which is not an environment "
                    f"input of network {network.name}"
                )
            stim.validate(name, env[name])

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"p": s.probability, "lo": s.lo, "hi": s.hi}
            for name, s in sorted(self.events.items())
        }


def default_spec(network: Network, probability: float = 0.5) -> StimulusSpec:
    """Full-range stimulus on every environment input."""
    events = {}
    for event in network.environment_inputs():
        hi = (1 << event.width) - 1 if event.is_valued else 0
        events[event.name] = EventStimulus(probability=probability, lo=0, hi=hi)
    return StimulusSpec(events=events)


def load_spec(path: str, network: Network) -> StimulusSpec:
    """Read a ``{"events": {name: {"p":..,"lo":..,"hi":..}}}`` JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    events = {}
    for name, entry in doc.get("events", {}).items():
        events[name] = EventStimulus(
            probability=float(entry.get("p", 0.5)),
            lo=int(entry.get("lo", 0)),
            hi=int(entry.get("hi", entry.get("lo", 0))),
        )
    spec = StimulusSpec(events=events)
    spec.validate(network)
    return spec


def _lt_const(planes: List[int], threshold: int, mask: int) -> int:
    """Plane of lanes whose ``len(planes)``-bit value is ``< threshold``."""
    bits = len(planes)
    if threshold <= 0:
        return 0
    if threshold >= (1 << bits):
        return mask
    lt = 0
    eq = mask
    for i in reversed(range(bits)):
        if (threshold >> i) & 1:
            lt = lt | (eq & (planes[i] ^ mask))
            eq = eq & planes[i]
        else:
            eq = eq & (planes[i] ^ mask)
    return lt


def _add_const(
    planes: List[int], value: int, width: int, mask: int
) -> List[int]:
    """Ripple-add a non-negative constant onto unsigned value planes."""
    carry = 0
    out = []
    for i in range(width):
        p = planes[i] if i < len(planes) else 0
        if (value >> i) & 1:
            out.append(p ^ carry ^ mask)
            carry = p | carry
        else:
            out.append(p ^ carry)
            carry = p & carry
    return out


class StimulusStream:
    """One shard's stimulus generator: per step, planes per event.

    Events are processed in sorted-name order with a fixed draw schedule
    (16 presence planes, then the value planes of valued events), so the
    stream is a pure function of ``(spec, seed, lanes)``.
    """

    def __init__(
        self,
        spec: StimulusSpec,
        widths: Dict[str, Optional[int]],
        lanes: int,
        seed: int,
    ):
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        self._rng = random.Random(seed)
        self._events: List[Tuple[str, Optional[int], int, int, int]] = []
        for name in sorted(spec.events):
            stim = spec.events[name]
            self._events.append(
                (
                    name,
                    widths[name],
                    stim.threshold,
                    stim.lo,
                    stim.value_bits if widths[name] is not None else 0,
                )
            )

    def step_planes(
        self,
    ) -> List[Tuple[str, int, Optional[List[int]]]]:
        """``(event, presence plane, value planes | None)`` per event."""
        lanes, mask = self.lanes, self.mask
        draw = self._rng.getrandbits
        out = []
        for name, width, threshold, lo, value_bits in self._events:
            draws = [draw(lanes) for _ in range(_PROB_BITS)]
            presence = _lt_const(draws, threshold, mask)
            values: Optional[List[int]] = None
            if width is not None:
                planes = [draw(lanes) for _ in range(value_bits)]
                # Buffers are signed and injected values non-negative, so
                # zero-extend to the buffer width (width + 1 planes).
                values = _add_const(planes, lo, width + 1, mask)
            out.append((name, presence, values))
        return out
