"""Seeded inputs of every workload.

The seed chooses the inputs; the program under test only ever sees the
generated designs, edits, stimuli and request streams.  Equal seeds give
equal inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import DRIVE_FILE, read_rsl

#: The three reference designs of ``examples/rsl`` in network order.
REFERENCE_DESIGNS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("dashboard", ("wheel_filter", "speedo", "odometer", "tacho",
                   "speed_gauge", "rpm_gauge", "fuel_gauge", "belt_alarm")),
    ("shock_absorber", ("accel_filter", "road_classifier", "damping_logic",
                        "actuator", "diagnostics")),
    ("abp", ("abp_sender", "chan_frame", "abp_receiver", "chan_ack")),
)

#: Generated machines in one build-cold corpus (fewer with ``--small``).
#: With the three reference designs that makes 67 builds a pass, so p90
#: and p95 (6.7 and 3.35 builds from the top of a pass) fall inside one
#: design's band of ops rather than on the edge between two.
GENERATED_MACHINES = 64
GENERATED_MACHINES_SMALL = 6

SCHEMES = ("naive", "sift", "sift-strict", "outputs-first", "mixed")
TARGETS = ("K11", "K32")


def rng_for(seed: int, *labels: Any) -> random.Random:
    """An independent stream per (seed, purpose); string seeds are stable."""
    return random.Random(":".join(["perfbench", str(seed)] + [str(x) for x in labels]))


@dataclass
class Design:
    """One unit a build op builds: RSL texts, or one generated machine."""

    name: str
    module_names: Tuple[str, ...]
    texts: Optional[Tuple[str, ...]] = None  # RSL sources, in network order
    machine: Any = None  # a generated Cfsm when ``texts`` is None

    @property
    def is_rsl(self) -> bool:
        return self.texts is not None


def reference_designs() -> List[Design]:
    return [
        Design(name, modules, texts=tuple(read_rsl(m) for m in modules))
        for name, modules in REFERENCE_DESIGNS
    ]


def generated_case_config():
    """Larger machines than ``repro fuzz`` generates by default."""
    from repro.difftest import CaseConfig

    return CaseConfig(
        max_state_vars=3,
        max_num_values=6,
        max_pure_inputs=4,
        max_valued_inputs=2,
        max_value_width=6,
        max_pure_outputs=3,
        max_valued_outputs=2,
        max_transitions=8,
    )


#: The ``repro.difftest`` stream the generated machines come from.  It is
#: fixed, not the workload seed: their build costs span 1.5 to 75 ms, so
#: a per-seed draw of them would move every build-cold figure by a fifth
#: from seed to seed.  The seed orders the ops and draws every module's
#: oracle snapshots instead.
GENERATED_STREAM = 0


def generated_designs(count: int) -> List[Design]:
    from repro.difftest import generate_case

    config = generated_case_config()
    designs = []
    for index in range(count):
        machine = generate_case(GENERATED_STREAM, index, config).cfsm
        designs.append(Design(f"gen_{index}", (machine.name,), machine=machine))
    return designs


def build_cold_corpus(small: bool) -> List[Design]:
    count = GENERATED_MACHINES_SMALL if small else GENERATED_MACHINES
    return reference_designs() + generated_designs(count)


def shuffled_passes(designs: List[Design], seed: int) -> Iterator[Tuple[int, Design]]:
    """Endless passes over ``designs``, each in a fresh seeded order."""
    rng = rng_for(seed, "build-cold", "order")
    pass_index = 0
    while True:
        order = list(designs)
        rng.shuffle(order)
        for design in order:
            yield pass_index, design
        pass_index += 1


# -- rebuild-parallel: the edit loop -------------------------------------------


class EditLoop:
    """A developer's edit loop over the reference designs.

    The loop runs in periods of ten edits, the same ten for every seed:

    * the dashboard's modules two at a time in network order (4 pooled
      rebuilds);
    * ABP's first two modules together (pooled), then each of the other
      two alone (2 in-process rebuilds: one pending module skips the
      pool);
    * the shock absorber's ``damping_logic`` with each of the two
      modules before it (2 pooled rebuilds whose synthesis dominates
      them), then its last two modules together (pooled).

    The seed shuffles the order of the edits within each period.  A run
    stops only between periods, so every run has the same mix, and each
    percentile falls inside a group of like ops rather than on its edge:
    the median in the middle of the six pooled rebuilds without
    ``damping_logic`` (ranks 20-80%), ``p90`` and ``p95`` among the
    fifth of ops that edit it.

    An edit prepends blank lines to the module, so its transitions'
    source tags (``file.rsl:line``) move and its content address
    changes, while its synthesis work, code size and cycle counts do
    not.  Each edit of a module adds one more line, so no edited text
    ever repeats and every edited module misses the cache.
    """

    PERIOD: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
        ("dashboard", (0, 1)), ("dashboard", (2, 3)),
        ("dashboard", (4, 5)), ("dashboard", (6, 7)),
        ("abp", (0, 1)), ("abp", (2,)), ("abp", (3,)),
        ("shock_absorber", (0, 2)), ("shock_absorber", (1, 2)),
        ("shock_absorber", (3, 4)),
    )

    def __init__(self, designs: List[Design], seed: int):
        by_name = {d.name: d for d in designs}
        self.period = [(by_name[name], modules) for name, modules in self.PERIOD]
        self.seed = seed
        self.rng = rng_for(seed, "rebuild", "period")
        self.queue: List[Tuple[Design, Tuple[int, ...]]] = []
        self.last_edit = ""  # the design and modules of the last edit
        self.generation: Dict[Tuple[str, int], int] = {}

    @property
    def at_period_start(self) -> bool:
        return not self.queue

    def next(self) -> Tuple[Design, Tuple[str, ...]]:
        """The next design to rebuild and its sources after this edit."""
        if not self.queue:
            self.queue = list(self.period)
            self.rng.shuffle(self.queue)
        design, modules = self.queue.pop()
        self.last_edit = f"{design.name}{list(modules)}"
        for index in modules:
            key = (design.name, index)
            self.generation[key] = self.generation.get(key, 0) + 1
        return design, self.sources(design)

    def fill_order(self) -> List[Design]:
        """The designs in the order the first period first visits them."""
        first = list(self.period)
        rng_for(self.seed, "rebuild", "period").shuffle(first)
        order: List[Design] = []
        for design, _ in reversed(first):  # ``next`` pops from the end
            if design not in order:
                order.append(design)
        return order

    def sources(self, design: Design) -> Tuple[str, ...]:
        """The design's current sources, every edit so far applied."""
        return tuple(
            "\n" * self.generation.get((design.name, i), 0) + text
            for i, text in enumerate(design.texts)
        )


# -- fleet-default ---------------------------------------------------------------

#: Two shards per pool worker at ``jobs=2`` with the default lanes per shard.
FLEET_INSTANCES = 4 * 4096
FLEET_DESIGNS = ("dashboard", "shock_absorber")


def fleet_seed(seed: int, op: int) -> int:
    return rng_for(seed, "fleet", op).randrange(1 << 31)


# -- serve-mixed ------------------------------------------------------------------


@dataclass
class Request:
    kind: str
    params: Dict[str, Any]
    key: Tuple[Any, ...]  # identifies the direct library call it mirrors
    modules: int  # CFSM modules the request builds or looks up


def load_drive() -> Dict[str, Any]:
    with open(DRIVE_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


class RequestStream:
    """One client's seeded request stream for the serve daemon.

    Requests come in blocks of 32 whose mix is fixed and whose order is
    seeded: 24 ``estimate`` requests over every example source x scheme
    x target, drawn with Zipf-skewed popularity so most hit the cache and
    the rest miss and write; 4 ``synthesize`` requests cycling over the
    three designs (enough that ten lie beyond their p90 in a run); 3
    small ``fleet`` requests; 1 ``simulate`` of the dashboard drive.  A
    fixed mix keeps the share of slow kinds, and so ``req_p95_ms``, from
    moving with the seed: the fleet requests, the slowest kind, are the
    top 9% of requests, so p95 falls in their middle rather than on their
    edge.

    The popularity ranking and the keys each block draws from it are
    fixed (``KEY_STREAM``), not the seed: a miss costs 2 to 270 ms
    depending on the key, so per-seed draws would move which keys miss,
    and with them ``req_p95_ms`` and throughput, from seed to seed.  The
    seed orders each block's kinds and keys and draws the fleet
    requests' seeds.
    """

    BLOCK = ("estimate",) * 24 + ("synthesize",) * 4 + ("fleet",) * 3 + ("simulate",)
    ZIPF_S = 1.1
    KEY_STREAM = 0

    def __init__(self, seed: int, client: int, sources: Dict[str, str],
                 designs: List[Design], drive: Dict[str, Any]):
        ranking = [(name, scheme, target) for name in sorted(sources)
                   for scheme in SCHEMES for target in TARGETS]
        rng_for(self.KEY_STREAM, "serve", "ranking").shuffle(ranking)
        self.keys = ranking
        self.weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(ranking))]
        self.sources = sources
        self.designs = designs
        self.drive = drive
        self.rng = rng_for(seed, "serve", "client", client)
        self.key_rng = rng_for(self.KEY_STREAM, "serve", "keys", client)
        self.kinds: List[str] = []
        self.block_keys: List[Tuple[str, str, str]] = []
        self.synthesized = 0
        self.fleets = 0

    def _design_params(self, design: Design) -> Dict[str, Any]:
        return {"name": design.name, "sources": list(design.texts)}

    def next(self) -> Request:
        if not self.kinds:
            self.kinds = list(self.BLOCK)
            self.rng.shuffle(self.kinds)
            self.block_keys = self.key_rng.choices(
                self.keys, self.weights, k=self.BLOCK.count("estimate"))
            self.rng.shuffle(self.block_keys)
        kind = self.kinds.pop()
        if kind == "estimate":
            name, scheme, target = self.block_keys.pop()
            params = {"source": self.sources[name], "scheme": scheme, "target": target}
            return Request(kind, params, (kind, name, scheme, target), 1)
        if kind == "synthesize":
            design = self.designs[self.synthesized % len(self.designs)]
            self.synthesized += 1
            return Request(kind, self._design_params(design), (kind, design.name),
                           len(design.module_names))
        if kind == "fleet":
            design = [d for d in self.designs if d.name in FLEET_DESIGNS][self.fleets % 2]
            self.fleets += 1
            params = self._design_params(design)
            params.update(instances=64, steps=50, seed=self.rng.randrange(1 << 20))
            return Request(kind, params, (kind, design.name, params["seed"]),
                           len(design.module_names))
        design = self.designs[0]  # the dashboard drive
        params = self._design_params(design)
        params.update(stimuli=self.drive["stimuli"], until=self.drive["until"])
        return Request(kind, params, (kind, design.name), len(design.module_names))


def example_sources() -> Dict[str, str]:
    """Every ``examples/rsl`` module source, by module name."""
    return {name: read_rsl(name) for _, modules in REFERENCE_DESIGNS for name in modules}
