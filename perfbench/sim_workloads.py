"""The simulator workloads: each builds a scenario config and its topology.

The benchmark generates both from the seed and hands them to
``repro.run_scenario``; the program receives nothing else.  Every
workload uses the paper's Table 1 protocol parameters at bench scale 0.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import paper_scenario
from repro.consistency.config import ConsistencyConfig
from repro.network.faults import FaultConfig
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import (
    LARGE_TOPOLOGY_NODES,
    LARGE_TOPOLOGY_SEED,
    large_topology_scenario,
)
from repro.topology.generators import random_geometric_topology
from repro.topology.graph import Topology
from repro.topology.uunet import uunet_backbone

SCALE = 0.3

#: Placement ticks start one interval after a per-host phase offset of
#: (i+1)/n intervals, so the last of the 500 hosts first decides at
#: t = 200 s; 210 s lets every host run at least one round.
LARGE_HORIZON = 210.0

#: Spans the outage, 25 anti-entropy rounds and 150 epidemic flushes in
#: a drain of about twenty seconds.
FAULTED_HORIZON = 750.0

#: Host taken down mid-run on the faulted workload (node 14 carries the
#: redirector and load board on the UUNET backbone, so it stays up).
OUTAGE = (3, 150.0, 60.0)

#: Provider writes per second on the faulted workload: the repo's own
#: write mix (``partitioned_write_scenario`` and the staleness recipe in
#: EXPERIMENTS.md both use 2/s).
WRITE_RATE = 2.0


@dataclass(frozen=True)
class SimWorkload:
    name: str
    build: Callable[[int], tuple[ScenarioConfig, Callable[[], Topology]]]
    #: Whether the request fast lane must be installed (the correctness
    #: gate fails the run when it is not).
    fast_lane: bool
    #: Simulated seconds per timed slice of an untraced drain; about a
    #: quarter of a host second each (see ``sim_child.RunProbe``).
    slice_s: float


def _large_placement(seed: int) -> tuple[ScenarioConfig, Callable[[], Topology]]:
    config, _ = large_topology_scenario(
        duration=LARGE_HORIZON, seed=seed, scale=SCALE
    )
    config = config.replace(keep_latency_samples=True)
    return config, lambda: random_geometric_topology(
        LARGE_TOPOLOGY_NODES, seed=LARGE_TOPOLOGY_SEED
    )


def _uunet_faulted_writes(
    seed: int,
) -> tuple[ScenarioConfig, Callable[[], Topology]]:
    config = paper_scenario("zipf", scale=SCALE, duration=FAULTED_HORIZON, seed=seed)
    config = config.replace(
        keep_latency_samples=True,
        faults=FaultConfig(enabled=True, drop_prob=0.01, outages=(OUTAGE,)),
        consistency=ConsistencyConfig(
            write_rate=WRITE_RATE,
            epidemic_interval=5.0,
            anti_entropy_interval=30.0,
        ),
    )
    return config, lambda: uunet_backbone(config.topology_seed)


SIM_WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("large-placement", _large_placement, fast_lane=True, slice_s=2.0),
        SimWorkload(
            "uunet-faulted-writes", _uunet_faulted_writes, fast_lane=False, slice_s=10.0
        ),
    )
}
