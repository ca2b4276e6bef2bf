"""The benchmark's three workloads: topology, seeded trace and configuration.

Why each workload is in the benchmark -- the layers it loads and the ones
it bypasses -- is recorded once, in ``BENCHMARK.json`` (``workloads``), and
the layer map in ``layer_map.json``.

Each workload fixes its topology and traffic *shape* (a constant of the
workload) and draws everything random -- the traffic pool, the arrival
process, the fault schedule -- from ``--seed``.  The program under test
only ever sees the generated event list.

The offered rates (``rate_eps``) are constants, set once at roughly a
third of each workload's saturated ``capacity_eps`` on a 2-CPU x86-64 VM
(Python 3.11), so the open-loop p99 sits well below the knee.  They are
never searched for at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.bench_service import flash_crowd_trace
from repro.generators import random_internal_cycle_free_dag
from repro.generators.regions import multi_region_topology, \
    multi_region_traffic
from repro.graphs import DiGraph
from repro.graphs.traversal import shortest_dipath
from repro.online import (ARRIVAL, CUT, REPAIR, Event, cut_event,
                          poisson_trace, repair_event, sort_events)
from repro.optical.traffic import hotspot_traffic

#: Traffic-pool size: large enough that the pool approximates the
#: workload's traffic distribution instead of adding a per-seed bias.
POOL_SIZE = 20000

#: Open-loop release tick, seconds: asyncio cannot pace finer than a few
#: milliseconds (its selector timeout is rounded up to 1 ms).
TICK_S = 0.004

#: Each run repeats its phases (replay, saturated window, recovery, open
#: loop) over the same window this many times; the open loops of all
#: rounds together last ``--seconds``, which sets the window's size.
ROUNDS = 14


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its inputs and how to serve them."""

    name: str
    wavelengths: int
    #: offered open-loop rate, events per wall-clock second (a constant)
    rate_eps: float
    #: events replayed before the measured window (part of set-up)
    warmup_events: int
    build_graph: Callable[[], DiGraph]
    build_trace: Callable[[DiGraph, int, int], List[Event]]
    #: RwaService keyword arguments (the engine/guard configuration)
    service: Dict[str, object] = field(default_factory=dict)
    #: the same configuration spelled for simulate_online
    simulate: Dict[str, object] = field(default_factory=dict)
    #: journal the service (DurableEngine); snapshot cadence in records
    snapshot_every: Optional[int] = None
    #: a dashboard reader polls utilisation()/metrics_snapshot() per tick
    reader: bool = False
    #: the paper's Theorem 1 regime (checked at the end of warm-up)
    theorem1: bool = False
    #: the trace schedules fibre cuts that must strand and restore
    faults: bool = False

    def window_events(self, seconds: float) -> int:
        """At ``rate_eps`` the window lasts ``seconds / ROUNDS``."""
        return max(200, int(self.rate_eps * seconds / ROUNDS))


def _poisson(pool, events: int, erlang: float, seed: int) -> List[Event]:
    """A Poisson trace with at least ``events`` events, cut to size."""
    holding = 3.0
    trace = poisson_trace(pool, events // 2 + 2000,
                          arrival_rate=erlang / holding,
                          mean_holding=holding, seed=seed)
    return trace[:events]


# ---------------------------------------------------------------- icf-steady
def _icf_graph() -> DiGraph:
    # the icf36 shape of the E14/E15 scenarios
    return random_internal_cycle_free_dag(36, 90, seed=23)


def _icf_trace(graph: DiGraph, events: int, seed: int) -> List[Event]:
    pool = hotspot_traffic(graph, POOL_SIZE, num_hotspots=3, seed=seed)
    return _poisson(pool, events, erlang=75.0, seed=seed)


# ------------------------------------------------------------ durable-faults
def _regions_graph() -> DiGraph:
    return multi_region_topology(regions=4, region_size=40,
                                 arc_probability=0.12, coupling=2, seed=7)


#: event-time spacing of fibre cuts and how long each fibre stays down
CUT_EVERY, CUT_FOR = 4.0, 2.0
#: cuts pick among this many most-used fibres
HOT_ARCS = 200


def _faults_trace(graph: DiGraph, events: int, seed: int) -> List[Event]:
    pool = multi_region_traffic(graph, POOL_SIZE, inter_fraction=0.1,
                                seed=seed)
    traffic = _poisson(pool, events, erlang=150.0, seed=seed)
    # cut the fibres the shortest routes actually load, so every cut
    # strands lightpaths and restoration has something to restore
    usage: Dict[Tuple, int] = {}
    for source, target in pool.pairs()[:3000]:
        path = shortest_dipath(graph, source, target)
        for arc in zip(path, path[1:]):
            usage[arc] = usage.get(arc, 0) + 1
    hot = sorted(usage, key=lambda a: (-usage[a], repr(a)))[:HOT_ARCS]
    rng = random.Random(seed)
    end = traffic[-1].time
    faults: List[Event] = []
    t, fault_id = CUT_EVERY, 0
    while t + CUT_FOR < end:
        arc = rng.choice(hot)
        faults.append(cut_event(t, arc, fault_id))
        faults.append(repair_event(t + CUT_FOR, arc, fault_id))
        fault_id += 1
        t += CUT_EVERY
    return sort_events(traffic + faults)[:events]


# --------------------------------------------------------------- flash-crowd
def _flash_graph() -> DiGraph:
    # the E19 flash-crowd topology
    return multi_region_topology(regions=2, region_size=16,
                                 arc_probability=0.18, coupling=2, seed=23)


WAVE = 22


def _flash_trace(graph: DiGraph, events: int, seed: int) -> List[Event]:
    waves = events // (2 * WAVE) + 4
    pool = multi_region_traffic(graph, waves * WAVE, inter_fraction=0.25,
                                seed=seed)
    trace = flash_crowd_trace(pool.pairs(), waves, WAVE, spacing=1.0,
                              holding=2.5)
    return trace[:events]


_GUARD = dict(work_budget=20.0, burst=40.0, queue_depth=20)

WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="icf-steady",
            wavelengths=6, rate_eps=22000.0,
            warmup_events=4000,
            build_graph=_icf_graph, build_trace=_icf_trace,
            service=dict(routing="least_loaded"),
            simulate=dict(routing="least_loaded"),
            reader=True, theorem1=True),
        Workload(
            name="durable-faults",
            wavelengths=6, rate_eps=20000.0,
            warmup_events=3000,
            build_graph=_regions_graph, build_trace=_faults_trace,
            service=dict(routing="shortest", sharded=True,
                         restore_retries=0),
            simulate=dict(routing="shortest", sharded=True,
                          restore_retries=0),
            snapshot_every=20000, faults=True),
        Workload(
            name="flash-crowd",
            wavelengths=10, rate_eps=40000.0,
            warmup_events=2 * WAVE * 80,
            build_graph=_flash_graph, build_trace=_flash_trace,
            service=dict(routing="k_shortest", batch_policy="best_prefix",
                         **_GUARD),
            simulate=dict(routing="k_shortest", batch_policy="best_prefix",
                          shed_work_budget=_GUARD["work_budget"],
                          shed_burst=_GUARD["burst"],
                          shed_queue_depth=_GUARD["queue_depth"])),
    )
}


def split_trace(trace: List[Event], warmup: int) -> Tuple[List[Event],
                                                          List[Event]]:
    """Split at the first timestamp change at or after ``warmup`` events,
    so an equal-time arrival wave is never cut between the two phases."""
    cut = min(warmup, len(trace))
    while 0 < cut < len(trace) and trace[cut].time == trace[cut - 1].time:
        cut += 1
    return trace[:cut], trace[cut:]


def build_inputs(workload: Workload, seed: int, seconds: float
                 ) -> Tuple[DiGraph, List[Event], List[Event]]:
    """The workload's topology, warm-up prefix and measured window."""
    graph = workload.build_graph()
    total = workload.warmup_events + workload.window_events(seconds)
    trace = workload.build_trace(graph, total, seed)
    warmup, window = split_trace(trace, workload.warmup_events)
    return graph, warmup, window


def counts(events: List[Event]) -> Dict[str, int]:
    """Events per kind (arrivals, departures, cuts, repairs)."""
    out = {ARRIVAL: 0, "departure": 0, CUT: 0, REPAIR: 0}
    for event in events:
        out[event.kind] = out.get(event.kind, 0) + 1
    return out
