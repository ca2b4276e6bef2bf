"""Phases of one benchmark run and the correctness gate.

Every phase drives the library through its public entry points:
``simulate_online`` (the oracle and the replay path), ``RwaService``
(saturated and open-loop), ``DurableEngine`` behind a journalled service,
and ``recover()``.  One process, one asyncio loop, no worker pool, ``gc``
left enabled.  A full collection runs before each timed window so every
window starts from the same collector state.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.load import load
from repro.core.theorem1 import color_dipaths_theorem1, theorem1_applies
from repro.online import (ARRIVAL, CUT, DEPARTURE, REPAIR, Event,
                          engine_fingerprint, recover, simulate_online)
from repro.service import RwaService

from workloads import TICK_S, Workload

perf = time.perf_counter

#: Longest wait for a handed-off window to be decided; a future still
#: pending after it counts as a failed op.
DECIDE_TIMEOUT_S = 120.0

#: Snapshot cadence (journal records) of the untimed journalled pass that
#: gives an in-memory workload a journal to time ``recover()`` on.
RECOVERY_SNAPSHOT_EVERY = 2000


@dataclass
class PhaseCount:
    """Ops sent / succeeded / failed in one phase."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed}


@dataclass
class Tally:
    """Op counts per phase plus the correctness checks of the gate."""

    phases: Dict[str, PhaseCount] = field(default_factory=dict)
    checks: int = 0
    misses: List[str] = field(default_factory=list)

    def phase(self, name: str) -> PhaseCount:
        return self.phases.setdefault(name, PhaseCount())

    def check(self, ok: bool, what: str, misses: int = 1) -> bool:
        """Record one correctness check; a miss counts as failed ops."""
        self.checks += 1
        if not ok:
            self.misses.append(what)
            self.phase("check").failed += max(1, misses)
        return ok

    @property
    def attempted(self) -> int:
        return self.checks + sum(p.sent for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())


# ------------------------------------------------------------------ inputs
def enqueue(service: RwaService, event: Event) -> "asyncio.Future":
    """Hand one trace event to the service; returns its future."""
    if event.kind == ARRIVAL:
        return service.submit_nowait(event.request_id, request=event.request,
                                     dipath=event.dipath, time=event.time)
    if event.kind == DEPARTURE:
        return service.depart_nowait(event.request_id, time=event.time)
    if event.kind == CUT:
        return service.cut_nowait(event.arc, time=event.time)
    if event.kind == REPAIR:
        return service.repair_nowait(event.arc, time=event.time)
    raise ValueError(f"unknown event kind {event.kind!r}")


class Outcomes:
    """Counts a phase's ops as their futures settle, without holding them.

    Keeping every future of a window alive would grow the heap the
    collector walks and so bill the harness's own state to the program.
    The service decides in FIFO order, so awaiting the last future of a
    hand-off awaits all of them; done-callbacks run in resolution order,
    so the counts are complete once the last one has run.
    """

    def __init__(self, phase: PhaseCount) -> None:
        self.phase = phase
        self.pending = 0

    def watch(self, future: "asyncio.Future") -> "asyncio.Future":
        self.phase.sent += 1
        self.pending += 1
        future.add_done_callback(self._settled)
        return future

    def _settled(self, future: "asyncio.Future") -> None:
        self.pending -= 1
        if future.cancelled() or future.exception() is not None:
            self.phase.failed += 1
        else:
            self.phase.succeeded += 1

    async def drain(self, last: Optional["asyncio.Future"]) -> None:
        """Wait for ``last`` (or the timeout); ops never decided fail."""
        if last is not None:
            await asyncio.wait([last], timeout=DECIDE_TIMEOUT_S)
        await asyncio.sleep(0)          # let the last done-callbacks run
        self.phase.failed += self.pending
        self.pending = 0


def hand_off(service: RwaService, events: List[Event],
             outcomes: Outcomes) -> Optional["asyncio.Future"]:
    """Enqueue ``events`` in order; returns the last future."""
    last = None
    for event in events:
        last = outcomes.watch(enqueue(service, event))
    return last


# ------------------------------------------------------------------ set-up
class Env:
    """Everything one run shares: the workload, its inputs and scratch dir."""

    def __init__(self, workload: Workload, graph, warmup: List[Event],
                 window: List[Event], workdir: str, tally: Tally) -> None:
        self.workload = workload
        self.graph = graph
        self.warmup = warmup
        self.window = window
        self.workdir = workdir
        self.tally = tally
        self._journals = 0

    @property
    def trace(self) -> List[Event]:
        return self.warmup + self.window

    def journal_path(self) -> str:
        self._journals += 1
        return os.path.join(self.workdir,
                            f"{self.workload.name}-{self._journals}.jsonl")

    def service(self, durable: Optional[bool] = None,
                **extra) -> RwaService:
        """A fresh, unstarted service configured for the workload."""
        workload = self.workload
        if durable is None:
            durable = workload.snapshot_every is not None
        journal = {}
        if durable:
            journal = dict(journal_path=self.journal_path(),
                           snapshot_every=workload.snapshot_every or
                           RECOVERY_SNAPSHOT_EVERY)
        return RwaService(self.graph, workload.wavelengths,
                          **workload.service, **journal, **extra)

    async def set_up(self, durable: Optional[bool] = None,
                     check_theorem1: bool = False, **extra
                     ) -> Tuple[RwaService, Dict[str, float]]:
        """Construct, start and warm a service; returns it with timings.

        Set-up is what a user pays before serving: engine, router and
        service construction, the journal open (durable workloads) and a
        warm-up prefix of the trace that brings occupancy to steady state.
        """
        t0 = perf()
        service = self.service(durable, **extra)
        await service.start()
        t1 = perf()
        outcomes = Outcomes(self.tally.phase("warmup"))
        await outcomes.drain(hand_off(service, self.warmup, outcomes))
        t2 = perf()
        if check_theorem1:
            self.check_theorem1(service)
        return service, {"warmup_s": t2 - t1, "setup_s": t2 - t0}

    def check_theorem1(self, service: RwaService) -> None:
        """Theorem 1 on the live family: exactly ``load`` colours."""
        graph, family = self.graph, service.engine.family.copy()
        applies = theorem1_applies(graph)
        self.tally.check(applies, "theorem1: the DAG has an internal cycle")
        if applies:
            colouring = color_dipaths_theorem1(graph, family)
            self.tally.check(
                len(set(colouring.values())) == load(graph, family),
                "theorem1: colours != load on the live family")

    # -------------------------------------------------------------- oracle
    def oracle(self):
        """``simulate_online`` over warm-up + window (the decision oracle)."""
        return simulate_online(self.graph, self.trace,
                               self.workload.wavelengths,
                               record_timeline=False,
                               **self.workload.simulate)

    def check_decisions(self, service: RwaService, expected,
                        what: str) -> None:
        """The service's decisions equal ``simulate_online``'s."""
        got = service.result()
        same = (got.accepted == expected.accepted and
                got.blocked == expected.blocked and
                got.rejections == expected.rejections)
        wrong = 0
        if not same:
            wrong = len(set(got.rejections.items()) ^
                        set(expected.rejections.items())) + \
                len(set(got.accepted) ^ set(expected.accepted))
        self.tally.check(same, f"{what}: decisions differ from "
                               f"simulate_online", misses=wrong)
        if self.workload.faults:
            self.tally.check(got.lightpaths_stranded > 0,
                             f"{what}: no lightpath was stranded")
            self.tally.check(got.lightpaths_restored > 0,
                             f"{what}: no lightpath was restored")


# ------------------------------------------------------------------ phases
def replay(env: Env) -> Tuple[float, object]:
    """One timed ``simulate_online`` run; (seconds, result)."""
    gc.collect()
    t0 = perf()
    result = env.oracle()
    return perf() - t0, result


async def saturate(env: Env, service: RwaService,
                   handoff: Optional[Callable] = None) -> float:
    """Hand the whole window to a warmed service at once; seconds until
    the last op is decided.  ``handoff`` wraps the enqueue loop (the
    traced run times it as the harness's own span)."""
    gc.collect()
    t0 = perf()
    if handoff is None:
        futures = [enqueue(service, event) for event in env.window]
    else:
        futures = handoff(lambda: [enqueue(service, event)
                                   for event in env.window])
    await asyncio.wait(futures[-1:], timeout=DECIDE_TIMEOUT_S)
    elapsed = perf() - t0
    # counted after the clock stops: no per-op callback in the window
    phase = env.tally.phase("measured")
    phase.sent += len(futures)
    for future in futures:
        if future.done() and not future.cancelled() and \
                future.exception() is None:
            phase.succeeded += 1
        else:
            phase.failed += 1
    return elapsed


def tick_buckets(window: List[Event], rate_eps: float) -> List[List[Event]]:
    """Map event time linearly onto wall time at ``rate_eps`` and group
    the events by release tick.  Equal-time events share a tick."""
    duration = len(window) / rate_eps
    ticks = max(1, int(duration / TICK_S) + 1)
    first, last = window[0].time, window[-1].time
    span = (last - first) or 1.0
    buckets: List[List[Event]] = [[] for _ in range(ticks)]
    for event in window:
        k = int((event.time - first) / span * duration / TICK_S)
        buckets[min(k, ticks - 1)].append(event)
    return buckets


class OpenLoop:
    """An open-loop client releasing the window in fixed ticks at the
    workload's constant rate, to one warmed service.

    Latency runs from a tick's hand-off to the moment each op's waiting
    client wakes (its done-callback runs on the loop).  Lateness is how
    far behind its schedule each tick was handed off.  With ``per_op``
    the hand-off and wake times are also kept per op (for the traced run).
    """

    def __init__(self, env: Env, service: RwaService,
                 per_op: bool = False) -> None:
        self.env = env
        self.service = service
        self.per_op = per_op
        self.buckets = tick_buckets(env.window, env.workload.rate_eps)
        #: hand-off to client wake-up, every op of the window
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        #: (event kind, request id) -> hand-off / client wake-up time
        self.handoff: Dict[Tuple[str, int], float] = {}
        self.wake: Dict[Tuple[str, int], float] = {}
        self.sent = self.failed = 0

    @property
    def ticks(self) -> int:
        return len(self.buckets)

    async def run(self) -> None:
        """Release the window tick by tick and wait until every op is
        decided."""
        service, tick = self.service, TICK_S
        reader = self.env.workload.reader
        lateness, latencies = self.lateness, self.latencies
        phase = self.env.tally.phase("measured")
        sent0, failed0 = phase.sent, phase.failed
        outcomes = Outcomes(phase)
        last = None
        gc.collect()
        start = perf() + tick
        for k, bucket in enumerate(self.buckets):
            due = start + k * tick
            await asyncio.sleep(max(0.0, due - perf()))
            if not bucket:
                continue
            handed = perf()
            lateness.append(handed - due)

            def woke(_future, handed=handed):
                latencies.append(perf() - handed)

            for event in bucket:
                future = last = outcomes.watch(enqueue(service, event))
                if self.per_op and event.kind in (ARRIVAL, DEPARTURE):
                    key = (event.kind, event.request_id)
                    self.handoff[key] = handed
                    future.add_done_callback(
                        lambda _f, key=key: self.wake.__setitem__(key,
                                                                  perf()))
                future.add_done_callback(woke)
            if reader:
                # the dashboard: coherent reads between ticks
                service.utilisation()
                service.metrics_snapshot()
        await outcomes.drain(last)
        self.sent += phase.sent - sent0
        self.failed += phase.failed - failed0


async def memory_growth(env: Env, service: RwaService) -> float:
    """``tracemalloc`` growth (MiB) across the measured window, in its own
    untimed pass: the window handed at once to a warmed service."""
    outcomes = Outcomes(env.tally.phase("measured"))
    gc.collect()
    tracemalloc.start()
    try:
        await outcomes.drain(hand_off(service, env.window, outcomes))
        gc.collect()
        grown, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return grown / float(1 << 20)


def recover_timed(env: Env, path: str, expected: Dict,
                  repeats: int) -> List[float]:
    """Time ``recover()`` of a finished journal ``repeats`` times; every
    recovered engine must fingerprint-equal the live one."""
    times = []
    phase = env.tally.phase("recover")
    for _ in range(repeats):
        gc.collect()
        phase.sent += 1
        t0 = perf()
        durable = recover(path)
        times.append(perf() - t0)
        durable.close()
        same = engine_fingerprint(durable.engine) == expected
        if same:
            phase.succeeded += 1
        env.tally.check(same, "recover: fingerprint differs from the live "
                              "durable engine")
    return times


async def journal_for_recovery(env: Env) -> Tuple[str, Dict]:
    """A journal of warm-up + window for workloads whose service is
    in-memory: the same configuration behind a durable service, fed
    saturated in an untimed pass.  Returns (path, live fingerprint)."""
    service, _ = await env.set_up(durable=True)
    outcomes = Outcomes(env.tally.phase("measured"))
    await outcomes.drain(hand_off(service, env.window, outcomes))
    fingerprint = engine_fingerprint(service.engine)
    path = service.durable.path
    await service.stop()
    return path, fingerprint


def check_schedule(tally: Tally, lateness: List[float]) -> None:
    """Gate: the open-loop generator kept to its schedule, its p99
    hand-off lateness below one tick.  Otherwise the ops it released late
    were timed from the late hand-off and the stall dropped out of the
    latency."""
    late = quantile(lateness, 0.99)
    tally.check(late < TICK_S, f"open loop: generator p99 lateness "
                               f"{late * 1e3:.2f} ms >= one tick")


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of an unsorted sample (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
