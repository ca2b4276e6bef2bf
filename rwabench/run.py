"""End-to-end benchmark of the RWA stack: one command, three workloads.

Usage (from the repository root)::

    python3 rwabench/run.py --workload icf-steady --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``
``end_to_end``); ``--trace 1`` runs the separate traced pass and prints
the per-layer ledger (``per_layer``).  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
per-phase op counts and the open-loop generator's lateness.  Any miss of
the correctness gate exits with status 1.

Scratch files (journals, the traced run's spans and layer table) go to
``.rwabench/`` under the repository root; journals are removed at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.obs import RingBufferSink, Tracer  # noqa: E402

import harness  # noqa: E402
from harness import Env, Tally, median, perf, quantile  # noqa: E402
from ledger import SpanRecorder, instrument_service, service_timings  # noqa: E402
from workloads import ROUNDS, TICK_S, WORKLOADS, build_inputs, counts  # noqa: E402

RECOVER_REPEATS = 5
SETUP_REPEATS = 3
OVERHEAD_REPEATS = 2
#: The traced run serves its window once per pass where the plain run
#: serves one window per round, so its window is this many rounds long.
TRACE_ROUNDS = 4
#: The traced run's layer self times plus the harness's own time must
#: cover the traced wall time to within this share; the rest is the
#: event loop and the consumer's queue reads, which no span wraps.
ACCOUNTING_TOLERANCE = 0.15


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- end to end
async def end_to_end(env: Env) -> Dict[str, Dict]:
    """The eight end-to-end metrics.

    Each of ``ROUNDS`` rounds replays the trace, serves the window
    saturated on a fresh set-up, recovers a journal and serves the window
    open-loop on another fresh set-up, so every round measures the same
    work from the same warmed state and the rounds sample the whole run.
    Throughput and recovery report their best round: neighbours on a
    shared machine only ever slow a round down, so the least disturbed
    round is the steadiest estimate of the program's own speed, and a
    slower program slows every round.  Set-up reports the median of its
    samples.  Latency percentiles are taken over every op of every
    round's open loop.
    """
    workload = env.workload
    durable = workload.snapshot_every is not None
    journal = live = None
    if not durable:
        journal, live = await harness.journal_for_recovery(env)
    replays: List[float] = []
    capacities: List[float] = []
    recovers: List[float] = []
    setups: List[float] = []
    latencies: List[float] = []
    lateness: List[float] = []
    ticks = 0
    expected = None
    for rnd in range(ROUNDS):
        seconds, expected = harness.replay(env)
        replays.append(seconds)
        saturated, setup = await env.set_up(
            check_theorem1=workload.theorem1 and rnd == 0)
        setups.append(setup["setup_s"])
        capacities.append(await harness.saturate(env, saturated))
        env.check_decisions(saturated, expected, "capacity")
        if durable:
            journal, live = saturated.durable.path, saturated.fingerprint()
        await saturated.stop()
        recovers.extend(harness.recover_timed(env, journal, live, 1))
        if durable:
            # gone before the kernel's writeback of dirty pages (30 s on
            # Linux) could stall a later round's journal appends
            os.remove(journal)

        service, setup = await env.set_up()
        setups.append(setup["setup_s"])
        loop = harness.OpenLoop(env, service)
        await loop.run()
        env.check_decisions(service, expected, "open loop")
        await service.stop()
        if durable:
            os.remove(service.durable.path)
        latencies.extend(loop.latencies)
        lateness.extend(loop.lateness)
        ticks += loop.ticks
    harness.check_schedule(env.tally, lateness)

    mem_mb, setup_s = await memory_pass(env, expected)
    setups.append(setup_s)

    report_phases(env, lateness, ticks)
    return {
        "replay_eps": metric(len(env.trace) / min(replays), "events/s"),
        "capacity_eps": metric(len(env.window) / min(capacities),
                               "events/s"),
        "p50_ms": metric(quantile(latencies, 0.50) * 1e3, "ms"),
        "p99_ms": metric(quantile(latencies, 0.99) * 1e3, "ms"),
        "blocking": metric(expected.blocking_rate, "ratio"),
        "setup_s": metric(median(setups), "s"),
        "recover_s": metric(min(recovers), "s"),
        "mem_growth_mb": metric(mem_mb, "MB"),
    }


async def memory_pass(env: Env, expected):
    """The ``tracemalloc`` pass, with its own set-up sample and gate."""
    service, setup = await env.set_up()
    grown = await harness.memory_growth(env, service)
    env.check_decisions(service, expected, "memory pass")
    await service.stop()
    return grown, setup["setup_s"]


def report_phases(env: Env, lateness: List[float], ticks: int) -> None:
    """The line before the result: op counts per phase and generator
    health (lateness of each tick's hand-off against its schedule)."""
    print(json.dumps({
        "workload": env.workload.name,
        "events": {"warmup": len(env.warmup), "window": len(env.window),
                   **counts(env.window)},
        "phases": {name: count.as_dict()
                   for name, count in sorted(env.tally.phases.items())},
        "gen": {"late_p50_ms": quantile(lateness, 0.50) * 1e3,
                "late_p99_ms": quantile(lateness, 0.99) * 1e3,
                "ticks": ticks, "tick_ms": TICK_S * 1e3,
                "rate_eps": env.workload.rate_eps},
        "misses": env.tally.misses,
    }, sort_keys=True))


# ---------------------------------------------------------------- traced
async def traced(env: Env, out_dir: str) -> Dict[str, Dict]:
    workload, tally = env.workload, env.tally
    _, expected = harness.replay(env)

    # plain open loop, the generator's health; first, before the span
    # recorders below add to the heap every full collection walks
    service, _ = await env.set_up()
    loop = harness.OpenLoop(env, service)
    await loop.run()
    harness.check_schedule(tally, loop.lateness)
    env.check_decisions(service, expected, "open loop")
    await service.stop()

    # set-up split: construction of the in-memory engine and service,
    # the extra a journalled one pays (journal open), and the warm-up
    engine_s = median([construct(env, durable=False)
                       for _ in range(SETUP_REPEATS)])
    journal_s = 0.0
    if workload.snapshot_every is not None:
        journal_s = max(0.0, median([construct(env, durable=True)
                                     for _ in range(SETUP_REPEATS)])
                        - engine_s)

    # plain and obs-traced saturated windows, interleaved; the fastest
    # of each is the least disturbed by neighbours
    plain: List[float] = []
    obs_runs: List[float] = []
    spans = 0
    for _ in range(OVERHEAD_REPEATS):
        service, setup = await env.set_up()
        plain.append(await harness.saturate(env, service))
        env.check_decisions(service, expected, "plain capacity")
        await service.stop()
        # the program's own tracer (obs) on the same window
        ring = RingBufferSink()
        service, _ = await env.set_up(tracer=Tracer(ring))
        emitted0 = len(ring.records()) + ring.dropped
        obs_runs.append(await harness.saturate(env, service))
        spans = len(ring.records()) + ring.dropped - emitted0
        env.check_decisions(service, expected, "obs-traced capacity")
        await service.stop()
    plain_s, obs_s = min(plain), min(obs_runs)

    service, _ = await env.set_up()
    recorder = SpanRecorder()
    instrument_service(recorder, service)
    durable = service.durable
    records0 = durable.records if durable is not None else 0
    bytes0 = journal_bytes(service)
    traced_s = await harness.saturate(
        env, service, handoff=lambda body: recorder.span("harness.handoff",
                                                         body))
    records = (durable.records - records0) if durable is not None else 0
    journal_b = journal_bytes(service) - bytes0
    env.check_decisions(service, expected, "traced capacity")
    await service.stop()
    table = recorder.table(traced_s)
    accounted = sum(row["self_s"] for row in table.values())
    unaccounted = 1.0 - accounted / traced_s
    tally.check(abs(unaccounted) <= ACCOUNTING_TOLERANCE,
                f"ledger: spans account for {accounted / traced_s:.3f} of "
                f"the traced wall time")
    records_per_s = 0.0
    if durable is not None:
        recover_s = median(harness.recover_timed(
            env, durable.path, durable.fingerprint(), RECOVER_REPEATS))
        records_per_s = replayed_records(durable.path) / recover_s

    # traced open loop: queueing, resolution, reads
    service, _ = await env.set_up()
    loop_recorder = SpanRecorder()
    instrument_service(loop_recorder, service)
    traced_loop = harness.OpenLoop(env, service, per_op=True)
    await traced_loop.run()
    env.check_decisions(service, expected, "traced open loop")
    await service.stop()
    loop_table = loop_recorder.table(1.0)
    queue_wait, resolve = service_timings(loop_recorder, traced_loop.handoff,
                                          traced_loop.wake)
    process_calls = loop_table["service"]["calls"]

    write_ledger(out_dir, env, recorder, table, traced_s, plain_s)
    report_phases(env, loop.lateness, loop.ticks)
    obs = recorder.observed
    fault_cuts = span_durations(recorder, "injector.cut")
    faults = merge(obs.get("injector.cut", {}), obs.get("injector.repair", {}))
    batch = obs.get("engine.admit_batch", {})
    assign = obs.get("assigner.assign", {})
    guard = obs.get("guard.admits", {})
    out = {}
    for layer in ("routing", "conflict", "assigner", "transaction",
                  "journal", "guard"):
        row = table[layer]
        out[f"{layer}.calls"] = metric(row["calls"], "count")
        out[f"{layer}.self_us"] = metric(per_call_us(row), "us")
        out[f"{layer}.share"] = metric(row["share"], "ratio")
    # the journal counts records, not calls; the guard's share is noise
    del out["journal.calls"], out["guard.share"]
    out.update({
        "assigner.success_ratio": metric(
            ratio(assign.get("ok", 0), assign.get("calls", 0)), "ratio"),
        "transaction.batch_size": metric(
            ratio(batch.get("arrivals", 0), batch.get("calls", 0)), "ops"),
        "transaction.commit_ratio": metric(
            ratio(batch.get("admitted", 0), batch.get("arrivals", 0)),
            "ratio"),
        "journal.records": metric(records, "count"),
        "journal.bytes_per_record": metric(ratio(journal_b, records),
                                           "B/record"),
        "recover.records_per_s": metric(records_per_s, "records/s"),
        "faults.cuts": metric(len(fault_cuts), "count"),
        "faults.cut_ms": metric(median(fault_cuts) * 1e3, "ms"),
        "faults.restore_ratio": metric(
            ratio(faults.get("restored", 0), faults.get("stranded", 0)),
            "ratio"),
        "guard.shed_ratio": metric(
            ratio(guard.get("shed", 0), guard.get("calls", 0)), "ratio"),
        "service.queue_wait_us": metric(median(queue_wait) * 1e6, "us"),
        "service.resolve_us": metric(median(resolve) * 1e6, "us"),
        "service.batch_ops": metric(ratio(len(env.window), process_calls),
                                    "ops"),
        "service.self_share": metric(table["service"]["share"], "ratio"),
        "reads.calls": metric(loop_table["reads"]["calls"], "count"),
        "reads.self_us": metric(per_call_us(loop_table["reads"]), "us"),
        "obs.span_us": metric(ratio(obs_s - plain_s, spans) * 1e6, "us"),
        "obs.overhead_ratio": metric(obs_s / plain_s, "ratio"),
        "trace.overhead_ratio": metric(traced_s / plain_s, "ratio"),
        "trace.unaccounted_ratio": metric(unaccounted, "ratio"),
        "setup.engine_s": metric(engine_s, "s"),
        "setup.journal_s": metric(journal_s, "s"),
        "setup.warmup_s": metric(setup["warmup_s"], "s"),
        "gen.late_p50_ms": metric(quantile(loop.lateness, 0.50) * 1e3, "ms"),
        "gen.late_p99_ms": metric(quantile(loop.lateness, 0.99) * 1e3, "ms"),
        "gen.sent": metric(loop.sent, "count"),
        "gen.failed": metric(loop.failed, "count"),
    })
    return out


def construct(env: Env, durable: bool) -> float:
    """Seconds to construct (not start) one service."""
    t0 = perf()
    service = env.service(durable)
    elapsed = perf() - t0
    if service.durable is not None:
        service.durable.close()
    return elapsed


def replayed_records(path: str) -> int:
    """Records ``recover()`` re-executes from the journal at ``path``: the
    last snapshot and the tail after it, or everything after genesis when
    there is no snapshot."""
    with open(path, encoding="utf-8") as fh:
        kinds = [json.loads(line)["type"] for line in fh if line.strip()]
    snapshots = [i for i, kind in enumerate(kinds) if kind == "snapshot"]
    return len(kinds) - (snapshots[-1] if snapshots else 1)


def journal_bytes(service) -> int:
    diagnostics = service.engine.metrics.snapshot().get("diagnostics", {})
    return int(diagnostics.get("counters", {}).get("journal.bytes", 0))


def span_durations(recorder: SpanRecorder, span: str) -> List[float]:
    """Wall durations of every span called ``span``."""
    return [recorder.end[i] - recorder.start[i] for i in range(len(recorder))
            if recorder.names[recorder.name[i]] == span]


def merge(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
    return {k: a.get(k, 0) + b.get(k, 0) for k in set(a) | set(b)}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_call_us(row: Dict[str, float]) -> float:
    return ratio(row["self_s"], row["calls"]) * 1e6


def write_ledger(out_dir: str, env: Env, recorder: SpanRecorder,
                 table: Dict, traced_s: float, plain_s: float) -> None:
    """The traced capacity pass's spans and its per-layer table."""
    name = env.workload.name
    header = {"workload": name, "wall_s": traced_s, "plain_s": plain_s,
              "spans": len(recorder), "layers": table}
    recorder.write(os.path.join(out_dir, f"{name}-spans.jsonl.gz"), header)
    with open(os.path.join(out_dir, f"{name}-ledger.json"), "w",
              encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'layer':<12}{'calls':>10}{'self ms':>12}{'share':>9}",
          file=sys.stderr)
    for layer, row in table.items():
        print(f"{layer:<12}{row['calls']:>10}{row['self_s'] * 1e3:>12.2f}"
              f"{row['share']:>9.3f}", file=sys.stderr)


# ------------------------------------------------------------------ main
def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse(argv)
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".rwabench")
    work_dir = os.path.join(out_dir, f"journals-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tally = Tally()
    try:
        seconds = args.seconds * (TRACE_ROUNDS if args.trace else 1)
        graph, warmup, window = build_inputs(workload, args.seed, seconds)
        env = Env(workload, graph, warmup, window, work_dir, tally)
        # the inputs are the harness's, not the program's: keep the
        # collector from walking them in every full collection
        gc.collect()
        gc.freeze()
        run = traced(env, out_dir) if args.trace else end_to_end(env)
        metrics = asyncio.run(run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for miss in tally.misses:
        print(f"correctness miss: {miss}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
