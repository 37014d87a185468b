"""One simulator run in a fresh process; prints one JSON object.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/sim_child.py --workload large-placement --seed 1 --mode drain

Modes:

* ``setup``: build the workload ``--repeats`` times, stopping each build
  at the first event, and report every set-up time;
* ``drain``: one untraced run: set-up time, the timed ``Simulator.run``
  drain (also scaled to the reference speed slice by slice, see
  :class:`RunProbe`), CPU time, peak RSS, the simulated statistics and
  the correctness gate;
* ``traced``: the same run with the span tracer installed before the
  build; also reports per-layer span totals and writes the spans to
  ``--spans``.

The correctness gate runs after the timed drain and outside its timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from bisect import bisect_right

from repro import run_scenario, scenario_metrics
from repro.sim.engine import Simulator
from repro.workloads.base import RequestGenerator
from repro.workloads.batched import BatchedRequestGenerator

from reference import reference_s, to_reference_speed
from sim_workloads import SIM_WORKLOADS
from spans import Patches, SpanTracer

#: Latency limit shared by both planes (the live tier's p99 limit and
#: the simulator's within-limit goodput), seconds.
LATENCY_LIMIT_S = 0.25


class _SetupDone(Exception):
    """Raised at the first event to end a set-up-only build."""


class RunProbe:
    """The untraced run's only instrumentation: clock reads around the
    first ``Simulator.run`` and the generator instances (collected as
    they are built, for the conservation check).

    The probe times ``reference_s`` when the first ``Simulator.run`` is
    entered, which ends the set-up.  With ``slice_s`` the run is then
    driven to its horizon in slices of ``slice_s`` simulated seconds,
    and ``reference_s`` is timed again after every slice, outside the
    slice's timing.  ``Simulator.run(until=t)`` fires every event up to
    ``t`` and leaves the rest queued, so the slices fire the same events
    in the same order as one call (the traced run, which is not sliced,
    must give identical statistics).

    Each slice's time is reported at the reference speed (see
    reference.py), with the reference times on either side of it.
    """

    def __init__(self, *, stop_at_first_event: bool = False, slice_s: float | None = None) -> None:
        #: perf_counter at the first ``Simulator.run`` entry.
        self.entered: float | None = None
        self.drain_s = 0.0
        self.drain_cpu_s = 0.0
        self.slice_wall: list[float] = []
        self.slice_cpu: list[float] = []
        #: Reference times: at the entry, then after every slice.
        self.refs: list[float] = []
        self.generators: list = []
        self._stop = stop_at_first_event
        self._slice_s = slice_s
        self._patches = Patches()

    def _run_sliced(self, run, sim, until: float) -> float:
        start = sim.now
        index = 0
        while True:
            index += 1
            end = min(start + index * self._slice_s, until)
            wall, cpu = time.perf_counter(), time.process_time()
            reached = run(sim, until=end)
            self.slice_wall.append(time.perf_counter() - wall)
            self.slice_cpu.append(time.process_time() - cpu)
            self.refs.append(reference_s())
            # The run ends before ``end`` only when it was stopped.
            if end >= until or reached < end:
                self.drain_s = sum(self.slice_wall)
                self.drain_cpu_s = sum(self.slice_cpu)
                return reached

    def reference_scaled(self, times: list[float]) -> float:
        """Sum of per-slice ``times``, each scaled to the reference speed."""
        refs = self.refs
        return sum(
            to_reference_speed(elapsed, refs[index], refs[index + 1])
            for index, elapsed in enumerate(times)
        )

    def install(self) -> None:
        probe = self
        patch = self._patches.patch
        run = Simulator.__dict__["run"]

        def timed_run(sim, *args, **kwargs):
            if probe.entered is not None:
                return run(sim, *args, **kwargs)
            probe.entered = time.perf_counter()
            probe.refs.append(reference_s())
            if probe._stop:
                raise _SetupDone
            until = kwargs.get("until", args[0] if args else None)
            if probe._slice_s is not None and until is not None:
                return probe._run_sliced(run, sim, until)
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.drain_cpu_s = time.process_time() - cpu
                probe.drain_s = time.perf_counter() - wall

        patch(Simulator, "run", timed_run)
        for cls in (RequestGenerator, BatchedRequestGenerator):
            init = cls.__dict__["__init__"]

            def collecting_init(gen, *args, _init=init, **kwargs):
                _init(gen, *args, **kwargs)
                probe.generators.append(gen)

            patch(cls, "__init__", collecting_init)

    def uninstall(self) -> None:
        self._patches.restore()


def stats_digest(stats: dict[str, float]) -> str:
    encoded = json.dumps(stats, sort_keys=True, allow_nan=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def run_setups(workload_name: str, seed: int, repeats: int) -> dict:
    workload = SIM_WORKLOADS[workload_name]
    times = []
    for _ in range(repeats):
        config, make_topology = workload.build(seed)
        probe = RunProbe(stop_at_first_event=True)
        probe.install()
        # Every build starts from an empty collector: otherwise the
        # garbage of the builds before it decides whether a full
        # collection lands inside this one (about 2x its time on the
        # UUNET workloads).
        gc.collect()
        before = reference_s()
        started = time.perf_counter()
        try:
            run_scenario(config, topology=make_topology())
        except _SetupDone:
            pass
        finally:
            probe.uninstall()
        if probe.entered is None:
            raise RuntimeError("set-up run never reached the first event")
        times.append(to_reference_speed(probe.entered - started, before, probe.refs[0]))
    return {"setup_s": times}


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def run_once(workload_name: str, seed: int, *, traced: bool, spans_path: str | None) -> dict:
    workload = SIM_WORKLOADS[workload_name]
    tracer = SpanTracer() if traced else None
    if tracer is not None:
        tracer.install()
    config, make_topology = workload.build(seed)
    probe = RunProbe(slice_s=None if traced else workload.slice_s)
    probe.install()
    gc.collect()  # as in run_setups
    before = reference_s()
    started = time.perf_counter()
    if tracer is not None:
        topology = tracer.span("topology.build", make_topology)
        result = run_scenario(config, topology=topology)
        stats = tracer.span("metrics.scenario_metrics", scenario_metrics, result)
    else:
        topology = make_topology()
        result = run_scenario(config, topology=topology)
        stats = scenario_metrics(result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.uninstall()
    spans = None
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.summary()
        spans["rpc.counters"] = {
            "retries": float(result.system.rpc.retries),
            "timeouts": float(result.system.rpc.timeouts),
        }
        if spans_path:
            tracer.save(spans_path)

    # -- correctness gate (untimed) ------------------------------------
    failures: list[str] = []
    system = result.system
    latency = result.latency
    try:
        system.check_invariants()
    except Exception as exc:  # the gate reports any invariant failure
        failures.append(f"check_invariants: {exc}")
    lane_installed = system.fast_lane is not None
    check(
        lane_installed == workload.fast_lane,
        f"fast lane installed={lane_installed}, expected {workload.fast_lane}",
        failures,
    )
    for name, collected, counted in (
        ("dropped", latency.dropped, system.dropped_requests),
        ("failed", latency.failed, system.failed_requests),
        ("lost", latency.lost, system.lost_requests),
    ):
        check(
            collected == counted,
            f"{name}: collector saw {collected}, system counted {counted}",
            failures,
        )
    terminal = latency.completed + latency.dropped + latency.failed + latency.lost
    samples = sorted(latency.samples or ())
    check(len(samples) == latency.completed, "latency samples != completed", failures)
    check(latency.completed > 0, "no request completed", failures)
    outcome = {
        "completed": latency.completed,
        "dropped": latency.dropped,
        "failed": latency.failed,
        "lost": latency.lost,
    }
    model = {
        "latency_p50_s": latency.percentile(50) if samples else 0.0,
        "latency_p90_s": latency.percentile(90) if samples else 0.0,
        "latency_p99_s": latency.percentile(99) if samples else 0.0,
        "within_limit_per_s": bisect_right(samples, LATENCY_LIMIT_S) / config.duration,
    }
    digest_input = dict(stats)
    digest_input.update(outcome)
    digest_input.update(model)
    # Conservation: the generators are stopped; run on past the horizon
    # until the requests in flight (and arrivals pre-drawn past the
    # horizon) have finished.  Then every issued request must have
    # exactly one outcome.
    system.sim.run(until=config.duration + 3600.0)
    issued = sum(gen.generated for gen in probe.generators)
    settled = latency.completed + latency.dropped + latency.failed + latency.lost
    check(
        issued == settled,
        f"conservation: issued {issued} != completed+dropped+failed+lost {settled}",
        failures,
    )

    return {
        "workload": workload_name,
        "seed": seed,
        "setup_s": to_reference_speed(probe.entered - started, before, probe.refs[0]),
        "drain_s": probe.drain_s,
        "drain_cpu_s": probe.drain_cpu_s,
        "drain_ref_s": probe.reference_scaled(probe.slice_wall),
        "drain_cpu_ref_s": probe.reference_scaled(probe.slice_cpu),
        "peak_rss_mb": peak_rss_mb,
        "outcome": outcome,
        "issued": issued,
        "in_flight_at_horizon": issued - terminal,
        "stats": stats,
        "model": model,
        "digest": stats_digest(digest_input),
        "failures": failures,
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIM_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "drain", "traced"), required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        payload = run_setups(args.workload, args.seed, args.repeats)
    else:
        payload = run_once(
            args.workload,
            args.seed,
            traced=args.mode == "traced",
            spans_path=args.spans,
        )
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
