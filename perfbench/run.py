"""The repository benchmark: one command, three workloads, every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload large-placement --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` adds a traced run and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its value and unit.  See perfbench/README.md
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SIM_WORKLOADS = ("large-placement", "uunet-faulted-writes")
LIVE_WORKLOAD = "live-sharded"
WORKLOADS = SIM_WORKLOADS + (LIVE_WORKLOAD,)

#: Builds in each of a run's two set-up-only children (one before the
#: drains, one after), on top of each drain's own set-up.
SETUP_REPEATS = {"large-placement": 1, "uunet-faulted-writes": 3}
#: Every child must finish within this many seconds.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "served_share": "ratio",
    "server_cpu_us_per_req": "us",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "slo_rps": "1/s",
    "model.latency_s": "s",
    "model.max_load_settled": "1/s",
    "model.fresh_read_share": "ratio",
}

#: Spans that report calls, self seconds and microseconds per call.
CALL_SPANS = (
    "fastlane.submit",
    "protocol.submit",
    "network.transmit",
    "redirector.choose_replica",
    "create_obj",
    "offload",
    "request_drop",
    "host.measure",
    "rpc.call",
    "rpc.notify",
    "rpc.bulk",
    "rpc.oneway",
    "rpc.update_push",
    "consistency.provider_write",
    "antientropy.sync_host",
    "antientropy.round",
)
#: Build spans reported as seconds.
BUILD_SPANS = {
    "topology.build_s": "topology.build",
    "routing.build_s": "routing.build",
    "protocol.init_s": "protocol.init",
    "protocol.initial_placement_s": "protocol.initial_placement",
}
FINALIZE_SPANS = ("metrics.lane_flush", "metrics.load_finalize", "metrics.scenario_metrics")
LIVE_LAYER_METRICS = {
    "live.route_ms.p50": "ms",
    "live.fetch_ms.p50": "ms",
    "live.gateway_hop_ms.p50": "ms",
    "live.driver.max_lag_ms": "ms",
    "live.driver.late_share": "ratio",
    "live.limit_is_driver": "bool",
    "live.samples": "count",
    "live.server.route_forwards": "count",
    "live.server.served": "count",
    "live.server.throttled_429": "count",
    "live.retries_409": "count",
    "live.pool.dials": "count",
    "live.pool.reuses": "count",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in CALL_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_call"] = "us"
    units["sim.run.self_s"] = "s"
    units["placement.run_host.calls"] = "count"
    units["placement.run_host.self_s"] = "s"
    units["placement.run_host.ms_per_call"] = "ms"
    units["placement.run_host.moved_ratio"] = "ratio"
    units["create_obj.accept_ratio"] = "ratio"
    units["offload.objects_moved"] = "count"
    units["request_drop.granted_ratio"] = "ratio"
    for name in BUILD_SPANS:
        units[name] = "s"
    units["rpc.retries"] = "count"
    units["rpc.timeouts"] = "count"
    units["metrics.finalize_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["raw_requests_per_s"] = "1/s"
    units["failed_share"] = "ratio"
    units["latency_p99_ms"] = "ms"
    units["model.bandwidth_reduction"] = "ratio"
    units["model.overhead_fraction"] = "ratio"
    units["model.stale_read_fraction"] = "ratio"
    units.update(LIVE_LAYER_METRICS)
    return units


class GateFailure(RuntimeError):
    """A correctness check failed; the workload reports no numbers."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_child(args: list[str]) -> dict:
    """Run ``sim_child.py`` in a fresh process and parse its JSON line."""
    command = [sys.executable, str(HERE / "sim_child.py"), *args]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise GateFailure(
            f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@functools.cache
def source_hash() -> str:
    """Hash of the program's and the benchmark's sources.

    Same-seed digests are kept per source hash, so a digest recorded for
    one commit is never checked against another.
    """
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digest(workload: str, seed: int, digest: str) -> None:
    """Same-seed runs of the same sources must produce identical statistics.

    The first run of a (workload, seed) pair on these sources records its
    digest; every later run of the pair on the same sources must
    reproduce it.
    """
    path = OUT / "digests" / source_hash() / f"{workload}-{seed}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            raise GateFailure(
                f"{workload} seed {seed}: statistics digest {digest} differs "
                f"from the earlier same-seed run's {recorded}"
            )
    else:
        path.write_text(digest + "\n")


def gate(run: dict) -> None:
    if run["failures"]:
        raise GateFailure(f"{run['workload']}: " + "; ".join(run["failures"]))
    check_digest(run["workload"], run["seed"], run["digest"])


def sim_end_to_end(drain: dict, setups: list[float]) -> dict[str, float]:
    outcome = drain["outcome"]
    completed = outcome["completed"]
    terminal = sum(outcome.values())
    stats = drain["stats"]
    model = drain["model"]
    return {
        "requests_per_s": completed / drain["drain_ref_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": drain["peak_rss_mb"],
        "served_share": completed / terminal,
        "server_cpu_us_per_req": drain["drain_cpu_ref_s"] / completed * 1e6,
        "latency_p50_ms": model["latency_p50_s"] * 1000.0,
        "latency_p90_ms": model["latency_p90_s"] * 1000.0,
        "slo_rps": model["within_limit_per_s"],
        "model.latency_s": stats["latency_equilibrium"],
        "model.max_load_settled": stats["max_load_settled"],
        "model.fresh_read_share": 1.0 - stats.get("stale_read_fraction", 0.0),
    }


def sim_per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    spans = traced["spans"]
    metrics = {name: 0.0 for name in per_layer_units()}
    for name in CALL_SPANS:
        span = spans[name]
        metrics[f"{name}.calls"] = span["calls"]
        metrics[f"{name}.self_s"] = span["self_s"]
        metrics[f"{name}.us_per_call"] = (
            span["total_s"] / span["calls"] * 1e6 if span["calls"] else 0.0
        )
    metrics["sim.run.self_s"] = spans["sim.run"]["self_s"]
    placement = spans["placement.run_host"]
    metrics["placement.run_host.calls"] = placement["calls"]
    metrics["placement.run_host.self_s"] = placement["self_s"]
    if placement["calls"]:
        metrics["placement.run_host.ms_per_call"] = (
            placement["total_s"] / placement["calls"] * 1e3
        )
        metrics["placement.run_host.moved_ratio"] = placement["outcome"] / placement["calls"]
    for name, key in (("create_obj", "accept_ratio"), ("request_drop", "granted_ratio")):
        if spans[name]["calls"]:
            metrics[f"{name}.{key}"] = spans[name]["outcome"] / spans[name]["calls"]
    metrics["offload.objects_moved"] = spans["offload"]["outcome"]
    for metric, span in BUILD_SPANS.items():
        metrics[metric] = spans[span]["total_s"]
    metrics["rpc.retries"] = spans["rpc.counters"]["retries"]
    metrics["rpc.timeouts"] = spans["rpc.counters"]["timeouts"]
    metrics["metrics.finalize_s"] = sum(spans[name]["total_s"] for name in FINALIZE_SPANS)
    metrics["trace.overhead_ratio"] = traced["drain_s"] / untraced["drain_s"]
    metrics["raw_requests_per_s"] = (
        untraced["outcome"]["completed"] / untraced["drain_s"]
    )
    outcome = traced["outcome"]
    stats = traced["stats"]
    metrics["failed_share"] = 1.0 - outcome["completed"] / sum(outcome.values())
    metrics["latency_p99_ms"] = traced["model"]["latency_p99_s"] * 1000.0
    metrics["model.bandwidth_reduction"] = stats["bandwidth_reduction"]
    metrics["model.overhead_fraction"] = stats["overhead_fraction"]
    metrics["model.stale_read_fraction"] = stats.get("stale_read_fraction", 0.0)
    return metrics


def run_sim(workload: str, seed: int, trace: bool) -> tuple[dict, int]:
    """Returns the metrics and the number of simulator runs made.

    A simulator run measures a fixed amount of work: one drain of the
    workload's horizon, which takes about 18-26 s.
    """
    common = ["--workload", workload, "--seed", str(seed)]

    def drain() -> dict:
        run = run_child([*common, "--mode", "drain"])
        gate(run)
        return run

    if trace:
        untraced = drain()
        spans_path = OUT / f"spans-{workload}-{seed}.npz"
        traced = run_child([*common, "--mode", "traced", "--spans", str(spans_path)])
        gate(traced)
        if traced["digest"] != untraced["digest"]:
            raise GateFailure("traced and untraced runs gave different statistics")
        return sim_per_layer(untraced, traced), 2
    # Set-up-only builds run before and after the drains, so that the
    # set-up time samples both ends of the run.
    setup = [*common, "--mode", "setup", "--repeats", str(SETUP_REPEATS[workload])]
    setup_times = run_child(setup)["setup_s"]
    untraced = drain()
    setup_times += run_child(setup)["setup_s"]
    setup_times.append(untraced["setup_s"])
    return sim_end_to_end(untraced, setup_times), 3


def run_live_workload(seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Returns the metrics, requests attempted and requests failed."""
    sys.path.insert(0, str(ROOT / "src"))
    import live

    try:
        measured = live.run_live(ROOT, OUT, seed, seconds, trace)
    except live.TierError as exc:
        raise GateFailure(f"live: {exc}") from exc
    servers = measured["servers"]
    search = measured["search"]
    steps = [
        *(server[phase] for server in servers for phase in ("fixed", "saturation")),
        *search["steps"],
    ]
    attempted = sum(step.offered for step in steps)
    failed = sum(step.failed + step.stale_bodies for step in steps)
    if trace:
        return live_per_layer(measured), attempted, failed

    fixed = [server["fixed"] for server in servers]
    launches = [step.samples for step in fixed]
    samples = [sample for step in fixed for sample in step.samples]
    completed = len(samples)
    saturation = [server["saturation"] for server in servers]
    metrics = {
        "requests_per_s": live.pooled_rps(saturation),
        "setup_s": statistics.median(server["setup_s"] for server in servers),
        "peak_rss_mb": max(server["peak_rss_mb"] for server in servers),
        "served_share": completed / sum(step.offered for step in fixed),
        "server_cpu_us_per_req": sum(server["saturation_cpu_ref_s"] for server in servers)
        / sum(step.completed for step in saturation)
        * 1e6,
        "latency_p50_ms": live.best_launch(
            launches, lambda launch: live.percentile_ms(launch, 0.50)
        ),
        "latency_p90_ms": live.best_launch(
            launches, lambda launch: live.percentile_ms(launch, 0.90)
        ),
        # The share of the capacity that met the SLO, at the reference
        # speed of ``requests_per_s``.
        "slo_rps": search["best_share"] * live.pooled_rps(saturation),
        "model.latency_s": live.best_launch(launches, live.trimmed_mean_s),
        "model.max_load_settled": statistics.fmean(server["max_load"] for server in servers),
        "model.fresh_read_share": completed
        / (completed + sum(step.stale_bodies for step in fixed)),
    }
    return metrics, attempted, failed


def live_per_layer(measured: dict) -> dict[str, float]:
    import live

    servers = measured["servers"]
    samples = [sample for server in servers for sample in server["fixed"].samples]
    driver_lags = [lag for server in servers for lag in server["fixed"].driver_lags]
    offered = sum(server["fixed"].offered for server in servers)
    metrics = {name: 0.0 for name in per_layer_units()}

    def p50(values: list[float]) -> float:
        return statistics.median(values) * 1000.0 if values else 0.0

    via_gateway = [s.route for s in samples if not s.direct]
    direct = [s.route for s in samples if s.direct]
    metrics["live.route_ms.p50"] = p50(via_gateway)
    metrics["live.fetch_ms.p50"] = p50([s.fetch for s in samples])
    metrics["live.gateway_hop_ms.p50"] = p50(via_gateway) - p50(direct)
    metrics["live.driver.max_lag_ms"] = max(driver_lags) * 1000.0
    metrics["live.driver.late_share"] = sum(
        1 for lag in driver_lags if lag > live.LATE_SLACK_S
    ) / len(driver_lags)
    lowest_fail = measured["search"]["lowest_fail"]
    metrics["live.limit_is_driver"] = float(
        lowest_fail is not None and lowest_fail.verdict() == "driver"
    )
    metrics["live.samples"] = float(len(samples))
    metrics["live.server.route_forwards"] = float(sum(
        server["server_after"]["route_forwards"] - server["server_before"]["route_forwards"]
        for server in servers
    ))
    metrics["live.server.served"] = float(sum(server["server_served"] for server in servers))
    metrics["live.server.throttled_429"] = float(sum(
        _throttled(server["server_after"]) - _throttled(server["server_before"])
        for server in servers
    ))
    metrics["live.retries_409"] = float(sum(server["fixed"].retries_409 for server in servers))
    metrics["live.pool.dials"] = float(sum(server["pool"]["dials"] for server in servers))
    metrics["live.pool.reuses"] = float(sum(server["pool"]["reuses"] for server in servers))
    metrics["failed_share"] = 1.0 - len(samples) / offered
    metrics["latency_p99_ms"] = live.percentile_ms(samples, 0.99)
    metrics["trace.overhead_ratio"] = 1.0
    saturation = [server["saturation"] for server in servers]
    metrics["raw_requests_per_s"] = sum(step.completed for step in saturation) / sum(
        step.elapsed for step in saturation
    )
    return metrics


def _throttled(snapshot: dict) -> int:
    """429s the gateway and every shard have sent, from gateway ``/metrics``."""
    return snapshot["throttled_total"] + sum(
        shard.get("throttled_total", 0) for shard in snapshot["shards"].values()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the processes it started: the
    # exception unwinds through their ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    trace = bool(args.trace)
    try:
        if args.workload == LIVE_WORKLOAD:
            values, attempted, failed = run_live_workload(args.seed, args.seconds, trace)
        else:
            values, attempted = run_sim(args.workload, args.seed, trace)
            failed = 0
    except GateFailure as exc:
        print(f"benchmark: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    units = per_layer_units() if trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}  wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
