"""The ``live-sharded`` workload: the live tier in one server process,
driven open-loop from the benchmark process.

The server is ``python -m repro serve --role all --shards 2`` on
ephemeral ports (zipf, 64 objects).  The driver issues each request at
its due time, ``start + i / rate``: ``GET /route`` at the front door,
then ``GET /obj/...`` at the host it names, with at most ``2 x nproc``
requests in flight.  Every latency is timed from the request's due
time, so a stall in the tier (or in the driver) shows up in every
request that waited behind it.  The driver also reports how late it ran
itself: the lag between the moment it could have issued a request (due,
and a slot free) and the moment it did.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from repro.live.config import LiveConfig
from repro.live.host import object_payload
from repro.live.pool import HttpPool, PoolError
from repro.routing.hashring import HashRing
from repro.workloads.zipf import ZipfWorkload

from reference import reference_s, to_reference_speed

NUM_OBJECTS = 64
NUM_SHARDS = 2
#: Requests the driver keeps in flight at most.  With only ``nproc`` in
#: flight the saturation step is bound by round trips, not by the tier:
#: neither process reached 0.75 of a core, and its throughput swung by
#: a quarter between steps.  Twice ``nproc`` keeps the server near a full
#: core.
CONCURRENCY = 2 * (os.cpu_count() or 1)
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: With two or more CPUs the server and the driver each get their own,
#: so neither one's scheduling depends on where the kernel put the other.
SERVER_CPU = _CPUS[-1] if len(_CPUS) >= 2 else None
DRIVER_CPU = _CPUS[0] if len(_CPUS) >= 2 else None
#: p99 latency limit for ``slo_rps`` (from the due time).
LATENCY_LIMIT_MS = 250.0
#: A step fails when more than this share of requests fail.
MAX_FAILED_SHARE = 0.01
#: A request issued this long after the driver could have issued it is
#: late on the driver's side.
LATE_SLACK_S = 0.010
#: A step is driver-limited when more than this share of its requests
#: were late on the driver's side.
MAX_DRIVER_LATE_SHARE = 0.01
#: Share of the fastest requests ``model.latency_s`` averages over.
TRIMMED_SHARE = 0.95
#: Offered rate of the fixed-rate latency phase (below the knee).
FIXED_RATE = 150.0
#: Offered rate of the saturation step, above the tier's capacity.
SATURATION_RATE = 6000.0
#: The SLO search offers these shares of the saturated capacity, one
#: equal step each, lowest first; it climbs the ladder ``SEARCH_PASSES``
#: times.  It stops short of 1.0: an open loop offered the whole
#: capacity has no slack, so whether its backlog grows depends only on
#: whether the machine runs faster or slower than while the capacity
#: was measured.
SEARCH_LADDER = (0.8, 0.85, 0.9, 0.95)
SEARCH_PASSES = 3
#: The saturation step runs as sub-steps of about this many seconds,
#: with both CPUs' reference times taken between them (see
#: ``Driver.saturate``).
SUB_STEP_S = 0.25
#: Server launches per run.  Rates and counts are pooled over them; the
#: latency metrics come from the launch with the lowest latency (see
#: ``best_launch``).
LAUNCHES = 4
#: Share of ``/route`` calls the traced run sends straight to the owning
#: shard, to measure the gateway hop.
DIRECT_SHARE = 0.25
STARTUP_TIMEOUT_S = 30.0


class TierError(RuntimeError):
    """The live tier failed to start or answered incorrectly."""


@dataclass
class Sample:
    latency: float
    route: float
    fetch: float
    direct: bool


@dataclass
class StepResult:
    rate: float
    offered: int
    samples: list[Sample] = field(default_factory=list)
    failed: int = 0
    stale_bodies: int = 0
    retries_409: int = 0
    driver_lags: list[float] = field(default_factory=list)
    issue_lags: list[float] = field(default_factory=list)
    #: Seconds from the first due time until the last reply.
    elapsed: float = 0.0
    #: ``elapsed`` at the reference speed (see reference.py).
    reference_elapsed: float = 0.0

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.elapsed

    @property
    def completed(self) -> int:
        return len(self.samples)

    @property
    def failed_share(self) -> float:
        return (self.failed + self.stale_bodies) / self.offered if self.offered else 1.0

    @property
    def driver_late_share(self) -> float:
        late = sum(1 for lag in self.driver_lags if lag > LATE_SLACK_S)
        return late / len(self.driver_lags) if self.driver_lags else 0.0

    @property
    def backlog_growth_s(self) -> float:
        """Mean issue lag of the last tenth of the step minus the first."""
        lags = self.issue_lags
        tenth = max(1, len(lags) // 10)
        return sum(lags[-tenth:]) / tenth - sum(lags[:tenth]) / tenth

    def verdict(self) -> str:
        """"ok", or which condition the step broke."""
        if self.driver_late_share > MAX_DRIVER_LATE_SHARE:
            return "driver"
        if self.failed_share > MAX_FAILED_SHARE:
            return "failures"
        if self.backlog_growth_s > LATENCY_LIMIT_MS / 1000.0 / 10.0:
            return "backlog"
        if percentile_ms(self.samples, 0.99) > LATENCY_LIMIT_MS:
            return "p99"
        return "ok"


def percentile_ms(samples: list[Sample], q: float) -> float:
    """Nearest-rank latency percentile, milliseconds."""
    values = sorted(sample.latency for sample in samples)
    if not values:
        return float("inf")
    rank = min(len(values) - 1, max(0, int(round(q * len(values) + 0.5)) - 1))
    return values[rank] * 1000.0


def pooled_rps(steps: list[StepResult]) -> float:
    """Completed requests per second at the reference speed over several
    steps together."""
    return sum(step.completed for step in steps) / sum(
        step.reference_elapsed for step in steps
    )


def merge_steps(parts: list[StepResult]) -> StepResult:
    """One step's figures from consecutive sub-steps at the same rate."""
    merged = StepResult(rate=parts[0].rate, offered=0)
    for part in parts:
        merged.offered += part.offered
        merged.samples += part.samples
        merged.failed += part.failed
        merged.stale_bodies += part.stale_bodies
        merged.retries_409 += part.retries_409
        merged.driver_lags += part.driver_lags
        merged.issue_lags += part.issue_lags
        merged.elapsed += part.elapsed
        merged.reference_elapsed += part.reference_elapsed
    return merged


def server_reference_s() -> float:
    """``reference_s`` on the server's CPU.

    The driver moves to the server's CPU for the 4 ms it takes; callers
    make sure no request is in flight.  With one CPU the two share it.
    """
    if SERVER_CPU is None:
        return reference_s()
    os.sched_setaffinity(0, {SERVER_CPU})
    try:
        return reference_s()
    finally:
        os.sched_setaffinity(0, {DRIVER_CPU})


def tier_reference_s() -> float:
    """Mean of two ``reference_s`` samples on the driver's CPU and two on
    the server's.

    A saturated step keeps both CPUs busy, and the mean of the two
    steadied the saturated throughput and the server's CPU time per
    request more than either CPU's own reference time did.  One sample
    per CPU left the scaled throughput of six runs spread by 0.06, two
    by 0.03.
    """
    return statistics.fmean(
        (reference_s(), server_reference_s(), reference_s(), server_reference_s())
    )


def best_launch(
    launches: list[list[Sample]], measure: Callable[[list[Sample]], float]
) -> float:
    """``measure`` of each launch's samples; the lowest of them.

    The benchmark machine's speed alternates between levels that last
    seconds, and a whole launch's fixed-rate phase tends to fall in one
    of them: its p90 read about 2.5 ms or about 4.5 ms.  Pooling the
    launches mixes the two levels in a proportion that changes from run
    to run; the best launch reads the fast level unless every launch
    fell in a slow one.
    """
    return min(measure(samples) for samples in launches)


def trimmed_mean_s(samples: list[Sample]) -> float:
    """Mean latency of the fastest ``TRIMMED_SHARE`` of the requests.

    The few requests caught in one of the tier's periodic stalls would
    otherwise decide the mean (see README.md).
    """
    values = sorted(sample.latency for sample in samples)
    return statistics.fmean(values[: max(1, int(len(values) * TRIMMED_SHARE))])


class LiveServer:
    """One ``serve --role all`` process on ephemeral ports."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.process: subprocess.Popen | None = None
        self.front: tuple[str, int] | None = None
        self.setup_s = 0.0

    def start(self) -> None:
        port_file = self.workdir / "front.port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        command = [
            sys.executable, "-m", "repro", "serve", "--role", "all",
            "--shards", str(NUM_SHARDS), "--objects", str(NUM_OBJECTS),
            "--base-port", "0", "--port-file", str(port_file),
        ]
        before = tier_reference_s()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=self.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if SERVER_CPU is not None:
            # Before the server starts any thread, so all of them inherit it.
            os.sched_setaffinity(self.process.pid, {SERVER_CPU})
        deadline = started + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise TierError(f"server exited with {self.process.returncode}")
            try:
                text = port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                elapsed = time.perf_counter() - started
                self.setup_s = to_reference_speed(elapsed, before, tier_reference_s())
                self.front = ("127.0.0.1", int(text))
                return
            time.sleep(0.002)
        raise TierError("server did not bind its ports in time")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from /proc/<pid>/stat."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise TierError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


class Driver:
    """Open-loop route-then-fetch driver with a bounded in-flight count."""

    def __init__(self, front: tuple[str, int], seed: int) -> None:
        self.front = front
        self.config = LiveConfig(num_objects=NUM_OBJECTS, num_shards=NUM_SHARDS, base_port=0)
        self.ring = HashRing(NUM_SHARDS, vnodes=self.config.ring_vnodes)
        self.workload = ZipfWorkload(NUM_OBJECTS)
        self.gateways = list(self.config.build_topology().nodes)
        self.rng = random.Random(seed)
        self.pool = HttpPool(timeout=10.0, max_idle_per_peer=CONCURRENCY * 2)
        self.shards: dict[int, tuple[str, int]] = {}
        self.payloads = {
            obj: object_payload(obj, self.config.object_size)
            for obj in range(NUM_OBJECTS)
        }

    async def discover(self) -> None:
        status, _, payload = await self.pool.request_json(
            self.front, "GET", "/admin/endpoints"
        )
        if status != 200:
            raise TierError(f"/admin/endpoints -> {status}")
        self.shards = {
            int(shard): (address[0], int(address[1]))
            for shard, address in payload["shards"].items()
        }
        if len(self.shards) != NUM_SHARDS:
            raise TierError(f"expected {NUM_SHARDS} shards, saw {sorted(self.shards)}")

    async def metrics(self) -> dict:
        status, _, payload = await self.pool.request_json(self.front, "GET", "/metrics")
        if status != 200:
            raise TierError(f"/metrics -> {status}")
        return payload

    async def host_metrics(self) -> list[dict]:
        status, _, payload = await self.pool.request_json(
            self.front, "GET", "/admin/endpoints"
        )
        hosts = []
        for address in payload["hosts"].values():
            _, _, snapshot = await self.pool.request_json(
                (address[0], int(address[1])), "GET", "/metrics"
            )
            hosts.append(snapshot)
        return hosts

    async def _one(self, step: StepResult, obj: int, gateway: int, due: float,
                   direct: bool, slots: asyncio.Semaphore) -> None:
        try:
            exclude = None
            for attempt in range(2):
                began = time.perf_counter()
                path = f"/route?obj={obj}&gateway={gateway}"
                if exclude is not None:
                    path += f"&exclude={exclude}"
                target = self.shards[self.ring.owner(obj)] if direct else self.front
                status, _, body = await self.pool.request(target, "GET", path)
                routed = time.perf_counter()
                if status != 200:
                    raise TierError(f"route -> {status}")
                route = json.loads(body)
                url = urlsplit(route["url"])
                status, _, data = await self.pool.request(
                    (url.hostname, url.port), "GET", f"{url.path}?{url.query}"
                )
                done = time.perf_counter()
                if status == 409 and attempt == 0:
                    step.retries_409 += 1
                    exclude = int(route["server"])
                    continue
                if status != 200:
                    raise TierError(f"fetch -> {status}")
                if data != self.payloads[obj]:
                    step.stale_bodies += 1
                    return
                step.samples.append(
                    Sample(done - due, routed - began, done - routed, direct)
                )
                return
        except (PoolError, TierError, OSError, asyncio.TimeoutError, ValueError, KeyError):
            step.failed += 1
        finally:
            slots.release()

    async def step(self, rate: float, duration: float, *, direct_share: float = 0.0) -> StepResult:
        """Offer ``rate`` requests/s for ``duration`` s; wait for all replies.

        Requests still unissued when ``duration`` has passed (the tier fell
        behind) are not offered, so an overloaded step ends on time.
        """
        count = max(1, int(rate * duration))
        step = StepResult(rate=rate, offered=0)
        slots = asyncio.Semaphore(CONCURRENCY)
        tasks = set()
        rng = self.rng
        clock = time.perf_counter
        start = clock() + 0.005
        deadline = start + duration
        ready_floor = start
        for index in range(count):
            due = start + index / rate
            now = clock()
            if now < due:
                await asyncio.sleep(due - now)
                now = clock()
            elif now > deadline:
                break
            # The driver could have issued this request at its due time,
            # or when the previous one got its slot, whichever is later;
            # anything past that is the driver's own lag.
            step.driver_lags.append(max(0.0, now - max(due, ready_floor)))
            await slots.acquire()
            ready_floor = clock()
            step.issue_lags.append(ready_floor - due)
            gateway = rng.choice(self.gateways)
            obj = self.workload.sample(gateway, rng)
            direct = direct_share > 0.0 and rng.random() < direct_share
            step.offered += 1
            task = asyncio.create_task(self._one(step, obj, gateway, due, direct, slots))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)
        step.elapsed = clock() - start
        return step

    async def saturate(
        self, server: "LiveServer", rate: float, duration: float
    ) -> tuple[StepResult, float]:
        """Offer ``rate`` for ``duration`` s in sub-steps of about
        ``SUB_STEP_S``, timing ``tier_reference_s`` between them.

        Each sub-step's elapsed time and server CPU time are scaled to
        the reference speed with ``tier_reference_s`` on either side of
        it.  Returns the merged step and the server's CPU seconds at the
        reference speed.
        """
        count = max(1, round(duration / SUB_STEP_S))
        parts = []
        cpu_reference_s = 0.0
        before = tier_reference_s()
        for _ in range(count):
            cpu = server.cpu_seconds()
            part = await self.step(rate, duration / count)
            used = server.cpu_seconds() - cpu
            after = tier_reference_s()
            speed = to_reference_speed(1.0, before, after)
            part.reference_elapsed = part.elapsed * speed
            cpu_reference_s += used * speed
            parts.append(part)
            before = after
        return merge_steps(parts), cpu_reference_s

    async def close(self) -> None:
        await self.pool.close()


async def _measure(
    server: LiveServer,
    seed: int,
    seconds: float,
    traced: bool,
    *,
    search: bool,
    earlier: list[StepResult],
) -> dict:
    """One server's fixed-rate phase and saturation step.

    With ``search`` (the last server) the SLO search follows, stepping up
    to the saturated throughput of the ``earlier`` servers and this one
    together, at the speed the machine had during them.

    ``seconds`` is split over the ``LAUNCHES`` servers: each gets 30% /
    ``LAUNCHES`` at the fixed rate and 30% / ``LAUNCHES`` at saturation;
    the SLO search gets the remaining 40%.
    """
    driver = Driver(server.front, seed)
    direct_share = DIRECT_SHARE if traced else 0.0
    # The driver's own collector pauses would show as tier latency; its
    # objects are acyclic, so reference counting frees them meanwhile.
    gc.disable()
    try:
        await driver.discover()
        # Warm the connection pool and the tier's code paths.
        await driver.step(FIXED_RATE, 0.5)
        before = await driver.metrics()
        served_before = _served(await driver.host_metrics())
        fixed = await driver.step(
            FIXED_RATE, seconds * 0.3 / LAUNCHES, direct_share=direct_share
        )
        hosts = await driver.host_metrics()
        served = _served(hosts) - served_before
        after = await driver.metrics()
        saturation, saturation_cpu_ref_s = await driver.saturate(
            server, SATURATION_RATE, seconds * 0.3 / LAUNCHES
        )
        slo = None
        if search:
            steps = [*earlier, saturation]
            capacity = sum(step.completed for step in steps) / sum(
                step.elapsed for step in steps
            )
            slo = await _search_slo(driver, fixed, capacity, seconds * 0.4)
    finally:
        gc.enable()
        await driver.close()
    return {
        "fixed": fixed,
        "saturation_cpu_ref_s": saturation_cpu_ref_s,
        "server_served": served,
        "max_load": max(host["measured_load"] for host in hosts),
        "saturation": saturation,
        "search": slo,
        "server_before": before,
        "server_after": after,
        "pool": {"dials": driver.pool.dials, "reuses": driver.pool.reuses},
    }


def _served(hosts: list[dict]) -> int:
    return sum(int(host["serviced_total"]) for host in hosts)


async def _search_slo(
    driver: Driver, low_anchor: StepResult, capacity: float, budget_s: float
) -> dict:
    """Step the offered rate up a fixed ladder of shares of the capacity.

    ``capacity`` is the saturated throughput as the machine ran it (not
    scaled to the reference speed), so that the steps offer rates the
    tier can reach.  The answer is the highest step that meets the SLO,
    also as a share of ``capacity``.  The steps do not
    bisect: near capacity one of the tier's periodic stalls leaves a
    backlog that takes most of a step to drain, so it can fail a step
    whose rate is sustainable, and a bisection would search below that
    step for the rest of the run.  For the same reason the search climbs
    the ladder ``SEARCH_PASSES`` times, and a share meets the SLO when
    any of its steps does.  The fixed-rate phase is the answer when no
    step passes; the run fails when it does not pass either.
    """
    duration = budget_s / (len(SEARCH_LADDER) * SEARCH_PASSES)
    steps = []
    for _ in range(SEARCH_PASSES):
        for share in SEARCH_LADDER:
            steps.append(await driver.step(share * capacity, duration))
    passed = [step for step in (low_anchor, *steps) if step.verdict() == "ok"]
    if not passed:
        raise TierError("no offered rate met the SLO, the fixed rate included")
    best = max(passed, key=lambda step: step.rate)
    above = [step for step in steps if step.rate > best.rate]
    return {
        "best": best,
        "best_share": best.rate / capacity,
        "lowest_fail": above[0] if above else None,
        "steps": steps,
    }


def run_live(root: Path, workdir: Path, seed: int, seconds: float, traced: bool) -> dict:
    """Launch the tier ``LAUNCHES`` times and measure each server.

    Every launch times the set-up.  Rates and counts are pooled over the
    servers, so they cover the whole run rather than one stretch of it.
    """
    runs = []
    driver_cpus = os.sched_getaffinity(0) if DRIVER_CPU is not None else None
    if DRIVER_CPU is not None:
        os.sched_setaffinity(0, {DRIVER_CPU})
    try:
        for launch in range(LAUNCHES):
            server = LiveServer(root, workdir)
            try:
                server.start()
                measured = asyncio.run(
                    _measure(
                        server,
                        seed * LAUNCHES + launch,
                        seconds,
                        traced,
                        search=launch == LAUNCHES - 1,
                        earlier=[run["saturation"] for run in runs],
                    )
                )
                measured["setup_s"] = server.setup_s
                measured["peak_rss_mb"] = server.peak_rss_mb()
            finally:
                server.stop()
            runs.append(measured)
    finally:
        if driver_cpus is not None:
            os.sched_setaffinity(0, driver_cpus)
    return {"servers": runs, "search": runs[-1]["search"]}
