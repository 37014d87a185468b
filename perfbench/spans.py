"""Outside-in span tracer: class-level wrappers around public functions.

The wrappers are installed on the classes before the system is built, so
every instance (and every bound method the program caches at build time)
goes through them.  They pass arguments, return values and exceptions
through unchanged and attach nothing to the system, so the program sees
the same configuration as an untraced run (the fast lane stays eligible).

Each span records its name, start, end and parent span in flat arrays
kept in memory; :meth:`SpanTracer.save` writes them out when the run
ends.  A span's self time is its duration minus the durations of its
direct children.

numpy is imported only to summarise and save spans, so an untraced run
that uses :class:`Patches` alone does not carry it in its memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable

#: (span name, module, class, method, outcome) for every layer boundary.
#: ``outcome`` sums the wrapped call's return value per span name: "bool"
#: counts truthy results (accepted / granted / moved), "int" adds them
#: (objects moved).
TARGETS: tuple[tuple[str, str, str, str, str | None], ...] = (
    ("routing.build", "repro.routing.routes_db", "RoutingDatabase", "__init__", None),
    ("protocol.init", "repro.core.protocol", "HostingSystem", "__init__", None),
    (
        "protocol.initial_placement",
        "repro.core.protocol",
        "HostingSystem",
        "initialize_round_robin",
        None,
    ),
    ("sim.run", "repro.sim.engine", "Simulator", "run", None),
    ("fastlane.submit", "repro.core.fastlane", "FastLane", "submit_request", None),
    ("protocol.submit", "repro.core.protocol", "HostingSystem", "submit_request", None),
    (
        "redirector.choose_replica",
        "repro.core.redirector",
        "RedirectorService",
        "choose_replica",
        None,
    ),
    ("network.transmit", "repro.network.transport", "Network", "transmit", None),
    ("host.measure", "repro.core.host", "HostServer", "measure", None),
    ("placement.run_host", "repro.core.placement", "PlacementEngine", "run_host", "bool"),
    ("create_obj", "repro.core.protocol", "HostingSystem", "create_obj", "bool"),
    ("offload", "repro.core.protocol", "HostingSystem", "run_offload", "int"),
    ("request_drop", "repro.core.protocol", "HostingSystem", "request_drop", "bool"),
    ("rpc.call", "repro.network.rpc", "RpcLayer", "call", None),
    ("rpc.notify", "repro.network.rpc", "RpcLayer", "notify", None),
    ("rpc.bulk", "repro.network.rpc", "RpcLayer", "bulk", None),
    ("rpc.oneway", "repro.network.rpc", "RpcLayer", "oneway", None),
    ("rpc.update_push", "repro.network.rpc", "RpcLayer", "update_push", None),
    (
        "consistency.provider_write",
        "repro.consistency.plane",
        "ConsistencyPlane",
        "provider_write",
        None,
    ),
    (
        "antientropy.sync_host",
        "repro.consistency.antientropy",
        "AntiEntropyDaemon",
        "sync_host",
        None,
    ),
    (
        "antientropy.round",
        "repro.consistency.antientropy",
        "AntiEntropyDaemon",
        "_tick",
        None,
    ),
    ("metrics.lane_flush", "repro.core.fastlane", "FastLane", "flush", None),
    ("metrics.load_finalize", "repro.metrics.loadstats", "LoadCollector", "finalize", None),
)


class Patches:
    """Class attributes replaced for a run and put back afterwards."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def patch(self, owner: type, name: str, value: Any) -> None:
        """Set ``owner.name`` to ``value`` until :meth:`restore`."""
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


class SpanTracer:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Summed return values per span name (see ``TARGETS``).
        self.outcomes: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches = Patches()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`."""
        for name, module, cls_name, method, outcome in TARGETS:
            owner = getattr(importlib.import_module(module), cls_name)
            self.wrap(owner, method, name, outcome)

    def wrap(self, owner: type, method: str, name: str, outcome: str | None) -> None:
        self._patches.patch(
            owner, method, self._recorder(owner.__dict__[method], name, outcome)
        )

    def span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Record one span around a call the benchmark makes itself."""
        return self._recorder(fn, name, None)(*args)

    def uninstall(self) -> None:
        self._patches.restore()

    def _recorder(
        self, original: Callable[..., Any], name: str, outcome: str | None
    ) -> Callable[..., Any]:
        """``original`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        self.outcomes.setdefault(name, 0.0)
        kind_append = self.kind.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        stack = self._stack
        outcomes = self.outcomes
        clock = time.perf_counter

        tally = outcome is not None
        as_int = outcome == "int"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(end)
            kind_append(nid)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if tally:
                outcomes[name] += result if as_int else bool(result)
            return result

        return wrapper

    def save(self, path: str) -> None:
        """Write every span (name table plus the four arrays) to ``path``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            kind=np.frombuffer(self.kind, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, outcome sum."""
        import numpy as np

        kind = np.frombuffer(self.kind, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child_time
        count = len(self.names)
        calls = np.bincount(kind, minlength=count)
        total = np.bincount(kind, weights=duration, minlength=count)
        own = np.bincount(kind, weights=self_time, minlength=count)
        return {
            name: {
                "calls": float(calls[nid]),
                "total_s": float(total[nid]),
                "self_s": float(own[nid]),
                "outcome": float(self.outcomes[name]),
            }
            for name, nid in self.name_ids.items()
        }
