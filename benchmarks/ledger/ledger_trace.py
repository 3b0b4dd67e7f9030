"""Outside-in span tracer: wraps public methods at each layer boundary.

Installed from the benchmark's own files, before the system under test is
built, by replacing class attributes (and module-level functions wherever
they were imported by name).  The program is not edited: a call the
wrappers cannot see — a bound method cached before patching, a private
helper, a call made inside the C core — simply records no span, and its
time stays in the caller's self time.

Every wrapped call appends one span (name, start_ns, end_ns, parent span)
to in-memory columns; nothing is aggregated while the workload runs.  A
span's self time is its duration minus the durations of its direct
children; a layer's ``calls`` are the spans entered from another layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer, module, class name (``None`` = module-level function), names.
BOUNDARIES: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    # ChopimSystem.run drives the engine loop; its own time (measurement
    # reset, result assembly) counts as engine so a simulation's shares sum
    # to its wall time.
    ("engine", "repro.core.system", "ChopimSystem", ("run",)),
    ("engine", "repro.engine.core", "EventEngine", ("run_until",)),
    ("engine", "repro.engine.core", "CycleEngine", ("run_until",)),
    ("engine", "repro.engine.components", "ChannelComponent",
     ("on_wake", "next_event_cycle", "advance")),
    ("engine", "repro.engine.components", "HostComponent",
     ("on_wake", "next_event_cycle", "advance")),
    ("engine", "repro.engine.components", "NdaHostComponent",
     ("on_wake", "next_event_cycle", "advance")),
    ("engine", "repro.engine.components", "NdaRankComponent",
     ("on_wake", "next_event_cycle", "advance")),
    ("memctrl", "repro.memctrl.controller", "ChannelController",
     ("tick", "enqueue", "next_event_cycle", "wake_after_tick")),
    ("memctrl", "repro.memctrl.frfcfs", "FrFcfsScheduler",
     ("select_or_horizon",)),
    ("dram", "repro.dram.device", "DramSystem",
     ("earliest_issue_at", "can_issue_at", "issue", "issue_trusted")),
    # The schedulers cache the *timing engine's* probe as a bound method and
    # bypass DramSystem.earliest_issue_at; patching the class first makes
    # those cached references point at the wrapper.
    ("dram", "repro.dram.timing", "TimingEngine", ("earliest_issue_at",)),
    ("addressing", "repro.addressing.mapping", "XorFieldMapping",
     ("to_dram",)),
    ("addressing", "repro.addressing.bank_partition", "BankPartitionMapping",
     ("to_dram",)),
    ("host", "repro.host.core", "CoreModel", ("tick_dram",)),
    ("nda", "repro.nda.controller", "NdaRankController",
     ("try_issue", "post_cycle", "plan_burst", "settle_burst",
      "next_event_cycle")),
    ("nda", "repro.nda.launch", "NdaHostController",
     ("tick", "next_event_cycle")),
    ("core", "repro.engine.components", "StatsComponent",
     ("on_wake", "next_event_cycle", "advance", "flush_trackers")),
    ("core", "repro.experiments.common", None, ("build_system",)),
    ("snapshot", "repro.snapshot.state", None,
     ("snapshot_system", "restore_system")),
    ("snapshot", "repro.snapshot.codec", None,
     ("write_snapshot", "read_snapshot")),
    ("sweeprunner", "repro.experiments.sweeprunner.ledger", "RunLedger",
     ("append_queued", "append_leased", "append_done", "append_failed",
      "compact")),
    ("sweeprunner", "repro.experiments.sweeprunner.store", "SweepCache",
     ("load", "store")),
    ("sweeprunner", "repro.experiments.sweeprunner.service", None,
     ("run_sweep_outcome",)),
    ("apps", "repro.apps.svrg", "SvrgTrainer", ("train", "train_until")),
]

#: Spans written to the trace file; the aggregates always cover every span.
MAX_SPANS_WRITTEN = 1_000_000


class Tracer:
    """Span columns filled by the wrappers :meth:`install` puts in place.

    ``hooks`` maps a span name to a callable invoked with ``(args, result)``
    after that span closes: counters are read at the same boundaries the
    spans are taken, outside the span itself.
    """

    def __init__(self, hooks: Optional[Dict[str, Callable[[tuple, Any], None]]]
                 = None) -> None:
        self.hooks = hooks or {}
        self.names: List[str] = []
        self.layers: List[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, fn: Callable[..., Any], name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_start = self.span_start.append
        add_end = self.span_end.append
        starts = self.span_start
        ends = self.span_end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_start(0)
            add_end(0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end

        hook = self.hooks.get(name)
        if hook is None:
            return traced

        def traced_then_hook(*args, **kwargs):
            result = traced(*args, **kwargs)
            hook(args, result)
            return result

        return traced_then_hook

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`.

        A boundary that no longer exists (a later change renamed or removed
        it) is still listed, with zero spans, instead of failing the run.
        """
        for layer, module_name, class_name, names in BOUNDARIES:
            for attr in names:
                label = attr if class_name is None else f"{class_name}.{attr}"
                try:
                    module = importlib.import_module(module_name)
                    owner = (module if class_name is None
                             else getattr(module, class_name))
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    self.names.append(label)
                    self.layers.append(layer)
                    continue
                wrapped = self._wrapper(original, label, layer)
                if class_name is not None:
                    setattr(owner, attr, wrapped)
                    continue
                # A module-level function: replace it everywhere it was
                # imported by name.
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", {}).get(attr) is original:
                        setattr(other, attr, wrapped)

    # -- aggregation -----------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-name and per-layer count / total / self time.

        ``crossings`` of a name and ``calls`` of a layer count boundary
        crossings only: spans whose parent belongs to another layer (or that
        have no parent).
        """
        count = len(self.span_start)
        child_ns = array("q", bytes(8 * count))
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child_ns[parent] += ends[index] - starts[index]
        by_name = [{"count": 0, "crossings": 0, "total_s": 0.0, "self_s": 0.0}
                   for _ in self.names]
        by_layer: Dict[str, Dict[str, float]] = {}
        for layer in self.layers:
            by_layer.setdefault(layer, {"calls": 0, "self_s": 0.0})
        name_ids = self.span_name
        layers = self.layers
        for index in range(count):
            name_id = name_ids[index]
            duration = ends[index] - starts[index]
            self_ns = duration - child_ns[index]
            entry = by_name[name_id]
            entry["count"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += self_ns / 1e9
            layer = layers[name_id]
            by_layer[layer]["self_s"] += self_ns / 1e9
            parent = parents[index]
            if parent < 0 or layers[name_ids[parent]] != layer:
                entry["crossings"] += 1
                by_layer[layer]["calls"] += 1
        names = {name: dict(entry, layer=self.layers[i])
                 for i, (name, entry) in enumerate(zip(self.names, by_name))}
        return {"names": names, "layers": by_layer}

    def write(self, path, workload: str, summary: Dict[str, Any]) -> None:
        """One header line, then one ``[name, start_ns, end_ns, parent]`` per span."""
        count = len(self.span_start)
        written = min(count, MAX_SPANS_WRITTEN)
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "workload": workload,
                "columns": ["name", "start_ns", "end_ns", "parent"],
                "names": self.names,
                "layers": self.layers,
                "spans_total": count,
                "spans_written": written,
                "summary": summary,
            }
            handle.write(json.dumps(header) + "\n")
            name_ids = self.span_name
            starts = self.span_start
            ends = self.span_end
            parents = self.span_parent
            step = 50_000
            for low in range(0, written, step):
                high = min(written, low + step)
                handle.write("".join(
                    f"[{name_ids[i]},{starts[i]},{ends[i]},{parents[i]}]\n"
                    for i in range(low, high)))
