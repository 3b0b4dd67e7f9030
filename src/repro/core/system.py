"""Full-system Chopim simulator.

:class:`ChopimSystem` assembles the DDR4 device model, per-channel host
memory controllers, the multi-programmed host cores, the per-rank NDA
controllers, the host-side NDA controller and the statistics/energy models,
and advances them together in the DRAM command-clock domain.  The main loop
is driven by a simulation engine (see :mod:`repro.engine`): the default
event-driven engine fast-forwards over provably idle cycles, while
``engine="cycle"`` processes every cycle (the bit-exact regression
baseline; see ARCHITECTURE.md for the contract).

Typical usage::

    from repro import ChopimSystem, AccessMode
    from repro.nda.isa import NdaOpcode

    system = ChopimSystem(mode=AccessMode.BANK_PARTITIONED, mix="mix1")
    system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 16)
    result = system.run(cycles=50_000)
    print(result.summary())
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.addressing.bank_partition import BankPartitionMapping
from repro.addressing.mapping import AddressMapping, skylake_mapping
from repro.config import SystemConfig, default_config
from repro.core.energy import EnergyModel
from repro.core.modes import AccessMode, split_ranks_for_partitioning
from repro.core.scheduler import ConcurrentAccessScheduler
from repro.core.stats import SimulationResult, SimulationStats
from repro.dram.device import DramSystem
from repro.engine.components import (
    ChannelComponent,
    HostComponent,
    NdaHostComponent,
    NdaRankComponent,
    StatsComponent,
)
from repro.engine.core import SimulationEngine, make_engine
from repro.host.core import CoreModel
from repro.host.mixes import mix_profiles
from repro.host.profiles import BenchmarkProfile
from repro.host.traffic import AddressStreamGenerator
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.nda.controller import NdaRankController
from repro.nda.isa import NdaOpcode
from repro.nda.launch import NdaHostController
from repro.nda.throttle import DEFAULT_STOCHASTIC_PROBABILITY, make_policy
from repro.utils.rng import DeterministicRng
from repro.utils.state import reset_counters


@dataclasses.dataclass
class NdaKernelSpec:
    """One step of an NDA workload.

    A microbenchmark workload is one kernel; application workloads such as
    SVRG's average gradient, conjugate gradient or streamcluster are
    sequences of Table I operations.  The system cycles through the
    sequence, re-launching it for as long as the simulation runs.
    """

    STATE = ("opcode", "elements_per_rank", "matrix_columns", "cache_blocks",
             "async_launch")

    opcode: NdaOpcode
    elements_per_rank: int
    matrix_columns: int = 0
    cache_blocks: Optional[int] = None
    async_launch: bool = False


class ChopimSystem:
    """The simulated multi-core host + NDA-enabled DDR4 memory system."""

    STATE = ("now", "_measure_start", "_run_end", "_run_cycles", "rng",
             "dram", "channel_controllers", "cores", "_core_backlog",
             "_host_component", "rank_controllers", "nda_host",
             "throttle_policy", "stats", "_stats_component", "_nda_sequence",
             "_nda_sequence_index")
    #: The build spec (the checkpoint's ``build`` record) and what the
    #: constructor derives from it (the concurrent-access scheduler saves
    #: nothing); the engine's calendar is rebuilt by ``invalidate_wakes``.
    DERIVED = ("config", "mode", "mix", "collect_energy", "mapping",
               "scheduler",
               "_host_capacity", "energy_model", "_throttle_name",
               "_stochastic_probability", "_launch_packets_use_channel",
               "engine_kind", "engine", "burst", "burst_enabled")

    def __init__(self, config: Optional[SystemConfig] = None,
                 mode: AccessMode = AccessMode.SHARED,
                 mix: Optional[str] = "mix1",
                 profiles: Optional[Sequence[BenchmarkProfile]] = None,
                 throttle: str = "next_rank",
                 stochastic_probability: float = DEFAULT_STOCHASTIC_PROBABILITY,
                 launch_packets_use_channel: bool = True,
                 collect_energy: bool = True,
                 engine: str = "event",
                 burst: bool = True) -> None:
        self.config = config or default_config()
        self.config.validate()
        self.mode = mode
        self.mix = mix if profiles is None else None
        self.rng = DeterministicRng(self.config.seed, "system")
        self.collect_energy = collect_energy

        org = self.config.org
        self.dram = DramSystem(org, self.config.timing)
        self.mapping = self._build_mapping()
        self._host_capacity = self.mapping.host_capacity_bytes
        self.channel_controllers: Dict[int, ChannelController] = {
            ch: ChannelController(ch, self.dram, self.config.scheduler)
            for ch in range(org.channels)
        }
        self.scheduler = ConcurrentAccessScheduler(self.dram, self.channel_controllers)

        # ---- host cores --------------------------------------------------
        self.cores: List[CoreModel] = []
        self._core_backlog: List[Deque[MemoryRequest]] = []
        if mode.has_host_traffic:
            selected = list(profiles) if profiles is not None else mix_profiles(mix or "mix1")
            self._build_cores(selected)

        # ---- NDA controllers ----------------------------------------------
        self.rank_controllers: Dict[Tuple[int, int], NdaRankController] = {}
        self.nda_host: Optional[NdaHostController] = None
        self.throttle_policy = None
        self._throttle_name = throttle
        self._stochastic_probability = stochastic_probability
        self._launch_packets_use_channel = launch_packets_use_channel
        if mode.has_nda_traffic:
            self._build_nda(throttle, stochastic_probability, launch_packets_use_channel)

        self.stats = SimulationStats(self.config, list(self.rank_controllers.keys()))
        self.energy_model = EnergyModel(org, self.config.energy,
                                        timing=self.config.timing)
        self._nda_sequence: Optional[List[NdaKernelSpec]] = None
        self._nda_sequence_index = 0
        self.now = 0
        self._measure_start = 0
        self._run_end: Optional[int] = None
        self._run_cycles = 0

        # ---- simulation engine -------------------------------------------
        # Schedulable units run in this (slot) order on every processed
        # cycle they are due, mirroring the legacy step() body: channels,
        # host cores, NDA host, per-rank NDA controllers, statistics.  The
        # event engine wakes only due-or-dirty units and fast-forwards over
        # cycles on which no unit can act.
        self.engine_kind = engine
        self._host_component = HostComponent(self)
        self._stats_component = StatsComponent(self)
        channel_components = [ChannelComponent(self, ch)
                              for ch in sorted(self.channel_controllers)]
        components: List[object] = list(channel_components)
        host_slot = len(components)
        components.append(self._host_component)
        nda_host_component: Optional[NdaHostComponent] = None
        rank_components: List[NdaRankComponent] = []
        if self.nda_host is not None:
            nda_host_component = NdaHostComponent(self)
            components.append(nda_host_component)
            for key, controller in self.rank_controllers.items():
                rank_components.append(NdaRankComponent(self, key, controller))
            components.extend(rank_components)
        components.append(self._stats_component)
        self.engine: SimulationEngine = make_engine(engine, components)
        self._wire_wake_hub(components, channel_components, host_slot,
                            nda_host_component, rank_components)
        # Burst-issue fast path: event engine only (the cycle engine is the
        # per-cycle oracle); ``burst=False`` is the bit-exactness escape
        # hatch.  The hooks are only wired when active, so disabling
        # bursting restores the exact pre-burst hot paths.
        self.burst = burst
        self.burst_enabled = (burst and engine == "event"
                              and bool(self.rank_controllers))
        if self.burst_enabled:
            self._wire_burst(rank_components)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _wire_wake_hub(self, components: List[object],
                       channel_components: List[ChannelComponent],
                       host_slot: int,
                       nda_host_component: Optional[NdaHostComponent],
                       rank_components: List[NdaRankComponent]) -> None:
        """Wire the push-based dirty notifications between schedulable units.

        The wake hub replaces the poll-everything loop: every state change
        that could move a unit's wake-up *earlier* notifies the affected
        slot.  The routes are:

        * enqueue into a channel controller (host cores, launch packets,
          runtime) -> that channel's unit;
        * a delivered demand-read completion -> the host unit (conditional:
          only when the delivered-to core's post-delivery wake beats the
          host unit's published calendar entry);
        * a host DRAM command issue -> the issued-to rank's NDA unit (via
          the concurrent-access scheduler, which observes every host issue);
        * NDA work delivery / ``NdaHostController.submit`` -> the receiving
          rank unit / the NDA host unit.
        """
        hub = self.engine.hub
        nda_host_slot = (components.index(nda_host_component)
                         if nda_host_component is not None else -1)
        for component in channel_components:
            component.bind_targets(host_slot, nda_host_slot)
        # Completion deliveries dirty the host unit conditionally from
        # HostComponent.deliver_completion (the outstanding-completion
        # horizon check) — no per-core listener needed.
        channel_slots = {component.channel: slot
                         for slot, component in enumerate(channel_components)}
        for ch, controller in self.channel_controllers.items():
            controller.wake_listener = hub.dirtier(channel_slots[ch])
            # Timed completions live in the host unit's completion calendar
            # (the outstanding-completion horizon): deliveries stop forcing
            # controller wakes entirely.
            controller.completion_sink = self._host_component.schedule_completion
        rank_slots: Dict[Tuple[int, int], int] = {}
        for component in rank_components:
            slot = components.index(component)
            rank_slots[component.key] = slot
            component.bind_targets(nda_host_slot)
            component.controller.wake_listener = hub.dirtier(slot)
        self.scheduler.bind_wake_hub(hub, rank_slots)
        if self.nda_host is not None:
            self.nda_host.wake_listener = hub.dirtier(nda_host_slot)

    def _wire_burst(self, rank_components: List[NdaRankComponent]) -> None:
        """Wire the burst-issue settlement and truncation routes.

        Settlement: each channel controller applies its ranks' planned
        command prefixes before any FR-FCFS scan or command issue reads the
        rank timing state.  Truncation: a host issue to a rank cancels that
        rank's plan (via the concurrent-access scheduler, which sees every
        host issue), and a read-queue change that flips the throttle
        decision a plan embeds — write plans and read plans made under a
        pending drain; the next-rank throttle reads the oldest queued read
        — truncates that plan, as does a host enqueue to the bank of a
        row command the plan counts on staying blocked.
        """
        for component in rank_components:
            component.burst_enabled = True
        by_channel: Dict[int, List[NdaRankController]] = {}
        for (ch, _rk), controller in self.rank_controllers.items():
            by_channel.setdefault(ch, []).append(controller)
        self.scheduler.bind_burst_controllers(self.rank_controllers)
        bank_index = self.dram.bank_index
        for ch, channel_controller in self.channel_controllers.items():
            ranks = by_channel.get(ch)
            if not ranks:
                continue

            def settle(upto: int, ranks=ranks) -> None:
                for rc in ranks:
                    # This runs before every FR-FCFS scan/issue on the
                    # channel, and most boundaries fall between two planned
                    # commands.
                    if upto > rc.burst_due:
                        rc.settle_burst(upto)

            # The class table says which live plans an event can break.
            def truncate_throttled(now: int, ranks=ranks) -> None:
                for rc in ranks:
                    cls = rc.burst_class
                    if cls is not None and cls.embeds_decision:
                        rc.stop_burst(now, "read_queue", park=True)

            by_rank = {rc.rank: rc for rc in ranks}

            def truncate_contended(now: int, addr, by_rank=by_rank) -> None:
                rc = by_rank.get(addr.rank)
                if rc is not None:
                    cls = rc.burst_class
                    if cls is not None and cls.absorbs_rows:
                        rc.stop_burst(now, "bank_demand", park=True,
                                      bank=bank_index(addr))

            channel_controller.burst_settler = settle
            channel_controller.read_queue_listener = truncate_throttled
            channel_controller.bank_demand_listener = truncate_contended

    def _build_mapping(self) -> AddressMapping:
        if self.mode.uses_bank_partitioning:
            return BankPartitionMapping(
                self.config.org,
                reserved_banks_per_rank=self.config.shared_banks_per_rank,
            )
        return skylake_mapping(self.config.org)

    def _build_cores(self, profiles: Sequence[BenchmarkProfile]) -> None:
        region_bytes = self._host_capacity // max(1, len(profiles))
        align = self.config.org.system_row_bytes
        region_bytes = (region_bytes // align) * align
        for core_id, profile in enumerate(profiles):
            rng = self.rng.spawn(f"core{core_id}.{profile.name}")
            traffic = AddressStreamGenerator(
                profile,
                region_base=core_id * region_bytes,
                region_bytes=region_bytes,
                rng=rng.spawn("traffic"),
                cacheline_bytes=self.config.org.cacheline_bytes,
            )
            self.cores.append(
                CoreModel(core_id, profile, traffic, self.config.host, rng)
            )
            self._core_backlog.append(deque())

    def _nda_rank_keys(self) -> List[Tuple[int, int]]:
        org = self.config.org
        if self.mode is AccessMode.RANK_PARTITIONED:
            _, nda_ranks = split_ranks_for_partitioning(org.ranks_per_channel)
            return [(ch, rk) for ch in range(org.channels) for rk in nda_ranks]
        return [(ch, rk) for ch in range(org.channels)
                for rk in range(org.ranks_per_channel)]

    def _nda_allowed_banks(self) -> List[int]:
        return list(self.mapping.reserved_banks
                    or range(self.config.org.banks_per_rank))

    def _build_nda(self, throttle: str, probability: float,
                   launch_packets_use_channel: bool) -> None:
        allowed_banks = self._nda_allowed_banks()
        policy = make_policy(
            throttle,
            rng=self.rng.spawn("stochastic_issue"),
            probability=probability,
            host_controllers=self.channel_controllers,
        )
        self.throttle_policy = policy
        for key in self._nda_rank_keys():
            ch, rk = key
            controller = NdaRankController(
                channel=ch, rank=rk, dram=self.dram, config=self.config.nda,
                allowed_banks=allowed_banks, throttle=policy,
                host_pending_to_bank=self.scheduler.host_pending_to_bank,
            )
            controller.refresh_enabled = self.config.scheduler.refresh_enabled
            self.rank_controllers[key] = controller
        self.nda_host = NdaHostController(
            self.dram, self.channel_controllers, self.rank_controllers,
            config=self.config.nda,
            launch_packets_use_channel=launch_packets_use_channel,
        )

    # ------------------------------------------------------------------ #
    # Workload control
    # ------------------------------------------------------------------ #

    def set_nda_workload(self, opcode: NdaOpcode, elements_per_rank: int,
                         cache_blocks: Optional[int] = None,
                         async_launch: bool = False,
                         matrix_columns: int = 0) -> None:
        """Configure an NDA kernel that is (re-)launched whenever the NDAs idle.

        This matches the paper's methodology: "If an NDA workload completes
        while the simulation is still running, it is relaunched so that
        concurrent access occurs throughout the simulation time."  It is the
        one-kernel case of :meth:`set_nda_workload_sequence`.
        """
        self.set_nda_workload_sequence([NdaKernelSpec(
            opcode, elements_per_rank, matrix_columns=matrix_columns,
            cache_blocks=cache_blocks, async_launch=async_launch)])

    def set_nda_workload_sequence(self, kernels: Sequence["NdaKernelSpec"]) -> None:
        """Configure an NDA workload: a kernel sequence launched in order,
        one kernel whenever the NDAs idle, repeating for the whole run.

        Used for the application workloads of Figure 14 (SVRG average
        gradient, CG, streamcluster), which mix read- and write-intensive
        Table I operations.
        """
        if not self.mode.has_nda_traffic:
            raise RuntimeError(f"mode {self.mode} does not run NDA traffic")
        if not kernels:
            raise ValueError("kernel sequence must not be empty")
        self._nda_sequence = list(kernels)
        self._nda_sequence_index = 0
        # A new workload can make the NDA host (and transitively the ranks)
        # eligible immediately; cached wakes must be recomputed.
        self.engine.invalidate_wakes()

    def _maybe_relaunch_workload(self) -> None:
        if not self._relaunch_pending():
            return
        sequence = self._nda_sequence
        kernel = sequence[self._nda_sequence_index % len(sequence)]
        self._nda_sequence_index += 1
        total_elements = kernel.elements_per_rank * max(1, len(self.rank_controllers))
        self.nda_host.submit_kernel(
            kernel.opcode, total_elements,
            cache_blocks=kernel.cache_blocks,
            async_launch=kernel.async_launch,
            matrix_columns=kernel.matrix_columns,
        )

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def _make_host_request(self, core: CoreModel, phys: int,
                           is_write: bool) -> MemoryRequest:
        phys %= self._host_capacity
        addr = self.mapping.to_dram(phys)
        if self.mode is AccessMode.RANK_PARTITIONED:
            host_ranks, _ = split_ranks_for_partitioning(
                self.config.org.ranks_per_channel
            )
            addr = addr._replace(rank=host_ranks[addr.rank % len(host_ranks)])
        on_complete = (None if is_write
                       else self._demand_read_hook(core.core_id, phys))
        return MemoryRequest(addr=addr, is_write=is_write, phys=phys,
                             core_id=core.core_id, on_complete=on_complete)

    def _demand_read_hook(self, core_id: int, phys: int):
        """A demand read's completion hook (also rebuilt by checkpoint
        restore): it routes through the host unit so the core's deferred
        fixed-point arithmetic is settled up to the delivery cycle before
        the completion mutates its state (lazy core sync, see
        HostComponent.deliver_completion)."""
        return (lambda cycle, h=self._host_component, i=core_id, p=phys:
                h.deliver_completion(i, p, cycle))

    def _relaunch_pending(self) -> bool:
        """Whether :meth:`_maybe_relaunch_workload` would launch right now."""
        return (bool(self._nda_sequence) and self.nda_host is not None
                and self.nda_host.idle)

    def step(self) -> None:
        """Advance the whole system by one DRAM cycle."""
        now = self.now
        self.scheduler.begin_cycle(now)
        self.engine.process_cycle(now)
        self.now = now + 1

    def run(self, cycles: int, warmup: int = 0,
            checkpoint_hook=None, checkpoint_every: int = 0) -> SimulationResult:
        """Run for ``warmup + cycles`` DRAM cycles and summarize the last ``cycles``.

        The configured engine drives the loop: ``engine="cycle"`` processes
        every DRAM cycle (the regression baseline), ``engine="event"``
        fast-forwards over provably idle cycles with identical results.

        When ``checkpoint_hook`` is given with a positive
        ``checkpoint_every``, the measured window runs in chunks of at most
        that many cycles and the hook is called with the system at every
        inter-chunk safe point (see repro.snapshot).  A system restored from
        such a checkpoint finishes the run by calling :meth:`finish_run`.
        """
        # Eager completion application (see HostComponent) is bounded by the
        # run target; moving the bound can surface deferred completions, so
        # every cached wake is recomputed at the phase boundary.
        target = self.now + max(0, warmup)
        self._host_component.completion_bound = target
        self.engine.invalidate_wakes()
        self.now = self.engine.run_until(self.now, target)
        self._reset_measurement()
        self._run_end = self.now + cycles
        self._run_cycles = cycles
        return self.finish_run(checkpoint_hook, checkpoint_every)

    def finish_run(self, checkpoint_hook=None,
                   checkpoint_every: int = 0) -> SimulationResult:
        """Run the measured window to its recorded end and summarize it.

        Called by :meth:`run` and, after a checkpoint restore, directly: the
        run target travels inside the snapshot (``_run_end``), so resuming is
        just finishing the same measured window.
        """
        if self._run_end is None:
            raise RuntimeError("finish_run() requires an in-progress run()")
        target = self._run_end
        # The completion bound stays at the FULL run end for every chunk —
        # chunking must not change which completions apply eagerly.
        self._host_component.completion_bound = target
        if checkpoint_every <= 0 or checkpoint_hook is None:
            self.now = self.engine.run_until(self.now, target)
            return self._result(self._run_cycles)
        while self.now < target:
            chunk_end = min(target, self.now + checkpoint_every)
            self.now = self.engine.run_until(self.now, chunk_end)
            if self.now < target:
                checkpoint_hook(self)
        return self._result(self._run_cycles)

    def _reset_measurement(self) -> None:
        """Reset *all* measurement state at the warmup boundary.

        Warmup activity must not leak into the measured window: every
        declared ``COUNTERS`` field of every component is zeroed (see
        :mod:`repro.utils.state`); protocol, timing and queue state carry
        over.
        """
        reset_counters(self, self.now)
        # Resets change wake-relevant state (core event counters, re-anchored
        # outstanding-miss ages); force a re-poll of every unit.
        self.engine.invalidate_wakes()
        self._measure_start = self.now

    def save_refs(self, refs) -> Dict[str, object]:
        sequence = self._nda_sequence
        return {
            "_core_backlog": [[refs.request(r) for r in backlog]
                              for backlog in self._core_backlog],
            "_nda_sequence": (None if sequence is None
                              else [refs.capture(k) for k in sequence]),
        }

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        for backlog, ids in zip(self._core_backlog,
                                saved.pop("_core_backlog")):
            backlog.extend(refs.requests[request_id] for request_id in ids)
        sequence = saved.pop("_nda_sequence")
        if sequence is not None:
            self._nda_sequence = [
                refs.rebuild(NdaKernelSpec, k, opcode=NdaOpcode(k["opcode"]))
                for k in sequence]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def _result(self, cycles: int) -> SimulationResult:
        # Bring the lazily-accumulated idle statistics up to date before
        # reading any utilization or breakdown metric.
        self._stats_component.flush_trackers(self.now)
        per_core_ipc = [core.ipc for core in self.cores]
        nda_bytes = sum(c.total_bytes for c in self.rank_controllers.values())
        counts = self.dram.counts
        host_hits = counts.host_row_hits
        host_total = host_hits + counts.host_row_conflicts + 1e-9
        nda_hits = counts.nda_row_hits
        nda_total = nda_hits + counts.nda_row_conflicts + 1e-9
        # Sample-count-weighted mean over channels: an unweighted mean of
        # per-channel means would skew toward lightly-loaded channels.
        latency_total = sum(mc.read_latency.total
                            for mc in self.channel_controllers.values())
        latency_count = sum(mc.read_latency.count
                            for mc in self.channel_controllers.values())
        avg_latency = latency_total / latency_count if latency_count else 0.0
        energy: Dict[str, float] = {}
        if self.collect_energy:
            pes = [pe for rc in self.rank_controllers.values() for pe in rc.pes]
            measured = self.now - self._measure_start
            energy = self.energy_model.compute(counts, pes, measured).as_dict()
        return SimulationResult(
            cycles=cycles,
            mode=self.mode.value,
            mix=self.mix,
            host_ipc=sum(per_core_ipc),
            per_core_ipc=per_core_ipc,
            nda_bandwidth_gbs=self.stats.nda_bandwidth_gbs(nda_bytes),
            nda_bw_utilization=self.stats.nda_bw_utilization(nda_bytes),
            idealized_bw_utilization=self.stats.idealized_bw_utilization(),
            nda_bytes=nda_bytes,
            host_reads=counts.host_reads,
            host_writes=counts.host_writes,
            nda_instructions_completed=sum(
                rc.instructions_completed for rc in self.rank_controllers.values()
            ),
            nda_operations_completed=(self.nda_host.operations_completed
                                      if self.nda_host else 0),
            rank_idle_breakdown=self.stats.rank_breakdowns(),
            row_hit_rate_host=host_hits / host_total,
            row_hit_rate_nda=nda_hits / nda_total,
            avg_read_latency=avg_latency,
            energy=energy,
        )

    # ------------------------------------------------------------------ #
    # Convenience accessors used by experiments
    # ------------------------------------------------------------------ #

    def verify_fsm_sync(self) -> bool:
        """Check every rank's replicated FSM copies agree (Section III-D)."""
        return all(rc.fsm.in_sync for rc in self.rank_controllers.values())
