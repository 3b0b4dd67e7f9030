"""First-divergence bisector: where two runs of the simulator part ways.

Run from the repository root with ``src`` and ``tests`` on the path::

    PYTHONPATH=src:tests python -m bisector colo_write --b-burst-off
    PYTHONPATH=src:tests python -m bisector colo_write \\
        --a-path /path/to/other/checkout/src --b-path src

Two *sides* run one shape for ``cycles`` cycles from cycle 0 (no warm-up,
so a checkpoint hook can stop at every cycle).  Each side hands every
command it issues to ``DramSystem.observer`` and snapshots its state with
``run(checkpoint_hook=..., checkpoint_every=K)``.  Then:

1. the first checkpoint at which the states differ (``repro.snapshot.diff``
   minus the comparison's ``ignore`` globs), or the commands issued since
   the previous checkpoint do, is the first unequal pair;
2. from the last equal pair (cycle 0: a fresh build) both sides are
   restored and run, in one piece, to each next cycle in turn, and
   compared there — each probe is the checkpointed run itself, cut only
   where the probe ends;
3. the first probe that differs is reported: the last cycle it ran, the
   state paths that differ and the first divergent command record.  A
   divergence no restored probe reproduces lives in state a snapshot does
   not carry (a stale cache, say): the window is probed again with each
   checkpoint's system rebuilt and rerun from cycle 0, and the report
   says so.

Commands are compared per rank in cycle order, plan class aside: burst
plans settle lazily, so ranks interleave differently from run to run.

``K`` defaults to :data:`EVERY` = 50.  A capture costs about 4 ms on the
``colo_write`` 2x4 system, which simulates a cycle in about 0.09 ms (both
on a 2-vCPU x86 box), so a checkpoint costs about 45 cycles of simulation
and the checkpointed run takes about twice as long as a plain one.  A
stepped cycle costs one restore (6 ms) and one capture per side, plus the
replay up to it, so a window of ``K`` cycles costs about ``20 K`` ms in
probes; 50 keeps the two phases of a 2000-cycle bisection near one second
each.

``--a-path`` / ``--b-path`` switch to the cross-commit mode: each side runs
in its own interpreter whose ``PYTHONPATH`` starts with the given ``src``
directory (this checkout's ``tests`` follows it), and sends its snapshots
and commands back over a pipe.  Both sources must have the command
observer and ``ChopimSystem(burst=...)``.  With both paths on this
checkout it checks that nothing in a run depends on the interpreter
(hash seeds, process-global ids).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.dram.commands import CommandRecord
from repro.experiments.common import resolve_config
from repro.nda.isa import NdaOpcode
from repro.snapshot import decode, diff, encode, restore_system, snapshot_system

TESTS = Path(__file__).resolve().parents[1]

#: Checkpoint interval of the first phase (see the module docstring).
EVERY = 50
CYCLES = 2000

#: Paths where burst-off runs may differ from burst-on runs.
BURST_OFF_IGNORE = (
    "build.burst",
    # Burst-plan diagnostics: what the plans did, not what was simulated.
    "system.rank_controllers.*.burst*",
)
#: Paths where a cycle-engine run may differ from an event-engine run at
#: its end: the cycle engine also attempts on every cycle the event engine
#: sleeps through.  (Only at the end: in between, the event engine applies
#: host completions ahead of the cycle it stops at, up to the run's end —
#: see ``HostComponent`` — so the cycle engine is no oracle for the
#: bisector.)
CYCLE_IGNORE = BURST_OFF_IGNORE + (
    "build.engine",
    # Counters of futile attempts: blocked NDA issues.
    "system.rank_controllers.*.cycles_blocked_by_*",
    # The write-drain mode: where the hysteresis oscillates under per-cycle
    # evaluation (an empty read queue, few writes) the pick does not
    # depend on it, and it follows the tick cadence (see
    # ``ChannelController._update_drain_mode``).
    "system.channel_controllers.*._draining_writes",
    # The channel unit's own wake bookkeeping.
    "system.channel_controllers.*.last_tick_cycle",
    "system.channel_controllers.*.published_wake",
    "system.channel_controllers.*._issue_hint",
)

_BP = AccessMode.BANK_PARTITIONED
#: The perf ledger's simulation shapes: (platform, channels, ranks, mode,
#: mix, NDA opcode).
SHAPES = {
    "colo_read": ("ddr4-2400", 2, 4, _BP, "mix1", NdaOpcode.DOT),
    "colo_write": ("ddr4-2400", 2, 4, _BP, "mix1", NdaOpcode.COPY),
    "host_only": ("ddr4-2400", 2, 2, AccessMode.HOST_ONLY, "mix1", None),
    "nda_only_hbm2": ("hbm2", None, None, AccessMode.NDA_ONLY, None,
                      NdaOpcode.COPY),
}


def build_shape(shape: str, **kwargs) -> ChopimSystem:
    """A seed-1 system of ``shape`` with its NDA workload set."""
    platform, channels, ranks, mode, mix, opcode = SHAPES[shape]
    config = dataclasses.replace(resolve_config(platform, channels, ranks),
                                 seed=1)
    system = ChopimSystem(config=config, mode=mode, mix=mix,
                          throttle="next_rank", **kwargs)
    if opcode is not None:
        system.set_nda_workload(opcode, elements_per_rank=1 << 14)
    return system


Records = List[CommandRecord]
Point = Tuple[int, dict, Records]


class _Paused(Exception):
    pass


def _pause(system) -> None:
    raise _Paused


class Side:
    """One side, run in this process: ``build()`` makes the system,
    workload set, and ``prepare(system)`` patches every system built or
    restored (a mutant, say)."""

    def __init__(self, build: Callable[[], ChopimSystem],
                 prepare: Optional[Callable[[ChopimSystem], None]] = None):
        self.build = build
        self.prepare = prepare
        self._cycles = self._every = 0
        self._points: List[Point] = []

    def _start(self, payload: Optional[dict]) -> Tuple[ChopimSystem, Records]:
        system = self.build() if payload is None else restore_system(payload)
        if self.prepare is not None:
            self.prepare(system)
        log: Records = []
        system.dram.observer = log.append
        return system, log

    def checkpoints(self, cycles: int, every: int) -> List[Point]:
        """Run ``cycles`` cycles with a snapshot every ``every`` and one at
        the end: ``(cycle, payload, commands since the previous one)``."""
        system, log = self._start(None)
        points: List[Point] = []

        def capture(system) -> None:
            points.append((system.now, snapshot_system(system), log[:]))
            log.clear()

        system.run(cycles, checkpoint_hook=capture, checkpoint_every=every)
        capture(system)
        self._cycles, self._every, self._points = cycles, every, points
        return points

    def probe(self, index: int, cycle: int,
              replay: bool = False) -> Tuple[dict, Records]:
        """Run on from checkpoint ``index`` (0: a fresh build) to ``cycle``
        in one piece; returns the state there and the commands since.  The
        checkpoint's system is restored from its payload or, with
        ``replay``, rebuilt and run to it as the checkpointed run went —
        derived state (caches) included, which no payload carries."""
        started = index > 0 and not replay
        system, log = self._start(self._points[index - 1][1]
                                  if started else None)
        if index > 0 and replay:
            stop = self._points[index - 1][0]

            def capture(system) -> None:
                snapshot_system(system)
                if system.now == stop:
                    raise _Paused

            _resume(system, False, self._cycles, capture, self._every)
            log.clear()
            started = True
        _resume(system, started, self._cycles, _pause, cycle - system.now)
        return snapshot_system(system), log


def _resume(system, started: bool, cycles: int, hook, every: int) -> None:
    """Run ``system`` — its run of ``cycles`` from the start, or on from
    mid-run — with ``hook`` every ``every`` cycles until the hook pauses
    it or the run ends."""
    try:
        if started:
            system.finish_run(hook, every)
        else:
            system.run(cycles, checkpoint_hook=hook, checkpoint_every=every)
    except _Paused:
        pass


class RemoteSide:
    """A side run by another interpreter whose ``PYTHONPATH`` starts with
    ``src``: the cross-commit mode."""

    def __init__(self, src: str, shape: str, burst_off: bool) -> None:
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
        command = [sys.executable, "-m", "bisector", shape, "--serve"]
        if burst_off:
            command.append("--b-burst-off")
        self._child = subprocess.Popen(command, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, env=env,
                                       text=True)

    def _ask(self, **request) -> list:
        self._child.stdin.write(json.dumps(request) + "\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"side exited with {self._child.wait()}")
        return json.loads(line)

    @staticmethod
    def _records(rows: list) -> Records:
        return [CommandRecord(*row) for row in rows]

    def checkpoints(self, cycles: int, every: int) -> List[Point]:
        return [(cycle, decode(payload), self._records(rows)) for
                cycle, payload, rows in self._ask(op="checkpoints",
                                                  cycles=cycles, every=every)]

    def probe(self, index: int, cycle: int,
              replay: bool = False) -> Tuple[dict, Records]:
        payload, rows = self._ask(op="probe", index=index, cycle=cycle,
                                  replay=replay)
        return decode(payload), self._records(rows)

    def close(self) -> None:
        self._child.stdin.close()
        self._child.wait()


def _serve(side: Side) -> None:
    """The child end of :class:`RemoteSide`: one JSON reply per request."""
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "checkpoints":
            reply = [(cycle, encode(payload), records) for cycle, payload,
                     records in side.checkpoints(request["cycles"],
                                                 request["every"])]
        else:
            payload, records = side.probe(request["index"],
                                          request["cycle"],
                                          request["replay"])
            reply = [encode(payload), records]
        print(json.dumps(reply), flush=True)


Command = Tuple[Optional[CommandRecord], Optional[CommandRecord]]


def first_divergent_command(a: Records, b: Records) -> Optional[Command]:
    """The earliest pair of records that differ when each rank's commands
    are compared in cycle order, plan class aside (``None`` on the side
    that has no record there), or None when the logs agree."""
    ranks: Dict[Tuple[int, int], List[Records]] = defaultdict(
        lambda: [[], []])
    for side, log in enumerate((a, b)):
        for record in log:
            ranks[record.channel, record.rank][side].append(record)
    found: List[Command] = []
    for x, y in ranks.values():
        x.sort(key=lambda record: record[:-1])
        y.sort(key=lambda record: record[:-1])
        for index in range(max(len(x), len(y))):
            left = x[index] if index < len(x) else None
            right = y[index] if index < len(y) else None
            if left is None or right is None or left[:-1] != right[:-1]:
                found.append((left, right))
                break
    return min(found, default=None, key=lambda pair: min(
        record.cycle for record in pair if record is not None))


@dataclasses.dataclass
class Divergence:
    """Where two sides part: the last cycle of the first probe that
    differs, the state paths that differ after it, the first divergent
    command record pair (side a, side b), and whether the divergence
    survives a restore (False: it shows only when the run is replayed
    from cycle 0, so it lives in state no snapshot carries)."""

    cycle: int
    paths: List[str]
    command: Optional[Command]
    restorable: bool = True

    def __str__(self) -> str:
        lines = [f"first divergence at cycle {self.cycle}",
                 f"  {len(self.paths)} state path(s) differ"]
        lines += [f"    {path}" for path in self.paths[:20]]
        if self.command is not None:
            a, b = self.command
            lines += ["  first divergent command:", f"    a: {a}",
                      f"    b: {b}"]
        if not self.restorable:
            lines.append("  not reproduced from a restore: it lives in "
                         "state no snapshot carries (caches, wiring)")
        return "\n".join(lines)


def _compare(a: Tuple[dict, Records], b: Tuple[dict, Records],
             ignore: Sequence[str]):
    paths = diff(a[0], b[0], ignore)
    command = first_divergent_command(a[1], b[1])
    if paths or command is not None:
        return paths, command
    return None


def bisect(a, b, cycles: int = CYCLES, every: int = EVERY,
           ignore: Sequence[str] = ()) -> Optional[Divergence]:
    """The first divergence between sides ``a`` and ``b`` in ``cycles``
    cycles, or None (see the module docstring)."""
    last, index = 0, 0
    pairs = zip(a.checkpoints(cycles, every), b.checkpoints(cycles, every))
    for number, ((cycle, *x), (_, *y)) in enumerate(pairs, 1):
        if _compare(x, y, ignore) is None:
            last, index = cycle, number
            continue
        for replay in (False, True):
            for probe in range(last + 1, cycle + 1):
                found = _compare(a.probe(index, probe, replay),
                                 b.probe(index, probe, replay), ignore)
                if found is not None:
                    return Divergence(probe - 1, *found, not replay)
        raise AssertionError(
            f"the divergence by cycle {cycle} did not reproduce from the "
            f"checkpoint at cycle {last}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bisector",
        description="Report where two runs of a shape first diverge.")
    parser.add_argument("shape", choices=sorted(SHAPES))
    parser.add_argument("--cycles", type=int, default=CYCLES)
    parser.add_argument("--every", type=int, default=EVERY)
    parser.add_argument("--b-burst-off", action="store_true",
                        help="run side b with burst=False")
    parser.add_argument("--a-path", help="src directory of side a")
    parser.add_argument("--b-path", help="src directory of side b")
    parser.add_argument("--serve", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    kwargs = dict(burst=False) if args.b_burst_off else {}
    ignore = BURST_OFF_IGNORE if args.b_burst_off else ()
    if args.serve:
        _serve(Side(lambda: build_shape(args.shape, **kwargs)))
        return 0
    if args.a_path or args.b_path:
        here = str(TESTS.parent / "src")
        a = RemoteSide(args.a_path or here, args.shape, False)
        b = RemoteSide(args.b_path or here, args.shape, args.b_burst_off)
    else:
        a = Side(lambda: build_shape(args.shape))
        b = Side(lambda: build_shape(args.shape, **kwargs))
    try:
        found = bisect(a, b, args.cycles, args.every, ignore)
    finally:
        for side in (a, b):
            if isinstance(side, RemoteSide):
                side.close()
    if found is None:
        print(f"{args.shape}: no divergence in {args.cycles} cycles")
        return 0
    print(f"{args.shape}: {found}")
    return 1
