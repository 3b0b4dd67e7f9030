"""Memory request and transaction-queue types."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.dram.commands import DramAddress

_request_ids = itertools.count()


def get_request_id_watermark() -> int:
    """Next request id the global counter would hand out (checkpointing).

    Peek-then-rearm: ``itertools.count`` cannot be inspected without
    consuming, so read one value and rebind the counter at that value.
    """
    global _request_ids
    value = next(_request_ids)
    _request_ids = itertools.count(value)
    return value


def set_request_id_watermark(value: int) -> None:
    """Restore the global request-id counter (checkpoint restore)."""
    global _request_ids
    _request_ids = itertools.count(value)


#: Bucket key identifying a bank within one channel's queue.
_BankKey = Tuple[int, int, int]


class MemoryRequest:
    """One host memory transaction (a cache-line read or write).

    ``on_complete`` is invoked with the completion cycle when the data
    transfer finishes (reads) or the write has been accepted by the DRAM
    (writes); the host core model uses it to unblock the issuing core.

    A ``__slots__`` class rather than a dataclass: requests are allocated
    per cache miss and probed on every scheduler scan, so the compact
    layout and fast attribute access matter.
    """

    __slots__ = ("addr", "is_write", "phys", "core_id", "arrival_cycle",
                 "request_id", "on_complete", "outcome_recorded",
                 "completed_cycle", "queue_seq")
    STATE = ("addr", "is_write", "phys", "core_id", "arrival_cycle",
             "request_id", "outcome_recorded", "completed_cycle", "queue_seq")
    #: Rebuilt at restore: demand reads from ``core_id``, launch-packet
    #: writes from the NDA host's in-flight map.
    DERIVED = ("on_complete",)

    def __init__(self, addr: DramAddress, is_write: bool, phys: int = 0,
                 core_id: int = -1, arrival_cycle: int = 0,
                 request_id: Optional[int] = None,
                 on_complete: Optional[Callable[[int], None]] = None) -> None:
        self.addr = addr
        self.is_write = is_write
        self.phys = phys
        self.core_id = core_id
        self.arrival_cycle = arrival_cycle
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.on_complete = on_complete
        self.outcome_recorded = False
        self.completed_cycle: Optional[int] = None
        #: Arrival-order stamp within the owning queue (set by push); lets
        #: the bucketed FR-FCFS scan compare age across bank buckets.
        self.queue_seq = 0

    @property
    def is_read(self) -> bool:
        return not self.is_write

    def complete(self, cycle: int) -> None:
        self.completed_cycle = cycle
        if self.on_complete is not None:
            self.on_complete(cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = "WR" if self.is_write else "RD"
        return (f"MemoryRequest(#{self.request_id} {op} ch{self.addr.channel} "
                f"rk{self.addr.rank} bg{self.addr.bank_group} "
                f"bk{self.addr.bank} row{self.addr.row} col{self.addr.column})")


def _bank_key(addr: DramAddress) -> _BankKey:
    """Bank identity of ``addr`` within its channel (queues are per channel)."""
    return (addr.rank, addr.bank_group, addr.bank)


class RequestQueue:
    """A bounded FIFO transaction queue preserving arrival order.

    Entries live in an insertion-ordered dict keyed by ``request_id``, so
    iteration remains exactly arrival order while removal is O(1) amortized
    (the old list representation paid an O(n) ``list.remove`` per issued
    command).  Per-bank buckets (same dict trick, same order) serve the
    bank-local queries — ``find_write_to``, ``has_bank`` and the FR-FCFS
    scan's ``bank_buckets`` — without scanning the whole queue.
    """

    STATE = ("_entries", "_next_seq", "version")
    DERIVED = ("capacity", "_by_bank")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MemoryRequest] = {}
        self._by_bank: Dict[_BankKey, Dict[int, MemoryRequest]] = {}
        self._next_seq = 0
        #: Bumped on every push/remove; scan results memoized against it.
        self.version = 0

    def save_refs(self, refs) -> Dict[str, object]:
        return {"_entries": [refs.request(request) for request in self]}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        for request_id in saved.pop("_entries"):
            request = refs.requests[request_id]
            # push stamps queue_seq from _next_seq; seeding it per request
            # reproduces the original stamps.
            self._next_seq = request.queue_seq
            self.push(request)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._entries.values())

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, request: MemoryRequest) -> bool:
        """Append a request; returns False (and drops nothing) when full."""
        if self.full:
            return False
        request.queue_seq = self._next_seq
        self._next_seq += 1
        self.version += 1
        self._entries[request.request_id] = request
        addr = request.addr
        key = (addr.rank, addr.bank_group, addr.bank)
        bucket = self._by_bank.get(key)
        if bucket is None:
            bucket = self._by_bank[key] = {}
        bucket[request.request_id] = request
        return True

    def remove(self, request: MemoryRequest) -> None:
        request_id = request.request_id
        if request_id not in self._entries:
            raise ValueError(f"request #{request_id} not in queue")
        self.version += 1
        del self._entries[request_id]
        addr = request.addr
        key = (addr.rank, addr.bank_group, addr.bank)
        bucket = self._by_bank[key]
        del bucket[request_id]
        if not bucket:
            del self._by_bank[key]

    def oldest(self) -> Optional[MemoryRequest]:
        return next(iter(self._entries.values()), None)

    def find_write_to(self, addr: DramAddress) -> Optional[MemoryRequest]:
        """A queued write to the same cache line (read forwarding), if any."""
        bucket = self._by_bank.get(_bank_key(addr))
        if not bucket:
            return None
        for r in bucket.values():
            if r.is_write and r.addr == addr:
                return r
        return None

    def bank_buckets(self) -> Iterator[Dict[int, MemoryRequest]]:
        """The non-empty per-bank buckets (each in arrival order).

        Only for the FR-FCFS scan: since DDR4 timing constraints do not
        depend on row or column, every request in one bucket that needs the
        same command kind shares one ``earliest_issue_at`` value, so the
        scan probes timing once per bucket-and-kind instead of once per
        request.
        """
        return iter(self._by_bank.values())

    def has_bank(self, rank: int, bank_group: int, bank: int) -> bool:
        """Whether any queued request targets the given bank (O(1))."""
        return (rank, bank_group, bank) in self._by_bank
