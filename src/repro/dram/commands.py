"""DRAM command and address types.

Hot-path notes: :class:`DramAddress` carries *optional* dense indices
(``rank_index``/``bank_index``) stamped at decode time by the address
mappings (and by the NDA controller's local address builder).  The timing
engine and device use them to index flat per-rank/per-bank state arrays
without tuple hashing; an unstamped address (``-1``) falls back to a cheap
arithmetic recomputation, so hand-built addresses (tests, refresh plumbing)
keep working.  The indices are deliberately excluded from equality and
hashing — two addresses naming the same DRAM coordinates compare equal no
matter who built them.
"""

from __future__ import annotations

import collections
import enum
from typing import Optional


class CommandType(enum.Enum):
    """DDR4 command set used by the simulator.

    ``is_column`` (moves data / occupies a data bus: RD, WR) and ``is_row``
    (ACT, PRE) are plain per-member attributes, assigned below — the hot
    paths read them every command attempt, and a property that builds a
    membership tuple per call is measurable at that rate.
    """

    ACT = "activate"
    PRE = "precharge"
    RD = "read"
    WR = "write"
    REF = "refresh"


for _member in CommandType:
    _member.is_column = _member in (CommandType.RD, CommandType.WR)
    _member.is_row = _member in (CommandType.ACT, CommandType.PRE)
del _member


class RequestSource(enum.Enum):
    """Who issued a command: the host memory controller or a rank's NDA."""

    HOST = "host"
    NDA = "nda"


_DramAddressBase = collections.namedtuple(
    "_DramAddressBase",
    ("channel", "rank", "bank_group", "bank", "row", "column",
     "rank_index", "bank_index"),
    defaults=(-1, -1),
)


class DramAddress(_DramAddressBase):
    """A fully decoded DRAM location.

    ``column`` is in cache-line granularity (one column = one 64-byte burst
    across the rank, or 8 bytes per chip for NDA-local accesses).

    ``rank_index``/``bank_index`` are dense flat indices over the whole
    system (``rank_index = channel * ranks_per_channel + rank``,
    ``bank_index = rank_index * banks_per_rank + flat_bank``); ``-1`` means
    "not stamped".  They are an addressing-time cache for the timing
    engine's flat state arrays and never participate in equality, hashing
    or ``same_bank``.  The address must stay immutable: stamped indices are
    only valid for the coordinates they were computed from, so mutation
    would silently corrupt flat-array lookups (``_replace`` clears them
    whenever a bank-identifying coordinate changes).
    """

    __slots__ = ()

    def with_column(self, column: int) -> "DramAddress":
        # Column changes keep the bank identity, so stamps stay valid.
        return self._make((self.channel, self.rank, self.bank_group, self.bank,
                           self.row, column, self.rank_index, self.bank_index))

    def with_row(self, row: int) -> "DramAddress":
        return self._make((self.channel, self.rank, self.bank_group, self.bank,
                           row, self.column, self.rank_index, self.bank_index))

    def _replace(self, **kwargs) -> "DramAddress":
        if any(key in kwargs for key in ("channel", "rank", "bank_group", "bank")):
            kwargs.setdefault("rank_index", -1)
            kwargs.setdefault("bank_index", -1)
        return super()._replace(**kwargs)

    def same_bank(self, other: "DramAddress") -> bool:
        return (self.channel == other.channel and self.rank == other.rank
                and self.bank_group == other.bank_group and self.bank == other.bank)

    # Equality/hashing over the six DRAM coordinates only, so stamped and
    # unstamped addresses of one location are interchangeable as values.

    def __eq__(self, other) -> bool:
        if isinstance(other, DramAddress):
            return self[:6] == other[:6]
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self[:6])


class Command:
    """A DRAM command ready to be issued to a device.

    A plain ``__slots__`` class (not a dataclass): commands used to be
    allocated per queued request per scheduler scan; the scan is now
    value-based and builds exactly one ``Command`` per issued command, but
    the slotted layout keeps even that allocation small.

    Attributes
    ----------
    kind:
        The command type.
    addr:
        Target DRAM address.  For ``PRE`` and ``REF`` only the bank/rank
        portion is meaningful.
    source:
        ``HOST`` for commands issued by the host memory controller over the
        channel C/A bus, ``NDA`` for commands issued locally by a rank's NDA
        memory controller.
    request_id:
        Identifier of the originating memory request (host requests only).
    """

    __slots__ = ("kind", "addr", "source", "request_id", "is_nda")

    def __init__(self, kind: CommandType, addr: DramAddress,
                 source: RequestSource = RequestSource.HOST,
                 request_id: Optional[int] = None) -> None:
        self.kind = kind
        self.addr = addr
        self.source = source
        self.request_id = request_id
        # Precomputed: read several times per issue on the hot path
        # (device counts, timing updates), where property-call overhead
        # is measurable.
        self.is_nda = source is RequestSource.NDA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Command({self.kind.name}, ch{self.addr.channel} rk{self.addr.rank} "
                f"bg{self.addr.bank_group} bk{self.addr.bank} row{self.addr.row} "
                f"col{self.addr.column}, {self.source.value})")
