"""Physical-frame coloring for rank alignment of NDA operands.

A frame's *color* is the (channel, rank) hash contribution of its
physical-frame-number bits under the host address mapping.  Allocating all
operands of an NDA instruction from frames of the same color guarantees that
equal element indices land in the same rank, which is what coarse-grain NDA
operations require (Section III-A, Figure 3).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.addressing.mapping import AddressMapping

Color = Tuple[int, int]


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied."""


class ColoredFrameAllocator:
    """Allocates system-row-aligned frames of a requested color.

    Parameters
    ----------
    mapping:
        The host address mapping; defines each frame's color.
    base, size_bytes:
        Physical region managed by this allocator.
    frame_bytes:
        The coarse allocation granularity — one *system row* (2 MiB in the
        paper's reference system), also the huge-page size.
    """

    def __init__(self, mapping: AddressMapping, base: int, size_bytes: int,
                 frame_bytes: int = 2 * 1024 * 1024) -> None:
        if frame_bytes <= 0 or frame_bytes & (frame_bytes - 1):
            raise ValueError("frame_bytes must be a positive power of two")
        if base % frame_bytes or size_bytes % frame_bytes:
            raise ValueError("region must be frame-aligned and frame-sized")
        self.mapping = mapping
        self.base = base
        self.size_bytes = size_bytes
        self.frame_bytes = frame_bytes
        self.page_bits = frame_bytes.bit_length() - 1
        self._free_by_color: Dict[Color, List[int]] = defaultdict(list)
        self._allocated: Dict[int, Color] = {}
        for addr in range(base, base + size_bytes, frame_bytes):
            color = mapping.frame_color(addr, page_bits=self.page_bits)
            self._free_by_color[color].append(addr)
        for frames in self._free_by_color.values():
            frames.sort(reverse=True)  # pop() returns the lowest address

    # ------------------------------------------------------------------ #

    def colors(self) -> List[Color]:
        """All colors present in the managed region."""
        return sorted(self._free_by_color.keys() | {c for c in self._allocated.values()})

    def free_frames(self, color: Optional[Color] = None) -> int:
        if color is not None:
            return len(self._free_by_color.get(color, []))
        return sum(len(v) for v in self._free_by_color.values())

    def color_of(self, addr: int) -> Color:
        # Frames handed out by this allocator already know their color; the
        # mapping's own frame_color cache covers everything else.
        color = self._allocated.get(addr)
        if color is not None:
            return color
        return self.mapping.frame_color(addr, page_bits=self.page_bits)

    # ------------------------------------------------------------------ #

    def allocate_frames(self, count: int, color: Optional[Color] = None) -> List[int]:
        """Allocate ``count`` frames, all of the same color.

        If ``color`` is None the color with the most free frames is chosen.
        Returns the frame base addresses in ascending order.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if color is None:
            color = max(self._free_by_color,
                        key=lambda c: len(self._free_by_color[c]), default=None)
            if color is None:
                raise OutOfMemoryError("no free frames of any color")
        frames = self._free_by_color.get(color, [])
        if len(frames) < count:
            raise OutOfMemoryError(
                f"need {count} frames of color {color}, only {len(frames)} free"
            )
        taken = [frames.pop() for _ in range(count)]
        for addr in taken:
            self._allocated[addr] = color
        return sorted(taken)

    def allocate_bytes(self, size: int, color: Optional[Color] = None) -> List[int]:
        """Allocate enough same-colored frames to cover ``size`` bytes."""
        count = (size + self.frame_bytes - 1) // self.frame_bytes
        return self.allocate_frames(count, color)

    def free_frame(self, addr: int) -> None:
        color = self._allocated.pop(addr, None)
        if color is None:
            raise ValueError(f"frame {addr:#x} is not allocated")
        self._free_by_color[color].append(addr)
        self._free_by_color[color].sort(reverse=True)

    # ------------------------------------------------------------------ #

    def verify_color_invariant(self, sample: int = 64) -> bool:
        """Check that allocated frames recorded under a color really have it."""
        for i, (addr, color) in enumerate(self._allocated.items()):
            if i >= sample:
                break
            if self.color_of(addr) != color:
                return False
        return True
