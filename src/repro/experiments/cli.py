"""Light figure-CLI plumbing: platform resolution, tables, exit codes.

Everything a figure module needs that does not build a simulator lives
here, so a figure module that never simulates (fig15's analytic SVRG
timing) loads the configuration and platform layers but not
:mod:`repro.core.system`.
:mod:`repro.experiments.common` re-exports all four names.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.config import SystemConfig, scaled_config
from repro.platform import DEFAULT_PLATFORM, platform_config, platform_names


def resolve_config(platform: Optional[str] = None,
                   channels: Optional[int] = None,
                   ranks_per_channel: Optional[int] = None) -> SystemConfig:
    """The :class:`SystemConfig` for one experiment point.

    Platform resolution order: the explicit ``platform`` argument, then the
    ``REPRO_PLATFORM`` environment variable (an empty value counts as
    unset), then the paper's DDR4-2400 baseline (which goes through the
    legacy :func:`scaled_config` path and is bit-exact with it — pinned by
    ``tests/test_platform.py``).  ``channels``/``ranks_per_channel`` left
    at ``None`` keep the preset's *native* geometry (HBM2's 8x1, the
    paper's 2x2, ...); pass values only to deliberately rescale a sweep
    point.
    """
    name = resolve_platform(platform)
    if name == DEFAULT_PLATFORM:
        return scaled_config(2 if channels is None else channels,
                             2 if ranks_per_channel is None
                             else ranks_per_channel)
    return platform_config(name, channels=channels,
                           ranks_per_channel=ranks_per_channel)


def resolve_platform(platform: Optional[str] = None) -> str:
    """The validated platform preset name for one experiment point.

    Resolution order: the explicit ``platform`` argument, then the
    ``REPRO_PLATFORM`` environment variable (an empty value counts as
    unset), then the paper's DDR4-2400 baseline.  An unknown name — a typo
    in a sweep script or a stale environment variable — fails here, at
    resolution time, with the list of registered presets, instead of as a
    ``KeyError`` from deep inside config construction on the first point.
    """
    name = platform or os.environ.get("REPRO_PLATFORM") or DEFAULT_PLATFORM
    names = platform_names()
    if name not in names:
        source = ("platform argument" if platform
                  else "REPRO_PLATFORM environment variable")
        raise ValueError(
            f"unknown platform {name!r} (from the {source}); "
            f"valid choices: {', '.join(sorted(names))}")
    return name


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 float_format: str = "{:.3f}") -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return "(no data)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    widths = {c: len(c) for c in columns}
    rendered = []
    for row in rows:
        cells = {c: fmt(row.get(c, "")) for c in columns}
        rendered.append(cells)
        for c in columns:
            widths[c] = max(widths[c], len(cells[c]))
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for cells in rendered:
        lines.append("  ".join(cells[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def run_experiment_cli(main: Callable[[], None]) -> None:
    """Figure-CLI harness around the sweep service's failure modes.

    * ``Ctrl-C`` exits 130 with the resume hint the sweep driver already
      printed (workers terminated, completed rows journaled) instead of a
      raw traceback.
    * A strict-mode sweep failure (:class:`SweepPointsFailed`) exits 2
      with the structured failure report — the completed rows were
      journaled, so fixing the failing points and re-running resumes
      rather than recomputes.
    """
    from repro.experiments.sweeprunner import SweepPointsFailed

    try:
        main()
    except KeyboardInterrupt:
        raise SystemExit(130) from None
    except SweepPointsFailed as exc:
        print(exc.outcome.failure_report(), file=sys.stderr)
        raise SystemExit(2) from None
