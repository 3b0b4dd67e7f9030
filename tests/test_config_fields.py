"""Config-field inventory: every field of the ``repro.config`` dataclasses is read.

The twin of ``tests/test_knobs.py``.  A field counts as read when a module
under ``src/repro`` other than ``config.py`` loads it as an attribute
(``cfg.org.channels``), or loads a config property whose body reads it
(``tWR`` is read through ``write_to_precharge``).  Validators do not count:
checking a value is not using it.

Fields that transcribe a Table II structure the model abstracts away are
listed in :data:`UNMODELLED` with the reason.  Any other unread field fails,
and a listed field that gains a reader fails too, so the list stays exact.

The check matches attribute *names* only, whatever object they are loaded
from: a new dead field named like an attribute read elsewhere (``seed``,
``channels``, ``enabled``) passes it; a knob with a name of its own
(``row_policy``) does not.
"""

import ast
import dataclasses
import inspect
import textwrap
from pathlib import Path
from typing import NamedTuple

import repro.config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


class Unmodelled(NamedTuple):
    config: str
    field: str
    reason: str


_CACHES = ("traffic generators emit LLC-miss streams directly; "
           "host.cache.CacheHierarchy takes its own sizes")

UNMODELLED = (
    Unmodelled("HostConfig", "lsq_entries",
               "no load/store queue: a core's memory parallelism is its "
               "profile's mlp"),
    Unmodelled("HostConfig", "max_outstanding_misses",
               "outstanding misses per core are bounded by profile.mlp"),
    Unmodelled("HostConfig", "l1_kib", _CACHES),
    Unmodelled("HostConfig", "l1_assoc", _CACHES),
    Unmodelled("HostConfig", "l2_kib", _CACHES),
    Unmodelled("HostConfig", "l2_assoc", _CACHES),
    Unmodelled("HostConfig", "llc_mib", _CACHES),
    Unmodelled("HostConfig", "llc_assoc", _CACHES),
    Unmodelled("HostConfig", "llc_mshrs", _CACHES),
    Unmodelled("NdaConfig", "pe_clock_ghz",
               "PEs step in the DRAM command clock; PlatformSpec records it"),
    Unmodelled("NdaConfig", "scratchpad_bytes",
               "the PE model tracks its operand buffer (buffer_bytes) only"),
)


def _attribute_loads():
    """Every attribute name loaded by the package outside ``config.py``."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        if path == PACKAGE / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _self_reads(function):
    """The ``self.<name>`` attributes a function body loads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def _config_classes():
    return [cls for cls in vars(repro.config).values()
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
            and cls.__module__ == repro.config.__name__]


def _unread_fields():
    loads = _attribute_loads()
    unread = set()
    for cls in _config_classes():
        properties = {name: member.fget for name, member in vars(cls).items()
                      if isinstance(member, property)}
        read = set()
        pending = [name for name in properties if name in loads]
        while pending:
            body = _self_reads(properties[pending.pop()])
            pending.extend((body & properties.keys()) - read)
            read |= body
        for field in dataclasses.fields(cls):
            if field.name not in loads and field.name not in read:
                unread.add((cls.__name__, field.name))
    return unread


def test_every_config_field_is_read_or_listed():
    listed = {(entry.config, entry.field) for entry in UNMODELLED}
    unread = _unread_fields()
    assert unread == listed, (
        f"unread and unlisted: {sorted(unread - listed)}; "
        f"listed but read: {sorted(listed - unread)}")


def test_property_reads_count():
    # tWR has no direct reader; write_to_precharge carries it.
    assert "tWR" not in _attribute_loads()
    assert ("DramTimingConfig", "tWR") not in _unread_fields()


def test_stochastic_default_is_one_constant():
    from repro.core.modes import AccessMode
    from repro.core.system import ChopimSystem
    from repro.experiments.common import build_system
    from repro.nda.throttle import DEFAULT_STOCHASTIC_PROBABILITY, make_policy
    from repro.utils.rng import DeterministicRng

    default = DEFAULT_STOCHASTIC_PROBABILITY
    system = ChopimSystem(mode=AccessMode.BANK_PARTITIONED, mix="mix1",
                          throttle="stochastic")
    assert system.throttle_policy.probability == default
    built = build_system(AccessMode.BANK_PARTITIONED, "mix1",
                         throttle="stochastic")
    assert built.throttle_policy.probability == default
    assert make_policy("stochastic",
                       rng=DeterministicRng(1, "test")).probability == default
