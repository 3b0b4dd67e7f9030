"""Config-field inventory: every field of the ``repro.config`` dataclasses is read.

The twin of ``tests/test_knobs.py``.  A field counts as read when a module
under ``src/repro`` other than ``config.py`` loads it as an attribute
(``cfg.org.channels``), or loads a config property whose body reads it
(``tWR`` is read through ``write_to_precharge``).  Validators do not count:
checking a value is not using it.

A read counts for the config class of the object it is loaded from.  The
check types receivers statically, within one function (or one class, for
``self.<attr>``): parameters annotated with a config class, ``X()``
constructors, ``a or b``, assignments from any of these, and the
sub-config fields of a typed value (``config.host`` is a ``HostConfig``).  So ``self.config.read_queue_entries``
in a controller whose ``config`` is a ``SchedulerConfig`` reads that field
of ``SchedulerConfig`` only, never the same-named field of ``HostConfig``.
A receiver the check cannot type (``system.cores``, ``sys.platform``) still
credits every config class with a member of that name.

Fields that transcribe a Table II structure the model abstracts away are
listed in :data:`UNMODELLED` with the reason.  Any other unread field fails,
and a listed field that gains a reader fails too, so the list stays exact.
"""

import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, NamedTuple, Set, Tuple

import repro.config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


class Unmodelled(NamedTuple):
    config: str
    field: str
    reason: str


#: Empty: the Table II fields the model abstracts away were deleted, and
#: their values are kept in ARCHITECTURE.md ("Table II values the model
#: abstracts away").  A new entry needs a reason.
UNMODELLED: Tuple[Unmodelled, ...] = ()


Read = Tuple[str, str]  # (config class name, member name)
Types = Set[str]         # config class names an expression may evaluate to


def _package_modules() -> Iterator[ast.Module]:
    for path in PACKAGE.rglob("*.py"):
        if path != PACKAGE / "config.py":
            yield ast.parse(path.read_text(encoding="utf-8"))


def _attribute_loads():
    """Every attribute name loaded by the package outside ``config.py``."""
    return {node.attr for tree in _package_modules() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _annotated(annotation: object) -> Types:
    """The config classes a (string or AST) annotation names."""
    if annotation is None:
        return set()
    text = annotation if isinstance(annotation, str) else ast.unparse(annotation)
    return set(re.findall(r"\w+", text)) & _CLASSES.keys()


class _Scope(NamedTuple):
    """Receiver types inside one function: its locals, plus the ``self``
    attributes its class assigns anywhere."""

    names: Dict[str, Types]
    attrs: Dict[str, Types]

    def types(self, node: ast.AST) -> Types:
        if isinstance(node, ast.Name):
            return self.names.get(node.id, set())
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.attrs.get(node.attr, set())
            return {_SUBCONFIGS[cls][node.attr] for cls in self.types(node.value)
                    if node.attr in _SUBCONFIGS[cls]}
        if isinstance(node, ast.BoolOp):  # ``config or SchedulerConfig()``
            return set().union(*(self.types(value) for value in node.values))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _CLASSES):
            return {node.func.id}
        return set()

    def bind(self, target: ast.AST, types: Types) -> bool:
        """Record an assignment; True when it added a type."""
        if isinstance(target, ast.Name):
            table, name = self.names, target.id
        elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
              and target.value.id == "self"):
            table, name = self.attrs, target.attr
        else:
            return False
        known = table.setdefault(name, set())
        added = bool(types - known)
        known |= types
        return added


def _scopes(tree: ast.Module) -> Dict[int, _Scope]:
    """The scope of every node inside a top-level function or method (by
    ``id``; nested defs share their enclosing function's), with receiver
    types propagated through assignments until nothing changes."""
    scopes = []
    for node in tree.body:
        attrs: Dict[str, Types] = {}  # shared by the methods of a class
        for function in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {arg.arg: _annotated(arg.annotation)
                         for arg in ast.walk(function.args)
                         if isinstance(arg, ast.arg)}
                scopes.append((function, _Scope(names, attrs)))
    changed = True
    while changed:
        changed = False
        for function, scope in scopes:
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        changed |= scope.bind(target, scope.types(node.value))
    return {id(node): scope for function, scope in scopes
            for node in ast.walk(function)}


def _credited_reads(tree: ast.Module) -> Set[Read]:
    """The (config class, member) pairs a module's attribute loads read."""
    scopes = _scopes(tree)
    untyped = _Scope({}, {})
    reads: Set[Read] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in _OWNERS):
            receivers = scopes.get(id(node), untyped).types(node.value)
            owners = _OWNERS[node.attr] & receivers if receivers else _OWNERS[node.attr]
            reads.update((owner, node.attr) for owner in owners)
    return reads


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


_CLASSES = {cls.__name__: cls for cls in _config_classes()}
#: Each class's fields whose type is another config class (``org``, ...).
_SUBCONFIGS = {name: {field.name: next(iter(_annotated(field.type)))
                      for field in dataclasses.fields(cls) if _annotated(field.type)}
               for name, cls in _CLASSES.items()}
#: Member name -> the config classes with a field or property of that name.
_OWNERS: Dict[str, Set[str]] = {}
for _name, _cls in _CLASSES.items():
    for _member in [field.name for field in dataclasses.fields(_cls)] + [
            member for member, value in vars(_cls).items()
            if isinstance(value, property)]:
        _OWNERS.setdefault(_member, set()).add(_name)


def _package_reads() -> Set[Read]:
    return set().union(*map(_credited_reads, _package_modules()))


def _unread_fields():
    reads = _package_reads()
    unread = set()
    for cls in _config_classes():
        properties = {name: member.fget for name, member in vars(cls).items()
                      if isinstance(member, property)}
        read = set()
        pending = [name for name in properties if (cls.__name__, name) in reads]
        while pending:
            body = _self_reads(properties[pending.pop()])
            pending.extend((body & properties.keys()) - read)
            read |= body
        for field in dataclasses.fields(cls):
            if (cls.__name__, field.name) not in reads and field.name not in read:
                unread.add((cls.__name__, field.name))
    return unread


def test_every_config_field_is_read_or_listed():
    listed = {(entry.config, entry.field) for entry in UNMODELLED}
    unread = _unread_fields()
    assert unread == listed, (
        f"unread and unlisted: {sorted(unread - listed)}; "
        f"listed but read: {sorted(listed - unread)}")


def test_reads_credit_the_receivers_class():
    reads = _credited_reads(ast.parse(textwrap.dedent("""
        class Consumer:
            def __init__(self, org: DramOrgConfig, config=None):
                self.config = config or SystemConfig()
                self.org = org

            def use(self, system, spec):
                host = self.config.host
                return (self.org.dram_clock_ghz, host.cpu_clock_ghz,
                        system.rob_entries, spec.platform)
        """)))
    # Typed receivers credit their own class only: DramOrgConfig's clock,
    # not HostConfig's, and SystemConfig.host's cpu clock.
    assert ("DramOrgConfig", "dram_clock_ghz") in reads
    assert ("HostConfig", "dram_clock_ghz") not in reads
    assert ("HostConfig", "cpu_clock_ghz") in reads
    # Untyped receivers fall back to the member name.
    assert ("HostConfig", "rob_entries") in reads
    assert ("SystemConfig", "platform") in reads


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
