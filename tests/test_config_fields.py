"""Field inventory: every config field and every declared state member is read.

The twin of ``tests/test_knobs.py``, in two parts that share one reader:

* **config fields** — every field of the ``repro.config`` dataclasses is
  loaded by a module under ``src/repro`` other than ``config.py``, directly
  (``cfg.org.channels``) or through a config property or method whose body
  reads it (``tWR`` is read through ``write_to_precharge``).  Validators do
  not count: checking a value is not using it.
* **simulator state** — every ``STATE`` / ``COUNTERS`` member a
  ``src/repro`` class declares is loaded by code under ``src/repro``,
  ``benchmarks`` or ``examples``.  Two loads are not reads: one inside the
  member's own update (``self.minimum = min(self.minimum, v)``) and a
  method call whose result is dropped (``self.counters.add(...)``).  A
  member nothing reads is still checkpointed and reset at warm-up; it
  goes, or :data:`KEEP` names why it stays.

A read counts for the class of the object it is loaded from.  The check
types receivers statically: ``self`` is its class, parameters carry their
annotations, ``X()`` constructors, ``a or b``, annotated function and method
returns, assignments and loop targets propagate, the attributes a class
assigns (``self.dram = DramSystem(...)``) or annotates carry their types, and
a container is typed by its items (``List[Bank]`` and ``banks[0]`` are both
``Bank``).  So ``self.config.read_queue_entries`` in a controller whose
``config`` is a ``SchedulerConfig`` reads that field of ``SchedulerConfig``
only, never the same-named field of ``HostConfig``.  A receiver the check
cannot type (``args[0].cores``) still credits every class with a member of
that name.

:data:`UNMODELLED` and :data:`KEEP` are exact in both directions: an unread
member that is not listed fails, and a listed member that gains a reader
fails too.
"""

import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import repro.config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Where state reads are looked for: the package and the programs that
#: drive it (the frozen perf harness, the figure benchmarks, the examples).
PROGRAMS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples")


class Unmodelled(NamedTuple):
    config: str
    field: str
    reason: str


#: The Table II fields the model abstracts away were deleted, and their
#: values are kept in ARCHITECTURE.md ("Table II values the model abstracts
#: away").  A new entry needs a reason.
UNMODELLED: Tuple[Unmodelled, ...] = (
    Unmodelled("SystemConfig", "platform",
               "the preset's identity, not a model input: it keeps the "
               "sweep cache keys of presets apart, and tests check platform "
               "resolution by it"),
)


class Kept(NamedTuple):
    cls: str
    member: str
    reason: str


#: Declared members no program loads by attribute, kept on purpose.
KEEP: Tuple[Kept, ...] = (
    Kept("DramEventCounts", "precharges",
         "the perf ledger reads it by a getattr loop variable "
         "(dram.precharges)"),
    Kept("DramEventCounts", "refreshes",
         "the perf ledger reads it by a getattr loop variable "
         "(dram.refreshes)"),
    Kept("ChopimSystem", "throttle_policy",
         "the owner path that checkpoints the stochastic throttle's RNG; "
         "the system reaches the policy through its rank controllers"),
)


Read = Tuple[str, str]  # (class name, member name)
Types = Set[str]         # class names an expression may evaluate to
_MODULE = "<module>"     # the type of an imported module (``np``)

#: Calls that return (items of) their receiver or first argument.
_PASS_METHODS = {"values", "get", "pop", "popleft", "copy", "setdefault"}
_PASS_FUNCTIONS = {"list", "tuple", "sorted", "reversed", "iter", "next",
                   "min", "max", "set", "frozenset", "deque"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _program_paths() -> Iterator[Path]:
    for root in PROGRAMS:
        yield from sorted(root.rglob("*.py"))


def _package_modules() -> Iterator[ast.Module]:
    for path in PACKAGE.rglob("*.py"):
        if path != PACKAGE / "config.py":
            yield _parse(path)


def _attribute_loads():
    """Every attribute name loaded by the package outside ``config.py``."""
    return {node.attr for tree in _package_modules() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


class _Class(NamedTuple):
    """What the reader knows of one class: its bases, the types of its
    attributes and the annotated return types of its methods."""

    bases: Set[str]
    attrs: Dict[str, Types]
    returns: Dict[str, Types]


def _literal_names(value: ast.AST, body: List[ast.stmt]) -> List[str]:
    """The strings of a ``STATE = (...)`` tuple (or of ``__slots__``)."""
    if isinstance(value, ast.Name):  # ``STATE = __slots__``
        for node in body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == value.id
                            for t in node.targets)):
                return _literal_names(node.value, body)
        return []
    if isinstance(value, (ast.Tuple, ast.List)):
        return [item.value for item in value.elts
                if isinstance(item, ast.Constant)]
    return []


def _declared(tree: ast.Module) -> Set[Read]:
    """The ``STATE`` / ``COUNTERS`` members a module's classes declare."""
    return {(node.name, member) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.Assign)
            for target in item.targets
            if isinstance(target, ast.Name) and target.id in ("STATE", "COUNTERS")
            for member in _literal_names(item.value, node.body)}


class _Reader:
    """Statically typed attribute loads over a set of modules.

    The constructor records every class of ``trees``; ``credited`` then
    propagates receiver types through every function until nothing
    changes and returns the (class, member) pairs each load reads.
    """

    def __init__(self, trees: List[ast.Module]) -> None:
        self.classes: Dict[str, _Class] = {}
        self.functions: Dict[str, Types] = {}  # module function -> returns
        #: Names ``import`` binds: their attributes belong to a module.
        self.modules: Set[str] = set()
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    self.modules.update((alias.asname or alias.name).split(".")[0]
                                        for alias in node.names)
                elif isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, _Class(set(), {}, {})).bases.update(
                        ast.unparse(base).split(".")[-1] for base in node.bases)
        for tree in trees:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions.setdefault(node.name, set()).update(
                        self.annotated(node.returns))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = self.classes[node.name]
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        info.attrs.setdefault(item.target.id, set()).update(
                            self.annotated(item.annotation))
                    elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info.returns.setdefault(item.name, set()).update(
                            self.annotated(item.returns))

    def annotated(self, annotation: object) -> Types:
        """The known classes a (string or AST) annotation names."""
        if annotation is None:
            return set()
        text = annotation if isinstance(annotation, str) else ast.unparse(annotation)
        return set(re.findall(r"\w+", text)) & self.classes.keys()

    def ancestors(self, name: str) -> Types:
        """``name`` and every known class it derives from."""
        seen = {name}
        pending = [name]
        while pending:
            info = self.classes.get(pending.pop())
            for base in info.bases if info else ():
                if base not in seen:
                    seen.add(base)
                    pending.append(base)
        return seen

    def lineage(self, types: Types) -> Types:
        """``types`` with their known ancestors and descendants."""
        return set().union(*map(self.ancestors, types)) | {
            name for name in self.classes if self.ancestors(name) & types}

    def member_types(self, types: Types, table: str, name: str) -> Types:
        """The types of attribute (``attrs``) or method return (``returns``)
        ``name`` on receivers of ``types`` (any class when untyped)."""
        owners = (set().union(*map(self.ancestors, types)) if types
                  else self.classes.keys())
        found: Types = set()
        for owner in owners:
            info = self.classes.get(owner)
            if info is not None:
                found |= getattr(info, table).get(name, set())
        return found

    # -- scopes ----------------------------------------------------------- #

    def scopes(self, trees: List[ast.Module]) -> Dict[int, "_Scope"]:
        """The scope of every node (by ``id``), with receiver types
        propagated through assignments and loops until nothing changes.
        Nested defs share their enclosing function's scope; code outside
        any function shares one scope per module."""
        units: List[Tuple[ast.AST, _Scope, List[ast.AST]]] = []
        for tree in trees:
            module = _Scope(self, {}, None)
            units.append((tree, module, []))
            for node in tree.body:
                owner = node.name if isinstance(node, ast.ClassDef) else None
                for function in node.body if owner else [node]:
                    if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = {arg.arg: self.annotated(arg.annotation)
                                 for arg in ast.walk(function.args)
                                 if isinstance(arg, ast.arg)}
                        if owner and function.args.args:
                            names[function.args.args[0].arg] = {owner}
                        units.append((function, _Scope(self, names, owner), []))
        # Functions claim their nodes first; the module scope takes the rest.
        by_node: Dict[int, _Scope] = {}
        for root, scope, bindings in units[::-1]:
            for node in ast.walk(root):
                if id(node) in by_node:
                    continue
                by_node[id(node)] = scope
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.For,
                                     ast.comprehension, ast.withitem)):
                    bindings.append(node)
        changed = True
        while changed:
            changed = False
            for _, scope, bindings in units:
                for node in bindings:
                    changed |= scope.learn_binding(node)
        return by_node

    def credited(self, trees: List[ast.Module],
                 owners: Dict[str, Set[str]]) -> Set[Read]:
        """The (class, member) pairs the trees' loads read, for the members
        ``owners`` maps to their declaring classes."""
        scopes = self.scopes(trees)
        untyped = _Scope(self, {}, None)
        reads: Set[Read] = set()
        for tree in trees:
            parents = {id(child): node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                target = _loaded_member(node)
                if target is None or target[1] not in owners:
                    continue
                receiver, member = target
                if _is_write_only(node, parents):
                    continue
                receivers = scopes.get(id(node), untyped).types(receiver)
                candidates = owners[member]
                if receivers:
                    candidates = candidates & self.lineage(receivers)
                reads.update((owner, member) for owner in candidates)
        return reads


class _Scope(NamedTuple):
    """Receiver types inside one function (or one module's top level)."""

    reader: _Reader
    names: Dict[str, Types]
    owner: Optional[str]

    def types(self, node: ast.AST) -> Types:
        reader = self.reader
        if isinstance(node, ast.Name):
            if node.id in self.names:
                return self.names[node.id]
            return {_MODULE} if node.id in reader.modules else set()
        if isinstance(node, ast.Attribute):
            return reader.member_types(self.types(node.value), "attrs", node.attr)
        if isinstance(node, ast.BoolOp):  # ``config or SchedulerConfig()``
            return set().union(*(self.types(value) for value in node.values))
        if isinstance(node, ast.IfExp):
            return self.types(node.body) | self.types(node.orelse)
        if isinstance(node, ast.Subscript):  # an item of a typed container
            return self.types(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in reader.classes:
                    return {func.id}
                if func.id in _PASS_FUNCTIONS and node.args:
                    return self.types(node.args[0])
                return set(reader.functions.get(func.id, ()))
            if isinstance(func, ast.Attribute):
                receiver = self.types(func.value)
                if func.attr in _PASS_METHODS and receiver:
                    return receiver
                return reader.member_types(receiver, "returns", func.attr)
        return set()

    def bind(self, target: ast.AST, types: Types) -> bool:
        """Record an assignment; True when it added a type."""
        if not types:
            return False
        if isinstance(target, ast.Name):
            table, name = self.names, target.id
        elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
              and self.owner is not None
              and self.names.get(target.value.id) == {self.owner}):
            table, name = self.reader.classes[self.owner].attrs, target.attr
        elif isinstance(target, (ast.Tuple, ast.List)):
            return any([self.bind(item, types) for item in target.elts])
        else:
            return False
        known = table.setdefault(name, set())
        added = bool(types - known)
        known |= types
        return added

    def learn_binding(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Assign):
            types = self.types(node.value)
            return any([self.bind(target, types) for target in node.targets])
        if isinstance(node, ast.AnnAssign):
            types = self.reader.annotated(node.annotation)
            if node.value is not None:
                types |= self.types(node.value)
            return self.bind(node.target, types)
        if isinstance(node, (ast.For, ast.comprehension)):
            return self.bind(node.target, self.types(node.iter))
        if isinstance(node, ast.withitem) and node.optional_vars is not None:
            return self.bind(node.optional_vars, self.types(node.context_expr))
        return False


def _loaded_member(node: ast.AST) -> Optional[Tuple[ast.AST, str]]:
    """(receiver, member) of an attribute load or a ``getattr`` string."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.value, node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[0], node.args[1].value
    return None


def _is_write_only(node: ast.AST, parents: Dict[int, ast.AST]) -> bool:
    """A load that only serves a write: inside the member's own update, or
    the receiver of a method call whose result is dropped."""
    parent = parents.get(id(node))
    if (isinstance(parent, ast.Attribute) and parent.value is node):
        call = parents.get(id(parent))
        if (isinstance(call, ast.Call) and call.func is parent
                and isinstance(parents.get(id(call)), ast.Expr)):
            return True
    text = ast.unparse(node)
    while parent is not None and not isinstance(parent, ast.stmt):
        parent = parents.get(id(parent))
    return (isinstance(parent, ast.Assign)
            and any(ast.unparse(target) == text for target in parent.targets))


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


def _accessors(cls) -> Dict[str, object]:
    """A config class's properties and methods, by name, as functions."""
    return {name: getattr(member, "fget", member)
            for name, member in vars(cls).items()
            if isinstance(member, property)
            or (inspect.isfunction(member) and not name.startswith("__"))}


#: Config member name -> the config classes with a field, property or
#: method of that name.
_CONFIG_OWNERS: Dict[str, Set[str]] = {}
for _cls in _config_classes():
    for _member in [field.name for field in dataclasses.fields(_cls)] + list(
            _accessors(_cls)):
        _CONFIG_OWNERS.setdefault(_member, set()).add(_cls.__name__)


def _programs() -> List[ast.Module]:
    return [_parse(path) for path in _program_paths()]


def _credited_reads(tree: ast.Module) -> Set[Read]:
    """The (config class, member) pairs a module's attribute loads read."""
    return _Reader(_programs() + [tree]).credited([tree], _CONFIG_OWNERS)


def _package_reads() -> Set[Read]:
    return _Reader(_programs()).credited(list(_package_modules()),
                                         _CONFIG_OWNERS)


def _unread_fields():
    reads = _package_reads()
    unread = set()
    for cls in _config_classes():
        accessors = _accessors(cls)
        read = set()
        pending = [name for name in accessors if (cls.__name__, name) in reads]
        while pending:
            body = _self_reads(accessors[pending.pop()])
            pending.extend((body & accessors.keys()) - read)
            read |= body
        for field in dataclasses.fields(cls):
            if (cls.__name__, field.name) not in reads and field.name not in read:
                unread.add((cls.__name__, field.name))
    return unread


def _unread_state() -> Set[Read]:
    programs = _programs()
    declared = set().union(*(_declared(_parse(path))
                             for path in PACKAGE.rglob("*.py")))
    owners: Dict[str, Set[str]] = {}
    for cls, member in declared:
        owners.setdefault(member, set()).add(cls)
    return declared - _Reader(programs).credited(programs, owners)


def test_every_config_field_is_read_or_listed():
    listed = {(entry.config, entry.field) for entry in UNMODELLED}
    unread = _unread_fields()
    assert unread == listed, (
        f"unread and unlisted: {sorted(unread - listed)}; "
        f"listed but read: {sorted(listed - unread)}")


def test_every_declared_state_member_is_read_or_kept():
    listed = {(entry.cls, entry.member) for entry in KEEP}
    assert len(listed) == len(KEEP), "a member is kept twice"
    unread = _unread_state()
    assert unread == listed, (
        f"unread and not kept: {sorted(unread - listed)}; "
        f"kept but read: {sorted(listed - unread)}")


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


def test_write_only_loads_are_not_reads():
    tree = ast.parse(textwrap.dedent("""
        class Stat:
            STATE = ("low", "log", "seen")

            def __init__(self):
                self.low = None
                self.log = []
                self.seen = 0

            def add(self, value):
                self.low = value if self.low is None else min(self.low, value)
                self.log.append(value)
                return self.seen
        """))
    reads = _Reader([tree]).credited([tree], {"low": {"Stat"}, "log": {"Stat"},
                                     "seen": {"Stat"}})
    assert reads == {("Stat", "seen")}


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
