"""State diff: the dotted paths at which two system snapshots differ.

Requests, instructions and operations take their ids from process-global
counters, so two identical systems built one after the other in one
process hold different ids.  :func:`diff` compares each kind canonically —
an id by its rank among the ids of the payload's table of that kind —
wherever one sits (:data:`ID_SITES`), and skips the ``watermarks`` record,
which belongs to the process rather than to the system.
"""

from __future__ import annotations

import re
from collections import deque
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List

#: Where each kind of id sits in a payload: regular expressions over the
#: dotted path of a leaf.  The keys of ``tables.<kind>`` are ids too.
ID_SITES = {
    "requests": (r"tables\.requests\.\d+\.request_id",
                 r"system\._core_backlog\.\d+\.\d+",
                 r"system\._host_component\._completions\.\d+\.2",
                 r"system\.channel_controllers\.\d+\.(read_queue\._entries"
                 r"|write_queue\._entries|_completions\.\d+)\.\d+",
                 r"system\.nda_host\._inflight\.\d+\.0"),
    "instructions": (r"tables\.instructions\.\d+\.instruction_id",
                     r".*(\.work|\._queue\.\d+)\.instruction",
                     r".*\.fsm\._(device|host)\.current_instruction",
                     r".*\.pes\.\d+\._current"),
    "operations": (r"tables\.operations\.\d+\.operation_id",
                   r".*(\.work|\._queue\.\d+)\.operation_id",
                   r"system\.nda_host\.(_active_blocking"
                   r"|_operation_queue\.\d+)"),
}
_SITES = {kind: re.compile("|".join(sites))
          for kind, sites in ID_SITES.items()}


def diff(a: Dict[str, Any], b: Dict[str, Any],
         ignore: Iterable[str] = ()) -> List[str]:
    """The dotted paths at which two ``snapshot_system`` payloads differ
    (``system.dram.timing._ranks.3.last_write_cycle``), in payload order.
    A subtree only one side has is reported by its root; a path matching
    an ``ignore`` glob, or under one, is left out.

    Equal subtrees are skipped whole, so payloads that agree cost little
    more than one ``==``."""
    ranks = [{kind: {old: new for new, old in enumerate(sorted(table))}
              for kind, table in payload["tables"].items()}
             for payload in (a, b)]
    paths: List[str] = []

    def walk(x: Any, y: Any, path: str) -> None:
        if x == y:
            return
        if isinstance(x, (list, tuple, deque)) and type(x) is type(y):
            x, y = dict(enumerate(x)), dict(enumerate(y))
        elif path.startswith("tables.") and path.count(".") == 1:
            # Table entries pair by rank, not by id.
            x, y = ({rank[path[7:]][key]: item for key, item in side.items()}
                    for rank, side in zip(ranks, (x, y)))
        if isinstance(x, dict) and isinstance(y, dict):
            for key, item in x.items():
                if key in y:
                    walk(item, y[key], f"{path}.{key}")
                else:
                    paths.append(f"{path}.{key}")
            paths.extend(f"{path}.{key}" for key in y if key not in x)
            return
        kind = next((kind for kind, site in _SITES.items()
                     if site.fullmatch(path)), None)
        if kind is None or ranks[0][kind].get(x, x) != ranks[1][kind].get(y, y):
            paths.append(path)

    for key in a:
        if key != "watermarks":
            walk(a[key], b[key], key)
    return [path for path in paths
            if not any(fnmatchcase(path, glob) or fnmatchcase(path, glob + ".*")
                       for glob in ignore)]
