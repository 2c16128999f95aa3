"""In-memory span tracing of twistdecomp's public functions, from outside the package.

`installed(tracer)` replaces every public function of the layer modules in
every `twistdecomp` module namespace that holds a reference to it
(`from .reps import irreducibles` binds the name again in `decomposition`,
`kgroups`, `cli` and the package root), wraps `SubgroupHandle.__init__`,
checks that no unwrapped reference is left, and restores everything on exit.
Each call becomes one span: name, start, end, parent span, case id and, for
the functions that report `distinct_ratio`, a digest of the input content.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "twistdecomp"
LAYERS = ("groups", "cocycles", "reps", "decomposition", "kgroups", "report")
TRACED_CLASSES = {"groups": ("SubgroupHandle",)}

NAME, START, END, PARENT, CASE, KEY = range(6)


def digest(*parts) -> str:
    """Content digest of arrays (by their bytes) and other values (by repr)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _cocycle_content(cocycle):
    exponents = getattr(cocycle, "exponents", None)
    if exponents is not None:
        return (cocycle.order, exponents)
    return ("numeric", cocycle.table)


def _key_group(G, *args, **kwargs) -> tuple[str, int]:
    return digest(G.mul), G.order


def _key_group_cocycle(G, cocycle, *args, **kwargs) -> tuple[str, int]:
    return digest(G.mul, *_cocycle_content(cocycle)), G.order


def _key_restrict(alpha, handle, *args, **kwargs) -> tuple[str, int]:
    return digest(alpha.group.mul, *_cocycle_content(alpha), handle.elements), handle.order


# Input keys, as (content digest, order of the input group), for the
# functions whose distinct_ratio is reported. Inputs are identified by group
# table and cocycle content, never by object identity.
INPUT_KEYS = {
    "reps.irreducibles": _key_group_cocycle,
    "groups.generating_set": _key_group,
    "cocycles.restrict": _key_restrict,
}


class Tracer:
    """Collects spans as [name, start, end, parent index, case id, input key]."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key = INPUT_KEYS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case,
                      key(*args, **kwargs) if key else None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def _layer_functions() -> dict:
    """original function -> traced name, for every public function of every layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{attr}"
    return found


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def unwrapped_references(originals) -> list[str]:
    """`module.attr` for each package namespace still bound to an original function."""
    left = []
    for module in _package_modules():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in originals:
                left.append(f"{module.__name__}.{attr}")
    for layer, classes in TRACED_CLASSES.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for cls_name in classes:
            if getattr(getattr(module, cls_name).__init__, "__wrapped__", None) is None:
                left.append(f"{module.__name__}.{cls_name}.__init__")
    return left


@contextmanager
def installed(tracer: Tracer):
    """Trace every public layer function for the duration of the block."""
    importlib.import_module(PACKAGE)
    originals = _layer_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in originals.items()}
    patched = []
    try:
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for layer, classes in TRACED_CLASSES.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for cls_name in classes:
                cls = getattr(module, cls_name)
                patched.append((cls, "__init__", cls.__init__))
                cls.__init__ = tracer.wrap(f"{layer}.{cls_name}", cls.__init__)
        left = unwrapped_references(originals)
        if left:
            raise RuntimeError(f"unwrapped references to traced functions: {left}")
        yield tracer
    finally:
        for namespace, attr, obj in reversed(patched):
            setattr(namespace, attr, obj)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0     # union of this function's span intervals
    self_s: float = 0.0      # span time not covered by child spans
    order_sum: int = 0       # summed input group orders, for keyed functions
    keys: set | None = None

    @property
    def distinct_ratio(self) -> float:
        return len(self.keys) / self.calls if self.keys is not None and self.calls else 0.0


def aggregate(spans: list) -> dict[str, SpanStats]:
    """Per-name calls, total (covered) time, self time and distinct input keys.

    Spans must be single-threaded and listed in start order, so every parent
    precedes its children and the children of one span do not overlap.
    """
    child_time = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_time[record[PARENT]] += record[END] - record[START]
    stats: dict[str, SpanStats] = {}
    for i, record in enumerate(spans):
        name = record[NAME]
        st = stats.setdefault(name, SpanStats())
        duration = record[END] - record[START]
        st.calls += 1
        st.self_s += duration - child_time[i]
        parent = record[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:           # outermost span of this name: counts once
            st.total_s += duration
        if record[KEY] is not None:
            digest, order = record[KEY]
            st.keys = st.keys if st.keys is not None else set()
            st.keys.add(digest)
            st.order_sum += order
    return stats


def calls_under(spans: list, name: str, parent_prefix: str) -> int:
    """Calls of `name` whose direct parent span's name starts with parent_prefix."""
    return sum(
        1 for record in spans
        if record[NAME] == name and record[PARENT] >= 0
        and spans[record[PARENT]][NAME].startswith(parent_prefix)
    )
