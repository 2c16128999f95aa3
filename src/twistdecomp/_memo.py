"""One bounded memo of irreducible tables, keyed by the content of their inputs,
and the parts that each object keeps for itself.

The memo holds only the splits of reps.irreducibles: they are the one
certified result that group objects of the same content share, and every
subgroup, isotropy or quotient table is a new group object. What is derived
from them for one group, such as its action tables, orbit data and K-group
summands, is kept once, in that group's parts (below). Validation is not
remembered: it runs on tables from outside and on each induced beta, while
subgroup, restriction and quotient tables are built without it (see
SubgroupHandle.as_group, cocycles.restrict and groups.quotient_with_section).

A key is a 16-byte blake2b digest of a kind tag and every input the
computation reads: arrays by dtype, shape and buffer, other values by repr.
An integer array of at least NARROW_MIN entries whose values all lie in
[0, 256) or [0, 65536), such as a group or exponent table, is hashed as
uint8 or uint16, converted NARROW_BLOCK entries at a time so no narrowed
copy of the whole array is made; its header names the narrow type after
the stored one, so the key stays injective. Any other array is hashed as
stored.
Callers store only what passed every check, so a failure is recomputed and
raised again on each call; an irreducibles entry whose deferred matrix
certificate later fails is no longer a hit (see reps._Split). Entries are
evicted least recently used first, once the stored arrays exceed
BUDGET_BYTES; an entry larger than the budget is not kept.

parts(owner) holds values derived from certified results that an object
keeps for itself, such as the action tables and K-group parts of a group
(see decomposition.action_table and the kgroups module): it lives in the
owner's __dict__, dies with it, is empty again after each clear(), and
keeps at most PARTS_PER_OWNER values, dropping the oldest first. Its keys
are plain tuples: the owner's own content needs no digest. A part is
plain data that never refers to its owner, which would make a cycle that
only the collector frees; each read builds the caller's objects around it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

BUDGET_BYTES = 1 << 18
PARTS_PER_OWNER = 32
# Smaller tables are hashed as stored: for them the range check costs more
# than the bytes it saves.
NARROW_MIN = 1 << 12
NARROW_BLOCK = 1 << 14


def key(kind: str, *parts) -> bytes:
    h = hashlib.blake2b(kind.encode(), digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            _update_array(h, np.ascontiguousarray(part))
        else:
            h.update(f"|{part!r}|".encode())
    return h.digest()


def _update_array(h, part: np.ndarray) -> None:
    """Hash the header and the values of an array, narrowed where they fit (see above)."""
    narrow = None
    if part.dtype.kind in "iu" and part.size >= NARROW_MIN and part.min() >= 0:
        top = part.max()
        narrow = np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else None
    if narrow is None:
        h.update(f"|{part.dtype.str}{part.shape}|".encode())
        h.update(part)
        return
    h.update(f"|{part.dtype.str}{part.shape}>{np.dtype(narrow).str}|".encode())
    flat = part.reshape(-1)
    for lo in range(0, flat.size, NARROW_BLOCK):
        h.update(flat[lo:lo + NARROW_BLOCK].astype(narrow))


class LRU:
    """Values by key, least recently used evicted first past a size budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict[bytes, tuple[object, int]] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()
        self.generation = 0             # bumped by clear(), which empties every parts dict

    def get(self, k: bytes):
        """The stored value, or None."""
        with self._lock:
            entry = self._entries.get(k)
            if entry is None:
                return None
            self._entries.move_to_end(k)
            return entry[0]

    def put(self, k: bytes, value, nbytes: int) -> None:
        if nbytes > self.budget:
            return
        with self._lock:
            old = self._entries.pop(k, None)
            if old is not None:
                self._used -= old[1]
            self._entries[k] = (value, nbytes)
            self._used += nbytes
            while self._used > self.budget:
                _, (_, size) = self._entries.popitem(last=False)
                self._used -= size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._used = 0
            self.generation += 1


_shared = LRU(BUDGET_BYTES)
get, put, clear = _shared.get, _shared.put, _shared.clear


class Parts(dict):
    """An owner's parts by key, the oldest dropped past PARTS_PER_OWNER.

    A read takes no lock: only put changes the dict, under the lock, so a
    race builds a part twice at worst.
    """

    def __init__(self, generation: int):
        super().__init__()
        self.generation = generation
        self._lock = threading.Lock()

    def put(self, k, value):
        with self._lock:
            self[k] = value
            while len(self) > PARTS_PER_OWNER:
                del self[next(iter(self))]
        return value


def parts(owner) -> Parts:
    """owner's own parts, new since the last clear()."""
    held = owner.__dict__.get("_memo_parts")
    if held is None or held.generation != _shared.generation:
        held = owner.__dict__["_memo_parts"] = Parts(_shared.generation)
    return held
