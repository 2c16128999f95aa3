"""One bounded memo of certified results, keyed by the content of their inputs.

It holds irreducible tables, the action on Irr(A, alpha|_A) with its orbit
data, and the isotropy summands of K^0. Validation is not remembered: it
runs on tables from outside and on each induced beta, while subgroup,
restriction and quotient tables are built without it (see
SubgroupHandle.as_group, cocycles.restrict and groups.quotient_with_section).

A key is a 16-byte blake2b digest of a kind tag and every input the
computation reads: arrays by dtype, shape and buffer, other values by repr.
Callers store only what passed every check, so a failure is recomputed and
raised again on each call; an irreducibles entry whose deferred matrix
certificate later fails is no longer a hit (see reps._Split). Entries are
evicted least recently used first, once the stored arrays exceed
BUDGET_BYTES; an entry larger than the budget is not kept.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

BUDGET_BYTES = 1 << 18


def key(kind: str, *parts) -> bytes:
    h = hashlib.blake2b(kind.encode(), digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            h.update(f"|{part.dtype.str}{part.shape}|".encode())
            h.update(part)
        else:
            h.update(f"|{part!r}|".encode())
    return h.digest()


class LRU:
    """Values by key, least recently used evicted first past a size budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict[bytes, tuple[object, int]] = OrderedDict()
        self._used = 0
        self._lock = threading.Lock()

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


_shared = LRU(BUDGET_BYTES)
get, put, clear = _shared.get, _shared.put, _shared.clear
