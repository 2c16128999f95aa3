"""Text file formats and spec-string parsing.

Group file: either a `table:` header followed by n rows of n indices, or a
`perm: degree=<d>` header followed by one generator per line in cycle
notation. Cocycle file: `order K=<K> group=<group-spec>` header, then lines
`g h exponent` (missing pairs default to exponent 0). G-set file:
`points=<n>`, then lines `g: i0 i1 ... i_{n-1}`; unlisted elements act as
forced by the listed ones, which must generate the group.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .cocycles import Cocycle, dihedral_alpha, make_cocycle, trivial_cocycle
from .errors import InputError, ParseError
from .groups import (
    DEFAULT_CLOSURE_CAP,
    FiniteGroup,
    SubgroupHandle,
    cyclic,
    dihedral,
    from_multiplication_table,
    from_permutation_generators,
    subgroup_closure,
)
from .kgroups import FiniteGSet, make_gset

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped text) for non-blank, non-comment lines."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def parse_cycles(text: str, degree: int, lineno: int = 0) -> tuple[int, ...]:
    """Parse `(0 1 2)(3 4)` into a permutation tuple of the given degree.

    The cycles must be disjoint: a point in two cycles raises ParseError.
    """
    body = text.replace(",", " ")
    consumed = _CYCLE_RE.sub("", body).strip()
    if consumed:
        raise ParseError(f"line {lineno}: unexpected text {consumed!r} in cycle notation")
    perm = list(range(degree))
    seen: set[int] = set()
    for cyc in _CYCLE_RE.findall(body):
        entries = [int(tok) for tok in cyc.split()]
        if not entries:
            continue
        if any(not 0 <= e < degree for e in entries) or len(set(entries)) != len(entries):
            raise ParseError(f"line {lineno}: bad cycle ({cyc})")
        repeated = seen.intersection(entries)
        if repeated:
            raise ParseError(f"line {lineno}: point {min(repeated)} appears in more than one cycle")
        seen.update(entries)
        for a, b in zip(entries, entries[1:]):
            perm[a] = b
        perm[entries[-1]] = entries[0]
    return tuple(perm)


def load_group_file(path: str | Path) -> FiniteGroup:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty group file")
    lineno, header = lines[0]
    if header == "table:":
        rows = []
        for ln, line in lines[1:]:
            try:
                rows.append([int(tok) for tok in line.split()])
            except ValueError as exc:
                raise ParseError(f"{path}: line {ln}: non-integer table entry") from exc
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ParseError(f"{path}: table is not square ({len(rows)} rows)")
        return from_multiplication_table(rows)
    m = re.fullmatch(r"perm:\s*degree=(\d+)", header)
    if m:
        degree = int(m.group(1))
        gens = [parse_cycles(line, degree, ln) for ln, line in lines[1:]]
        return from_permutation_generators(degree, gens)
    raise ParseError(f"{path}: line {lineno}: expected 'table:' or 'perm: degree=<d>' header")


def parse_group_spec(spec: str) -> FiniteGroup:
    """The group a spec names. A dihedral:<n> or cyclic:<n> spec whose order
    exceeds DEFAULT_CLOSURE_CAP, the cap that permutation groups obey, raises
    InputError before any table is allocated."""
    spec = spec.strip()
    order = _builtin_order(spec)
    if order is not None:
        return dihedral(order // 2) if spec.startswith("dihedral") else cyclic(order)
    m = re.fullmatch(r"(?:table|perm|file):(.+)", spec)
    if m:
        return load_group_file(m.group(1))
    if Path(spec).exists():
        return load_group_file(spec)
    raise ParseError(
        f"unknown group spec {spec!r} (use dihedral:<n>, cyclic:<n>, or a file path)"
    )


def _builtin_order(spec: str) -> int | None:
    """The order of the group of a dihedral:<n> or cyclic:<n> spec, None for
    any other spec; InputError above DEFAULT_CLOSURE_CAP. Nothing is built."""
    spec = spec.strip()
    m = re.fullmatch(r"(dihedral|cyclic):(\d+)", spec)
    if not m:
        return None
    order = 2 * int(m.group(2)) if m.group(1) == "dihedral" else int(m.group(2))
    if order > DEFAULT_CLOSURE_CAP:
        raise InputError(f"group {spec} has order {order}, above the cap of "
                         f"{DEFAULT_CLOSURE_CAP} elements")
    return order


def load_cocycle_file(path: str | Path) -> tuple[FiniteGroup, Cocycle]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read cocycle file {path}: {exc}") from exc
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty cocycle file")
    lineno, header = lines[0]
    m = re.fullmatch(r"order\s+K=(\d+)\s+group=(\S+)", header)
    if not m:
        raise ParseError(f"{path}: line {lineno}: expected 'order K=<K> group=<spec>' header")
    order = int(m.group(1))
    if order < 1:
        raise ParseError(f"{path}: line {lineno}: the cocycle order K must be at least 1")
    group_spec = m.group(2)
    if re.fullmatch(r"(?:table|perm|file):(.+)", group_spec):
        kind, _, rel = group_spec.partition(":")
        target = Path(rel)
        if not target.is_absolute():
            target = path.parent / target
        group = parse_group_spec(f"{kind}:{target}")
    else:
        group = parse_group_spec(group_spec)
    expo = np.zeros((group.order, group.order), dtype=np.int64)
    for ln, line in lines[1:]:
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"{path}: line {ln}: expected 'g h exponent'")
        try:
            g, h, e = (int(t) for t in toks)
        except ValueError as exc:
            raise ParseError(f"{path}: line {ln}: non-integer entry") from exc
        if not (0 <= g < group.order and 0 <= h < group.order):
            raise ParseError(f"{path}: line {ln}: element index out of range")
        expo[g, h] = e % order
    return group, make_cocycle(group, order, expo)


def parse_cocycle_spec(spec: str, group: FiniteGroup) -> Cocycle:
    """Resolve a cocycle spec against an already-parsed group."""
    spec = spec.strip()
    if spec == "trivial":
        return trivial_cocycle(group)
    m = re.fullmatch(r"dihedral_alpha:(\d+)", spec)
    if m:
        # an order that differs is rejected before dihedral_alpha builds a table of that order
        n = int(m.group(1))
        alpha = dihedral_alpha(n) if 2 * n == group.order else None
        if alpha is None or not alpha.group.same_table(group):
            raise ParseError(
                f"{spec} is defined on dihedral:{m.group(1)}, which differs from the given group"
            )
        return Cocycle(group=group, order=alpha.order, exponents=np.array(alpha.exponents))
    path = spec.partition(":")[2] if spec.startswith("file:") else spec
    if Path(path).exists():
        file_group, alpha = load_cocycle_file(path)
        if not file_group.same_table(group):
            raise ParseError(f"cocycle file {path} is defined on a different group")
        return Cocycle(group=group, order=alpha.order, exponents=np.array(alpha.exponents))
    raise ParseError(
        f"unknown cocycle spec {spec!r} (use trivial, dihedral_alpha:<n>, or a file path)"
    )


_WORD_TOKEN = re.compile(r"([a-z])\^?(\d*)")


def _generator_indices(group: FiniteGroup) -> dict[str, int]:
    """Map single-letter labels to element indices (for word parsing)."""
    out = {}
    for idx, label in enumerate(group.labels):
        if re.fullmatch(r"[a-z]", label):
            out[label] = idx
    return out


def parse_element_word(word: str, group: FiniteGroup) -> int:
    """Resolve an element: exact label, raw index, or a word like `a2b`."""
    stripped = word.strip()
    hits = [i for i, label in enumerate(group.labels) if label == stripped]
    if len(hits) == 1:
        return hits[0]
    word = stripped.replace(" ", "")
    if word in ("1", "e"):
        return group.identity
    if re.fullmatch(r"\d+", word):
        idx = int(word)
        if not 0 <= idx < group.order:
            raise ParseError(f"element index {idx} out of range")
        return idx
    gens = _generator_indices(group)
    pos = 0
    result = group.identity
    for m in _WORD_TOKEN.finditer(word):
        if m.start() != pos:
            break
        letter, power = m.group(1), m.group(2)
        if letter not in gens:
            raise ParseError(f"unknown generator {letter!r} in word {word!r}")
        k = int(power) if power else 1
        result = group.multiply(result, group.power(gens[letter], k))
        pos = m.end()
    if pos != len(word):
        raise ParseError(f"cannot parse element word {word!r}")
    return result


def parse_subgroup_spec(spec: str, group: FiniteGroup) -> SubgroupHandle:
    """Comma-separated generator words or raw indices; `trivial` and `all` work too."""
    spec = spec.strip()
    if spec in ("trivial", ""):
        return subgroup_closure(group, [])
    if spec in ("all", "full"):
        return subgroup_closure(group, range(group.order))
    seeds = [parse_element_word(tok.strip(), group) for tok in spec.split(",") if tok.strip()]
    return subgroup_closure(group, seeds)


def load_gset_file(path: str | Path, group: FiniteGroup) -> FiniteGSet:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read G-set file {path}: {exc}") from exc
    lines = _content_lines(text)
    if not lines:
        raise ParseError(f"{path}: empty G-set file")
    lineno, header = lines[0]
    m = re.fullmatch(r"points\s*=\s*(\d+)", header)
    if not m:
        raise ParseError(f"{path}: line {lineno}: expected 'points=<n>' header")
    size = int(m.group(1))
    listed: dict[int, np.ndarray] = {}
    for ln, line in lines[1:]:
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"{path}: line {ln}: expected 'g: i0 i1 ...'")
        g = parse_element_word(head.strip(), group)
        try:
            images = [int(t) for t in rest.split()]
        except ValueError as exc:
            raise ParseError(f"{path}: line {ln}: non-integer image") from exc
        if len(images) != size or any(not 0 <= v < size for v in images):
            raise ParseError(f"{path}: line {ln}: need {size} images in range")
        listed[g] = np.asarray(images, dtype=np.int64)
    action = _complete_action(group, size, listed, path)
    return make_gset(group, action)


def _complete_action(group: FiniteGroup, size: int, listed: dict[int, np.ndarray],
                     path: Path) -> np.ndarray:
    """Extend images of the listed elements to the whole group by products."""
    known: dict[int, np.ndarray] = {group.identity: np.arange(size, dtype=np.int64)}
    for g, img in listed.items():
        if g in known and not np.array_equal(known[g], img):
            raise ParseError(f"{path}: conflicting images for element {g}")
        known[g] = img
    frontier = list(known)
    while frontier:
        nxt = []
        for g in list(known):
            for h in frontier:
                prod = int(group.mul[g, h])
                img = known[g][known[h]]
                if prod in known:
                    if not np.array_equal(known[prod], img):
                        raise ParseError(f"{path}: listed images are inconsistent at {prod}")
                else:
                    known[prod] = img
                    nxt.append(prod)
        frontier = nxt
    if len(known) != group.order:
        raise ParseError(
            f"{path}: listed elements do not generate the group "
            f"({len(known)} of {group.order} covered)"
        )
    return np.stack([known[g] for g in range(group.order)])
