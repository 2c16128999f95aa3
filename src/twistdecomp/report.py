"""Deterministic JSON and text rendering of tables and reports.

All floats are rounded to 9 decimals with negative zero normalized, so
identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import json

import numpy as np

from .decomposition import DecompositionReport
from .kgroups import GSetDecompositionReport
from .reps import IrrTable, _rounded

SCHEMA_VERSION = 1
_DIGITS = 9


def _num(x: float) -> float:
    return round(float(x), _DIGITS) + 0.0


def _fingerprints(values: np.ndarray, identity: int) -> list[str]:
    """The fingerprint string of each row of a (#chars, |G|) stack of characters.

    "d<dim>|", the dimension read at the identity's index, and then "re,im"
    of every value, rounded as AlphaCharacter.fingerprint rounds it, joined
    by ";". One _rounded pass covers the whole stack, and one format string,
    built once, renders each row with a single % call.
    """
    rounded = _rounded(np.stack([values.real, values.imag], axis=-1), _DIGITS)
    row_format = ";".join(["%.9f,%.9f"] * values.shape[1])
    return [f"d{int(round(first.real))}|" + row_format % tuple(row)
            for first, row in zip(values[:, identity], rounded.reshape(len(values), -1).tolist())]


def matrix_pairs(m: np.ndarray) -> list:
    """[re, im] of every entry, nested as the array is, each rounded as _num rounds."""
    m = np.asarray(m)
    return _rounded(np.stack([m.real, m.imag], axis=-1), _DIGITS).tolist()


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def irr_table_payload(table: IrrTable, include_matrices: bool = False) -> dict:
    entries = []
    fingerprints = _fingerprints(table.character_values, table.group.identity)
    for i, (dim, chi, fingerprint) in enumerate(zip(table.dims, table.characters, fingerprints)):
        entry = {
            "dim": dim,
            "character": matrix_pairs(chi.values),
            "fingerprint": fingerprint,
        }
        if include_matrices:
            entry["matrices"] = matrix_pairs(table.irreducibles[i].matrices)
        entries.append(entry)
    return {
        "labels": list(table.group.labels),
        "count": len(table),
        "dims": list(table.dims),
        "sum_of_squares": int(sum(d * d for d in table.dims)),
        "irreducibles": entries,
    }


def irr_table_text(table: IrrTable) -> str:
    lines = [
        f"irreducibles: {len(table)} (dims: {', '.join(map(str, table.dims))}; "
        f"sum of squares = {sum(d * d for d in table.dims)})"
    ]
    labels = table.group.labels
    for i, (dim, chi) in enumerate(zip(table.dims, table.characters)):
        lines.append(f"#{i}: dim {dim}")
        for g, v in enumerate(chi.values):
            lines.append(f"    chi({labels[g]}) = {_fmt_complex(v)}")
    return "\n".join(lines) + "\n"


def _fmt_complex(z: complex) -> str:
    re, im = _num(z.real), _num(z.imag)
    if im == 0.0:
        return f"{re:g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:g}{sign}{abs(im):g}i"


def decomposition_payload(report: DecompositionReport) -> dict:
    """The JSON payload of a point decomposition; each table's fingerprints are made once."""
    irr_g = _fingerprints(report.irr_g.character_values, report.group.identity)
    irr_a = _fingerprints(report.action.base.character_values, report.action.base.group.identity)
    beta = [_fingerprints(t.character_values, t.group.identity) for t in report.beta_tables]
    orbits = []
    for datum, table, beta_fingerprints in zip(report.orbits, report.beta_tables, beta):
        orbits.append({
            "members": [irr_a[i] for i in datum.members],
            "member_indices": list(datum.members),
            "isotropy": {
                "order": datum.isotropy.order,
                "elements": list(datum.isotropy.elements),
                "labels": [report.group.labels[g] for g in datum.isotropy.elements],
            },
            "quotient_order": datum.q_group.order,
            "beta": matrix_pairs(datum.beta.table),
            "beta_irr_dims": list(table.dims),
            "beta_irr_fingerprints": beta_fingerprints,
        })
    matching = []
    for wi, (oi, ci) in enumerate(report.matching):
        matching.append({
            "g_irr_index": wi,
            "g_irr": irr_g[wi],
            "orbit": oi,
            "class_index": ci,
            "class": beta[oi][ci],
        })
    return {
        "schema": SCHEMA_VERSION,
        "group": {"order": report.group.order, "labels": list(report.group.labels)},
        "subgroup": {
            "order": report.subgroup.order,
            "elements": list(report.subgroup.elements),
        },
        "cocycle_order": getattr(report.alpha, "order", None),
        "seed": report.seed,
        "irr_g": {
            "count": len(report.irr_g),
            "dims": list(report.irr_g.dims),
            "fingerprints": irr_g,
        },
        "irr_a": {
            "count": len(report.action.base),
            "dims": list(report.action.base.dims),
            "fingerprints": irr_a,
        },
        "orbits": orbits,
        "matching": matching,
        "rank": {
            "lhs": report.rank_lhs,
            "rhs": list(report.rank_rhs),
            "total": int(sum(report.rank_rhs)),
            "ok": report.rank_ok,
        },
    }


def decomposition_text(report: DecompositionReport) -> str:
    G = report.group
    lines = [
        f"group order {G.order}, subgroup order {report.subgroup.order} (normal), "
        f"quotient order {G.order // report.subgroup.order}",
        f"irreducibles of (G, alpha): {report.rank_lhs} "
        f"(dims: {', '.join(map(str, report.irr_g.dims))})",
        f"irreducibles of (A, alpha|A): {len(report.action.base)}",
        "orbits on Irr(A):",
    ]
    for oi, (datum, table) in enumerate(zip(report.orbits, report.beta_tables)):
        iso_labels = ", ".join(G.labels[g] for g in datum.isotropy.elements)
        lines.append(
            f"  orbit {oi}: members {list(datum.members)}, size {len(datum.members)}, "
            f"isotropy order {datum.isotropy.order} {{{iso_labels}}}, "
            f"quotient order {datum.q_group.order}, "
            f"beta classes: {len(table)} (dims: {', '.join(map(str, table.dims))})"
        )
    lines.append("matching:")
    for wi, (oi, ci) in enumerate(report.matching):
        dim = report.irr_g.dims[wi]
        cdim = report.beta_tables[oi].dims[ci]
        lines.append(
            f"  G-irreducible #{wi} (dim {dim}) -> orbit {oi}, class #{ci} (dim {cdim})"
        )
    rhs = " + ".join(map(str, report.rank_rhs)) or "0"
    status = "OK" if report.rank_ok else "MISMATCH"
    lines.append(f"rank check: {report.rank_lhs} = {rhs}  {status}")
    return "\n".join(lines) + "\n"


def gset_report_payload(report: GSetDecompositionReport) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "direct_rank": report.lhs_rank,
        "decomposed_ranks": list(report.rhs_ranks),
        "decomposed_total": int(sum(report.rhs_ranks)),
        "ok": report.ok,
    }


def gset_report_text(report: GSetDecompositionReport) -> str:
    rhs = " + ".join(map(str, report.rhs_ranks)) or "0"
    status = "PASS" if report.ok else "FAIL"
    return (
        f"direct rank: {report.lhs_rank}\n"
        f"decomposed rank: {rhs} = {sum(report.rhs_ranks)}\n"
        f"{status}\n"
    )
