"""The ``.bn`` text format and the evidence mini-language.

Network files are UTF-8, line oriented, ``#`` starts a comment:

    node <name> <k> <label_0> ... <label_{k-1}>
    parents <name> <p1> <p2> ...     # order significant
    cpt <name> <v_0> <v_1> ...       # row-major over (parents in declared
                                     # order, first parent most significant;
                                     # child value index fastest)

Evidence: ``X=label`` (hard) or ``X=label1|label2`` (soft); comma-separated
on the command line, one per line in files.

So that evidence can name every variable and value, a node name may not
contain ``,`` or ``=``, and a value label may not contain ``,`` or ``|``;
``parse_network`` rejects either with the line number.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import BnFormatError, CycleError
from .factor import Factor
from .network import BayesianNetwork, EvidenceSet, Variable, validate


def parse_network(text: str) -> BayesianNetwork:
    names: list[str] = []
    labels: dict[str, list[str]] = {}
    parents: dict[str, list[str]] = {}
    raw_cpts: dict[str, list[float]] = {}
    cpt_line: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 3:
                raise BnFormatError("node needs a name and a cardinality", lineno)
            name = tokens[1]
            if name in labels:
                raise BnFormatError(f"duplicate node {name!r}", lineno)
            if "," in name or "=" in name:
                raise BnFormatError(f"node name {name!r} contains ',' or '='", lineno)
            try:
                k = int(tokens[2])
            except ValueError:
                raise BnFormatError(f"bad cardinality {tokens[2]!r}", lineno) from None
            vals = tokens[3:]
            if k < 1:
                raise BnFormatError("cardinality must be >= 1", lineno)
            if len(vals) != k:
                raise BnFormatError(
                    f"node {name!r}: expected {k} value labels, got {len(vals)}", lineno
                )
            if len(set(vals)) != k:
                raise BnFormatError(f"node {name!r}: duplicate value labels", lineno)
            for label in vals:
                if "," in label or "|" in label:
                    raise BnFormatError(
                        f"node {name!r}: value label {label!r} contains ',' or '|'", lineno
                    )
            names.append(name)
            labels[name] = vals
        elif kind == "parents":
            if len(tokens) < 2:
                raise BnFormatError("parents needs a node name", lineno)
            name = tokens[1]
            if name not in labels:
                raise BnFormatError(f"parents before node for {name!r}", lineno)
            if name in parents:
                raise BnFormatError(f"duplicate parents line for {name!r}", lineno)
            ps = tokens[2:]
            for p in ps:
                if p not in labels:
                    raise BnFormatError(f"unknown parent name {p!r}", lineno)
            if len(set(ps)) != len(ps):
                raise BnFormatError(f"repeated parent for {name!r}", lineno)
            if name in ps:
                raise BnFormatError(f"{name!r} cannot be its own parent", lineno)
            parents[name] = ps
        elif kind == "cpt":
            if len(tokens) < 2:
                raise BnFormatError("cpt needs a node name", lineno)
            name = tokens[1]
            if name not in labels:
                raise BnFormatError(f"cpt before node for {name!r}", lineno)
            if name in raw_cpts:
                raise BnFormatError(f"duplicate cpt for {name!r}", lineno)
            try:
                vals = [float(t) for t in tokens[2:]]
            except ValueError:
                raise BnFormatError(f"bad cpt number in {name!r}", lineno) from None
            if any(v < 0 for v in vals) or not all(np.isfinite(vals)):
                raise BnFormatError(
                    f"cpt of {name!r}: entries must be finite and >= 0", lineno
                )
            raw_cpts[name] = vals
            cpt_line[name] = lineno
        else:
            raise BnFormatError(f"unknown directive {kind!r}", lineno)

    ids = {name: i for i, name in enumerate(names)}
    variables = [
        Variable(ids[n], n, len(labels[n]), tuple(labels[n])) for n in names
    ]
    parent_ids = {ids[n]: tuple(ids[p] for p in parents.get(n, [])) for n in names}

    cpts: dict[int, Factor] = {}
    for n in names:
        v = ids[n]
        if n not in raw_cpts:
            raise BnFormatError(f"missing cpt for {n!r}")
        ps = parent_ids[v]
        file_axes = (*ps, v)  # first parent most significant, child fastest
        shape = tuple(variables[u].cardinality for u in file_axes)
        expected = int(np.prod(shape)) if shape else 1
        vals = raw_cpts[n]
        if len(vals) != expected:
            raise BnFormatError(
                f"cpt of {n!r}: expected {expected} values, got {len(vals)}",
                cpt_line[n],
            )
        table = np.asarray(vals).reshape(shape)
        sorted_scope = tuple(sorted(file_axes))
        perm = tuple(file_axes.index(u) for u in sorted_scope)
        table = np.ascontiguousarray(table.transpose(perm))
        cpts[v] = Factor(sorted_scope, [variables[u].cardinality for u in sorted_scope], table)

    bn = BayesianNetwork(variables, parent_ids, cpts)
    for d in validate(bn):
        if d.severity == "error":
            if d.code == "cycle":
                raise CycleError(d.message)
            line = cpt_line.get(bn.name_of(d.var)) if d.var is not None else None
            raise BnFormatError(d.message, line)
    return bn


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_network(bn: BayesianNetwork) -> str:
    """Canonical text form; ``parse_network(emit_network(bn))`` is identical."""
    lines: list[str] = []
    for v in bn.variables:
        lines.append(f"node {v.name} {v.cardinality} " + " ".join(v.value_labels))
    for v in bn.variables:
        ps = bn.parents[v.id]
        if ps:
            lines.append(f"parents {v.name} " + " ".join(bn.name_of(p) for p in ps))
    for v in bn.variables:
        ps = bn.parents[v.id]
        file_axes = (*ps, v.id)
        f = bn.cpts[v.id]
        perm = tuple(f.scope.index(u) for u in file_axes)
        table = f.values.transpose(perm)
        lines.append(f"cpt {v.name} " + " ".join(_fmt(x) for x in table.reshape(-1)))
    return "\n".join(lines) + "\n"


def parse_evidence_items(
    items: Iterable[tuple[Optional[int], str]], bn: BayesianNetwork
) -> EvidenceSet:
    """Evidence from ``(line, item)`` pairs; ``line`` is the item's 1-based
    line number in an evidence file, or None.  Blank items are skipped, and
    a variable named twice is rejected even if one item allows its full
    range."""
    ev = EvidenceSet(bn)
    seen: set[int] = set()
    for lineno, item in items:
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise BnFormatError(f"evidence must look like X=label, got {item!r}", lineno)
        name, _, rhs = item.partition("=")
        name = name.strip()
        try:
            var = bn.id_of(name)
        except KeyError as e:
            raise BnFormatError(e.args[0], lineno) from None
        parts = [p.strip() for p in rhs.split("|")]
        if not parts or any(not p for p in parts):
            raise BnFormatError(f"empty value in evidence for {name!r}", lineno)
        try:
            vals = {bn.label_index(var, p) for p in parts}
        except KeyError as e:
            raise BnFormatError(e.args[0], lineno) from None
        if var in seen:
            raise BnFormatError(f"duplicate evidence for {name!r}", lineno)
        seen.add(var)
        ev.set(var, vals)
    return ev


def parse_evidence(text: str, bn: BayesianNetwork) -> EvidenceSet:
    """Comma-separated evidence string, e.g. ``H=h,K=k`` or ``X=a|b``; its
    errors name no line."""
    return parse_evidence_items(((None, s) for s in text.split(",")), bn)


def parse_evidence_file(text: str, bn: BayesianNetwork) -> EvidenceSet:
    """One item per line; errors name the line, blank and comment lines
    counted."""
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    return parse_evidence_items(enumerate(lines, start=1), bn)
