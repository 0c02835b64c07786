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

``parse_network`` checks only what the lines themselves hold: directives,
names, label characters, parent names and value counts.  The rest is
checked once, where each object is built, and the parser puts that
object's error on its line: ``Variable`` (cardinality and labels) on the
node line, ``Factor`` (finite, non-negative entries) and the
``BayesianNetwork`` constructor's row sums on the cpt line.  A directed
cycle, which no one line holds, is the constructor's ``CycleError``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .errors import BnFormatError, NormalizationError
from .factor import Factor
from .network import BayesianNetwork, EvidenceSet, Variable


def parse_network(text: str) -> BayesianNetwork:
    variables: list[Variable] = []
    ids: dict[str, int] = {}
    parents: dict[int, tuple[int, ...]] = {}
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
            if name in ids:
                raise BnFormatError(f"duplicate node {name!r}", lineno)
            if "," in name or "=" in name:
                raise BnFormatError(f"node name {name!r} contains ',' or '='", lineno)
            try:
                k = int(tokens[2])
            except ValueError:
                raise BnFormatError(f"bad cardinality {tokens[2]!r}", lineno) from None
            try:
                var = Variable(len(variables), name, k, tuple(tokens[3:]))
            except ValueError as e:
                raise BnFormatError(str(e), lineno) from None
            for label in var.value_labels:
                if "," in label or "|" in label:
                    raise BnFormatError(
                        f"node {name!r}: value label {label!r} contains ',' or '|'", lineno
                    )
            variables.append(var)
            ids[name] = var.id
        elif kind == "parents":
            if len(tokens) < 2:
                raise BnFormatError("parents needs a node name", lineno)
            name = tokens[1]
            if name not in ids:
                raise BnFormatError(f"parents before node for {name!r}", lineno)
            if ids[name] in parents:
                raise BnFormatError(f"duplicate parents line for {name!r}", lineno)
            ps = tokens[2:]
            for p in ps:
                if p not in ids:
                    raise BnFormatError(f"unknown parent name {p!r}", lineno)
            if len(set(ps)) != len(ps):
                raise BnFormatError(f"repeated parent for {name!r}", lineno)
            if name in ps:
                raise BnFormatError(f"{name!r} cannot be its own parent", lineno)
            parents[ids[name]] = tuple(ids[p] for p in ps)
        elif kind == "cpt":
            if len(tokens) < 2:
                raise BnFormatError("cpt needs a node name", lineno)
            name = tokens[1]
            if name not in ids:
                raise BnFormatError(f"cpt before node for {name!r}", lineno)
            if name in raw_cpts:
                raise BnFormatError(f"duplicate cpt for {name!r}", lineno)
            try:
                raw_cpts[name] = [float(t) for t in tokens[2:]]
            except ValueError:
                raise BnFormatError(f"bad cpt number in {name!r}", lineno) from None
            cpt_line[name] = lineno
        else:
            raise BnFormatError(f"unknown directive {kind!r}", lineno)

    cpts: dict[int, Factor] = {}
    for var in variables:
        n, v = var.name, var.id
        if n not in raw_cpts:
            raise BnFormatError(f"missing cpt for {n!r}")
        file_axes = (*parents.get(v, ()), v)  # first parent most significant, child fastest
        shape = tuple(variables[u].cardinality for u in file_axes)
        vals, size = raw_cpts[n], math.prod(shape)
        if len(vals) != size:
            raise BnFormatError(f"cpt of {n!r}: expected {size} values, got {len(vals)}", cpt_line[n])
        scope = tuple(sorted(file_axes))
        table = np.array(vals)
        try:
            table.shape = shape  # in place: the table keeps owning its data
        except ValueError as e:  # more axes than numpy's arrays hold
            raise BnFormatError(f"cpt of {n!r}: {e}", cpt_line[n]) from None
        if scope != file_axes:
            table = table.transpose([file_axes.index(u) for u in scope]).copy()
        table.setflags(write=False)  # frozen and C-order, so Factor takes it as is
        try:
            cpts[v] = Factor(scope, table.shape, table)
        except ValueError:
            raise BnFormatError(
                f"cpt of {n!r}: entries must be finite and >= 0", cpt_line[n]
            ) from None
    try:
        return BayesianNetwork(variables, parents, cpts)
    except NormalizationError as e:
        raise BnFormatError(str(e), cpt_line[variables[e.var].name]) from None


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
