"""Network representation, evidence sets, structure queries and validation."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CycleError, NormalizationError, NotSinglyConnectedError
from .factor import Factor
from .messaging import Tree


def reach(seeds: Iterable[int], step: Callable[[int], Iterable[int]]) -> set[int]:
    """Nodes reachable from ``seeds`` by one or more ``step`` moves (a seed
    is included only when some move reaches it)."""
    seen: set[int] = set()
    stack = list(seeds)
    while stack:
        for u in step(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _kahn_order(
    n: int, parents: Callable[[int], Sequence[int]], children: Callable[[int], Iterable[int]]
) -> list[int]:
    """Nodes ``0..n-1`` parents first, the least first among the ready
    (Kahn's algorithm with a min-heap).  On a directed cycle the order
    stops short: the nodes left out are those on a cycle or below one."""
    indeg = [len(parents(v)) for v in range(n)]
    ready = [v for v in range(n) if indeg[v] == 0]  # ascending, so a heap
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children(v):
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    return order


# How far a CPT row's sum may stray from 1 before the constructor rejects it.
_ROW_TOL = 1e-9


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    cardinality: int
    value_labels: tuple[str, ...]

    def __post_init__(self):
        # The parser's texts: it raises them at the node line.
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        k, labels = self.cardinality, self.value_labels
        if len(labels) != k:
            raise ValueError(f"node {self.name!r}: expected {k} value labels, got {len(labels)}")
        if len(set(labels)) != k:
            raise ValueError(f"node {self.name!r}: duplicate value labels")


class BayesianNetwork:
    """Immutable DAG of discrete variables with one CPT factor per variable.

    The CPT of variable v is a factor over sorted({v} ∪ parents(v)); each
    slice at a fixed parent assignment sums to 1.  The constructor checks
    every invariant once, whoever builds the network: ids, names, parents
    and CPT scopes and cards (ValueError), acyclicity (:class:`CycleError`,
    from the one topological order that it keeps) and each CPT row's sum
    within 1e-9 (:class:`NormalizationError`).  ``Factor`` has already
    checked that the entries are finite and non-negative.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        parents: Mapping[int, Sequence[int]],
        cpts: Mapping[int, Factor],
    ):
        self.variables = tuple(variables)
        ids = [v.id for v in self.variables]
        if ids != list(range(len(ids))):
            raise ValueError("variable ids must be dense 0..n-1 in order")
        if len({v.name for v in self.variables}) != len(self.variables):
            raise ValueError("variable names must be unique")
        self.parents = {v.id: tuple(parents.get(v.id, ())) for v in self.variables}
        for v, ps in self.parents.items():
            bad = [p for p in ps if not 0 <= p < len(ids)]
            if bad:
                raise ValueError(
                    f"parent id {bad[0]} of variable {self.name_of(v)} is outside 0..{len(ids) - 1}"
                )
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent for variable {self.name_of(v)}")
            if v in ps:
                raise ValueError(f"variable {self.name_of(v)} cannot parent itself")
        kids: dict[int, list[int]] = {v: [] for v in ids}
        for v in ids:  # ascending, so each list comes out sorted
            for p in self.parents[v]:
                kids[p].append(v)
        self._children = {v: tuple(ks) for v, ks in kids.items()}
        order = _kahn_order(len(ids), self.parents.__getitem__, self.children)
        if len(order) != len(ids):
            stuck = sorted(set(ids).difference(order))
            raise CycleError("directed cycle through " + ", ".join(self.name_of(v) for v in stuck))
        self._order = tuple(order)
        self.cpts = dict(cpts)
        for v in ids:
            expected = tuple(sorted((v, *self.parents[v])))
            f = self.cpts.get(v)
            if f is None:
                raise ValueError(f"missing cpt for variable {self.name_of(v)}")
            if f.scope != expected:
                raise ValueError(
                    f"cpt scope {f.scope} for {self.name_of(v)} != {expected}"
                )
            for u in f.scope:
                if f.card_of(u) != self.variables[u].cardinality:
                    raise ValueError(f"cpt cardinality mismatch at {self.name_of(u)}")
            # One row sum per parent assignment, parents in ascending id order.
            rows = np.atleast_1d(f.values.sum(axis=f.scope.index(v)))
            off = np.abs(rows - 1.0) > _ROW_TOL
            if off.any():
                raise self._row_error(v, rows, np.argwhere(off)[0])
        self._rank: dict[int, int] | None = None
        self._tree: Tree | None = None
        self._by_name = {v.name: v.id for v in self.variables}

    def _row_error(self, v: int, rows: np.ndarray, bad: np.ndarray) -> NormalizationError:
        """The error for ``v``'s row ``bad`` of row sums ``rows``, which
        names the row's parent assignment."""
        parents = [u for u in self.cpts[v].scope if u != v]
        assign = ", ".join(
            f"{self.name_of(u)}={self.variables[u].value_labels[i]}"
            for u, i in zip(parents, bad[: len(parents)])
        )
        return NormalizationError(
            f"cpt rows of {self.name_of(v)} must sum to 1: "
            f"got {float(rows[tuple(bad)]):.12g} at {assign or '()'}",
            v,
        )

    # -- basic lookups ----------------------------------------------------

    def __len__(self):
        return len(self.variables)

    @property
    def ids(self) -> range:
        return range(len(self.variables))

    def name_of(self, var: int) -> str:
        return self.variables[var].name

    def id_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown variable name {name!r}") from None

    def card(self, var: int) -> int:
        return self.variables[var].cardinality

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)

    def label_index(self, var: int, label: str) -> int:
        labels = self.variables[var].value_labels
        try:
            return labels.index(label)
        except ValueError:
            raise KeyError(
                f"unknown value {label!r} for variable {self.name_of(var)}"
            ) from None

    # -- structure queries --------------------------------------------------

    def children(self, var: int) -> tuple[int, ...]:
        return self._children[var]

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in self.ids if not self.parents[v])

    def co_parents(self, var: int) -> frozenset[int]:
        out: set[int] = set()
        for c in self.children(var):
            out.update(self.parents[c])
        out.discard(var)
        return frozenset(out)

    def ancestors(self, var: int) -> frozenset[int]:
        return frozenset(reach((var,), self.parents.__getitem__))

    def set_parents(self, xs: Iterable[int]) -> frozenset[int]:
        xs = set(xs)
        out: set[int] = set()
        for v in xs:
            out.update(self.parents[v])
        return frozenset(out - xs)

    def set_children(self, xs: Iterable[int], members) -> frozenset[int]:
        """L(C): the children of ``xs`` that are neither in ``xs`` nor
        parents of it, in the subgraph that ``members`` induces."""
        xs = set(xs)
        h = {p for v in xs for p in self.parents[v] if p in members}
        return frozenset({c for v in xs for c in self.children(v) if c in members} - xs - h)

    def set_co_parents(self, xs: Iterable[int], members) -> frozenset[int]:
        """K(C): the parents of L(C) outside ``xs`` and L(C), in the
        subgraph that ``members`` induces (a container; it is not copied)."""
        xs = set(xs)
        kids = self.set_children(xs, members)
        return frozenset({p for c in kids for p in self.parents[c] if p in members} - xs - kids)

    def topological_order(self) -> tuple[int, ...]:
        """Parents first, lowest id first among the ready nodes."""
        return self._order

    def rank(self) -> dict[int, int]:
        """Each variable's position in :meth:`topological_order`."""
        if self._rank is None:
            self._rank = {v: i for i, v in enumerate(self.topological_order())}
        return self._rank

    def tree(self) -> Tree:
        """Nodes and arcs as a :class:`Tree`, built on first use and then
        shared; raises NotSinglyConnectedError on an undirected cycle."""
        if self._tree is None:
            self._tree = Tree(len(self), [(p, v) for v in self.ids for p in self.parents[v]])
        return self._tree

    def is_singly_connected(self) -> bool:
        """True iff each connected component has no undirected cycle."""
        try:
            self.tree()
        except NotSinglyConnectedError:
            return False
        return True

    def names(self, xs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.name_of(v) for v in sorted(xs))


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning" | "note"
    code: str
    message: str


def validate(bn: BayesianNetwork) -> list[Diagnostic]:
    """Report-only check: a warning for each CPT with a zero entry (legal:
    the summation-form recursions never divide by table entries).  The
    hard checks, acyclicity and each row summing to 1, are the
    constructor's, so every network passes them."""
    return [
        Diagnostic("warning", "positivity", f"cpt of {bn.name_of(v)} contains zero entries")
        for v in bn.ids
        if not bn.cpts[v].values.all()
    ]


class EvidenceSet:
    """Per-variable allowed-value subsets (soft evidence).

    A variable restricted to its full range is not evidential and is not
    stored; an empty allowed set is rejected outright.  Insertion order is
    preserved (the first-listed evidence variable seeds the default pivot).
    """

    def __init__(self, bn: BayesianNetwork, allowed: Mapping[int, Iterable[int]] = ()):
        self._bn = bn
        self._allowed: dict[int, frozenset[int]] = {}
        for var, vals in dict(allowed).items():
            self.set(var, vals)

    def set(self, var: int, vals: Iterable[int]) -> None:
        vals = frozenset(int(v) for v in vals)
        card = self._bn.card(var)
        if not vals:
            raise ValueError(
                f"empty allowed set for {self._bn.name_of(var)}: contradictory observation"
            )
        if not vals <= frozenset(range(card)):
            raise ValueError(f"value index out of range for {self._bn.name_of(var)}")
        if len(vals) == card:
            self._allowed.pop(var, None)
        else:
            self._allowed[var] = vals

    def retract(self, var: int) -> None:
        self._allowed.pop(var, None)

    def allowed(self, var: int) -> frozenset[int] | None:
        """Allowed values of an evidence variable, None if non-evidential."""
        return self._allowed.get(var)

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(self._allowed)

    def __bool__(self):
        return bool(self._allowed)

    def __len__(self):
        return len(self._allowed)

    def copy(self) -> "EvidenceSet":
        out = EvidenceSet(self._bn)
        out._allowed = dict(self._allowed)
        return out

    def fingerprint(self, vars: Iterable[int] | None = None) -> tuple:
        """Canonical key of the evidence restricted to ``vars`` (or all)."""
        if vars is None:
            keys = sorted(self._allowed)
        else:
            vs = set(vars)
            keys = sorted(v for v in self._allowed if v in vs)
        return tuple((v, tuple(sorted(self._allowed[v]))) for v in keys)

    def describe(self) -> str:
        bn = self._bn
        parts = []
        for v, vals in self._allowed.items():
            labels = "|".join(bn.variables[v].value_labels[i] for i in sorted(vals))
            parts.append(f"{bn.name_of(v)}={labels}")
        return ",".join(parts)


class _NoEvidence:
    """Evidence-free sentinel usable anywhere an EvidenceSet is accepted."""

    vars: tuple[int, ...] = ()

    def allowed(self, var: int):
        return None

    def __bool__(self):
        return False

    def fingerprint(self, vars=None):
        return ()


NO_EVIDENCE = _NoEvidence()
