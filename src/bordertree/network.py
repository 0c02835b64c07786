"""Network representation, evidence sets, structure queries and validation."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CycleError, NotSinglyConnectedError
from .factor import Factor, contract_setup
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


@dataclass(frozen=True)
class Variable:
    id: int
    name: str
    cardinality: int
    value_labels: tuple[str, ...]

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError(f"variable {self.name}: cardinality must be >= 1")
        if len(self.value_labels) != self.cardinality:
            raise ValueError(f"variable {self.name}: need one label per value")
        if len(set(self.value_labels)) != self.cardinality:
            raise ValueError(f"variable {self.name}: value labels must be unique")


class BayesianNetwork:
    """Immutable DAG of discrete variables with one CPT factor per variable.

    The CPT of variable v is a factor over sorted({v} ∪ parents(v)); each
    slice at a fixed parent assignment sums to 1.  Acyclicity and
    normalization are checked by :func:`validate` (hard diagnostics) and by
    the parser; the constructor only enforces shape-level consistency so
    that deliberately broken networks can be built for diagnostics tests.
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
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent for variable {self.name_of(v)}")
            if v in ps:
                raise ValueError(f"variable {self.name_of(v)} cannot parent itself")
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
        self._children: dict[int, tuple[int, ...]] | None = None
        self._rank: dict[int, int] | None = None
        self._by_name = {v.name: v.id for v in self.variables}

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
        if self._children is None:
            kids: dict[int, list[int]] = {v: [] for v in self.ids}
            for v in self.ids:
                for p in self.parents[v]:
                    kids[p].append(v)
            self._children = {v: tuple(sorted(ks)) for v, ks in kids.items()}
        return self._children[var]

    def roots(self) -> tuple[int, ...]:
        return tuple(v for v in self.ids if not self.parents[v])

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in self.ids if not self.children(v))

    def co_parents(self, var: int) -> frozenset[int]:
        out: set[int] = set()
        for c in self.children(var):
            out.update(self.parents[c])
        out.discard(var)
        return frozenset(out)

    def ancestors(self, var: int) -> frozenset[int]:
        return frozenset(reach((var,), self.parents.__getitem__))

    def descendants(self, var: int) -> frozenset[int]:
        return frozenset(reach((var,), self.children))

    def set_parents(self, xs: Iterable[int]) -> frozenset[int]:
        xs = set(xs)
        out: set[int] = set()
        for v in xs:
            out.update(self.parents[v])
        return frozenset(out - xs)

    def set_children(self, xs: Iterable[int]) -> frozenset[int]:
        xs = set(xs)
        h = self.set_parents(xs)
        out: set[int] = set()
        for v in xs:
            out.update(self.children(v))
        return frozenset(out - xs - h)

    def set_co_parents(self, xs: Iterable[int]) -> frozenset[int]:
        xs = set(xs)
        l = self.set_children(xs)
        out: set[int] = set()
        for c in l:
            out.update(self.parents[c])
        return frozenset(out - xs - l)

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm with a min-heap: lowest id first among ready nodes."""
        indeg = {v: len(self.parents[v]) for v in self.ids}
        ready = [v for v in self.ids if indeg[v] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self.children(v):
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != len(self.variables):
            stuck = sorted(v for v in self.ids if indeg[v] > 0)
            raise CycleError(
                "directed cycle through "
                + ", ".join(self.name_of(v) for v in stuck)
            )
        return tuple(order)

    def rank(self) -> dict[int, int]:
        """Each variable's position in :meth:`topological_order`."""
        if self._rank is None:
            self._rank = {v: i for i, v in enumerate(self.topological_order())}
        return self._rank

    def is_singly_connected(self) -> bool:
        """True iff each connected component has no undirected cycle."""
        try:
            Tree(self.ids, ((p, v) for v in self.ids for p in self.parents[v]))
        except NotSinglyConnectedError:
            return False
        return True

    def names(self, xs: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.name_of(v) for v in sorted(xs))


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    var: int | None = None  # the variable whose cpt it is about, if any


def validate(bn: BayesianNetwork, tol: float = 1e-9) -> list[Diagnostic]:
    """Report-only checks: acyclicity and normalization are hard errors,
    strict positivity is a warning (the summation-form recursions never
    divide by table entries)."""
    out: list[Diagnostic] = []
    try:
        bn.topological_order()
    except CycleError as e:
        out.append(Diagnostic("error", "cycle", str(e)))
    for v in bn.ids:
        f = bn.cpts[v]
        rows = contract_setup([f], bn.parents[v])
        vals = np.atleast_1d(rows.values)
        bad = np.argwhere(np.abs(vals - 1.0) > tol)
        if len(bad):
            idx = tuple(int(i) for i in bad[0][: len(rows.scope)])
            assign = ", ".join(
                f"{bn.name_of(u)}={bn.variables[u].value_labels[i]}"
                for u, i in zip(rows.scope, idx)
            )
            got = float(vals[tuple(bad[0])])
            out.append(
                Diagnostic(
                    "error",
                    "normalization",
                    f"cpt rows of {bn.name_of(v)} must sum to 1: "
                    f"got {got:.12g} at {assign or '()'}",
                    v,
                )
            )
        if np.any(f.values == 0.0):
            out.append(
                Diagnostic(
                    "warning",
                    "positivity",
                    f"cpt of {bn.name_of(v)} contains zero entries",
                    v,
                )
            )
    return out


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

    def items(self):
        return self._allowed.items()

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
