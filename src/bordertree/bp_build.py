"""Convert an arbitrary DAG into a border polytree.

Stage I grows a parentless polytree of macro-nodes: nodes are recruited in
topological order, parent edges one at a time, and each undirected loop the
new edge closes is opened by merging the two loop-forming parent macros
(never the recruited node itself), taking the aggregation closure, and
absorbing further loop members while any quotient cycle remains, smallest
post-closure state space first.  A union-find over the recruited edges
tells whether an edge closes a loop, so the quotient graph is searched only
when one does.

Stage II stretches each macro-node into a border chain by calling the
chain's promotion engine (:func:`~bordertree.border_chain.choose_next` and
:func:`~bordertree.border_chain.initial_border`), and adds only the
cross-macro rules: stretching follows the macro topological order, cohorts
never leave their macro, parent-side interface sets are kept co-located and
recorded (their variables are blocked from promotion until then), and
foreign parents are pulled in through one junction border per macro pair
(whose interface counts toward a candidate's border size).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .errors import BordertreeError, NotSinglyConnectedError
from .border_chain import choose_next, cohort_table, initial_border, next_border
from .factor import Factor
from .messaging import Tree, UnionFind
from .network import BayesianNetwork


# ---------------------------------------------------------------------------
# Stage I
# ---------------------------------------------------------------------------


def _reach(seeds, step) -> set[int]:
    """Nodes reachable from ``seeds`` by one or more ``step`` moves."""
    seen: set[int] = set()
    stack = list(seeds)
    while stack:
        for u in step(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def aggregation_closure(bn: BayesianNetwork, seed) -> frozenset[int]:
    """Smallest superset of ``seed`` with every directed path between two
    members staying inside.

    That is ``seed | (desc(seed) & anc(seed))``: a node on such a path
    descends from one seed and precedes another (never the same one, in a
    DAG), so one downward and one upward search from the seeds suffice.
    """
    members = frozenset(seed)
    if not members:
        raise ValueError("seed must be non-empty")
    down = _reach(members, bn.children)
    up = _reach(members, bn.parents.__getitem__)
    return members | (down & up)


@dataclass
class MacroPolytree:
    groups: list[tuple[int, ...]]  # sorted members, ordered by min member
    membership: dict[int, int]  # variable -> group index
    edges: frozenset[tuple[int, int]]  # quotient parent-group -> child-group
    source: BayesianNetwork

    def __post_init__(self):
        parents: list[list[int]] = [[] for _ in self.groups]
        children: list[list[int]] = [[] for _ in self.groups]
        for a, b in sorted(self.edges):
            children[a].append(b)
            parents[b].append(a)
        self._parents = [tuple(ps) for ps in parents]
        self._children = [tuple(cs) for cs in children]

    def group_parents(self, g: int) -> tuple[int, ...]:
        return self._parents[g]

    def group_children(self, g: int) -> tuple[int, ...]:
        return self._children[g]

    def topological_order(self) -> list[int]:
        """Macro indices parents first, least min-member first among the
        ready; raises BordertreeError if the quotient has a directed cycle."""
        indeg = [len(ps) for ps in self._parents]
        ready = [(self.groups[g][0], g) for g, d in enumerate(indeg) if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            g = heapq.heappop(ready)[1]
            order.append(g)
            for gc in self._children[g]:
                indeg[gc] -= 1
                if indeg[gc] == 0:
                    heapq.heappush(ready, (self.groups[gc][0], gc))
        if len(order) != len(self.groups):
            raise BordertreeError("macro quotient graph is cyclic")
        return order

    def interface(self, gp: int, gc: int) -> frozenset[int]:
        """Members of gp that parent some member of gc."""
        child_members = set(self.groups[gc])
        out = set()
        for v in child_members:
            out.update(p for p in self.source.parents[v] if self.membership[p] == gp)
        return frozenset(out)


class _Partition:
    def __init__(self):
        self.macro_of: dict[int, int] = {}
        self.members: dict[int, set[int]] = {}
        self._next = 0

    def add(self, var: int) -> int:
        mid = self._next
        self._next += 1
        self.macro_of[var] = mid
        self.members[mid] = {var}
        return mid

    def merge(self, mids: set[int]) -> int:
        mids = set(mids)
        keep = min(mids)
        for m in mids - {keep}:
            for v in self.members[m]:
                self.macro_of[v] = keep
            self.members[keep] |= self.members.pop(m)
        return keep


def _quotient_adj(part: _Partition, edges: set[tuple[int, int]]):
    adj: dict[int, set[int]] = {m: set() for m in part.members}
    for p, c in edges:
        a, b = part.macro_of[p], part.macro_of[c]
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _quotient_path(part, edges, start: int, goal: int) -> Optional[list[int]]:
    adj = _quotient_adj(part, edges)
    if start == goal:
        return [start]
    prev = {start: start}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for u in sorted(adj[v]):
            if u in prev:
                continue
            prev[u] = v
            if u == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(u)
    return None


def _find_quotient_cycle(part, edges) -> Optional[list[int]]:
    # Two macros joined in both directions form a multigraph 2-cycle (same
    # direction collapses to one edge, opposite directions never may).
    directed: set[tuple[int, int]] = set()
    for p, c in edges:
        a, b = part.macro_of[p], part.macro_of[c]
        if a != b:
            if (b, a) in directed:
                return [a, b]
            directed.add((a, b))
    adj = _quotient_adj(part, edges)
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [(start, None)]
        prev: dict[int, Optional[int]] = {start: None}
        while stack:
            v, came = stack.pop()
            seen.add(v)
            for u in sorted(adj[v]):
                if u == came:
                    continue
                if u in prev:
                    # Back edge: cycle = path(v..lca) + path(u..lca).
                    av, au = [v], [u]
                    vs = {v}
                    x = v
                    while prev[x] is not None:
                        x = prev[x]
                        av.append(x)
                        vs.add(x)
                    x = u
                    while x not in vs:
                        x = prev[x]
                        au.append(x)
                    lca = au[-1]
                    cycle = av[: av.index(lca) + 1] + au[-2::-1]
                    return cycle
                prev[u] = v
                stack.append((u, v))
    return None


def _statespace(bn: BayesianNetwork, vars) -> int:
    return math.prod(bn.card(v) for v in vars)


def stage1(bn: BayesianNetwork) -> MacroPolytree:
    bn.topological_order()  # raises on cycles up front
    part = _Partition()
    active_edges: set[tuple[int, int]] = set()

    def absorb(blob_macros: set[int], tau: int) -> int:
        """Merge, close under aggregation, then repair remaining cycles."""
        blob = part.merge(blob_macros)
        while True:
            closed = aggregation_closure(bn, part.members[blob])
            touched = {part.macro_of[v] for v in closed}
            if touched != {blob}:
                blob = part.merge(touched)
                continue
            cycle = _find_quotient_cycle(part, active_edges)
            if cycle is None:
                return blob
            if blob not in cycle:  # pragma: no cover - merges always join it
                blob = part.merge(set(cycle) | {blob})
                continue
            tau_macro = part.macro_of[tau]
            cands = [m for m in cycle if m not in (blob, tau_macro)]
            if not cands:
                cands = [m for m in cycle if m != blob]

            def score(m):
                trial = aggregation_closure(bn, part.members[blob] | part.members[m])
                return (_statespace(bn, trial), min(part.members[m]))

            blob = part.merge({blob, min(cands, key=score)})

    # Variables joined by active edges; merges never join two of these
    # components (a merged macro is a quotient cycle or a closure, whose
    # members are linked by active edges), so a new edge closes a loop
    # exactly when its ends are already joined.
    linked = UnionFind()
    for tau in bn.topological_order():
        part.add(tau)
        for p in sorted(bn.parents[tau]):
            mp, mt = part.macro_of[p], part.macro_of[tau]
            loop = not linked.union(p, tau) and mp != mt
            path = _quotient_path(part, active_edges, mp, mt) if loop else None
            active_edges.add((p, tau))
            if path is None:
                continue
            # New edge closes the unique loop mp .. path[-2] .. mt .. mp;
            # merge the two loop-forming parent macros, never tau's macro.
            absorb({mp, path[-2]}, tau)

    order = sorted(part.members.values(), key=min)
    groups = [tuple(sorted(g)) for g in order]
    membership = {v: i for i, g in enumerate(groups) for v in g}
    q_edges = set()
    for v in bn.ids:
        for p in bn.parents[v]:
            a, b = membership[p], membership[v]
            if a != b:
                q_edges.add((a, b))
    return MacroPolytree(groups, membership, frozenset(q_edges), bn)


def verify_macro_polytree(mp: MacroPolytree) -> list[str]:
    """Invariant violations of a stage-I result (empty when sound)."""
    problems = []
    bn = mp.source
    try:
        mp.topological_order()
    except BordertreeError:
        problems.append("quotient digraph has a directed cycle")
    try:
        Tree(range(len(mp.groups)), sorted(mp.edges))
    except NotSinglyConnectedError:
        problems.append("quotient undirected graph has a cycle")
    for g, members in enumerate(mp.groups):
        if aggregation_closure(bn, members) != frozenset(members):
            problems.append(f"group {g} is not aggregation-closed")
    return problems


# ---------------------------------------------------------------------------
# Stage II
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Border:
    id: int
    members: frozenset[int]
    kind: str  # "type1" | "type2"
    owner: int  # macro index
    parents: tuple[int, ...]  # border ids
    promoted: Optional[int] = None  # type1 only
    cohort: frozenset[int] = frozenset()  # type1 only
    cohort_table: Optional[Factor] = None  # type1 only
    carried: tuple[frozenset[int], ...] = ()  # type2: per-parent kept subset


class BorderPolytree:
    def __init__(
        self,
        borders: list[Border],
        source: BayesianNetwork,
        macro: Optional[MacroPolytree] = None,
    ):
        self.borders = borders
        self.source = source
        self.macro = macro
        self.edges = tuple(
            (p, b.id) for b in borders for p in b.parents
        )
        home: dict[int, list[int]] = {v: [] for v in source.ids}
        for b in borders:
            for v in sorted(b.members):
                home[v].append(b.id)
        self.variable_home = {v: tuple(ids) for v, ids in home.items()}
        self.priors: Optional[dict[int, Factor]] = None
        self._tree: Optional[Tree] = None

    def __len__(self):
        return len(self.borders)

    def tree(self) -> Tree:
        """The border polytree as a :class:`Tree`, built on first use and
        then shared (with its structural index) by every session.  Raises
        NotSinglyConnectedError if the borders form an undirected loop."""
        if self._tree is None:
            self._tree = Tree(range(len(self.borders)), self.edges)
        return self._tree

    def home_border(self, var: int) -> int:
        ids = self.variable_home[var]
        if not ids:
            raise KeyError(f"variable {var} appears in no border")
        return ids[0]

    def describe(self) -> list[dict]:
        bn = self.source
        rows = []
        for b in self.borders:
            rows.append(
                {
                    "id": b.id,
                    "kind": b.kind,
                    "members": ",".join(bn.names(b.members)),
                    "owner": b.owner,
                    "parents": ",".join(str(p) for p in b.parents) or "-",
                    "promoted": bn.name_of(b.promoted) if b.promoted is not None else "-",
                    "cohort": ",".join(bn.names(b.cohort)) if b.cohort else "-",
                }
            )
        return rows


class _MacroStretcher:
    """Stretches one macro-node into borders: the chain's promotion engine
    (:func:`~bordertree.border_chain.choose_next`) plus rules 9-13."""

    def __init__(self, builder: "_Stage2Builder", g: int):
        self.b = builder
        self.bn = builder.bn
        self.mp = builder.mp
        self.g = g
        self.members = set(self.mp.groups[g])
        self.bottom = set(self.members)
        self.tip: Optional[int] = None  # border id the chain continues from
        self.vars: frozenset[int] = frozenset()  # current border variables
        # Interface sets this macro must co-locate for its child macros.
        self.own_ifaces = {
            gc: self.mp.interface(g, gc) for gc in self.mp.group_children(g)
        }

    # -- helpers ---------------------------------------------------------

    def _blocked(self) -> frozenset[int]:
        """Interface variables not yet co-located for their child macro."""
        waiting = [s for gc, s in self.own_ifaces.items() if (self.g, gc) not in self.b.recorded]
        return frozenset().union(*waiting)

    def _record_interfaces(self):
        for gc, s in self.own_ifaces.items():
            if (self.g, gc) not in self.b.recorded and s <= self.vars:
                self.b.recorded[(self.g, gc)] = self.tip

    def _foreign_needed(self, cohort) -> list[int]:
        """Parent macros whose interface must be junctioned for this cohort."""
        gps = set()
        for v in cohort:
            for p in self.bn.parents[v]:
                if p in self.vars or p in cohort:
                    continue
                gp = self.mp.membership[p]
                if gp == self.g:
                    raise BordertreeError(
                        f"cohort parent {self.bn.name_of(p)} lost from macro {self.g}"
                    )  # pragma: no cover - promotions recruit all local children
                gps.add(gp)
        return sorted(gps, key=lambda gp: self.b.recorded[(gp, self.g)])

    def _result_vars(self, border, promoted, cohort) -> frozenset[int]:
        """The border a promotion leaves, with any junctioned interfaces."""
        vars = set(border)
        for gp in self._foreign_needed(cohort):
            vars |= self.mp.interface(gp, self.g)
        if promoted is not None:
            vars.discard(promoted)
        return frozenset(vars | set(cohort))

    # -- border emission ---------------------------------------------------

    def _emit(self, border: Border):
        self.b.borders.append(border)
        self.tip = border.id
        self.vars = border.members
        self._record_interfaces()

    def _junction(self, gps: list[int]):
        """Pull the interface sets of ``gps`` in through one type-2 border.

        The no-repeat case (chain start, one parent, carried set equal to
        the whole recorded border) continues from the foreign border
        directly instead of duplicating it.
        """
        parent_ids: list[int] = []
        carried: list[frozenset[int]] = []
        if self.tip is not None:
            parent_ids.append(self.tip)
            carried.append(self.vars)
        for gp in gps:
            if (gp, self.g) in self.b.junctioned:
                raise BordertreeError(
                    f"macro pair ({gp},{self.g}) junctioned twice"
                )  # pragma: no cover - single-edge invariant
            rec = self.b.recorded[(gp, self.g)]
            parent_ids.append(rec)
            carried.append(self.mp.interface(gp, self.g))
            self.b.junctioned.add((gp, self.g))
        if (
            self.tip is None
            and len(parent_ids) == 1
            and carried[0] == self.b.borders[parent_ids[0]].members
        ):
            self.tip = parent_ids[0]
            self.vars = carried[0]
            return
        members = frozenset().union(*carried)
        self._emit(
            Border(
                id=len(self.b.borders),
                members=members,
                kind="type2",
                owner=self.g,
                parents=tuple(parent_ids),
                carried=tuple(carried),
            )
        )

    def _emit_type1(self, promoted, cohort):
        self._emit(
            Border(
                id=len(self.b.borders),
                members=next_border(self.vars, promoted, cohort),
                kind="type1",
                owner=self.g,
                parents=(self.tip,) if self.tip is not None else (),
                promoted=promoted,
                cohort=frozenset(cohort),
                cohort_table=cohort_table(self.bn, cohort, self.vars),
            )
        )
        self.bottom -= set(cohort)

    # -- main loop ---------------------------------------------------------

    def _start(self):
        internal_roots = sorted(
            v for v in self.members if not (set(self.bn.parents[v]) & self.members)
        )
        if not internal_roots:
            raise BordertreeError(
                f"macro {self.g} has no internal root"
            )  # pragma: no cover - induced graph of a DAG
        if not self.mp.group_parents(self.g):
            b0 = initial_border(self.bn, self.members)
            self._emit_type1(None, b0)
            return
        starter = internal_roots[0]
        if self.bn.parents[starter]:
            self._junction(self._foreign_needed({starter}))
        # starter itself is recruited by the regular rule loop

    def run(self):
        self._start()
        while self.bottom:
            promoted, cohort, _rule = choose_next(
                self.bn, self.vars, self.bottom, self._blocked(), self._result_vars
            )
            gps = self._foreign_needed(cohort)
            if gps:
                self._junction(gps)
            self._emit_type1(promoted, cohort)


class _Stage2Builder:
    def __init__(self, mp: MacroPolytree):
        self.mp = mp
        self.bn = mp.source
        self.borders: list[Border] = []
        self.recorded: dict[tuple[int, int], int] = {}
        self.junctioned: set[tuple[int, int]] = set()

    def run(self) -> BorderPolytree:
        for g in self.mp.topological_order():
            _MacroStretcher(self, g).run()
        return BorderPolytree(self.borders, self.bn, self.mp)


def stage2(mp: MacroPolytree) -> BorderPolytree:
    return _Stage2Builder(mp).run()


def build_border_polytree(bn: BayesianNetwork) -> BorderPolytree:
    return stage2(stage1(bn))


def border_polytree_from_chain(chain) -> BorderPolytree:
    """View a border chain as a degenerate one-macro border polytree."""
    bn = chain.source
    borders = []
    for step in chain.steps:
        borders.append(
            Border(
                id=step.index,
                members=step.border,
                kind="type1",
                owner=0,
                parents=(step.index - 1,) if step.index else (),
                promoted=step.promoted,
                cohort=step.cohort,
                cohort_table=step.cohort_table,
            )
        )
    return BorderPolytree(borders, bn)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class BpDiagnostic:
    severity: str  # "error" | "note"
    code: str
    message: str


def verify_bp(bp: BorderPolytree) -> list[BpDiagnostic]:
    out: list[BpDiagnostic] = []
    bn = bp.source

    try:
        tree = bp.tree()
    except NotSinglyConnectedError as e:
        out.append(BpDiagnostic("error", "polytree", str(e)))
        tree = None

    # Running intersection: each variable's home borders form a connected
    # subgraph of the border polytree.
    if tree is not None:
        adj = {b.id: set(tree.neighbors(b.id)) for b in bp.borders}
        for v in bn.ids:
            homes = set(bp.variable_home[v])
            if not homes:
                out.append(
                    BpDiagnostic("error", "coverage", f"{bn.name_of(v)} is in no border")
                )
                continue
            seen = {min(homes)}
            stack = [min(homes)]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y in homes and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != homes:
                out.append(
                    BpDiagnostic(
                        "error",
                        "running-intersection",
                        f"borders holding {bn.name_of(v)} are not connected",
                    )
                )

    # Structural border checks.
    for b in bp.borders:
        if b.kind == "type1":
            if b.cohort:
                hc = bn.set_parents(b.cohort)
                parent_members = (
                    bp.borders[b.parents[0]].members if b.parents else frozenset()
                )
                if not hc <= parent_members:
                    out.append(
                        BpDiagnostic(
                            "error",
                            "cohort-parents",
                            f"border {b.id}: cohort parents escape its parent border",
                        )
                    )
        else:
            if frozenset().union(*b.carried) != b.members:
                out.append(
                    BpDiagnostic(
                        "error", "junction", f"border {b.id}: members != union of carried sets"
                    )
                )
            for pid, kept in zip(b.parents, b.carried):
                if not kept <= bp.borders[pid].members:
                    out.append(
                        BpDiagnostic(
                            "error",
                            "junction",
                            f"border {b.id}: carried set escapes parent {pid}",
                        )
                    )

    if bp.macro is not None:
        mp = bp.macro
        # Rule 11: each interface co-located in one border of the parent macro.
        for (gp, gc) in mp.edges:
            s = mp.interface(gp, gc)
            if not any(s <= b.members for b in bp.borders if b.owner == gp):
                out.append(
                    BpDiagnostic(
                        "error",
                        "rule-11",
                        f"interface {bn.names(s)} of macros {gp}->{gc} never co-located",
                    )
                )
        # At most one border edge between any two macros.
        cross: dict[frozenset[int], int] = {}
        for p, c in bp.edges:
            a, b_ = bp.borders[p].owner, bp.borders[c].owner
            if a != b_:
                key = frozenset((a, b_))
                cross[key] = cross.get(key, 0) + 1
        for key, count in cross.items():
            if count > 1:
                out.append(
                    BpDiagnostic(
                        "error",
                        "single-edge",
                        f"macros {sorted(key)} joined by {count} border edges",
                    )
                )
        # Cohorts inside a macro partition its variables.
        for g, members in enumerate(mp.groups):
            recruited: set[int] = set()
            for b in bp.borders:
                if b.owner == g and b.kind == "type1":
                    local = set(b.cohort) & set(members)
                    if local & recruited:
                        out.append(
                            BpDiagnostic(
                                "error",
                                "re-recruit",
                                f"macro {g} recruits {bn.names(local & recruited)} twice",
                            )
                        )
                    recruited |= local
            if recruited != set(members):
                missing = set(members) - recruited
                if missing:
                    out.append(
                        BpDiagnostic(
                            "error",
                            "coverage",
                            f"macro {g} never recruits {bn.names(missing)}",
                        )
                    )

    out.append(
        BpDiagnostic(
            "note",
            "family-preservation",
            "a border polytree need not keep a variable and all its parents in one border",
        )
    )
    return out
