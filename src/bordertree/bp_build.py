"""Convert an arbitrary DAG into a border polytree.

Stage I grows a parentless polytree of macro-nodes: nodes are recruited in
topological order, parent edges one at a time, and each undirected loop the
new edge closes is opened by merging the two loop-forming parent macros
(never the recruited node itself), taking the aggregation closure, and
absorbing further loop members while any quotient cycle remains, smallest
post-closure state space first.  A union-find over the recruited edges
tells whether an edge closes a loop, so the quotient graph is searched only
when one does.  The partition keeps that quotient live (a merge moves the
absorbed macros' links onto the kept one), and every cycle in it passes
through one known macro: the recruited node's after its loop-closing edge,
the growing blob during repair.  One search from that macro
(:func:`_cycle_through`) finds each cycle.

Stage II stretches each macro-node with the border algorithm's promotion
engine (rules 1-6, the initial-border search and the state-space
tie-break; :func:`choose_next`, :func:`initial_border`), in the macro
topological order.  A promotion step finds each border variable's rule
once (:func:`_promotion_rule`, shared by choosing and forced-order
replay); only replay takes rule 6 and adds its bottom ancestors to the
cohort.  Stage II adds only the cross-macro rules: cohorts never
leave their macro, parent-side interface sets are kept co-located and
recorded (their variables are blocked from promotion until then), and
foreign parents are pulled in through one junction border per macro pair
(whose interface counts toward a candidate's border size).  The
:class:`MacroPolytree` computes each quotient edge's interface once, in
its constructor.  :func:`stage2` is one loop over the macros: each
stretch appends to one shared border list and records, per quotient
edge, the border that co-locates its interface.  A border chain is one
such stretch of a parentless macro-node holding the whole network
(:func:`~bordertree.border_chain.build_chain`), which may also replay a
forced promotion order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import BordertreeError, NotSinglyConnectedError
from .factor import _ONE, Factor, _contract
from .messaging import Tree, UnionFind
from .network import BayesianNetwork, Diagnostic, _kahn_order, reach


# ---------------------------------------------------------------------------
# Stage I
# ---------------------------------------------------------------------------


def aggregation_closure(bn: BayesianNetwork, seed) -> frozenset[int]:
    """Smallest superset of ``seed`` with every directed path between two
    members staying inside.

    That is ``seed | (desc(seed) & anc(seed))``.  A node on such a path
    comes after the seed it starts from in topological order and precedes
    the seed it ends at, so an upward search that stops at the earliest
    seed, then a downward search among the ancestors it found, both stay
    within the seeds' span of that order.
    """
    members = frozenset(seed)
    if not members:
        raise ValueError("seed must be non-empty")
    rank = bn.rank()
    first = min(rank[v] for v in members)
    up = reach(members, lambda v: [p for p in bn.parents[v] if rank[p] > first])
    return members | reach(members, lambda v: up.intersection(bn.children(v)))


@dataclass
class MacroPolytree:
    groups: list[tuple[int, ...]]  # sorted members, ordered by min member
    membership: dict[int, int]  # variable -> group index
    edges: frozenset[tuple[int, int]]  # quotient parent-group -> child-group
    source: BayesianNetwork

    def __post_init__(self):
        """Quotient parents and children per group (ascending), and each
        quotient edge's interface: the members of gp that parent some
        member of gc, keyed ``(gp, gc)``."""
        self.parents: list[list[int]] = [[] for _ in self.groups]
        self.children: list[list[int]] = [[] for _ in self.groups]
        for a, b in sorted(self.edges):
            self.children[a].append(b)
            self.parents[b].append(a)
        interfaces: dict[tuple[int, int], set[int]] = {}
        for v, gc in self.membership.items():
            for p in self.source.parents[v]:
                gp = self.membership[p]
                if gp != gc:
                    interfaces.setdefault((gp, gc), set()).add(p)
        self.interfaces = {key: frozenset(s) for key, s in interfaces.items()}

    def topological_order(self) -> list[int]:
        """Macro indices parents first, least min-member first among the
        ready (groups are ordered by min member, so least index first);
        raises BordertreeError if the quotient has a directed cycle."""
        order = _kahn_order(len(self.groups), self.parents.__getitem__, self.children.__getitem__)
        if len(order) != len(self.groups):
            raise BordertreeError("macro quotient graph is cyclic")
        return order


class _Partition:
    """Macro-nodes over the recruited variables, with their live quotient:
    ``links[m][n]`` has bit 1 set when an active edge runs m -> n and bit 2
    when one runs n -> m."""

    def __init__(self):
        self.macro_of: dict[int, int] = {}
        self.members: dict[int, set[int]] = {}
        self.links: dict[int, dict[int, int]] = {}
        self._next = 0

    def add(self, var: int) -> int:
        mid = self._next
        self._next += 1
        self.macro_of[var] = mid
        self.members[mid] = {var}
        self.links[mid] = {}
        return mid

    def link(self, p: int, c: int):
        """Record the active edge p -> c."""
        a, b = self.macro_of[p], self.macro_of[c]
        if a != b:
            self._join(a, b, 1)

    def _join(self, a: int, b: int, dirs: int):
        self.links[a][b] = self.links[a].get(b, 0) | dirs
        self.links[b][a] = self.links[b].get(a, 0) | _FLIP[dirs]

    def merge(self, mids: set[int]) -> int:
        mids = set(mids)
        keep = min(mids)
        for m in mids - {keep}:
            for v in self.members[m]:
                self.macro_of[v] = keep
            self.members[keep] |= self.members.pop(m)
            for n, dirs in self.links.pop(m).items():
                del self.links[n][m]
                if n not in mids:  # pairs inside mids become internal
                    self._join(keep, n, dirs)
        return keep


_FLIP = (0, 2, 1, 3)  # direction bits seen from the other end


def _cycle_through(part: _Partition, m: int) -> Optional[list[int]]:
    """A quotient cycle through macro ``m`` (``m`` first), or None.

    Every quotient cycle must pass through ``m``, so the quotient without it
    is a forest.  A pair joined in both directions is a 2-cycle; otherwise
    one BFS grows a tree from each neighbour of ``m`` and the first edge
    between two of these trees closes a cycle.  A tree whose frontier runs
    out touches no other, so the search stops when one frontier is left.
    """
    links = part.links[m]
    for n in sorted(links):
        if links[n] == 3:
            return [m, n]
    root = {n: n for n in links}
    prev: dict[int, Optional[int]] = dict.fromkeys(links)
    queued = dict.fromkeys(links, 1)
    live = len(links)
    queue = deque(sorted(links))
    while live > 1:
        u = queue.popleft()
        r = root[u]
        for w in part.links[u]:
            if w == m or w == prev[u]:
                continue
            if w not in root:
                root[w], prev[w] = r, u
                queued[r] += 1
                queue.append(w)
            elif root[w] != r:
                return [m, *_to_root(prev, u)[::-1], *_to_root(prev, w)]
        queued[r] -= 1
        live -= not queued[r]
    return None


def _to_root(prev: dict[int, Optional[int]], x: int) -> list[int]:
    path = [x]
    while prev[x] is not None:
        x = prev[x]
        path.append(x)
    return path


def _statespace(bn: BayesianNetwork, vars) -> int:
    return math.prod(bn.card(v) for v in vars)


def stage1(bn: BayesianNetwork) -> MacroPolytree:
    part = _Partition()

    def absorb(blob_macros: set[int], tau: int):
        """Merge, close under aggregation, then repair remaining cycles.

        Every quotient cycle passes through the blob: the quotient was a
        forest before the loop-closing edge, and each merge takes the blob
        in, so one search at the blob finds any cycle that is left."""
        blob = part.merge(blob_macros)
        while True:
            closed = aggregation_closure(bn, part.members[blob])
            touched = {part.macro_of[v] for v in closed}
            if touched != {blob}:
                blob = part.merge(touched)
                continue
            cycle = _cycle_through(part, blob)
            if cycle is None:
                return
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
            loop = not linked.union(p, tau) and part.macro_of[p] != part.macro_of[tau]
            part.link(p, tau)
            # The quotient was a forest, so any cycle is the new edge's
            # unique loop through tau's macro; merge its two loop-forming
            # parent macros (the macro's neighbours on it), never tau's.
            cycle = _cycle_through(part, part.macro_of[tau]) if loop else None
            if cycle is not None:
                absorb({cycle[1], cycle[-1]}, tau)

    order = sorted(part.members, key=lambda m: min(part.members[m]))
    index = {m: i for i, m in enumerate(order)}
    groups = [tuple(sorted(part.members[m])) for m in order]
    membership = {v: i for i, g in enumerate(groups) for v in g}
    q_edges = frozenset(
        (index[a], index[b]) for a in order for b, dirs in part.links[a].items() if dirs & 1
    )
    return MacroPolytree(groups, membership, q_edges, bn)


def verify_macro_polytree(mp: MacroPolytree) -> list[str]:
    """Invariant violations of a stage-I result (empty when sound)."""
    problems = []
    bn = mp.source
    try:
        mp.topological_order()
    except BordertreeError:
        problems.append("quotient digraph has a directed cycle")
    try:
        Tree(len(mp.groups), sorted(mp.edges))
    except NotSinglyConnectedError:
        problems.append("quotient undirected graph has a cycle")
    for g, members in enumerate(mp.groups):
        if aggregation_closure(bn, members) != frozenset(members):
            problems.append(f"group {g} is not aggregation-closed")
    return problems


# ---------------------------------------------------------------------------
# Stage II
# ---------------------------------------------------------------------------


# The promotion engine.  Stage II's hooks: ``members`` restricts the
# initial-border search to a parentless macro, ``blocked`` names interface
# variables that may not be promoted yet, and ``result`` sizes a
# candidate's resulting border (including any foreign interface a junction
# would pull in).


def initial_border(bn: BayesianNetwork, members=None) -> frozenset[int]:
    """A set of roots to start a chain, co-parentless whenever one exists.

    Climbs from each root in turn: absorb root co-parents, jump to the
    ancestral roots of a non-root co-parent, stop when co-parentless.  If
    every climb cycles, small root sets are searched exhaustively; some DAGs
    have no co-parentless set of roots at all, and then the full root set is
    returned (any set of roots is parentless, so the chain still works, the
    early promotions just fall to the fictitious rules).  ``members`` limits
    the search to the subgraph it induces (a parentless macro-node).
    """
    members = frozenset(bn.ids if members is None else members)
    roots = frozenset(v for v in members if not bn.parents[v])
    for start in sorted(roots):
        current = frozenset({start})
        seen: set[frozenset[int]] = set()
        while current not in seen:
            seen.add(current)
            cops = bn.set_co_parents(current, members)
            if not cops:
                return current
            root_cops = cops & roots
            if root_cops:
                current = current | root_cops
                continue
            k = min(cops)
            current = (bn.ancestors(k) & roots) or frozenset({k})
    if len(roots) <= 16:
        for k in range(1, len(roots) + 1):
            for combo in combinations(sorted(roots), k):
                if not bn.set_co_parents(combo, members):
                    return frozenset(combo)
    return roots


def bottom_ancestors(bn: BayesianNetwork, seeds, bottom) -> frozenset[int]:
    return frozenset(reach(seeds, lambda v: bottom.intersection(bn.parents[v])))


def _promotion_rule(bn: BayesianNetwork, v: int, bottom) -> tuple[int, frozenset[int]]:
    """The rule that admits promoting border variable ``v``, and its cohort.

    Rule 1 when ``v`` has no bottom child (empty cohort); rule 2 when it
    has no bottom co-parent (its bottom children); rule 3 when no such
    co-parent has a bottom parent (children and co-parents); otherwise rule
    6 with the bottom children only, to which forced replay adds their
    bottom ancestors.  Rules 1-3 exclude one another."""
    kids = bottom.intersection(bn.children(v))
    if not kids:
        return 1, frozenset()
    cops = bottom.intersection(bn.co_parents(v))
    if not cops:
        return 2, frozenset(kids)
    if not any(bottom.intersection(bn.parents[k]) for k in cops):
        return 3, frozenset(kids | cops)
    return 6, frozenset(kids)


def next_border(border, promoted, cohort) -> frozenset[int]:
    return (border - ({promoted} if promoted is not None else frozenset())) | cohort


def choose_next(
    bn: BayesianNetwork,
    border: frozenset[int],
    bottom,
    blocked=frozenset(),
    result=next_border,
) -> tuple[Optional[int], frozenset[int], int]:
    """The lowest applicable rule among 1..5; ties broken by the state-space
    size of the resulting border, ``result(border, promoted, cohort)``, then
    by lowest variable id.

    One pass classifies each unblocked border variable once
    (:func:`_promotion_rule`); a variable that only rule 6 admits is not a
    candidate.  If none falls under rules 1-3, one pass over the bottom
    variables with no bottom parent finds rule 4 (such a variable with
    parents) or rule 5 (without).  A non-empty bottom part has a variable
    with no bottom parent (the network is acyclic), so some rule always
    applies and rules 6 and 7 are never taken here (forced-order replay
    still uses rule 6)."""
    if not bottom:
        raise ValueError("bottom part is empty; chain is complete")
    rule, cands = 4, []  # the lowest of rules 1-3 found so far; 4 while none
    for v in border:
        if v in blocked:
            continue
        r, cohort = _promotion_rule(bn, v, bottom)
        if r < rule:
            rule, cands = r, [(v, cohort)]
        elif r == rule:
            cands.append((v, cohort))
    if not cands:
        free = [v for v in bottom if not bottom.intersection(bn.parents[v])]
        cands = [(None, frozenset({v})) for v in free if bn.parents[v]]
        if not cands:
            rule, cands = 5, [(None, frozenset({v})) for v in free]
    if not cands:
        raise BordertreeError("no applicable promotion rule")  # pragma: no cover

    def key(cand):
        promoted, cohort = cand
        size = math.prod(bn.card(v) for v in result(border, promoted, cohort))
        return (size, promoted if promoted is not None else min(cohort))

    promoted, cohort = min(cands, key=key)
    return promoted, cohort, rule


def _rule_for_forced(bn, border, bottom, promoted):
    """(cohort, rule) of promoting ``promoted`` (forced-order replay): its
    :func:`_promotion_rule`, where rule 6 also recruits the bottom ancestors
    of the bottom children.  Rule 1 or rule 6 admits every border variable."""
    if promoted not in border:
        raise BordertreeError(
            f"illegal forced promotion: {bn.name_of(promoted)} not in the border"
        )
    rule, cohort = _promotion_rule(bn, promoted, bottom)
    if rule == 6:
        cohort |= bottom_ancestors(bn, cohort, bottom)
    return cohort, rule


def cohort_table(bn: BayesianNetwork, cohort: frozenset[int], border: frozenset[int]) -> Factor:
    if not cohort:
        return _ONE
    hc = bn.set_parents(cohort)
    if not hc <= border:
        raise BordertreeError(
            f"cohort parents {bn.names(hc - border)} escape the border"
        )
    return _contract([bn.cpts[v] for v in sorted(cohort)], cohort | hc)


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
    rule: Optional[int] = None  # type1 only; None at a macro's start
    carried: tuple[frozenset[int], ...] = ()  # type2: per-parent kept subset


class BorderPolytree:
    def __init__(self, borders: list[Border], source: BayesianNetwork, macro: MacroPolytree):
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
        # Variable -> its normalized prior marginal, filled by the read-outs
        # of queries independent of their session's evidence.
        self.marginals: dict[int, Factor] = {}
        self._tree: Optional[Tree] = None

    def __len__(self):
        return len(self.borders)

    def tree(self) -> Tree:
        """The border polytree as a :class:`Tree`, built on first use and
        then shared (with its structural index) by every session.  Raises
        NotSinglyConnectedError if the borders form an undirected loop."""
        if self._tree is None:
            self._tree = Tree(len(self.borders), self.edges)
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
    """Stretches one macro-node into borders: the promotion engine
    (:func:`choose_next`) plus rules 9-13.  It appends to the shared
    ``borders`` list and records, per quotient edge ``(g, gc)``, the border
    that co-locates its interface in ``recorded``."""

    def __init__(
        self,
        mp: MacroPolytree,
        borders: list[Border],
        recorded: dict[tuple[int, int], int],
        g: int,
    ):
        self.bn = mp.source
        self.mp = mp
        self.borders = borders
        self.recorded = recorded
        self.g = g
        self.members = set(mp.groups[g])
        self.bottom = set(self.members)
        self.tip: Optional[int] = None  # border id the chain continues from
        self.vars: frozenset[int] = frozenset()  # current border variables
        # Child macro -> its interface, until a border co-locates it; the
        # variables waiting here may not be promoted.
        self.waiting = {gc: mp.interfaces[(g, gc)] for gc in mp.children[g]}
        self.junctioned: set[int] = set()  # parent macros already junctioned

    # -- helpers ---------------------------------------------------------

    def _record_interfaces(self):
        for gc, s in list(self.waiting.items()):
            if s <= self.vars:
                self.recorded[(self.g, gc)] = self.tip
                del self.waiting[gc]

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
        return sorted(gps, key=lambda gp: self.recorded[(gp, self.g)])

    def _result_vars(self, border, promoted, cohort) -> frozenset[int]:
        """The border a promotion leaves, with any junctioned interfaces."""
        vars = set(border)
        for gp in self._foreign_needed(cohort):
            vars |= self.mp.interfaces[(gp, self.g)]
        if promoted is not None:
            vars.discard(promoted)
        return frozenset(vars | set(cohort))

    # -- border emission ---------------------------------------------------

    def _emit(self, border: Border):
        self.borders.append(border)
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
            if gp in self.junctioned:
                raise BordertreeError(
                    f"macro pair ({gp},{self.g}) junctioned twice"
                )  # pragma: no cover - single-edge invariant
            parent_ids.append(self.recorded[(gp, self.g)])
            carried.append(self.mp.interfaces[(gp, self.g)])
            self.junctioned.add(gp)
        if (
            self.tip is None
            and len(parent_ids) == 1
            and carried[0] == self.borders[parent_ids[0]].members
        ):
            self.tip = parent_ids[0]
            self.vars = carried[0]
            return
        members = frozenset().union(*carried)
        self._emit(
            Border(
                id=len(self.borders),
                members=members,
                kind="type2",
                owner=self.g,
                parents=tuple(parent_ids),
                carried=tuple(carried),
            )
        )

    def _emit_type1(self, promoted, cohort, rule=None):
        self._emit(
            Border(
                id=len(self.borders),
                members=next_border(self.vars, promoted, cohort),
                kind="type1",
                owner=self.g,
                parents=(self.tip,) if self.tip is not None else (),
                promoted=promoted,
                cohort=frozenset(cohort),
                cohort_table=cohort_table(self.bn, cohort, self.vars),
                rule=rule,
            )
        )
        self.bottom -= set(cohort)

    # -- main loop ---------------------------------------------------------

    def _start(self):
        if not self.mp.parents[self.g]:
            # Also the start of an empty network's chain: one empty border.
            self._emit_type1(None, initial_border(self.bn, self.members))
            return
        internal_roots = sorted(
            v for v in self.members if not (set(self.bn.parents[v]) & self.members)
        )
        if not internal_roots:
            raise BordertreeError(
                f"macro {self.g} has no internal root"
            )  # pragma: no cover - induced graph of a DAG
        starter = internal_roots[0]
        if self.bn.parents[starter]:
            self._junction(self._foreign_needed({starter}))
        # starter itself is recruited by the regular rule loop

    def run(self, forced: Optional[Sequence[Optional[int]]] = None):
        """Stretch the macro.  ``forced`` replays a promotion order instead
        of choosing one: entry 0 must be None (the macro's start) and entry
        j names the variable promoted at step j."""
        self._start()
        if forced is not None and (not forced or forced[0] is not None):
            raise BordertreeError("forced order must start with the fictitious step")
        # A macro with no parent macro has no foreign interface to pull in.
        result = self._result_vars if self.mp.parents[self.g] else next_border
        j = 0
        while self.bottom:
            j += 1
            if forced is None:
                blocked = frozenset().union(*self.waiting.values())
                promoted, cohort, rule = choose_next(self.bn, self.vars, self.bottom, blocked, result)
            else:
                if j >= len(forced):
                    raise BordertreeError("forced order ended before the chain completed")
                promoted = forced[j]
                if promoted is None:
                    raise BordertreeError("fictitious steps beyond step 0 are not replayable")
                cohort, rule = _rule_for_forced(self.bn, self.vars, self.bottom, promoted)
            gps = self._foreign_needed(cohort)
            if gps:
                self._junction(gps)
            self._emit_type1(promoted, cohort, rule)
        if forced is not None and j + 1 != len(forced):
            raise BordertreeError("forced order longer than the completed chain")


def stage2(mp: MacroPolytree) -> BorderPolytree:
    """Stretch every macro in quotient topological order."""
    borders: list[Border] = []
    recorded: dict[tuple[int, int], int] = {}
    for g in mp.topological_order():
        _MacroStretcher(mp, borders, recorded, g).run()
    return BorderPolytree(borders, mp.source, mp)


def build_border_polytree(bn: BayesianNetwork) -> BorderPolytree:
    return stage2(stage1(bn))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_bp(bp: BorderPolytree) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    bn = bp.source

    try:
        tree = bp.tree()
    except NotSinglyConnectedError as e:
        out.append(Diagnostic("error", "polytree", str(e)))
        tree = None

    # Running intersection: each variable's home borders form a connected
    # subgraph of the border polytree.  A node set H of a forest is
    # connected iff exactly |H| - 1 forest edges join two of its nodes, so
    # count, per variable, the border edges whose two ends both hold it.
    if tree is not None:
        inner = dict.fromkeys(bn.ids, 0)
        for p, c in bp.edges:
            for v in bp.borders[p].members & bp.borders[c].members:
                inner[v] += 1
        for v in bn.ids:
            homes = bp.variable_home[v]
            if not homes:
                out.append(
                    Diagnostic("error", "coverage", f"{bn.name_of(v)} is in no border")
                )
                continue
            if inner[v] != len(homes) - 1:
                out.append(
                    Diagnostic(
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
                        Diagnostic(
                            "error",
                            "cohort-parents",
                            f"border {b.id}: cohort parents escape its parent border",
                        )
                    )
        else:
            if frozenset().union(*b.carried) != b.members:
                out.append(
                    Diagnostic(
                        "error", "junction", f"border {b.id}: members != union of carried sets"
                    )
                )
            for pid, kept in zip(b.parents, b.carried):
                if not kept <= bp.borders[pid].members:
                    out.append(
                        Diagnostic(
                            "error",
                            "junction",
                            f"border {b.id}: carried set escapes parent {pid}",
                        )
                    )

    mp = bp.macro
    # Rule 11: each interface co-located in one border of the parent macro.
    for (gp, gc), s in mp.interfaces.items():
        if not any(s <= b.members for b in bp.borders if b.owner == gp):
            out.append(
                Diagnostic(
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
                Diagnostic(
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
                        Diagnostic(
                            "error",
                            "re-recruit",
                            f"macro {g} recruits {bn.names(local & recruited)} twice",
                        )
                    )
                recruited |= local
        missing = set(members) - recruited
        if missing:
            out.append(
                Diagnostic("error", "coverage", f"macro {g} never recruits {bn.names(missing)}")
            )

    out.append(
        Diagnostic(
            "note",
            "family-preservation",
            "a border polytree need not keep a variable and all its parents in one border",
        )
    )
    return out
