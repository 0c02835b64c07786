"""Singly connected tree machinery shared by the node and border engines.

A :class:`Tree` is built once per structure (a network, a border
polytree), on nodes ``0..n-1``.  One iterative DFS in its constructor both
checks that the undirected form is acyclic and builds the structural index:
component ids, a parent pointer and depth per node of a rooted copy of each
component, and Euler-tour entry/exit times (Tarjan & Vishkin 1985).  With
it, the component of a node and the side test "is x on a's side of edge
(a, b)?" cost O(1), and the path between two nodes costs O(path length), so
per-message and per-query geometry no longer searches the whole tree.
Every walk below reads the tree's own neighbour lists.

Path finding also offers the hub method (pre-loaded hub-to-hub and
node-to-hub paths, loops erased), with the index path as its fallback;
plain BFS (:meth:`Tree.bfs_path`, :meth:`Tree.component_of`) stays as the
reference the index is tested against.

An evidential core is the smallest subtree meeting every group of nodes
(:func:`smallest_hitting_core`, which both engines reach through
:func:`component_cores`): the home borders of each evidence variable for
the border engine, one node per evidence variable for the node engine.
:func:`evidential_core`, the one-node-per-group form, serves the tests and
the benchmark's tracer.  Groups must be connected, as
running intersection makes home sets; then one linear leaf-pruning pass
finds the unique minimum, or the least node common to every group.
Collection schedules orient core edges toward a pivot, and distribution
schedules walk from the gate of the informed set out to a target: up from
the target to the first informed node, or to the set's top node.

:class:`TreeSession` is the session skeleton of both tree engines (the
polytree engine's nodes, the border polytree's borders): cores and pivots
(:func:`component_cores`, which reads the tree only and so also serves the
CLI's ``core``), collection, the informed set and distribution, the
message store and ``_send``, the boundary fallbacks, counters and the
one read-out, ``posteriors``.  Each engine supplies only its message
algebra, its boundary prior, its belief factors, its structure's memo of
prior marginals, and its read hook: the node each variable is read at.
Every session keys its own
store by ``(parent, child, direction)``: a session's evidence is fixed, so
an edge and a direction name a message.  Messages outlive a session only
when the border engine hands the ones its next evidence leaves unchanged
to a new session (``BorderSession.with_evidence``).

Evidence enters a session in one place: the engine's restricted tables
(CPTs, cohort tables and priors, with entries off the evidence zeroed).  A
node's table holds the node's own variables, so π of a node carries the
evidence of its variables and of its parent side, and λ carries only the
evidence on its child sides.  In a border chain that reads: π(j) carries
the evidence recruited at or before step j, and λ(j) the evidence
recruited after step j.  An evidence-free child side therefore sends the
scalar 1 upward.

The read-out sends no message for a query the evidence cannot reach.  A
variable X that shares no ancestor, itself included, with any evidence
variable E is d-separated from E given nothing: a path between them
without a head-to-head node would lead up from both ends to a common
ancestor, and with nothing conditioned on a head-to-head node blocks its
path (Geiger, Verma & Pearl 1990).  So Pr{X | e} = Pr{X}, a function of
the structure alone: the first read normalizes X's marginal of the
unrestricted preloaded prior at X's read node, and the structure keeps it
in a memo of prior marginals that every later session on it reads.
Finding which queries are independent needs the ancestors of the evidence
and of the queries, not the whole network: the session finds the
evidence's ancestors once and walks up from each query to the first
variable it has already classified.

Every query is read through ``posteriors``: the queries that the evidence
reaches are grouped by their read node, and each group's belief is
contracted once onto the group.  ``posterior`` reads a set of one, and
``joint`` is that posterior times Pr(e), since Pr{X, e} = Pr{X | e} Pr(e).
The read-out first checks that no component's evidence total is exactly
0, each total on its own (``check_possible``, which the REPL also calls
before it takes new evidence): evidence that is impossible in one
component makes every posterior undefined, even one read in another
component, while the product of totals that are each positive can
underflow to 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BordertreeError, ImpossibleEvidenceError, NotSinglyConnectedError
from .factor import _ONE, Factor, _computed, _contract, normalize

Node = int  # trees number their nodes 0..n-1


class UnionFind:
    """Disjoint sets of hashable items, with path halving."""

    def __init__(self):
        self.rep: dict[Node, Node] = {}

    def find(self, x: Node) -> Node:
        rep = self.rep
        rep.setdefault(x, x)
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    def union(self, a: Node, b: Node) -> bool:
        """Join the sets of a and b; False if they were one set already."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        self.rep[a] = b
        return True


class Tree:
    """Directed polytree on nodes ``0..n-1``: parent->child edges whose
    undirected form is acyclic, with its structural index.

    ``parents``, ``children`` and ``neighbors`` (parents, then children)
    are lists indexed by node.  The constructor's one DFS roots each
    component at its least node, which is also its id, and fills, per
    node, ``comp``, ``up`` (the rooted parent, None at a root), ``depth``
    and the Euler-tour times ``tin``/``tout``, and ``members`` (component
    id -> its nodes in DFS order).  ``tin`` numbers the nodes of the whole
    forest in DFS pre-order, so the subtree of ``v`` is exactly the nodes
    ``x`` with ``tin[v] <= tin[x] <= tout[v]``.  A tree never changes
    after construction.
    """

    def __init__(self, n: int, edges: Iterable[tuple[Node, Node]]):
        self.nodes = range(n)
        self.edges = tuple(edges)
        parents: list[list[Node]] = [[] for _ in self.nodes]
        children: list[list[Node]] = [[] for _ in self.nodes]
        for p, c in self.edges:
            if p not in self.nodes or c not in self.nodes:
                raise ValueError(f"edge ({p}, {c}) references unknown node")
            parents[c].append(p)
            children[p].append(c)
        nbrs = [[*ps, *cs] for ps, cs in zip(parents, children)]
        comp: list[Node] = [-1] * n
        up: list[Optional[Node]] = [None] * n
        depth = [0] * n
        tin = [0] * n
        members: dict[Node, tuple[Node, ...]] = {}
        order: list[Node] = []
        for root in self.nodes:
            if comp[root] >= 0:
                continue
            start = len(order)
            comp[root] = root
            stack = [root]
            while stack:
                v = stack.pop()
                tin[v] = len(order)
                order.append(v)
                skip = up[v]
                for u in nbrs[v]:
                    if u == skip:  # the edge v was reached by, passed over once
                        skip = None
                    elif comp[u] >= 0:
                        # A second way to reach u closes a cycle through v
                        # (so do a parallel edge and a self-loop).
                        raise NotSinglyConnectedError(f"undirected cycle through {v!r}")
                    else:
                        comp[u], up[u], depth[u] = root, v, depth[v] + 1
                        stack.append(u)
            members[root] = tuple(order[start:])
        size = [1] * n
        for v in reversed(order):
            if up[v] is not None:
                size[up[v]] += size[v]
        self.parents, self.children, self.neighbors = parents, children, nbrs
        self.comp, self.up, self.depth, self.members = comp, up, depth, members
        self.tin, self.tout = tin, [t + s - 1 for t, s in zip(tin, size)]

    def has_edge(self, p: Node, c: Node) -> bool:
        return c in self.children[p]

    def bfs_path(self, x: Node, y: Node) -> list[Node]:
        """The unique undirected path; raises if x and y are disconnected."""
        if x == y:
            return [x]
        prev: dict[Node, Node] = {x: x}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for u in self.neighbors[v]:
                if u in prev:
                    continue
                prev[u] = v
                if u == y:
                    path = [y]
                    while path[-1] != x:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(u)
        raise BordertreeError(f"nodes {x!r} and {y!r} are disconnected")

    def component_of(self, x: Node) -> set[Node]:
        out = {x}
        queue = deque([x])
        while queue:
            v = queue.popleft()
            for u in self.neighbors[v]:
                if u not in out:
                    out.add(u)
                    queue.append(u)
        return out

    def path(self, x: Node, y: Node) -> list[Node]:
        """The unique undirected path x ... y, by walking ``up`` pointers to
        the meeting point in O(path length); raises if x and y are
        disconnected.  Same answer as :meth:`bfs_path`."""
        if self.comp[x] != self.comp[y]:
            raise BordertreeError(f"nodes {x!r} and {y!r} are disconnected")
        up, depth = self.up, self.depth
        head: list[Node] = []
        tail: list[Node] = []
        while depth[x] > depth[y]:
            head.append(x)
            x = up[x]
        while depth[y] > depth[x]:
            tail.append(y)
            y = up[y]
        while x != y:
            head.append(x)
            tail.append(y)
            x, y = up[x], up[y]
        head.append(x)
        head.extend(reversed(tail))
        return head

    def on_side(self, a: Node, b: Node, x: Node) -> bool:
        """Is x in a's component of the tree minus the edge (a, b)?

        ``(a, b)`` must be a tree edge, in either orientation.
        """
        tin, tout = self.tin, self.tout
        if self.up[a] == b:  # a's side is a's subtree
            return tin[a] <= tin[x] <= tout[a]
        # b is a's child: a's side is the component minus b's subtree
        return self.comp[x] == self.comp[a] and not tin[b] <= tin[x] <= tout[b]


@dataclass
class HubIndex:
    hubs: tuple[Node, ...]
    hub_paths: dict[tuple[Node, Node], list[Node]]  # between-hub path, ends excluded
    nearest: dict[Node, tuple[Node, list[Node]]]  # node -> (hub, path incl. both ends)


def build_hub_index(tree: Tree, hubs: Optional[Sequence[Node]] = None) -> HubIndex:
    """Pick about sqrt(n) hubs per component (high degree, spread out by
    skipping neighbors of chosen hubs) unless an explicit hub set is given."""
    if hubs is None:
        chosen: list[Node] = []
        remaining = set(tree.nodes)
        # Ordered by str, not by id: the fixtures' pinned hubs depend on it.
        while remaining:
            first = min(remaining, key=str)
            comp = sorted(tree.members[tree.comp[first]], key=str)
            remaining -= set(comp)
            want = max(1, math.isqrt(len(comp)))
            ranked = sorted(comp, key=lambda v: (-len(tree.neighbors[v]), str(v)))
            picked: list[Node] = []
            for v in ranked:
                if len(picked) >= want:
                    break
                if any(v in tree.neighbors[h] for h in picked):
                    continue
                picked.append(v)
            for v in ranked:  # fill if the spread constraint starved us
                if len(picked) >= want:
                    break
                if v not in picked:
                    picked.append(v)
            chosen.extend(picked)
        hubs = chosen
    hubs = tuple(hubs)
    hub_paths: dict[tuple[Node, Node], list[Node]] = {}
    for i, a in enumerate(hubs):
        for b in hubs[i + 1 :]:
            try:
                p = tree.path(a, b)
            except BordertreeError:
                continue
            hub_paths[(a, b)] = p[1:-1]
            hub_paths[(b, a)] = p[-2:0:-1]
    nearest: dict[Node, tuple[Node, list[Node]]] = {}
    queue = deque()
    for h in hubs:
        nearest[h] = (h, [h])
        queue.append(h)
    while queue:
        v = queue.popleft()
        hub, path = nearest[v]
        for u in tree.neighbors[v]:
            if u not in nearest:
                nearest[u] = (hub, [u, *path])
                queue.append(u)
    return HubIndex(hubs, hub_paths, nearest)


def _erase_loops(walk: list[Node]) -> list[Node]:
    """Loop-erasure of a walk; in a tree this leaves the unique simple path."""
    stack: list[Node] = []
    pos: dict[Node, int] = {}
    for v in walk:
        if v in pos:
            while stack[-1] != v:
                pos.pop(stack.pop())
        else:
            pos[v] = len(stack)
            stack.append(v)
    return stack


def tree_path(tree: Tree, index: HubIndex, x: Node, y: Node) -> list[Node]:
    """Hub-method path: x to its hub, hub to hub, hub to y, loops erased.

    Falls back to the tree's parent-pointer path when either endpoint has
    no hub in its component, as with an explicit hub set that leaves a
    component out.
    """
    if x == y:
        return [x]
    if x not in index.nearest or y not in index.nearest:
        return tree.path(x, y)
    hx, px = index.nearest[x]
    hy, py = index.nearest[y]
    if hx == hy:
        walk = [*px, *py[::-1]]
    else:
        between = index.hub_paths.get((hx, hy))
        if between is None:
            return tree.path(x, y)
        walk = [*px, *between, *py[::-1]]
    path = _erase_loops(walk)
    if path[0] != x or path[-1] != y:
        raise BordertreeError(f"nodes {x!r} and {y!r} are disconnected")
    return path


@dataclass
class EvidentialCore:
    """A connected set of tree nodes; its edges are the tree edges between
    two of its nodes."""

    nodes: frozenset[Node]
    roots: frozenset[Node]  # no parent inside the core
    leaves: frozenset[Node]  # no child inside the core


def _core_from_nodes(tree: Tree, nodes: set[Node]) -> EvidentialCore:
    roots = frozenset(v for v in nodes if not any(p in nodes for p in tree.parents[v]))
    leaves = frozenset(v for v in nodes if not any(c in nodes for c in tree.children[v]))
    return EvidentialCore(frozenset(nodes), roots, leaves)


def evidential_core(tree: Tree, marked: Iterable[Node]) -> EvidentialCore:
    """Smallest subtree containing all marked nodes: one group per node."""
    return smallest_hitting_core(tree, [{m} for m in marked])


def smallest_hitting_core(tree: Tree, groups: Sequence[Iterable[Node]]) -> EvidentialCore:
    """Smallest connected subtree meeting every group.

    Each group must be connected in the tree: the home borders of one
    evidence variable are, by running intersection, and so is a single
    node.  If some node lies in every group, the core is the least such
    node.  Otherwise the span of one member per group is pruned in one
    queue pass: a leaf goes unless it is the last node left of some group,
    and a leaf that stays can never go later.  The cost is O(span +
    sum of group sizes).

    The result is the unique minimum.  Each of its leaves is the only node
    it keeps of some group; that group is connected, so each of its
    members reaches the pruned tree through that leaf, and any connected
    set meeting every group holds the path between any two leaves, hence
    the whole pruned tree.  The same argument puts the minimum inside any
    span, so the search may start from one.
    """
    groups = [set(g) for g in groups if g]
    if not groups:
        raise ValueError("need at least one non-empty group")
    comp = tree.comp
    if len({comp[v] for g in groups for v in g}) > 1:
        raise BordertreeError("groups span multiple components")
    common = set.intersection(*groups)
    if common:
        return _core_from_nodes(tree, {min(common)})
    anchor = next(iter(groups[0]))
    nodes = {anchor}
    for g in groups[1:]:
        nodes.update(tree.path(anchor, next(iter(g))))
    nbrs = tree.neighbors
    left = [0] * len(groups)  # nodes of each group still in the subtree
    holds: dict[Node, list[int]] = {}  # node -> the groups it belongs to
    for i, g in enumerate(groups):
        for v in g & nodes:
            left[i] += 1
            holds.setdefault(v, []).append(i)
    deg = {v: sum(u in nodes for u in nbrs[v]) for v in nodes}
    queue = deque(v for v in nodes if deg[v] == 1)
    while queue:
        v = queue.popleft()
        mine = holds.get(v, ())
        if any(left[i] == 1 for i in mine):
            continue
        nodes.discard(v)
        for i in mine:
            left[i] -= 1
        for u in nbrs[v]:
            if u in nodes:
                deg[u] -= 1
                if deg[u] == 1:
                    queue.append(u)
    return _core_from_nodes(tree, nodes)


def collection_schedule(
    tree: Tree, core: EvidentialCore, pivot: Node
) -> list[tuple[Node, Node]]:
    """Post-order toward the pivot: one (source, target) message per core
    edge, prerequisites (messages further from the pivot) always first."""
    if pivot not in core.nodes:
        raise BordertreeError(f"pivot {pivot!r} is outside the evidential core")
    nodes, nbrs = core.nodes, tree.neighbors
    sched = []
    seen = {pivot}
    # Iterative DFS over the core: a message leaves a node once all its
    # subtrees are done.
    stack = [(pivot, iter(nbrs[pivot]))]
    while stack:
        v, rest = stack[-1]
        for u in rest:
            if u in nodes and u not in seen:
                seen.add(u)
                stack.append((u, iter(nbrs[u])))
                break
        else:
            stack.pop()
            if stack:
                sched.append((v, stack[-1][0]))
    return sched


def distribution_schedule(
    tree: Tree, informed: set[Node], target: Node, top: Node
) -> tuple[Node, list[tuple[Node, Node]]]:
    """Walk from the unique gate of the connected informed set out to the
    target; the returned schedule informs every node along the way.

    ``top`` is the informed node of least depth, so the informed set
    lies in its subtree.  Going up from the target, the first informed node
    is the gate.  A walk that reaches ``top``'s depth without meeting one
    is outside that subtree, and then the gate is ``top`` itself.  The
    cost is the length of the walk, not the size of the informed set."""
    if target in informed:
        return target, []
    up, depth = tree.up, tree.depth
    limit = depth[top]
    path = [target]  # target ... gate
    v = target
    while depth[v] > limit:
        v = up[v]
        path.append(v)
        if v in informed:
            break
    else:
        path = tree.path(target, top)
    out_path = path[::-1]  # gate ... target
    return out_path[0], list(zip(out_path, out_path[1:]))


def default_pivot(core: EvidentialCore, holding: set[Node]) -> Node:
    """The first core root or leaf in ``holding`` (the core nodes that hold
    the first-listed evidence variable), else the first root or leaf."""
    # Ordered by str, not by id: the fixtures' pinned pivots depend on it.
    rl = sorted(core.roots | core.leaves, key=str)
    return next((v for v in rl if v in holding), rl[0])


def component_cores(
    tree: Tree, groups: Iterable[set], pivot: Optional[Node] = None
) -> dict[Node, tuple[EvidentialCore, Node]]:
    """Per component id, in ascending order, the evidential core of the
    ``groups`` in that component and its pivot.

    ``groups`` holds, per evidence variable, the connected set of nodes
    that carry it.  A requested ``pivot`` joins its component's core as one
    more group, and alone seeds a core of itself in a component with no
    evidence; a pivot that is not a node raises KeyError.  Otherwise the
    pivot is a core root or leaf (``default_pivot``).  This reads the tree
    only: no message is computed.
    """
    by_comp: dict[Node, list[set]] = {}
    for g in groups:
        by_comp.setdefault(tree.comp[next(iter(g))], []).append(g)
    if pivot is not None:
        if pivot not in tree.nodes:  # a range test: -1 would index a list
            raise KeyError(f"pivot {pivot!r} is not a node of the tree")
        by_comp.setdefault(tree.comp[pivot], []).append({pivot})
    out = {}
    for comp, gs in sorted(by_comp.items()):
        core = smallest_hitting_core(tree, gs)
        if pivot in core.nodes:
            out[comp] = core, pivot
        else:
            out[comp] = core, default_pivot(core, gs[0] & core.nodes)
    return out


class TreeSession:
    """One evidence set against a tree of nodes or of borders.

    The session skeleton both tree engines share.  It owns:

    * per component, the evidential core of the evidence groups and its
      pivot (:func:`component_cores`), and the collection of every core
      message toward the pivot;
    * the informed set and distribution: a query walks from the set's gate
      out to its node, and the set's top node is kept as nodes join;
    * ``_send`` and the message ``store``, which ``_send`` reads before it
      computes; the counters ``sent`` (messages computed), ``collected``
      and ``distributed`` (messages scheduled by each phase);
    * the boundary fallbacks of ``get_pi_edge``/``get_lambda_edge``: a
      message absent from the store must come from a side without core
      nodes (``_side_has_core``, O(1)), and is the prior an outside parent
      sends, or the scalar 1 an outside child sends;
    * the one read-out, ``posteriors`` (``posterior`` and ``joint`` read
      through it), and ``evidence_prob``: the relevance memo
      (``_relevant``) that sends a query the evidence cannot reach to the
      structure's memo of prior marginals (``_prior_marginal``), the
      evidence total of each component (``_evidence_total``), contracted
      at its pivot once per session, and the check that none of those
      totals is 0 (``check_possible``).

    An engine supplies ``bn``, the network whose parents the relevance walk
    reads, ``_marginals``, the structure's memo of normalized prior
    marginals by variable, ``read_node``, the read hook that maps each
    variable to the node it is read at (one lookup per query), its edge
    messages (``compute_pi_edge(p, c)``, the message parent p sends child
    c, and ``compute_lambda_edge(p, c)``, the one c sends p),
    ``_prior(v)`` (the unrestricted prior of node v),
    ``_outside_prior(p)``, ``_belief_factors(v)`` (the factors whose
    product is v's belief) and ``ensure_informed``.  The engine passes in
    the schedule functions, so each engine calls them through its own
    module, where the benchmark's tracer finds them.

    Messages are keyed by ``(p, c, direction)``, for the edge p->c and
    ``"pi"`` (down) or ``"lambda"`` (up).
    """

    def __init__(self, tree: Tree, ev, groups: Iterable[set], pivot, collection, carried=None):
        """``groups`` holds, per evidence variable, the connected set of
        nodes that carry it; ``collection`` is the collection schedule.
        ``carried`` holds messages of an earlier session that are still
        valid under ``ev``; the session adds its own to that dict."""
        self.tree = tree
        self.ev = ev
        self.store = {} if carried is None else carried
        self.sent = self.collected = self.distributed = 0
        self.core_nodes: set[Node] = set()
        self.cores: dict[Node, EvidentialCore] = {}
        self.pivots: dict[Node, Node] = {}
        self.informed_in: dict[Node, set[Node]] = {}  # component id -> informed nodes
        self._top: dict[Node, Node] = {}  # component id -> its least-depth informed node
        self._totals: dict[Node, Factor] = {}  # component id -> Pr of its evidence
        self._relevance: Optional[dict[int, bool]] = None  # variable -> relevant?
        self._possible = False  # every component's evidence total checked > 0
        for comp, (core, pv) in component_cores(tree, groups, pivot).items():
            self.cores[comp] = core
            self.core_nodes |= core.nodes
            self.pivots[comp] = pv
            for src, dst in collection(tree, core, pv):
                self._send(src, dst)
                self.collected += 1
            self.informed_in[comp] = {pv}
            self._top[comp] = pv

    def _side_has_core(self, a: Node, b: Node) -> bool:
        """Does a's side of edge (a, b) hold a node of the evidential core?

        The core of a's component is connected, so unless it holds a or b
        it lies wholly on one side, and its pivot tells which."""
        comp = self.tree.comp[a]
        core = self.cores.get(comp)
        if core is None:
            return False
        if a in core.nodes:
            return True
        return b not in core.nodes and self.tree.on_side(a, b, self.pivots[comp])

    # -- edge messages ----------------------------------------------------------

    def get_pi_edge(self, p: Node, c: Node) -> Factor:
        """Downward message along edge p->c."""
        msg = self.store.get((p, c, "pi"))
        if msg is not None:
            return msg
        if self._side_has_core(p, c):
            raise BordertreeError(
                f"missing prerequisite downward message {p}->{c}"
            )  # pragma: no cover - schedules provide prerequisites
        return self._outside_prior(p)

    def get_lambda_edge(self, p: Node, c: Node) -> Factor:
        """Upward message along edge p->c, sent by child c.

        A child side with no core node holds no evidence, except perhaps on
        variables it shares with p, and p's π carries those; so the side
        sends the scalar 1."""
        msg = self.store.get((p, c, "lambda"))
        if msg is not None:
            return msg
        if self._side_has_core(c, p):
            raise BordertreeError(
                f"missing prerequisite upward message {c}->{p}"
            )  # pragma: no cover
        return _ONE

    def _send(self, src: Node, dst: Node):
        down = self.tree.has_edge(src, dst)
        key = (src, dst, "pi") if down else (dst, src, "lambda")
        if key in self.store:
            return
        self.store[key] = self.compute_pi_edge(src, dst) if down else self.compute_lambda_edge(dst, src)
        self.sent += 1

    # -- queries ---------------------------------------------------------------

    def _inform(self, v: Node, distribution):
        """Distribute to v from its component's gate (``distribution`` is
        the distribution schedule); a no-op in a component with no core,
        whose messages are all vacuous."""
        comp = self.tree.comp[v]
        informed = self.informed_in.get(comp)
        if not informed or v in informed:
            return
        depth = self.tree.depth
        top = self._top[comp]
        _gate, sched = distribution(self.tree, informed, v, top)
        for src, dst in sched:
            self._send(src, dst)
            self.distributed += 1
            informed.add(dst)
            if depth[dst] < depth[top]:
                top = dst
        self._top[comp] = top

    def _relevant(self, var: int) -> bool:
        """Does ``var`` share an ancestor, itself included, with an evidence
        variable?

        The memo starts as the evidence variables and their ancestors, all
        relevant, found once per session.  A query walks up the parents
        from ``var``, stopping at nodes the memo already knows: a relevant
        one settles the walk, an irrelevant one has only irrelevant
        ancestors.  A walk that meets no relevant node marks every node it
        saw irrelevant.  The cost is bounded by the ancestors of the
        evidence and of the queries, and nothing recurses."""
        parents = self.bn.parents
        memo = self._relevance
        if memo is None:
            memo = self._relevance = dict.fromkeys(self.ev.vars, True)
            stack = list(memo)
            while stack:
                for p in parents[stack.pop()]:
                    if p not in memo:
                        memo[p] = True
                        stack.append(p)
        known = memo.get(var)
        if known is not None:
            return known
        seen = {var}
        stack = [var]
        while stack:
            for p in parents[stack.pop()]:
                known = memo.get(p)
                if known:
                    memo[var] = True
                    return True
                if known is None and p not in seen:
                    seen.add(p)
                    stack.append(p)
        memo.update(dict.fromkeys(seen, False))
        return False

    def _evidence_total(self, comp: Node) -> Factor:
        """Pr of the evidence in component ``comp``, as a scalar factor: the
        belief's total at its pivot, contracted once per session; the
        scalar 1 in a component with no core."""
        total = self._totals.get(comp)
        if total is None:
            pv = self.pivots.get(comp)
            total = _ONE if pv is None else _contract(self._belief_factors(pv), ())
            self._totals[comp] = total
        return total

    def check_possible(self) -> None:
        """Raise ImpossibleEvidenceError if any component's evidence has
        probability exactly 0; checked once per session.  Each total is
        tested on its own, since totals that are each positive can have a
        product that underflows to 0."""
        if self._possible:
            return
        for comp in self.pivots:
            if self._evidence_total(comp).total() <= 0.0:
                raise ImpossibleEvidenceError("evidence has probability 0")
        self._possible = True

    def posteriors(self, queries: Iterable[int]) -> dict[int, Factor]:
        """The normalized posterior of each query, keyed in query order,
        read from the fewest beliefs.

        A query that shares no ancestor with any evidence variable is
        d-separated from the evidence given nothing, so its posterior is
        its prior marginal: the structure's memo holds it, filled from the
        unrestricted prior of its read node on the first read, and no
        message is sent.  The others are grouped by their read node
        (``read_node``): each group's node is informed, its belief is
        contracted once onto the group, and each query is summed out of
        that table on its own."""
        self.check_possible()
        read = self.read_node
        out: dict[int, Optional[Factor]] = {}
        groups: dict[Node, list[int]] = {}
        for q in queries:
            if self._relevant(q):
                out[q] = None  # filled below, in query order
                groups.setdefault(read[q], []).append(q)
            else:
                out[q] = self._prior_marginal(read[q], q)
        for v, group in groups.items():
            self.ensure_informed(v)
            t = _contract(self._belief_factors(v), group)
            for q in group:
                out[q] = normalize(_contract([t], (q,)))[0]
        return out

    def posterior(self, var: int) -> Factor:
        """The normalized posterior of ``var``."""
        return self.posteriors((var,))[var]

    def joint(self, var: int) -> Factor:
        """The unnormalized Pr{var, e} = Pr{var | e} Pr(e)."""
        post = self.posterior(var)
        return _computed(post.scope, post.cards, post.values * self.evidence_prob())

    def _prior_marginal(self, v: Node, var: int) -> Factor:
        """The normalized prior marginal of ``var`` from the structure's
        memo, filled from v's unrestricted prior on the first read."""
        post = self._marginals.get(var)
        if post is None:
            post = normalize(_contract([self._prior(v)], (var,)))[0]
            self._marginals[var] = post
        return post

    def evidence_prob(self) -> float:
        """Pr(evidence): the product over cores of the belief's total at
        the pivot.  It is exactly 1 with no evidence, where a pivot the
        caller picked would still read a total that rounds."""
        if not self.ev:
            return 1.0
        out = 1.0
        for comp in self.pivots:
            out *= self._evidence_total(comp).total()
        return out
