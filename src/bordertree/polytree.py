"""Message passing on networks that are already singly connected.

Directional messages live on edges: the downward message a parent sends its
child summarizes everything on the parent side of the edge, the upward
message a child sends its parent summarizes the child side.  Collection
pulls messages through the evidential core to a pivot; distribution walks
from the informed set out to each query.  Messages from outside the core
are never computed: an outside parent contributes its preloaded prior and
an outside child an indicator.

Whether one side of an edge holds evidence is a non-empty-slice test on an
:class:`~bordertree.messaging.EdgeSides` index of the evidence variables,
built once per session, so it does not grow with the number of evidence
variables.  Restricted tables and indicators are built once per session.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import BordertreeError, NotSinglyConnectedError
from .factor import Factor, contract, indicator, multiply, normalize, restrict, sum_out
from .messaging import (
    EdgeSides,
    HubIndex,
    Tree,
    build_hub_index,
    collection_schedule,
    default_pivot,
    distribution_schedule,
    evidential_core,
    tree_path,
)
from .network import NO_EVIDENCE, BayesianNetwork


def node_priors(bn: BayesianNetwork) -> dict[int, Factor]:
    """Per-node prior marginals; in a polytree the parents of each node are
    mutually independent, so one topological sweep suffices."""
    priors: dict[int, Factor] = {}
    for v in bn.topological_order():
        f = bn.cpts[v]
        for p in bn.parents[v]:
            f = multiply(f, priors[p])
        priors[v] = sum_out(f, bn.parents[v]) if bn.parents[v] else f
    return priors


class PolytreeEngine:
    def __init__(self, bn: BayesianNetwork, hubs: Optional[Iterable[int]] = None):
        try:
            self.tree = Tree(bn.ids, [(p, v) for v in bn.ids for p in bn.parents[v]])
        except NotSinglyConnectedError:
            raise NotSinglyConnectedError(
                "network has an undirected loop; use the border polytree engine"
            ) from None
        self.bn = bn
        self.hub_index: HubIndex = build_hub_index(self.tree, hubs)
        self.priors = node_priors(bn)

    def path(self, x: int, y: int) -> list[int]:
        return tree_path(self.tree, self.hub_index, x, y)

    def session(self, ev=NO_EVIDENCE, pivot: Optional[int] = None) -> "PolytreeSession":
        return PolytreeSession(self, ev, pivot)

    def query(
        self, ev=NO_EVIDENCE, queries: Optional[Iterable[int]] = None, pivot=None
    ) -> tuple[dict[int, Factor], float]:
        session = self.session(ev, pivot)
        if queries is None:
            queries = list(self.bn.ids)
        posteriors = {q: session.posterior(q)[1] for q in queries}
        return posteriors, session.evidence_prob()


class PolytreeSession:
    def __init__(self, engine: PolytreeEngine, ev, pivot: Optional[int] = None):
        self.e = engine
        self.bn = engine.bn
        self.ev = ev
        self.pi_edge: dict[tuple[int, int], Factor] = {}
        self.lambda_edge: dict[tuple[int, int], Factor] = {}
        self.collected = 0
        self.distributed = 0
        self.index = engine.tree.index
        self.cores: dict[int, "object"] = {}
        self.pivots: dict[int, int] = {}
        self.informed_in: dict[int, set[int]] = {}  # component id -> informed nodes
        self._sides = EdgeSides(self.index, ((v, v) for v in ev.vars))
        self._cpt_cache: dict[int, Factor] = {}
        self._indicator_cache: dict[int, Factor] = {}
        by_comp: dict[int, list[int]] = {}
        for v in ev.vars:
            by_comp.setdefault(self.index.comp[v], []).append(v)
        for comp, marked in sorted(by_comp.items()):
            core = evidential_core(engine.tree, marked)
            if pivot is not None and pivot in core.nodes:
                pv = pivot
            else:
                pv = default_pivot(core, holding={marked[0]})
            self.cores[comp] = core
            self.pivots[comp] = pv
            for msg in collection_schedule(engine.tree, core, pv):
                self._send(msg.source, msg.target)
                self.collected += 1
            self.informed_in[comp] = {pv}

    @property
    def informed(self) -> set[int]:
        """Every node that holds its full message set so far."""
        return set().union(*self.informed_in.values())

    # -- evidence geometry -------------------------------------------------

    def _side_has_evidence(self, a: int, b: int) -> bool:
        """Does the component of ``a`` in tree-minus-edge(a,b) hold evidence?"""
        return self._sides.any(a, b)

    # -- message access ------------------------------------------------------

    def _pr_r(self, v: int) -> Factor:
        f = self._cpt_cache.get(v)
        if f is None:
            f = self._cpt_cache[v] = restrict(self.bn.cpts[v], self.ev)
        return f

    def _indicator(self, v: int) -> Factor:
        f = self._indicator_cache.get(v)
        if f is None:
            f = self._indicator_cache[v] = indicator([v], [self.bn.card(v)], self.ev)
        return f

    def get_pi_edge(self, x: int, y: int) -> Factor:
        """Downward message along edge x->y (scope {x})."""
        msg = self.pi_edge.get((x, y))
        if msg is not None:
            return msg
        if self._side_has_evidence(x, y):
            raise BordertreeError(
                f"missing prerequisite downward message {x}->{y}"
            )  # pragma: no cover - schedules provide prerequisites
        return self.e.priors[x]

    def get_lambda_edge(self, x: int, y: int) -> Factor:
        """Upward message along edge x->y, sent by child y (scope {x})."""
        msg = self.lambda_edge.get((x, y))
        if msg is not None:
            return msg
        if self._side_has_evidence(y, x):
            raise BordertreeError(
                f"missing prerequisite upward message {y}->{x}"
            )  # pragma: no cover
        return self._indicator(x)

    # Factors whose product, summed onto {v}, gives pi(v) and lambda(v).

    def _pi_factors(self, v: int) -> list[Factor]:
        return [self._pr_r(v), *(self.get_pi_edge(p, v) for p in self.bn.parents[v])]

    def _lambda_factors(self, v: int) -> list[Factor]:
        lams = [self.get_lambda_edge(v, c) for c in self.bn.children(v)]
        return [self._indicator(v), *lams]

    def pi_node(self, v: int) -> Factor:
        return contract(self._pi_factors(v), (v,))

    def lambda_node(self, v: int) -> Factor:
        return contract(self._lambda_factors(v), (v,))

    def compute_pi_edge(self, x: int, y: int) -> Factor:
        lams = [self.get_lambda_edge(x, w) for w in self.bn.children(x) if w != y]
        f = contract([*self._pi_factors(x), *lams], (x,))
        self.pi_edge[(x, y)] = f
        return f

    def compute_lambda_edge(self, x: int, y: int) -> Factor:
        """Message y sends up to its parent x."""
        pis = [self.get_pi_edge(p, y) for p in self.bn.parents[y] if p != x]
        f = contract([self._pr_r(y), *pis, *self._lambda_factors(y)], (x,))
        self.lambda_edge[(x, y)] = f
        return f

    def _send(self, src: int, dst: int):
        if self.e.tree.has_edge(src, dst):
            self.compute_pi_edge(src, dst)
        else:
            self.compute_lambda_edge(dst, src)

    # -- queries ---------------------------------------------------------------

    def ensure_informed(self, q: int):
        informed = self.informed_in.get(self.index.comp[q])
        if not informed:
            return  # evidence-free component: every message is vacuous
        if q in informed:
            return
        _gate, sched = distribution_schedule(self.e.tree, informed, q)
        for msg in sched:
            self._send(msg.source, msg.target)
            self.distributed += 1
            informed.add(msg.target)
        informed.add(q)

    def posterior(self, q: int) -> tuple[Factor, Factor]:
        """(unnormalized Pr{q, [evidence]}, normalized posterior)."""
        self.ensure_informed(q)
        unnorm = self.node_product(q)
        post, _ = normalize(unnorm)
        return unnorm, post

    def node_product(self, q: int) -> Factor:
        return contract([*self._pi_factors(q), *self._lambda_factors(q)], (q,))

    def evidence_prob(self) -> float:
        out = 1.0
        for pv in self.pivots.values():
            out *= contract([*self._pi_factors(pv), *self._lambda_factors(pv)], ()).total()
        return out


def polytree_query(
    bn: BayesianNetwork,
    ev=NO_EVIDENCE,
    queries: Optional[Iterable[int]] = None,
    pivot: Optional[int] = None,
) -> tuple[dict[int, Factor], float]:
    """Posterior marginals and the evidence probability for a polytree."""
    return PolytreeEngine(bn).query(ev, queries, pivot)
