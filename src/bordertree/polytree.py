"""Message passing on networks that are already singly connected.

Directional messages live on edges: the downward message a parent sends its
child summarizes everything on the parent side of the edge, the upward
message a child sends its parent summarizes the child side.  Collection
pulls messages through the evidential core to a pivot; distribution walks
from the informed set out to each query.  Messages from outside the core
are never computed: an outside parent contributes its preloaded prior and
an outside child the scalar 1.  Evidence enters through the restricted
CPTs only: a node's CPT holds the node, so its π carries its own evidence.
A query that shares no ancestor with the evidence is independent of it, so
its posterior is its normalized preloaded prior, and no message is sent to
it; the engine keeps each such marginal (``PolytreeEngine.marginals``) for
every later session (see :mod:`~bordertree.messaging`).

:class:`PolytreeSession` is a :class:`~bordertree.messaging.TreeSession`,
which owns cores, pivots, the schedules, the store, the boundary
fallbacks and the read-out (``posteriors``, through which ``query``,
``posterior`` and ``joint`` read); this module supplies the node
messages, the read hook (a variable is read at its own node) and the node
priors, which an independent query reads and an outside parent sends.  Messages
are keyed as the skeleton keys them, ``(parent, child, direction)``: the
store dies with its session, whose evidence is fixed.  Restricted tables are built once per session.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import NotSinglyConnectedError
from .factor import Factor, _contract, restrict
from .messaging import Tree, TreeSession, collection_schedule, distribution_schedule
from .network import NO_EVIDENCE, BayesianNetwork


def node_priors(bn: BayesianNetwork) -> dict[int, Factor]:
    """Per-node prior marginals; in a polytree the parents of each node are
    mutually independent, so one topological sweep suffices."""
    priors: dict[int, Factor] = {}
    for v in bn.topological_order():
        priors[v] = _contract([bn.cpts[v], *[priors[p] for p in bn.parents[v]]], (v,))
    return priors


def _node_tree(bn: BayesianNetwork) -> Tree:
    """``bn.tree()``, whose undirected-loop error points to the border
    polytree engine."""
    try:
        return bn.tree()
    except NotSinglyConnectedError:
        raise NotSinglyConnectedError(
            "network has an undirected loop; use the border polytree engine"
        ) from None


class PolytreeEngine:
    def __init__(self, bn: BayesianNetwork):
        self.tree = _node_tree(bn)
        self.bn = bn
        self.priors = node_priors(bn)
        # Variable -> its normalized prior marginal, filled by the read-outs
        # of queries independent of their session's evidence.
        self.marginals: dict[int, Factor] = {}

    def session(self, ev=NO_EVIDENCE, pivot: Optional[int] = None) -> "PolytreeSession":
        return PolytreeSession(self, ev, pivot)

    def query(
        self, ev=NO_EVIDENCE, queries: Optional[Iterable[int]] = None, pivot=None
    ) -> tuple[dict[int, Factor], float]:
        session = self.session(ev, pivot)
        posteriors = session.posteriors(self.bn.ids if queries is None else queries)
        return posteriors, session.evidence_prob()


class PolytreeSession(TreeSession):
    """One evidence set against a polytree engine; messages have scope {x}."""

    def __init__(self, engine: PolytreeEngine, ev, pivot: Optional[int] = None):
        self.e = engine
        self.bn = engine.bn
        self._cpt_cache: dict[int, Factor] = {}
        self._marginals = engine.marginals
        # Each variable is read at its own node: ``tree.nodes`` is
        # ``range(n)``, which maps each node to itself.
        self.read_node = engine.tree.nodes
        groups = [{v} for v in ev.vars]
        super().__init__(engine.tree, ev, groups, pivot, collection_schedule)

    def _prior(self, x: int) -> Factor:
        return self.e.priors[x]

    # A node's CPT holds only the node, so an outside parent's side holds
    # no evidence and it sends its unrestricted prior.
    _outside_prior = _prior

    def _pr_r(self, v: int) -> Factor:
        f = self._cpt_cache.get(v)
        if f is None:
            f = self._cpt_cache[v] = restrict(self.bn.cpts[v], self.ev)
        return f

    # Factors whose product, summed onto {v}, gives pi(v) and lambda(v).

    def _pi_factors(self, v: int) -> list[Factor]:
        return [self._pr_r(v), *(self.get_pi_edge(p, v) for p in self.bn.parents[v])]

    def _lambda_factors(self, v: int) -> list[Factor]:
        return [self.get_lambda_edge(v, c) for c in self.bn.children(v)]

    def _belief_factors(self, v: int) -> list[Factor]:
        return [*self._pi_factors(v), *self._lambda_factors(v)]

    def compute_pi_edge(self, x: int, y: int) -> Factor:
        """Message x sends down to its child y."""
        lams = [self.get_lambda_edge(x, w) for w in self.bn.children(x) if w != y]
        return _contract([*self._pi_factors(x), *lams], (x,))

    def compute_lambda_edge(self, x: int, y: int) -> Factor:
        """Message y sends up to its parent x."""
        pis = [self.get_pi_edge(p, y) for p in self.bn.parents[y] if p != x]
        return _contract([self._pr_r(y), *pis, *self._lambda_factors(y)], (x,))

    # -- queries ---------------------------------------------------------------

    def ensure_informed(self, q: int):
        self._inform(q, distribution_schedule)

    # Bound here too, so that perfbench's tracer can wrap them per engine.
    posterior = TreeSession.posterior
    evidence_prob = TreeSession.evidence_prob
