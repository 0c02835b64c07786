"""Inference on a border polytree.

Prior marginals of every border are computed once, off line, in creation
order (parents always precede children), the first time a session needs
one.  A query session restricts those priors and the stored cohort tables
by the session's evidence, prunes the polytree to its border evidential
core, collects to a pivot border, and answers each query by distributing
from the informed set through a gate.  The restricted tables are where the
evidence enters: π of a border carries the evidence of its members and of
its parent side, λ only the evidence on its child sides.  The border
chain engine is this session on the chain's one-macro view, anchored at
its first border: :func:`~bordertree.border_chain.run_passes` returns it,
and the chain answers through its read-out.  A query that shares no
ancestor with the evidence is independent of it, so the session sends it
no message: its posterior is its prior marginal, which the first read
takes off the unrestricted prior of its home border and the border
polytree keeps (``BorderPolytree.marginals``) for every later session (see
:mod:`~bordertree.messaging`).  ``posterior`` returns the normalized
posterior only, and ``joint`` the unnormalized Pr{var, e}.

:class:`BorderSession` is a :class:`~bordertree.messaging.TreeSession`,
which owns cores, pivots, the schedules, the store and the boundary
fallbacks.  This module supplies the border algebra (border beliefs from
cohort tables and junction splices, and the edge messages), the
unrestricted prior and the memo of prior marginals the read-out of an
independent query reads, and the restricted prior an outside parent
border sends.  The restricted priors
and cohort tables are built once per session.

Every session keys its store by ``(parent, child, direction)``: its
evidence is fixed, so an edge and a direction name a message.  Evidence
that changes (the REPL's) moves to a new session through
:meth:`BorderSession.with_evidence`, which starts with a copy of the old
session's messages minus the stale ones: those whose side behind the
message holds a home border of a variable whose allowed set changed, and
upward messages into a border that holds such a variable.  Only the
messages on the changed variables' side of each edge are recomputed, and
the store never holds more than two messages per border edge.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .bp_build import Border, BorderPolytree
from .errors import BordertreeError
from .factor import Factor, _contract, restrict
from .messaging import TreeSession, collection_schedule, distribution_schedule
from .network import NO_EVIDENCE


def border_pi(b: Border, phi: Optional[Factor], parent_pi: Callable[[int], Factor]) -> Factor:
    """π of border ``b`` from its cohort table ``phi`` (type 1 only) and the
    π message ``parent_pi(pid)`` each parent border sends it.  The off-line
    priors and the session's messages compute it alike, with ``_contract``.

    With no evidence this is the prior Pr{b}.  Type 1: the cohort table
    times the parent's π, with the promoted variable summed out.  Type 2:
    each parent's π marginalized onto its carried set on its own, then
    multiplied.

    The parents of a junction border share no variable.  A border of macro
    g holds only g's variables and interface variables of g's parent
    macros, so a shared variable would need a 2-cycle between g and a
    parent macro, the same macro pair junctioned twice, or an undirected
    3- or 4-cycle in the quotient; stage I and the single-edge rule exclude
    all three.  One joint contraction would therefore give the same table,
    but plain einsum loops over the product of all its operands' sizes:
    two 3^6 parents kept to two variables each cost over ten times as much
    joined as marginalized first.
    """
    if b.kind == "type1":
        if not b.parents:
            return phi
        return _contract([phi, parent_pi(b.parents[0])], b.members)
    marginals = [_contract([parent_pi(pid)], kept) for pid, kept in zip(b.parents, b.carried)]
    return _contract(marginals, b.members)


def preload_priors(bp: BorderPolytree) -> dict[int, Factor]:
    """Pr{border} for every border, by the evidence-free π recursion."""
    priors: dict[int, Factor] = {}
    for b in bp.borders:
        f = border_pi(b, b.cohort_table, priors.__getitem__)
        expected = tuple(sorted(b.members))
        if f.scope != expected:  # pragma: no cover - structural guarantee
            raise BordertreeError(f"prior scope {f.scope} != border {expected}")
        priors[b.id] = f
    bp.priors = priors
    return priors


class BorderSession(TreeSession):
    """One evidence set against a border polytree.

    Border priors are read only where an outside parent border sends one
    or a query independent of the evidence reads one, and preloaded then
    if ``bp`` has none yet.  On a chain's view, a
    session anchored at border 0 (``pivot=0``) is the chain engine's
    session; its passes read no prior, since every edge's parent side
    holds a core border, and only an independent query reads one.

    Messages carry over to a session for other evidence only through
    :meth:`with_evidence`.
    """

    def __init__(
        self,
        bp: BorderPolytree,
        ev=NO_EVIDENCE,
        pivot: Optional[int] = None,
        _carried: Optional[dict] = None,
    ):
        """``_carried`` holds the messages :meth:`with_evidence` hands over."""
        self.bp = bp
        self.bn = bp.source
        self._pi_cache: dict[int, Factor] = {}
        self._lambda_cache: dict[int, Factor] = {}
        self._prior_cache: dict[int, Factor] = {}
        self._phi_cache: dict[int, Factor] = {}
        self._marginals = bp.marginals
        groups = [set(bp.variable_home[v]) for v in ev.vars]
        super().__init__(bp.tree(), ev, groups, pivot, collection_schedule, _carried)

    def with_evidence(self, ev) -> "BorderSession":
        """A session for ``ev`` that starts with this session's messages,
        minus those the change from this session's evidence made stale.

        A variable has changed when its allowed set differs between the two
        evidence sets: an observation added, altered or retracted.  A
        downward message p->c depends on the evidence on p's side of the
        edge; an upward one c->p on the evidence on c's side and on p's
        variables, which restrict the cohort table it sums over.  A message
        is stale when a changed variable has a home border on that side, or,
        for an upward one, is a member of p.  Home sets are connected
        (running intersection), so unless they hold either end of the edge
        they lie wholly on one side, and any one of them tells which.  The
        new session picks its pivot as a fresh one would.
        """
        old = self.ev
        changed = [v for v in {*old.vars, *ev.vars} if old.allowed(v) != ev.allowed(v)]
        homes = [self.bp.variable_home[v] for v in changed]
        on_side = self.tree.on_side
        borders = self.bp.borders

        def behind(a: int, b: int) -> bool:
            """Does a changed variable have a home border on a's side of edge (a, b)?"""
            return any(a in h or (b not in h and on_side(a, b, h[0])) for h in homes)

        kept = {}
        for key, msg in self.store.items():
            p, c, direction = key
            if direction == "pi":
                stale = behind(p, c)
            else:
                stale = behind(c, p) or any(v in borders[p].members for v in changed)
            if not stale:
                kept[key] = msg
        return BorderSession(self.bp, ev, _carried=kept)

    # -- restricted tables ------------------------------------------------------

    def _prior(self, bid: int) -> Factor:
        return (self.bp.priors or preload_priors(self.bp))[bid]

    def _prior_r(self, bid: int) -> Factor:
        f = self._prior_cache.get(bid)
        if f is None:
            f = self._prior_cache[bid] = restrict(self._prior(bid), self.ev)
        return f

    def _phi_r(self, b: Border) -> Factor:
        f = self._phi_cache.get(b.id)
        if f is None:
            f = self._phi_cache[b.id] = restrict(b.cohort_table, self.ev)
        return f

    # Boundary: an outside parent contributes its restricted prior; any
    # evidence on that side is confined to the shared variables.
    _outside_prior = _prior_r

    # -- border beliefs -----------------------------------------------------------

    def pi_border(self, bid: int) -> Factor:
        f = self._pi_cache.get(bid)
        if f is not None:
            return f
        b = self.bp.borders[bid]
        phi = self._phi_r(b) if b.kind == "type1" else None
        f = border_pi(b, phi, lambda pid: self.get_pi_edge(pid, bid))
        self._pi_cache[bid] = f
        return f

    def lambda_border(self, bid: int) -> Factor:
        f = self._lambda_cache.get(bid)
        if f is not None:
            return f
        lams = [self.get_lambda_edge(bid, c) for c in self.tree.children[bid]]
        f = _contract(lams, self.bp.borders[bid].members)
        self._lambda_cache[bid] = f
        return f

    def _belief_factors(self, bid: int) -> list[Factor]:
        return [self.pi_border(bid), self.lambda_border(bid)]

    # -- edge messages ----------------------------------------------------------

    def compute_pi_edge(self, p: int, c: int) -> Factor:
        lams = [self.get_lambda_edge(p, w) for w in self.tree.children[p] if w != c]
        return _contract([self.pi_border(p), *lams], self.bp.borders[p].members)

    def compute_lambda_edge(self, p: int, c: int) -> Factor:
        """Message the child border c sends up to its parent p."""
        b = self.bp.borders[c]
        lam = self.lambda_border(c)
        if b.kind == "type1":
            # Everything but the cohort lies in the parent border.
            return _contract([self._phi_r(b), lam], self.bp.borders[p].members)
        return self._junction_lambda(b, p, lam)

    def _junction_lambda(self, b: Border, p: int, lam: Factor) -> Factor:
        """Upward message of a junction border toward parent p: nested
        single-parent sums (multiply one other parent's message, marginalize
        what that parent holds away, repeat)."""
        f = lam
        for pid in b.parents:
            if pid == p:
                continue
            # f stays within b's members; sum out what parent pid holds.
            keep = b.members - self.bp.borders[pid].members
            f = _contract([f, self.get_pi_edge(pid, b.id)], keep)
        return f

    # -- queries ---------------------------------------------------------------

    def ensure_informed(self, bid: int):
        self._inform(bid, distribution_schedule)

    def posterior(self, var: int) -> Factor:
        """The normalized posterior of var, read at var's home border."""
        return self._readout(self.bp.home_border(var), var)

    def joint(self, var: int) -> Factor:
        """The unnormalized Pr{var, e}, read at var's home border."""
        return self._joint(self.bp.home_border(var), var)

    # Bound here too, so that perfbench's tracer can wrap it per engine.
    evidence_prob = TreeSession.evidence_prob


def bp_query(
    bp: BorderPolytree,
    ev=NO_EVIDENCE,
    queries: Optional[Iterable[int]] = None,
    pivot: Optional[int] = None,
) -> tuple[dict[int, Factor], float]:
    """Posterior marginals (normalized factors) and the evidence probability."""
    session = BorderSession(bp, ev, pivot=pivot)
    if queries is None:
        queries = list(bp.source.ids)
    posteriors = {q: session.posterior(q) for q in queries}
    return posteriors, session.evidence_prob()
