"""Inference on a border polytree.

Prior marginals of every border are computed once, off line, in creation
order (parents always precede children), the first time a session needs
one.  A query session restricts those priors and the stored cohort tables
by the session's evidence, prunes the polytree to its border evidential
core, collects to a pivot border, and answers each query by distributing
from the informed set through a gate.  The restricted tables are where the
evidence enters: π of a border carries the evidence of its members and of
its parent side, λ only the evidence on its child sides.  The border
chain engine is a reader of this session on the chain's one-macro view
(:func:`~bordertree.border_chain.run_passes`).
Messages are memoized by edge, direction and the evidence fingerprint of
the subtree behind them, so incremental evidence only recomputes the
messages whose side actually changed.

:class:`BorderSession` is a :class:`~bordertree.messaging.TreeSession`,
which owns cores, pivots, the schedules, the store and the boundary
fallbacks.  This module supplies the border algebra (border beliefs from
cohort tables and junction splices, and the edge messages), the restricted
prior an outside parent border sends, and the fingerprinted store key,
which lets a store outlive its session.

Store keys cost no scan of the evidence.  At session start each evidence
variable is anchored at the top (least-depth) border of its home set, and
a :class:`~bordertree.messaging.EdgeSides` index sorts them by Euler-tour
entry time.  The variables on one side of an edge are then one or two
``bisect``-found slices, plus the few shared by the edge's two borders.
Each (edge, direction) key is built once per session, as the exact
fingerprint tuple, so REPL store hits stay exact; so are the restricted
priors and cohort tables.  Per-message bookkeeping therefore does not grow
with the number of evidence variables.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .bp_build import Border, BorderPolytree
from .errors import BordertreeError
from .factor import Factor, contract, restrict
from .messaging import EdgeSides, TreeSession, collection_schedule, distribution_schedule
from .network import NO_EVIDENCE


def border_pi(b: Border, phi: Optional[Factor], parent_pi: Callable[[int], Factor]) -> Factor:
    """π of border ``b`` from its cohort table ``phi`` (type 1 only) and the
    π message ``parent_pi(pid)`` each parent border sends it.  The off-line
    priors and the session's messages compute it alike, with ``contract``.

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
        return contract([phi, parent_pi(b.parents[0])], b.members)
    marginals = [contract([parent_pi(pid)], kept) for pid, kept in zip(b.parents, b.carried)]
    return contract(marginals, b.members)


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

    Border priors are read only where an outside parent border sends one,
    and preloaded then if ``bp`` has none yet.  On a chain's view, a
    session anchored at border 0 (``pivot=0``) reads none: every edge's
    parent side holds a core border.

    ``store`` may be shared across sessions (the REPL does); it maps
    (parent, child, direction, fingerprint-of-the-side-behind-the-message)
    to factors, which realizes the incremental behavior: a message is
    recomputed only when the evidence on its side changed.
    """

    def __init__(
        self,
        bp: BorderPolytree,
        ev=NO_EVIDENCE,
        pivot: Optional[int] = None,
        store: Optional[dict] = None,
    ):
        self.bp = bp
        self.bn = bp.source
        tree = bp.tree()
        self._pi_cache: dict[int, Factor] = {}
        self._lambda_cache: dict[int, Factor] = {}
        self._prior_cache: dict[int, Factor] = {}
        self._phi_cache: dict[int, Factor] = {}
        self._key_cache: dict[tuple, tuple] = {}
        # Evidence items (variable, allowed values), as fingerprints hold
        # them; each variable is anchored at the top border of its home set.
        self._ev_items = {v: (v, vals) for v, vals in ev.fingerprint()}
        depth = tree.index.depth
        self._sides = EdgeSides(
            tree.index,
            ((min(bp.variable_home[v], key=depth.__getitem__), v) for v in self._ev_items),
        )
        groups = [set(bp.variable_home[v]) for v in ev.vars]
        super().__init__(tree, ev, groups, pivot, store, collection_schedule)

    def _side_evidence(self, a: int, b: int) -> list[int]:
        """Evidence variables with a home border on a's side of edge (a, b).

        A variable's home borders are connected (running intersection), so
        they meet a's side iff their top lies there, unless they hold both
        a and its index parent b; those variables are shared by a and b."""
        out = self._sides.side(a, b)
        if self.index.parent[a] == b:
            shared = self.bp.borders[a].members & self.bp.borders[b].members
            out += [v for v in shared if v in self._ev_items]
        return out

    # -- restricted tables ------------------------------------------------------

    def _prior_r(self, bid: int) -> Factor:
        f = self._prior_cache.get(bid)
        if f is None:
            if self.bp.priors is None:
                preload_priors(self.bp)
            f = self._prior_cache[bid] = restrict(self.bp.priors[bid], self.ev)
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
        f = contract(lams, self.bp.borders[bid].members)
        self._lambda_cache[bid] = f
        return f

    def _belief_factors(self, bid: int) -> list[Factor]:
        return [self.pi_border(bid), self.lambda_border(bid)]

    # -- edge messages ----------------------------------------------------------

    def _store_key(self, p: int, c: int, direction: str):
        key = self._key_cache.get((p, c, direction))
        if key is not None:
            return key
        if direction == "pi":
            # A downward message depends only on evidence over the parent
            # side (the parent border belongs to its own side).
            side = self._side_evidence(p, c)
        else:
            # An upward message additionally restricts the reduced cohort
            # table over the receiving border's variables, so evidence on
            # them is part of the message even when they sit outside the
            # child side.  Their home sets hold p, so those of them that
            # reach the child side do so through c and are counted there.
            only_p = self.bp.borders[p].members - self.bp.borders[c].members
            side = self._side_evidence(c, p)
            side += [v for v in only_p if v in self._ev_items]
        fingerprint = tuple(map(self._ev_items.__getitem__, sorted(side)))
        key = self._key_cache[(p, c, direction)] = (p, c, direction, fingerprint)
        return key

    def compute_pi_edge(self, p: int, c: int) -> Factor:
        lams = [self.get_lambda_edge(p, w) for w in self.tree.children[p] if w != c]
        return contract([self.pi_border(p), *lams], self.bp.borders[p].members)

    def compute_lambda_edge(self, p: int, c: int) -> Factor:
        """Message the child border c sends up to its parent p."""
        b = self.bp.borders[c]
        lam = self.lambda_border(c)
        if b.kind == "type1":
            # Everything but the cohort lies in the parent border.
            return contract([self._phi_r(b), lam], self.bp.borders[p].members)
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
            f = contract([f, self.get_pi_edge(pid, b.id)], keep)
        return f

    # -- queries ---------------------------------------------------------------

    def ensure_informed(self, bid: int):
        self._inform(bid, distribution_schedule)

    def posterior(self, var: int, home: Optional[int] = None) -> tuple[Factor, Factor]:
        if home is None:
            home = self.bp.home_border(var)
        elif var not in self.bp.borders[home].members:
            raise KeyError(f"variable {var} not in border {home}")
        return self._readout(home, var)

    # Bound here too, so that perfbench's tracer can wrap it per engine.
    evidence_prob = TreeSession.evidence_prob


def bp_query(
    bp: BorderPolytree,
    ev=NO_EVIDENCE,
    queries: Optional[Iterable[int]] = None,
    pivot: Optional[int] = None,
    store: Optional[dict] = None,
) -> tuple[dict[int, Factor], float]:
    """Posterior marginals (normalized factors) and the evidence probability."""
    session = BorderSession(bp, ev, pivot=pivot, store=store)
    if queries is None:
        queries = list(bp.source.ids)
    posteriors = {q: session.posterior(q)[1] for q in queries}
    return posteriors, session.evidence_prob()
