"""Inference on a border polytree.

Prior marginals of every border are computed once, off line, in creation
order (parents always precede children).  A query session restricts those
priors and the stored cohort tables by the session's evidence, prunes the
polytree to its border evidential core, collects to a pivot border, and
answers each query by distributing from the informed set through a gate.
Messages are memoized by edge, direction and the evidence fingerprint of
the subtree behind them, so incremental evidence only recomputes the
messages whose side actually changed.

Store keys cost no scan of the evidence.  At session start each evidence
variable is anchored at the top (least-depth) border of its home set, and
a :class:`~bordertree.messaging.EdgeSides` index sorts them by Euler-tour
entry time.  The variables on one side of an edge are then one or two
``bisect``-found slices, plus the few shared by the edge's two borders.
Each (edge, direction) key is built once per session, as the exact
fingerprint tuple, so REPL store hits stay exact; so are the restricted
priors, cohort tables and indicators.  Per-message bookkeeping therefore
does not grow with the number of evidence variables.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .bp_build import Border, BorderPolytree
from .errors import BordertreeError
from .factor import (
    Factor,
    contract,
    indicator,
    marginal_to,
    multiply,
    normalize,
    restrict,
    sum_out,
)
from .messaging import (
    EdgeSides,
    Tree,
    collection_schedule,
    default_pivot,
    distribution_schedule,
    smallest_hitting_core,
)
from .network import NO_EVIDENCE


def preload_priors(bp: BorderPolytree) -> dict[int, Factor]:
    """Pr{border} for every border, by the evidence-free recursions."""
    priors: dict[int, Factor] = {}
    for b in bp.borders:
        if b.kind == "type1":
            if not b.parents:
                f = b.cohort_table
            else:
                f = multiply(b.cohort_table, priors[b.parents[0]])
                if b.promoted is not None:
                    f = sum_out(f, {b.promoted})
        else:
            f = Factor.scalar(1.0)
            for pid, kept in zip(b.parents, b.carried):
                f = multiply(f, marginal_to(priors[pid], kept))
        expected = tuple(sorted(b.members))
        if f.scope != expected:  # pragma: no cover - structural guarantee
            raise BordertreeError(f"prior scope {f.scope} != border {expected}")
        priors[b.id] = f
    bp.priors = priors
    return priors


class BorderSession:
    """One evidence set against a preloaded border polytree.

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
        if bp.priors is None:
            preload_priors(bp)
        self.bp = bp
        self.bn = bp.source
        self.ev = ev
        self.store = store if store is not None else {}
        self.tree: Tree = bp.tree()
        self.index = self.tree.index
        self.sent = 0
        self.collected = 0
        self._pi_cache: dict[int, Factor] = {}
        self._lambda_cache: dict[int, Factor] = {}
        self._prior_cache: dict[int, Factor] = {}
        self._phi_cache: dict[int, Factor] = {}
        self._indicator_cache: dict[int, Factor] = {}
        self._key_cache: dict[tuple, tuple] = {}
        # Evidence items (variable, allowed values), as fingerprints hold
        # them; each variable is anchored at the top border of its home set.
        self._ev_items = {v: (v, vals) for v, vals in ev.fingerprint()}
        depth = self.index.depth
        self._sides = EdgeSides(
            self.index,
            ((min(bp.variable_home[v], key=depth.__getitem__), v) for v in self._ev_items),
        )

        self.core_nodes: set[int] = set()
        self.cores: dict[int, object] = {}
        self.pivots: dict[int, int] = {}
        self.informed_in: dict[int, set[int]] = {}  # component id -> informed borders

        comp_of = self.index.comp
        groups_by_comp: dict[int, list[set[int]]] = {}
        first_var_homes: dict[int, set[int]] = {}
        for v in ev.vars:
            homes = set(bp.variable_home[v])
            comp = comp_of[next(iter(homes))]
            groups_by_comp.setdefault(comp, []).append(homes)
            first_var_homes.setdefault(comp, homes)
        for comp, groups in sorted(groups_by_comp.items()):
            if pivot is not None and comp_of.get(pivot) == comp:
                groups = groups + [{pivot}]
            core = smallest_hitting_core(self.tree, groups)
            if pivot is not None and pivot in core.nodes:
                pv = pivot
            else:
                pv = default_pivot(core, holding=first_var_homes[comp] & core.nodes)
            self.cores[comp] = core
            self.core_nodes |= core.nodes
            self.pivots[comp] = pv
        for comp in sorted(self.cores):
            core = self.cores[comp]
            pv = self.pivots[comp]
            for msg in collection_schedule(self.tree, core, pv):
                self._send(msg.source, msg.target)
                self.collected += 1
            self.informed_in[comp] = {pv}

    @property
    def informed(self) -> set[int]:
        """Every border that holds its full message set so far."""
        return set().union(*self.informed_in.values())

    # -- geometry ------------------------------------------------------------

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

    def _side_has_core(self, a: int, b: int) -> bool:
        """Does a's side of edge (a, b) hold a border of the evidential core?

        The core of a's component is connected, so unless it holds a or b
        it lies wholly on one side, and its pivot tells which."""
        comp = self.index.comp[a]
        core = self.cores.get(comp)
        if core is None:
            return False
        if a in core.nodes:
            return True
        return b not in core.nodes and self.index.on_side(a, b, self.pivots[comp])

    # -- restricted tables ------------------------------------------------------

    def _prior_r(self, bid: int) -> Factor:
        f = self._prior_cache.get(bid)
        if f is None:
            f = self._prior_cache[bid] = restrict(self.bp.priors[bid], self.ev)
        return f

    def _phi_r(self, b: Border) -> Factor:
        f = self._phi_cache.get(b.id)
        if f is None:
            f = self._phi_cache[b.id] = restrict(b.cohort_table, self.ev)
        return f

    def _indicator(self, bid: int) -> Factor:
        f = self._indicator_cache.get(bid)
        if f is None:
            members = sorted(self.bp.borders[bid].members)
            f = indicator(members, [self.bn.card(v) for v in members], self.ev)
            self._indicator_cache[bid] = f
        return f

    # -- border beliefs -----------------------------------------------------------

    def pi_border(self, bid: int) -> Factor:
        f = self._pi_cache.get(bid)
        if f is not None:
            return f
        b = self.bp.borders[bid]
        if b.kind == "type1":
            if not b.parents:
                f = self._prior_r(bid)
            else:
                f = contract([self._phi_r(b), self.get_pi_edge(b.parents[0], bid)], b.members)
        else:
            # Each parent's message is marginalized on its own: one joint
            # contraction would sum a variable dropped by two parents once
            # over their product, a different answer.
            marginals = [
                marginal_to(self.get_pi_edge(pid, bid), kept)
                for pid, kept in zip(b.parents, b.carried)
            ]
            f = contract(marginals, b.members)
        self._pi_cache[bid] = f
        return f

    def lambda_border(self, bid: int) -> Factor:
        f = self._lambda_cache.get(bid)
        if f is not None:
            return f
        lams = [self.get_lambda_edge(bid, c) for c in self.tree.children[bid]]
        f = contract([self._indicator(bid), *lams], self.bp.borders[bid].members)
        self._lambda_cache[bid] = f
        return f

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

    def get_pi_edge(self, p: int, c: int) -> Factor:
        key = self._store_key(p, c, "pi")
        msg = self.store.get(key)
        if msg is not None:
            return msg
        if self._side_has_core(p, c):
            raise BordertreeError(
                f"missing prerequisite downward message {p}->{c}"
            )  # pragma: no cover - schedules provide prerequisites
        # Boundary: an outside parent contributes its restricted prior; any
        # evidence on that side is confined to the shared variables.
        return self._prior_r(p)

    def get_lambda_edge(self, p: int, c: int) -> Factor:
        key = self._store_key(p, c, "lambda")
        msg = self.store.get(key)
        if msg is not None:
            return msg
        if self._side_has_core(c, p):
            raise BordertreeError(
                f"missing prerequisite upward message {c}->{p}"
            )  # pragma: no cover
        return self._indicator(p)

    def compute_pi_edge(self, p: int, c: int) -> Factor:
        lams = [self.get_lambda_edge(p, w) for w in self.tree.children[p] if w != c]
        f = contract([self.pi_border(p), *lams], self.bp.borders[p].members)
        self.store[self._store_key(p, c, "pi")] = f
        return f

    def compute_lambda_edge(self, p: int, c: int) -> Factor:
        """Message the child border c sends up to its parent p."""
        b = self.bp.borders[c]
        lam = self.lambda_border(c)
        if b.kind == "type1":
            # Everything but the cohort lies in the parent border.
            f = contract([self._phi_r(b), lam], self.bp.borders[p].members)
        else:
            f = self._junction_lambda(b, p, lam)
        self.store[self._store_key(p, c, "lambda")] = f
        return f

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

    def _send(self, src: int, dst: int):
        key = (
            self._store_key(src, dst, "pi")
            if self.tree.has_edge(src, dst)
            else self._store_key(dst, src, "lambda")
        )
        if key in self.store:
            return
        if self.tree.has_edge(src, dst):
            self.compute_pi_edge(src, dst)
        else:
            self.compute_lambda_edge(dst, src)
        self.sent += 1

    # -- queries ---------------------------------------------------------------

    def ensure_informed(self, bid: int):
        informed = self.informed_in.get(self.index.comp[bid])
        if not informed:
            return  # evidence-free component: all messages are vacuous
        if bid in informed:
            return
        _gate, sched = distribution_schedule(self.tree, informed, bid)
        for msg in sched:
            self._send(msg.source, msg.target)
            informed.add(msg.target)
        informed.add(bid)

    def border_product(self, bid: int) -> Factor:
        members = self.bp.borders[bid].members
        return contract([self.pi_border(bid), self.lambda_border(bid)], members)

    def posterior(self, var: int, home: Optional[int] = None) -> tuple[Factor, Factor]:
        if home is None:
            home = self.bp.home_border(var)
        elif var not in self.bp.borders[home].members:
            raise KeyError(f"variable {var} not in border {home}")
        self.ensure_informed(home)
        unnorm = contract([self.pi_border(home), self.lambda_border(home)], (var,))
        post, _ = normalize(unnorm)
        return unnorm, post

    def evidence_prob(self) -> float:
        out = 1.0
        for pv in self.pivots.values():
            out *= contract([self.pi_border(pv), self.lambda_border(pv)], ()).total()
        return out


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
