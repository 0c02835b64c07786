"""Border chains: grow a parentless set, then run two evidential passes.

A chain step promotes one border variable (or a fictitious placeholder)
and recruits its cohort of bottom variables; the cohort table is the
product of the recruited CPTs.  The downward pass pushes evidence-weighted
mass border by border toward the last border, the upward pass pulls
likelihoods back toward the first, and any border containing the query
yields the same posterior.

The promotion engine here (rules 1-6, the initial-border search and the
state-space tie-break) is the only copy of the plain border algorithm:
stage II of :mod:`bordertree.bp_build` calls it inside each macro-node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import BordertreeError
from .factor import Factor, contract, contract_setup, indicator, normalize, restrict
from .network import NO_EVIDENCE, BayesianNetwork, reach


@dataclass(frozen=True)
class ChainStep:
    index: int
    promoted: Optional[int]  # None encodes the fictitious promotion
    cohort: frozenset[int]
    border: frozenset[int]
    cohort_table: Factor
    rule: Optional[int]  # None at step 0


@dataclass
class BorderChain:
    steps: list[ChainStep]
    source: BayesianNetwork

    @property
    def gamma(self) -> int:
        return len(self.steps) - 1

    def border(self, j: int) -> frozenset[int]:
        return self.steps[j].border

    def home_step(self, var: int) -> int:
        """Lowest j with var in border j."""
        for step in self.steps:
            if var in step.border:
                return step.index
        raise KeyError(var)


@dataclass
class PassResult:
    pi: list[Factor]
    lam: list[Factor]
    alpha: Optional[int]  # first step recruiting an evidence variable
    beta: Optional[int]  # last such step


# -- the promotion engine -------------------------------------------------
#
# Stage II's hooks: ``members`` restricts the initial-border search to a
# parentless macro, ``blocked`` names interface variables that may not be
# promoted yet, and ``result`` sizes a candidate's resulting border
# (including any foreign interface a junction would pull in).


def _co_parents(bn: BayesianNetwork, xs, members) -> frozenset[int]:
    """``bn.set_co_parents(xs)`` in the subgraph induced by ``members``."""
    h = {p for v in xs for p in bn.parents[v] if p in members} - xs
    kids = {c for v in xs for c in bn.children(v) if c in members} - xs - h
    return frozenset({p for c in kids for p in bn.parents[c] if p in members} - xs - kids)


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
    if not roots:
        bn.topological_order()  # raises CycleError with a useful message
    for start in sorted(roots):
        current = frozenset({start})
        seen: set[frozenset[int]] = set()
        while current not in seen:
            seen.add(current)
            cops = _co_parents(bn, current, members)
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
                if not _co_parents(bn, frozenset(combo), members):
                    return frozenset(combo)
    return roots


def bottom_ancestors(bn: BayesianNetwork, seeds, bottom) -> frozenset[int]:
    return frozenset(reach(seeds, lambda v: bottom.intersection(bn.parents[v])))


def rule_candidates(bn, border, bottom, rule, blocked=frozenset()):
    """(promoted, cohort) candidates for one rule; empty list if inapplicable.
    Variables in ``blocked`` are never promoted."""
    out = []
    if rule in (1, 2, 3, 6):
        for v in border:
            if v in blocked:
                continue
            kids = set(bn.children(v)) & bottom
            if rule == 1:
                if not kids:
                    out.append((v, frozenset()))
            elif not kids:
                continue
            elif rule == 6:
                out.append((v, frozenset(kids) | bottom_ancestors(bn, kids, bottom)))
            else:
                cops = bn.co_parents(v) & bottom
                if rule == 2 and not cops:
                    out.append((v, frozenset(kids)))
                elif rule == 3 and cops and all(not (set(bn.parents[k]) & bottom) for k in cops):
                    out.append((v, frozenset(kids | cops)))
    elif rule == 4:
        for v in bottom:
            if bn.parents[v] and not (set(bn.parents[v]) & bottom):
                out.append((None, frozenset({v})))
    elif rule == 5:
        for v in bottom:
            if not bn.parents[v]:
                out.append((None, frozenset({v})))
    return out


def next_border(border, promoted, cohort) -> frozenset[int]:
    return (border - ({promoted} if promoted is not None else frozenset())) | cohort


def choose_next(
    bn: BayesianNetwork,
    border: frozenset[int],
    bottom,
    blocked=frozenset(),
    result=next_border,
) -> tuple[Optional[int], frozenset[int], int]:
    """First applicable rule in order 1..5; ties broken by the state-space
    size of the resulting border, ``result(border, promoted, cohort)``, then
    by lowest variable id.  A non-empty bottom part has a variable with no
    bottom parent (the network is acyclic), and that variable satisfies
    rule 4 or rule 5, so some rule always applies and rules 6 and 7 are
    never reached here (forced-order replay still uses rule 6)."""
    if not bottom:
        raise ValueError("bottom part is empty; chain is complete")
    for rule in range(1, 6):
        cands = rule_candidates(bn, border, bottom, rule, blocked)
        if not cands:
            continue

        def key(cand):
            promoted, cohort = cand
            size = math.prod(bn.card(v) for v in result(border, promoted, cohort))
            return (size, promoted if promoted is not None else min(cohort))

        promoted, cohort = min(cands, key=key)
        return promoted, cohort, rule
    raise BordertreeError("no applicable promotion rule")  # pragma: no cover


def _rule_for_forced(bn, border, bottom, promoted):
    if promoted not in border:
        raise BordertreeError(
            f"illegal forced promotion: {bn.name_of(promoted)} not in the border"
        )
    for rule in (1, 2, 3, 6):
        for cand_promoted, cohort in rule_candidates(bn, border, bottom, rule):
            if cand_promoted == promoted:
                return cohort, rule
    raise BordertreeError(
        f"illegal forced promotion: no rule admits {bn.name_of(promoted)}"
    )  # pragma: no cover


def cohort_table(bn: BayesianNetwork, cohort: frozenset[int], border: frozenset[int]) -> Factor:
    if not cohort:
        return Factor.scalar(1.0)
    hc = bn.set_parents(cohort)
    if not hc <= border:
        raise BordertreeError(
            f"cohort parents {bn.names(hc - border)} escape the border"
        )
    return contract_setup([bn.cpts[v] for v in sorted(cohort)], cohort | hc)


def build_chain(
    bn: BayesianNetwork, forced_order: Optional[Sequence[Optional[int]]] = None
) -> BorderChain:
    """Run the promotion loop to completion.

    ``forced_order`` replays a specific promotion sequence: entry 0 must be
    None (the initial fictitious step) and later entries name the promoted
    variable of each step.
    """
    b0 = initial_border(bn)
    phi0 = contract_setup([bn.cpts[v] for v in sorted(b0)], b0)
    steps = [ChainStep(0, None, frozenset(b0), frozenset(b0), phi0, None)]
    border = frozenset(b0)
    bottom = frozenset(bn.ids) - border

    if forced_order is not None:
        if not forced_order or forced_order[0] is not None:
            raise BordertreeError("forced order must start with the fictitious step")

    j = 0
    while bottom:
        j += 1
        if forced_order is not None:
            if j >= len(forced_order):
                raise BordertreeError("forced order ended before the chain completed")
            promoted = forced_order[j]
            if promoted is None:
                raise BordertreeError("fictitious steps beyond step 0 are not replayable")
            cohort, rule = _rule_for_forced(bn, border, bottom, promoted)
        else:
            promoted, cohort, rule = choose_next(bn, border, bottom)
        table = cohort_table(bn, cohort, border)
        border = next_border(border, promoted, cohort)
        bottom = bottom - cohort
        steps.append(ChainStep(j, promoted, cohort, border, table, rule))
    if forced_order is not None and j + 1 != len(forced_order):
        raise BordertreeError("forced order longer than the completed chain")
    return BorderChain(steps, bn)


# -- evidential passes ----------------------------------------------------


def evidence_steps(chain: BorderChain, ev) -> tuple[Optional[int], Optional[int]]:
    hits = [s.index for s in chain.steps if s.cohort & set(ev.vars)]
    if not hits:
        return None, None
    return min(hits), max(hits)


def downward_pass(chain: BorderChain, ev=NO_EVIDENCE) -> list[Factor]:
    """pi[j] has scope border(j); with no evidence it is the prior Pr{border}."""
    steps = chain.steps
    pi = [restrict(steps[0].cohort_table, ev)]
    for step in steps[1:]:
        pi.append(contract([restrict(step.cohort_table, ev), pi[-1]], step.border))
    return pi


def upward_pass(chain: BorderChain, ev=NO_EVIDENCE) -> list[Factor]:
    """lam[j] has scope within border(j); all-ones tails are kept trimmed."""
    bn = chain.source
    steps = chain.steps
    gamma = chain.gamma
    lam: list[Factor] = [Factor.scalar(1.0)] * (gamma + 1)
    lam[gamma] = indicator(
        sorted(steps[gamma].border), {v: bn.card(v) for v in steps[gamma].border}, ev
    )
    for j in range(gamma, 0, -1):
        step = steps[j]
        if step.cohort:
            lam[j - 1] = contract([restrict(step.cohort_table, ev), lam[j]], steps[j - 1].border)
        else:
            lam[j - 1] = lam[j]
    return lam


def run_passes(chain: BorderChain, ev=NO_EVIDENCE) -> PassResult:
    alpha, beta = evidence_steps(chain, ev)
    return PassResult(downward_pass(chain, ev), upward_pass(chain, ev), alpha, beta)


def chain_posterior(
    chain: BorderChain,
    ev,
    q: int,
    passes: Optional[PassResult] = None,
    j: Optional[int] = None,
) -> tuple[Factor, Factor, float]:
    """(unnormalized Pr{q,[evidence]}, posterior, evidence probability).

    Any border containing q gives the same answer; the lowest one is used
    unless ``j`` overrides it.
    """
    if passes is None:
        passes = run_passes(chain, ev)
    if j is None:
        j = chain.home_step(q)
    elif q not in chain.border(j):
        raise KeyError(f"variable {q} not in border {j}")
    unnorm = contract([passes.pi[j], passes.lam[j]], (q,))
    posterior, evidence_prob = normalize(unnorm)
    return unnorm, posterior, evidence_prob


def chain_rows(chain: BorderChain) -> list[dict]:
    """Structured rows for the chain dump (one per step)."""
    bn = chain.source
    rows = []
    for s in chain.steps:
        if s.cohort:
            hc = bn.set_parents(s.cohort)
            phi = ",".join(bn.names(s.cohort))
            if hc:
                phi += "|" + ",".join(bn.names(hc))
        else:
            phi = "1"
        rows.append(
            {
                "i": s.index,
                "V": bn.name_of(s.promoted) if s.promoted is not None else "-",
                "C": ",".join(bn.names(s.cohort)) if s.cohort else "-",
                "B": ",".join(bn.names(s.border)),
                "phi": phi,
                "rule": str(s.rule) if s.rule is not None else "-",
            }
        )
    return rows
