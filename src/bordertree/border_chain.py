"""Border chains: stretch the whole network, then read π and λ of every border.

A chain step promotes one border variable (or a fictitious placeholder)
and recruits its cohort of bottom variables; the cohort table is the
product of the recruited CPTs.  A chain is stage II of
:mod:`bordertree.bp_build` on one parentless macro-node holding the whole
network: :func:`build_chain` runs that stretch loop (the promotion engine,
or a forced promotion order), keeps the resulting one-macro border
polytree as :attr:`BorderChain.view`, and reads its steps off the borders.
Its evidential passes are the messages of one
:class:`~bordertree.bp_infer.BorderSession` on that view, anchored at
border 0: λ messages collect from the last evidence border back to the
first border, π messages distribute down the whole chain.  π(j) carries
the evidence recruited at or before step j and λ(j) the evidence recruited
after it, so λ is 1 past the last evidence step, and any border containing
the query yields the same posterior.  A chain is read like every border
polytree, through the session's one read-out
(:meth:`~bordertree.messaging.TreeSession.posteriors`, at each variable's
border of the view's read cover): :func:`run_passes` returns the informed
session, and :func:`chain_posterior` reads its ``joint``, the posterior
times Pr(e).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bp_build import Border, BorderPolytree, MacroPolytree, _MacroStretcher
from .bp_infer import BorderSession
from .factor import Factor, normalize
from .network import NO_EVIDENCE, BayesianNetwork


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
    view: BorderPolytree  # the chain as a one-macro border polytree

    @property
    def gamma(self) -> int:
        return len(self.steps) - 1

    def border(self, j: int) -> frozenset[int]:
        return self.steps[j].border


def build_chain(
    bn: BayesianNetwork, forced_order: Optional[Sequence[Optional[int]]] = None
) -> BorderChain:
    """Stretch the whole network as one parentless macro-node.

    ``forced_order`` replays a specific promotion sequence: entry 0 must be
    None (the initial fictitious step) and later entries name the promoted
    variable of each step.  Only a one-macro stretch replays an order.  The
    stretch runs here rather than through ``stage2``, so the benchmark's
    tracer, which wraps ``stage2``, counts these borders as the chain's.
    """
    mp = MacroPolytree([tuple(bn.ids)], dict.fromkeys(bn.ids, 0), frozenset(), bn)
    borders: list[Border] = []
    _MacroStretcher(mp, borders, {}, 0).run(forced_order)
    view = BorderPolytree(borders, bn, mp)
    steps = [
        ChainStep(b.id, b.promoted, b.cohort, b.members, b.cohort_table, b.rule)
        for b in view.borders
    ]
    return BorderChain(steps, bn, view)


# -- evidential passes ----------------------------------------------------


def run_passes(chain: BorderChain, ev=NO_EVIDENCE) -> BorderSession:
    """The border session on the chain's view anchored at border 0, with
    every border informed: π(j) is ``pi_border(j)`` and λ(j) is
    ``lambda_border(j)``.  The view is a path from border 0, so informing
    the last border informs every border."""
    session = BorderSession(chain.view, ev, pivot=0)
    session.ensure_informed(chain.gamma)
    return session


def chain_posterior(
    chain: BorderChain, ev, q: int, passes: Optional[BorderSession] = None
) -> tuple[Factor, Factor, float]:
    """(unnormalized Pr{q,[evidence]}, posterior, evidence probability),
    read through the session's ``joint`` (``passes``, or the passes for
    ``ev``), which checks that the evidence is possible.
    """
    if passes is None:
        passes = run_passes(chain, ev)
    unnorm = passes.joint(q)
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
