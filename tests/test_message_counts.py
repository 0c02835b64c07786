"""The paper's message-count claim, checked by counting.

A session sends one message per edge of its evidential core, toward the
pivot, and each query then adds one message per edge of the path from the
informed set out to the query's home: the node itself for the polytree
engine, its home border for the border polytree.  So the number of
messages grows with the core and the query paths, not with the network.
The reference counts below walk the same geometry with plain BFS
(``Tree.bfs_path``), apart from the session's index and schedules; counts
are pinned, not times.
"""

import numpy as np
import pytest

from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import BorderSession
from bordertree.network import EvidenceSet
from bordertree.polytree import PolytreeEngine
from bordertree.randgen import random_polytree

SIZES = (100, 400, 1600)
COUNTS = (1, 4, 16)  # observed variables, and queried variables


def inner_edges(tree, nodes):
    return sum(p in nodes and c in nodes for p, c in tree.edges)


def reference_hops(tree, pivots, homes):
    """Messages distribution adds for queries at ``homes``, in order: the
    path from each home toward its component's pivot, cut at its first
    informed node, whose nodes are then informed."""
    informed = [(tree.component_of(pv), {pv}) for pv in pivots]
    hops = 0
    for home in homes:
        for comp, done in informed:
            if home in comp:
                path = tree.bfs_path(home, next(iter(done)))
                cut = next(i for i, v in enumerate(path) if v in done)
                hops += cut
                done.update(path[:cut])
    return hops


@pytest.mark.parametrize("n", SIZES)
def test_messages_follow_core_and_query_paths(n):
    rng = np.random.default_rng(n)
    bn = random_polytree(rng, n, n, 3)
    engine = PolytreeEngine(bn)
    bp = build_border_polytree(bn)
    for n_ev in COUNTS:
        for n_q in COUNTS:
            observed = [int(v) for v in rng.choice(n, size=n_ev, replace=False)]
            ev = EvidenceSet(bn, {v: {0} for v in observed})
            queries = [int(q) for q in rng.choice(n, size=n_q, replace=False)]

            node = engine.session(ev)
            core = {observed[0]}
            for v in observed[1:]:
                core.update(engine.tree.bfs_path(observed[0], v))
            assert node.core_nodes == core
            assert node.collected == inner_edges(engine.tree, core)

            border = BorderSession(bp, ev)
            assert border.collected == inner_edges(bp.tree(), border.core_nodes)

            for session, homes in (
                (node, queries),
                (border, [bp.home_border(q) for q in queries]),
            ):
                for q in queries:
                    session.posterior(q)
                want = reference_hops(session.tree, session.pivots.values(), homes)
                assert session.distributed == want
                assert session.sent == session.collected + session.distributed
