"""Stage I (macro-node polytrees) and Stage II (border polytrees)."""

import itertools
import math

import numpy as np
import pytest

from bordertree.bp_build import (
    Border,
    BorderPolytree,
    MacroPolytree,
    aggregation_closure,
    build_border_polytree,
    stage1,
    stage2,
    verify_bp,
    verify_macro_polytree,
)
from bordertree.bnformat import parse_evidence
from bordertree.bp_infer import BorderSession, preload_priors
from bordertree.border_chain import build_chain, chain_rows
from bordertree.messaging import UnionFind
from bordertree.network import EvidenceSet
from bordertree.randgen import random_dag, random_polytree
from bordertree import zoo

from conftest import chain_ab, descendants, dyspnoea_shaped, load_fixture


def group_names(bn, mp):
    return {tuple(bn.names(g)) for g in mp.groups}


def errors(bp):
    return [d for d in verify_bp(bp) if d.severity == "error"]


def fixpoint_closure(bn, seed):
    """Reference aggregation closure: absorb the interiors of directed paths
    between members until nothing changes."""
    members = set(seed)
    desc = {v: descendants(bn, v) for v in bn.ids}
    anc = {v: bn.ancestors(v) for v in bn.ids}
    while True:
        add = set()
        for u in members:
            for v in members:
                if u != v and v in desc[u]:
                    add |= (desc[u] & anc[v]) - members
        if not add:
            return frozenset(members)
        members |= add


def reference_stage1(bn):
    """Stage I as first written: the quotient adjacency rebuilt from every
    active edge, a BFS for the loop's path in it, and a DFS of the whole
    quotient for the cycles left after each merge."""
    macro_of, members, active, fresh = {}, {}, set(), itertools.count()

    def merge(mids):
        keep = min(mids)
        for m in set(mids) - {keep}:
            for v in members[m]:
                macro_of[v] = keep
            members[keep] |= members.pop(m)
        return keep

    def adjacency():
        adj = {m: set() for m in members}
        for p, c in active:
            a, b = macro_of[p], macro_of[c]
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return adj

    def path(start, goal):
        adj, prev, queue = adjacency(), {start: start}, [start]
        while queue:
            v = queue.pop(0)
            for u in sorted(adj[v]):
                if u in prev:
                    continue
                prev[u] = v
                if u == goal:
                    out = [goal]
                    while out[-1] != start:
                        out.append(prev[out[-1]])
                    return out[::-1]
                queue.append(u)
        return None

    def find_cycle():
        directed = set()
        for p, c in active:
            a, b = macro_of[p], macro_of[c]
            if a != b:
                if (b, a) in directed:
                    return [a, b]
                directed.add((a, b))
        adj, seen = adjacency(), set()
        for start in sorted(adj):
            if start in seen:
                continue
            stack, prev = [(start, None)], {start: None}
            while stack:
                v, came = stack.pop()
                seen.add(v)
                for u in sorted(adj[v]):
                    if u == came:
                        continue
                    if u in prev:
                        av, au, x = [v], [u], v
                        while prev[x] is not None:
                            x = prev[x]
                            av.append(x)
                        x = u
                        while x not in av:
                            x = prev[x]
                            au.append(x)
                        return av[: av.index(au[-1]) + 1] + au[-2::-1]
                    prev[u] = v
                    stack.append((u, v))
        return None

    def state_space(vars):
        return math.prod(bn.card(v) for v in vars)

    def absorb(blob, tau):
        blob = merge(blob)
        while True:
            touched = {macro_of[v] for v in aggregation_closure(bn, members[blob])}
            if touched != {blob}:
                blob = merge(touched)
                continue
            cycle = find_cycle()
            if cycle is None:
                return
            assert blob in cycle
            cands = [m for m in cycle if m not in (blob, macro_of[tau])]
            cands = cands or [m for m in cycle if m != blob]

            def score(m):
                trial = aggregation_closure(bn, members[blob] | members[m])
                return (state_space(trial), min(members[m]))

            blob = merge({blob, min(cands, key=score)})

    linked = UnionFind()
    for tau in bn.topological_order():
        macro_of[tau] = next(fresh)
        members[macro_of[tau]] = {tau}
        for p in sorted(bn.parents[tau]):
            mp, mt = macro_of[p], macro_of[tau]
            loop = not linked.union(p, tau) and mp != mt
            route = path(mp, mt) if loop else None
            active.add((p, tau))
            if route is not None:
                absorb({mp, route[-2]}, tau)
    groups = [tuple(sorted(g)) for g in sorted(members.values(), key=min)]
    membership = {v: i for i, g in enumerate(groups) for v in g}
    edges = {
        (membership[p], membership[v])
        for v in bn.ids
        for p in bn.parents[v]
        if membership[p] != membership[v]
    }
    return MacroPolytree(groups, membership, frozenset(edges), bn)


def structure(mp):
    return mp.groups, sorted(mp.membership.items()), sorted(mp.edges)


def windowed_dag(rng, n, window, max_parents):
    """Binary DAG whose node i draws its parents from the ``window`` nodes
    just before it: many undirected loops at a bounded width."""
    spec = []
    for i in range(n):
        pool = list(range(max(0, i - window), i))
        rng.shuffle(pool)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        spec.append((f"v{i}", 2, [f"v{p}" for p in sorted(pool[:k])]))
    return zoo.build_network(spec, rng)


def grid(rows, cols):
    """Binary grid, parents up and left."""
    name = lambda r, c: f"g{r}_{c}"
    spec = [
        (name(r, c), 2, [name(r - 1, c)] * (r > 0) + [name(r, c - 1)] * (c > 0))
        for r in range(rows)
        for c in range(cols)
    ]
    return zoo.build_network(spec, np.random.default_rng(0))


class TestAggregationClosure:
    def test_matches_fixpoint_reference(self, rng):
        for _ in range(200):
            bn = random_dag(rng, 3, 14, 2)
            k = int(rng.integers(1, min(5, len(bn)) + 1))
            seed = [int(v) for v in rng.choice(len(bn), size=k, replace=False)]
            assert aggregation_closure(bn, seed) == fixpoint_closure(bn, seed)

    def test_absorbs_path_interiors(self, bn_a):
        seed = {bn_a.id_of("A"), bn_a.id_of("H")}
        got = aggregation_closure(bn_a, seed)
        assert set(bn_a.names(got)) == {"A", "C", "D", "H"}

    def test_closed_seed_unchanged(self, bn_a):
        seed = frozenset({bn_a.id_of("J"), bn_a.id_of("K")})
        assert aggregation_closure(bn_a, seed) == seed

    def test_quotient_stays_acyclic(self, rng):
        for _ in range(25):
            bn = random_dag(rng, 4, 10, 2)
            vs = sorted(
                int(v) for v in rng.choice(len(bn), size=min(3, len(bn)), replace=False)
            )
            closed = aggregation_closure(bn, vs)
            # contract `closed` to one node and look for a directed cycle
            rep = {v: (-1 if v in closed else v) for v in bn.ids}
            edges = {
                (rep[p], rep[v])
                for v in bn.ids
                for p in bn.parents[v]
                if rep[p] != rep[v]
            }
            nodes = set(rep.values())
            indeg = {n: 0 for n in nodes}
            for _, b in edges:
                indeg[b] += 1
            ready = [n for n in nodes if indeg[n] == 0]
            seen = 0
            while ready:
                n = ready.pop()
                seen += 1
                for a, b in edges:
                    if a == n:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            ready.append(b)
            assert seen == len(nodes)


class TestStage1:
    def test_bn_c_partition(self, bn_c):
        mp = stage1(bn_c)
        got = group_names(bn_c, mp)
        assert ("M", "N", "Q", "S", "U", "V") in got  # the big upstream macro
        assert ("P", "D", "F", "H", "O") in got  # the downstream macro
        assert ("B", "C") in got and ("X", "Y") in got
        singles = {g for g in got if len(g) == 1}
        assert singles == {("A",), ("G",), ("K",), ("L",), ("R",), ("T",), ("Z",), ("I",), ("J",)}
        assert verify_macro_polytree(mp) == []

    def test_polytree_input_gives_singletons(self, rng):
        for _ in range(10):
            bn = random_polytree(rng, 4, 10, 3)
            mp = stage1(bn)
            assert all(len(g) == 1 for g in mp.groups)
            assert verify_macro_polytree(mp) == []

    def test_bn_a_partition_is_sound(self, bn_a):
        mp = stage1(bn_a)
        assert verify_macro_polytree(mp) == []
        # contracting each macro leaves a forest
        assert len(mp.edges) == len(mp.groups) - 1  # BN A is connected

    def test_random_dags_invariants(self, rng):
        for _ in range(60):
            bn = random_dag(rng, 3, 12, 3)
            mp = stage1(bn)
            assert verify_macro_polytree(mp) == []

    def test_interface_table_matches_per_pair_scan(self):
        def scan(mp, gp, gc):
            """Members of gp that parent some member of gc."""
            out = set()
            for v in mp.groups[gc]:
                out.update(p for p in mp.source.parents[v] if mp.membership[p] == gp)
            return frozenset(out)

        rng = np.random.default_rng(11)
        nets = [load_fixture(name) for name in ("bn_a", "polytree_b", "bn_c")]
        nets += [random_dag(rng, 3, 16, 3) for _ in range(200)]
        for bn in nets:
            mp = stage1(bn)
            assert set(mp.interfaces) == mp.edges
            for (gp, gc), s in mp.interfaces.items():
                assert s == scan(mp, gp, gc)


class TestStage1MatchesReference:
    """Stage I's groups, membership and quotient edges equal the reference's
    byte for byte."""

    def check(self, bn):
        mp = stage1(bn)
        assert structure(mp) == structure(reference_stage1(bn))
        assert verify_macro_polytree(mp) == []

    def test_fixtures_and_zoo(self):
        for name in ("bn_a", "polytree_b", "bn_c"):
            self.check(load_fixture(name))
        for make in (dyspnoea_shaped, chain_ab):
            self.check(make())

    def test_random_dags(self):
        rng = np.random.default_rng(2024)
        for _ in range(1500):
            self.check(random_dag(rng, 3, 16, 2, max_parents=int(rng.integers(2, 5))))

    def test_windowed_dags(self):
        rng = np.random.default_rng(6)
        for n in (20, 40, 80, 160):
            for window in (3, 4, 6, 8):
                for max_parents in (2, 3):
                    self.check(windowed_dag(rng, n, window, max_parents))

    def test_grids(self):
        for rows in range(2, 13):
            for cols in range(2, 13):
                self.check(grid(rows, cols))


class TestStage2:
    def test_bn_c_critical_borders(self, bn_c, bp_c):
        borders = {frozenset(bn_c.names(b.members)) for b in bp_c.borders}
        for expect in [
            {"N", "P", "Q"},
            {"N", "P"},
            {"B", "C", "G", "N", "P"},
            {"B", "C", "G", "O", "P"},
            {"B", "C", "O", "P"},
            {"B", "F", "O", "P"},
            {"M", "N", "Q"},
            {"M", "N", "U", "V"},
        ]:
            assert frozenset(expect) in borders, expect

    def test_bn_c_junction_structure(self, bn_c, bp_c):
        # The junction border {B,C,G,N,P} carries {N,P} from its own chain
        # plus the interfaces {B,C} and {G}, then N is promoted with cohort O.
        junction = next(
            b
            for b in bp_c.borders
            if b.members == frozenset(bn_c.id_of(n) for n in "BCGNP")
        )
        assert junction.kind == "type2"
        carried = {frozenset(bn_c.names(s)) for s in junction.carried}
        assert carried == {
            frozenset({"N", "P"}),
            frozenset({"B", "C"}),
            frozenset({"G"}),
        }
        child = next(
            b for b in bp_c.borders if b.parents and b.parents[0] == junction.id
        )
        assert child.kind == "type1"
        assert bn_c.name_of(child.promoted) == "N"
        assert bn_c.names(child.cohort) == ("O",)
        assert child.cohort_table.scope == tuple(
            sorted(bn_c.id_of(n) for n in "CGNO")
        )

    def test_bn_c_chain_start_continues_from_interface(self, bn_c, bp_c):
        # The downstream macro starts from the recorded interface border
        # {M,N,Q} of the upstream macro: one cross-macro type-1 edge.
        first = next(
            b
            for b in bp_c.borders
            if b.members == frozenset(bn_c.id_of(n) for n in "NPQ")
        )
        assert first.kind == "type1"
        assert bn_c.name_of(first.promoted) == "M"
        parent = bp_c.borders[first.parents[0]]
        assert parent.members == frozenset(bn_c.id_of(n) for n in "MNQ")
        assert parent.owner != first.owner

    def test_single_variable_macro_single_border(self, rng):
        bn = zoo.build_network([("solo", 3, [])], rng)
        bp = build_border_polytree(bn)
        assert len(bp.borders) == 1
        assert bp.borders[0].members == {0}
        assert not errors(bp)

    def test_rule10_no_recruiting_into_child_macro(self, bn_c, bp_c):
        mp = bp_c.macro
        for b in bp_c.borders:
            if b.kind != "type1":
                continue
            for v in b.cohort:
                assert mp.membership[v] == b.owner or not bn_c.parents[v]


    def test_child_parenting_a_sibling_blocks_rule_2(self):
        # In the upstream macro a's children b, c, d are all unrecruited, and
        # b parents c, c parents d.  Like the chain, stage II counts b and c
        # as bottom co-parents of a: a is not promoted at once with cohort
        # b,c,d (rule 2); b is recruited alone (rule 4), then a is promoted
        # with cohort c,d (rule 3).
        bn = zoo.build_network(
            [
                ("a", 2, []),
                ("b", 2, ["a"]),
                ("c", 2, ["a", "b"]),
                ("d", 2, ["a", "c"]),
                ("e", 2, ["b", "d"]),
            ]
        )
        bp = build_border_polytree(bn)
        assert not errors(bp)
        upstream = bp.macro.membership[bn.id_of("a")]
        stretched = [b.members for b in bp.borders if b.owner == upstream]
        assert [set(bn.names(m)) for m in stretched] == [{"a"}, {"a", "b"}, {"b", "c", "d"}]
        chain = build_chain(bn)
        assert stretched == [s.border for s in chain.steps[:3]]
        assert [r["rule"] for r in chain_rows(chain)[1:3]] == ["4", "3"]


# describe() rows of the fixtures' border polytrees and the default pivot of
# a session observing each single variable (value 0).
PINNED = {
    "bn_a": (
        [
            (0, "type1", "A", 0, "-", "-", "A"),
            (1, "type1", "A,B", 0, "0", "-", "B"),
            (2, "type1", "B,C,D,F", 1, "1", "A", "C,D,F"),
            (3, "type1", "G", 2, "-", "-", "G"),
            (4, "type2", "C,D,F", 3, "2", "-", "-"),
            (5, "type1", "D,F,H", 3, "4", "C", "H"),
            (6, "type1", "F,H,I", 3, "5", "D", "I"),
            (7, "type2", "G,H", 4, "3,5", "-", "-"),
            (8, "type1", "H,J", 4, "7", "G", "J"),
            (9, "type2", "H,I", 5, "6", "-", "-"),
            (10, "type1", "I,K", 5, "9", "H", "K"),
            (11, "type2", "I", 6, "6", "-", "-"),
            (12, "type1", "L", 6, "11", "I", "L"),
        ],
        "A:0 B:1 C:2 D:2 F:2 G:3 H:5 I:6 J:8 K:10 L:12",
    ),
    "polytree_b": (
        [
            (0, "type1", "A", 0, "-", "-", "A"),
            (1, "type1", "B", 1, "0", "A", "B"),
            (2, "type1", "K", 7, "-", "-", "K"),
            (3, "type1", "L3", 9, "-", "-", "L3"),
            (4, "type1", "C", 2, "3", "L3", "C"),
            (5, "type2", "A,C", 3, "0,4", "-", "-"),
            (6, "type1", "C,D", 3, "5", "A", "D"),
            (7, "type1", "H", 4, "4", "C", "H"),
            (8, "type1", "L4", 10, "7", "H", "L4"),
            (9, "type2", "D,K", 13, "2,6", "-", "-"),
            (10, "type1", "K,M", 13, "9", "D", "M"),
            (11, "type1", "P", 15, "-", "-", "P"),
            (12, "type2", "M,P", 5, "10,11", "-", "-"),
            (13, "type1", "I,P", 5, "12", "M", "I"),
            (14, "type2", "I", 6, "13", "-", "-"),
            (15, "type1", "J", 6, "14", "I", "J"),
            (16, "type1", "L1", 8, "15", "J", "L1"),
            (17, "type1", "R8", 16, "3", "L3", "R8"),
            (18, "type1", "R12", 17, "-", "-", "R12"),
            (19, "type2", "D,R12", 14, "6,18", "-", "-"),
            (20, "type1", "N,R12", 14, "19", "D", "N"),
            (21, "type2", "N", 11, "20", "-", "-"),
            (22, "type1", "L9", 11, "21", "N", "L9"),
            (23, "type2", "N", 12, "20", "-", "-"),
            (24, "type1", "L10", 12, "23", "N", "L10"),
        ],
        "A:0 B:1 C:4 D:6 H:7 I:13 J:15 K:2 L1:16 L3:3 L4:8 L9:22 L10:24 M:10 N:20 "
        "P:11 R8:17 R12:18",
    ),
    "bn_c": (
        [
            (0, "type1", "A", 0, "-", "-", "A"),
            (1, "type1", "B,C", 1, "0", "A", "B,C"),
            (2, "type1", "G", 2, "-", "-", "G"),
            (3, "type1", "K", 3, "-", "-", "K"),
            (4, "type1", "L", 4, "3", "K", "L"),
            (5, "type1", "R", 7, "-", "-", "R"),
            (6, "type1", "T", 8, "-", "-", "T"),
            (7, "type2", "L,R,T", 5, "4,5,6", "-", "-"),
            (8, "type1", "N,R,S,T", 5, "7", "L", "N,S"),
            (9, "type1", "N,S,T,U", 5, "8", "R", "U"),
            (10, "type1", "M,N,T,U", 5, "9", "S", "M"),
            (11, "type1", "M,N,U,V", 5, "10", "T", "V"),
            (12, "type1", "M,N,U", 5, "11", "V", "-"),
            (13, "type1", "M,N,Q", 5, "12", "U", "Q"),
            (14, "type1", "N,P,Q", 6, "13", "M", "P"),
            (15, "type1", "N,P", 6, "14", "Q", "-"),
            (16, "type2", "B,C,G,N,P", 6, "15,1,2", "-", "-"),
            (17, "type1", "B,C,G,P,O", 6, "16", "N", "O"),
            (18, "type1", "B,C,P,O", 6, "17", "G", "-"),
            (19, "type1", "B,P,F,O", 6, "18", "C", "F"),
            (20, "type1", "B,F,O", 6, "19", "P", "-"),
            (21, "type1", "B,F", 6, "20", "O", "-"),
            (22, "type1", "D,F", 6, "21", "B", "D"),
            (23, "type1", "F,H", 6, "22", "D", "H"),
            (24, "type2", "U,V", 9, "11", "-", "-"),
            (25, "type1", "V,X", 9, "24", "U", "X"),
            (26, "type1", "X,Y", 9, "25", "V", "Y"),
            (27, "type1", "Y,Z", 10, "26", "X", "Z"),
            (28, "type1", "H,I", 11, "23", "F", "I"),
            (29, "type2", "P,F,O", 12, "19", "-", "-"),
            (30, "type1", "F,O,J", 12, "29", "P", "J"),
        ],
        "A:0 B:1 C:1 G:2 K:3 L:4 M:10 N:8 P:14 Q:13 D:22 F:19 H:23 O:17 R:5 S:8 "
        "T:6 U:9 V:11 X:25 Y:26 Z:27 I:28 J:30",
    ),
}


class TestPinnedFixtures:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_border_rows_and_default_pivots(self, name):
        bn = load_fixture(name)
        bp = build_border_polytree(bn)
        preload_priors(bp)
        rows, pivots = PINNED[name]
        assert [tuple(r.values()) for r in bp.describe()] == rows
        got = []
        for v in bn.ids:
            session = BorderSession(bp, EvidenceSet(bn, {v: {0}}))
            (pivot,) = session.pivots.values()
            got.append(f"{bn.name_of(v)}:{pivot}")
        assert " ".join(got) == pivots

    def test_fixture_evidence_pivots(self):
        for name, ev, pivot, core in [
            ("bn_a", "H=h0,K=k1", 9, [9, 10]),
            ("bn_c", "B=b0,O=o1,Q=q0", 17, [14, 15, 16, 17]),
        ]:
            bn = load_fixture(name)
            bp = build_border_polytree(bn)
            preload_priors(bp)
            session = BorderSession(bp, parse_evidence(ev, bn))
            assert session.pivots == {0: pivot}
            assert sorted(session.core_nodes) == core


class TestVerifyBp:
    def test_bn_c_passes(self, bp_c):
        assert not errors(bp_c)

    def test_dyspnoea_shape(self):
        bn = dyspnoea_shaped()
        bp = build_border_polytree(bn)
        assert verify_macro_polytree(bp.macro) == []
        assert not errors(bp)
        bp.tree()  # singly connected (raises otherwise)

    def test_re_recruited_variable_flagged(self, bn_a):
        chain = build_chain(bn_a)
        bp = chain.view
        assert not errors(bp)
        # Re-recruit variable 0 into a fresh border after its promotion.
        members = frozenset({0}) | bp.borders[-1].members
        bad = bp.borders + [
            Border(
                id=len(bp.borders),
                members=members,
                kind="type1",
                owner=0,
                parents=(len(bp.borders) - 1,),
                promoted=None,
                cohort=frozenset({0}),
                cohort_table=bn_a.cpts[0],
            )
        ]
        broken = BorderPolytree(bad, bn_a, bp.macro)
        codes = {d.code for d in errors(broken)}
        assert "running-intersection" in codes

    def test_fuzz_stage1_stage2(self, rng):
        for _ in range(100):
            bn = random_dag(rng, 3, 12, 3)
            mp = stage1(bn)
            assert verify_macro_polytree(mp) == []
            bp = stage2(mp)
            assert not errors(bp)
            # The parents of a junction border share no variable, so
            # marginalizing each parent's π on its own loses nothing.
            for b in bp.borders:
                if b.kind == "type2":
                    held = [bp.borders[pid].members for pid in b.parents]
                    assert sum(map(len, held)) == len(frozenset().union(*held))


def test_chain_view_is_valid_bp(bn_a):
    chain = build_chain(bn_a)
    bp = chain.view
    assert not errors(bp)
    assert len(bp.borders) == chain.gamma + 1
