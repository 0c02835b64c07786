"""Tree machinery: hub paths, evidential cores, schedules, gates."""

import itertools

import pytest

from bordertree.errors import BordertreeError, NotSinglyConnectedError
from bordertree.messaging import (
    Tree,
    UnionFind,
    build_hub_index,
    collection_schedule,
    default_pivot,
    distribution_schedule,
    evidential_core,
    smallest_hitting_core,
    tree_path,
)
from bordertree.randgen import random_polytree


def tree_of(bn):
    return Tree(len(bn), [(p, v) for v in bn.ids for p in bn.parents[v]])


def random_tree(rng, n):
    edges = []
    for i in range(1, n):
        other = int(rng.integers(0, i))
        edges.append((other, i) if rng.random() < 0.5 else (i, other))
    return Tree(n, edges)


def random_group(rng, tree, size):
    """A connected node set of up to ``size`` nodes, grown from a random node."""
    group = {int(rng.integers(0, len(tree.nodes)))}
    while len(group) < size:
        rim = sorted({u for v in group for u in tree.neighbors[v]} - group)
        if not rim:
            break
        group.add(int(rng.choice(rim)))
    return group


def path_union_core(tree, marked):
    """Reference core for single nodes: the union of the paths from one
    marked node to every other."""
    nodes = {marked[0]}
    for m in marked[1:]:
        nodes.update(tree.bfs_path(marked[0], m))
    return nodes


def enumeration_core(tree, groups):
    """Reference core for groups: the span of every choice of one member per
    group, the least by (size, node tuple) kept."""
    best = None
    for combo in itertools.product(*[sorted(g, key=str) for g in groups]):
        nodes = {combo[0]}
        for m in combo[1:]:
            nodes.update(tree.path(combo[0], m))
        key = (len(nodes), tuple(sorted(nodes, key=str)))
        if best is None or key < best[0]:
            best = (key, nodes)
    return best[1]


class TestTree:
    def test_rejects_undirected_cycle(self):
        with pytest.raises(NotSinglyConnectedError):
            Tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_parallel_edge(self):
        with pytest.raises(NotSinglyConnectedError):
            Tree(2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edges", [[(1, 1)], [(0, 1), (0, 1)]], ids=["self-loop", "repeated-edge"])
    def test_rejects_self_loop_and_repeated_edge(self, edges):
        with pytest.raises(NotSinglyConnectedError):
            Tree(2, edges)

    def test_cycle_error_names_a_node_on_the_cycle(self):
        # 1-2-3-1 is the cycle; 0 and 4 hang off it.
        with pytest.raises(NotSinglyConnectedError, match=r"through [123]$"):
            Tree(5, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 0)])

    @pytest.mark.parametrize("edge", [(0, 2), (-1, 0), ("a", 0)])
    def test_unknown_node_is_a_value_error(self, edge):
        with pytest.raises(ValueError, match="unknown node"):
            Tree(2, [edge])

    def test_union_find_reports_first_join_only(self):
        linked = UnionFind()
        assert linked.union(0, 1) and linked.union(2, 3) and linked.union(1, 3)
        assert not linked.union(0, 2)
        assert linked.find(0) == linked.find(3) != linked.find(4)

    def test_disconnected_pair(self):
        t = Tree(4, [(0, 1), (2, 3)])
        with pytest.raises(BordertreeError, match="disconnected"):
            t.bfs_path(0, 3)
        assert t.component_of(0) == {0, 1}


def two_component_forest():
    # 0-1-2-3 with 1-4, and 5-6-7 with 6-8, as a directed forest
    return Tree(9, [(1, 0), (1, 2), (3, 2), (4, 1), (5, 6), (6, 7), (8, 6)])


def side_by_dfs(tree, a, b):
    """a's component of the tree minus edge (a, b), by plain DFS."""
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        for u in tree.neighbors[v]:
            if {v, u} != {a, b} and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


class TestTreeIndex:
    def trees(self, rng):
        yield two_component_forest()
        for _ in range(20):
            yield random_tree(rng, int(rng.integers(1, 18)))

    def test_path_equals_bfs_for_all_pairs(self, rng):
        for tree in self.trees(rng):
            for x in tree.nodes:
                for y in tree.nodes:
                    if tree.comp[x] == tree.comp[y]:
                        assert tree.path(x, y) == tree.bfs_path(x, y)

    def test_side_test_equals_dfs(self, rng):
        for tree in self.trees(rng):
            for p, c in tree.edges:
                for a, b in ((p, c), (c, p)):
                    side = side_by_dfs(tree, a, b)
                    for x in tree.nodes:
                        assert tree.on_side(a, b, x) == (x in side)

    def test_component_id_is_least_node(self, rng):
        for tree in self.trees(rng):
            for v in tree.nodes:
                comp = tree.component_of(v)
                assert tree.comp[v] == min(comp)
                assert set(tree.members[min(comp)]) == comp

    def test_rooted_parent_and_depth_follow_bfs(self, rng):
        for tree in self.trees(rng):
            for v in tree.nodes:
                path = tree.bfs_path(tree.comp[v], v)  # root ... v
                assert tree.depth[v] == len(path) - 1
                assert tree.up[v] == (path[-2] if len(path) > 1 else None)

    def test_disconnected_pair_raises(self):
        tree = two_component_forest()
        for x, y in ((0, 5), (7, 3), (4, 8)):
            with pytest.raises(BordertreeError, match="disconnected"):
                tree.path(x, y)

    def test_border_polytree_shares_one_tree_and_index(self, bp_c):
        tree = bp_c.tree()
        assert bp_c.tree() is tree


class TestHubPaths:
    def test_fixture_path(self, poly_b):
        tree = tree_of(poly_b)
        index = build_hub_index(tree, hubs=[poly_b.id_of("J"), poly_b.id_of("H")])
        path = tree_path(tree, index, poly_b.id_of("P"), poly_b.id_of("A"))
        assert [poly_b.name_of(v) for v in path] == ["P", "I", "M", "D", "A"]

    def test_hub_to_hub_preload(self, poly_b):
        tree = tree_of(poly_b)
        j, h = poly_b.id_of("J"), poly_b.id_of("H")
        index = build_hub_index(tree, hubs=[j, h])
        between = index.hub_paths[(j, h)]
        assert [poly_b.name_of(v) for v in between] == ["I", "M", "D", "C"]

    def test_path_to_self(self, poly_b):
        tree = tree_of(poly_b)
        x = poly_b.id_of("D")
        assert tree_path(tree, build_hub_index(tree), x, x) == [x]

    def test_random_polytrees_match_bfs(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 16))
            tree = random_tree(rng, n)
            k = int(rng.integers(1, n + 1))
            hubs = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
            index = build_hub_index(tree, hubs=hubs)
            for _ in range(6):
                x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
                assert tree_path(tree, index, x, y) == tree.bfs_path(x, y)

    def test_auto_hub_selection_spreads(self, poly_b):
        tree = tree_of(poly_b)
        index = build_hub_index(tree)
        assert 1 <= len(index.hubs) <= len(poly_b)
        assert set(index.nearest) == set(tree.nodes)


class TestEvidentialCore:
    def test_fixture_roots_and_leaves(self, poly_b):
        tree = tree_of(poly_b)
        marked = [poly_b.id_of(x) for x in ("B", "C", "K", "L4")]
        core = evidential_core(tree, marked)
        assert set(poly_b.names(core.roots)) == {"K", "A", "C"}
        assert set(poly_b.names(core.leaves)) == {"B", "L4", "M"}
        # Every undirected endpoint of the core is an evidence node.
        degree = {v: sum(v in e for e in core.edges) for v in core.nodes}
        assert {v for v, d in degree.items() if d <= 1} <= set(marked)

    def test_single_marked_node(self, poly_b):
        tree = tree_of(poly_b)
        x = poly_b.id_of("D")
        core = evidential_core(tree, [x])
        assert core.nodes == {x} and not core.edges

    def test_pruning_equals_path_union(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 14))
            tree = random_tree(rng, n)
            k = int(rng.integers(1, n + 1))
            marked = [int(v) for v in rng.choice(n, size=k, replace=False)]
            core = evidential_core(tree, marked)
            nodes = path_union_core(tree, marked)
            assert core.nodes == nodes
            assert core.edges == {(p, c) for p, c in tree.edges if {p, c} <= nodes}

    def test_marked_must_be_nonempty(self, poly_b):
        with pytest.raises(ValueError):
            evidential_core(tree_of(poly_b), [])


class TestCollectionSchedule:
    def test_fixture_pivot_d(self, poly_b):
        tree = tree_of(poly_b)
        marked = [poly_b.id_of(x) for x in ("B", "C", "K", "L4")]
        core = evidential_core(tree, marked)
        d = poly_b.id_of("D")
        sched = collection_schedule(tree, core, d)
        assert len(sched) == len(core.edges) == 7
        hops = {
            (poly_b.name_of(src), poly_b.name_of(dst)) for src, dst in sched
        }
        assert hops == {
            ("B", "A"), ("A", "D"),
            ("L4", "H"), ("H", "C"), ("C", "D"),
            ("K", "M"), ("M", "D"),
        }
        # Each message runs along one tree edge, in one of its orientations.
        for src, dst in sched:
            assert tree.has_edge(src, dst) != tree.has_edge(dst, src)

    def test_pivot_is_sole_core_node(self, poly_b):
        tree = tree_of(poly_b)
        x = poly_b.id_of("C")
        core = evidential_core(tree, [x])
        assert len(collection_schedule(tree, core, x)) == 0

    def test_prerequisites_precede(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 14))
            tree = random_tree(rng, n)
            k = int(rng.integers(2, n + 1))
            marked = [int(v) for v in rng.choice(n, size=k, replace=False)]
            core = evidential_core(tree, marked)
            pivot = sorted(core.nodes)[0]
            sched = collection_schedule(tree, core, pivot)
            assert len(sched) == len(core.edges)
            done = set()
            for src, dst in sched:
                # every other core neighbor of the source has already sent
                for nb in tree.neighbors[src]:
                    if nb != dst and nb in core.nodes:
                        assert (nb, src) in done
                done.add((src, dst))

    def test_pivot_outside_core_rejected(self, poly_b):
        tree = tree_of(poly_b)
        core = evidential_core(tree, [poly_b.id_of("B")])
        with pytest.raises(BordertreeError, match="outside"):
            collection_schedule(tree, core, poly_b.id_of("K"))


def top_of(tree, informed):
    """The informed node of least depth."""
    return min(informed, key=tree.depth.__getitem__)


class TestDistribution:
    def test_fixture_gate(self, poly_b):
        tree = tree_of(poly_b)
        informed = {poly_b.id_of(x) for x in ("D", "C", "H")}
        target = poly_b.id_of("R8")
        gate, sched = distribution_schedule(tree, informed, target, top_of(tree, informed))
        assert poly_b.name_of(gate) == "C"
        hops = [(poly_b.name_of(src), poly_b.name_of(dst)) for src, dst in sched]
        assert hops == [("C", "L3"), ("L3", "R8")]

    def test_target_already_informed(self, poly_b):
        tree = tree_of(poly_b)
        d = poly_b.id_of("D")
        gate, sched = distribution_schedule(tree, {d}, d, d)
        assert gate == d and len(sched) == 0

    def test_informed_set_stays_connected(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 14))
            tree = random_tree(rng, n)
            informed = {int(rng.integers(0, n))}
            order = list(rng.permutation(n))
            for target in order:
                gate, sched = distribution_schedule(tree, informed, int(target), top_of(tree, informed))
                assert gate in informed or gate == target
                for src, dst in sched:
                    informed.add(src)
                    informed.add(dst)
                informed.add(int(target))
                # connectivity: BFS within informed reaches all of it
                seen = {next(iter(informed))}
                stack = list(seen)
                while stack:
                    v = stack.pop()
                    for u in tree.neighbors[v]:
                        if u in informed and u not in seen:
                            seen.add(u)
                            stack.append(u)
                assert seen == informed

    def test_gate_is_nearest_informed_node(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 14))
            tree = random_tree(rng, n)
            seed = int(rng.integers(0, n))
            informed = set(tree.bfs_path(seed, int(rng.integers(0, n))))
            target = int(rng.integers(0, n))
            gate, sched = distribution_schedule(tree, informed, target, top_of(tree, informed))
            dist = {v: len(tree.bfs_path(target, v)) for v in informed}
            assert dist.get(gate, 1) == min(dist.values() or [1])
            path = tree.bfs_path(gate, target)
            assert [(src, dst) for src, dst in sched] == list(zip(path, path[1:]))

    def test_no_message_resent_per_direction(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            tree = random_tree(rng, n)
            informed = {0}
            sent = set()
            for target in rng.permutation(n):
                _, sched = distribution_schedule(tree, informed, int(target), top_of(tree, informed))
                for src, dst in sched:
                    assert (src, dst) not in sent
                    sent.add((src, dst))
                    informed.add(dst)
                informed.add(int(target))


class TestHittingCore:
    def test_matches_brute_force_minimum(self, rng):
        import itertools

        for _ in range(25):
            n = int(rng.integers(2, 9))
            tree = random_tree(rng, n)
            comp = sorted(tree.component_of(0))
            g_count = int(rng.integers(1, 4))
            groups = []
            for _ in range(g_count):
                anchor = int(rng.choice(comp))
                reach = int(rng.integers(1, 4))
                grp = {anchor}
                frontier = [anchor]
                for _ in range(reach):
                    nxt = []
                    for v in frontier:
                        for u in tree.neighbors[v]:
                            if u in comp and u not in grp:
                                grp.add(u)
                                nxt.append(u)
                    frontier = nxt
                groups.append(grp)
            core = smallest_hitting_core(tree, groups)
            # brute force: smallest connected node set hitting all groups
            best = None
            for k in range(1, len(comp) + 1):
                for combo in itertools.combinations(comp, k):
                    nodes = set(combo)
                    seen = {combo[0]}
                    stack = [combo[0]]
                    while stack:
                        v = stack.pop()
                        for u in tree.neighbors[v]:
                            if u in nodes and u not in seen:
                                seen.add(u)
                                stack.append(u)
                    if seen == nodes and all(g & nodes for g in groups):
                        best = k
                        break
                if best:
                    break
            assert len(core.nodes) == best

    def test_matches_enumeration(self, rng):
        # Connected groups that often overlap, so single-node cores (where
        # the tie-break decides) are common too.
        for _ in range(3000):
            tree = random_tree(rng, int(rng.integers(1, 26)))
            groups = [
                random_group(rng, tree, int(rng.integers(1, 6)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            assert smallest_hitting_core(tree, groups).nodes == enumeration_core(tree, groups)

    def test_common_node_is_least_id_past_4096_combinations(self):
        # 11**4 choices of one member per group: the least node id wins, as
        # in the enumeration, at any number of combinations.
        tree = Tree(11, [(i, i + 1) for i in range(10)])
        core = smallest_hitting_core(tree, [set(range(11))] * 4)
        assert core.nodes == {0}

    def test_groups_in_two_components_rejected(self):
        tree = Tree(4, [(0, 1), (2, 3)])
        with pytest.raises(BordertreeError, match="components"):
            smallest_hitting_core(tree, [{0}, {3}])

    def test_helly_point_when_groups_intersect(self, poly_b):
        tree = tree_of(poly_b)
        d = poly_b.id_of("D")
        groups = [{d, poly_b.id_of("A")}, {d, poly_b.id_of("C")}, {d}]
        core = smallest_hitting_core(tree, groups)
        assert core.nodes == {d}


def test_default_pivot_prefers_holder(poly_b):
    tree = tree_of(poly_b)
    marked = [poly_b.id_of(x) for x in ("B", "C", "K", "L4")]
    core = evidential_core(tree, marked)
    assert default_pivot(core, holding={poly_b.id_of("B")}) == poly_b.id_of("B")
    assert default_pivot(core, holding={poly_b.id_of("D")}) in core.roots | core.leaves
