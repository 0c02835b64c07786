"""Seeded input generators for the benchmark.

Every generator takes two ``numpy.random.Generator`` streams and returns
plain data: ``.bn`` network text, evidence strings in the CLI's ``X=label``
syntax, and REPL command lines.  The engines only ever see these generated
inputs, parsed through ``bordertree.bnformat`` as a user's files would be.

* ``layout`` draws everything that sets a case's cost: graph shape, edge
  orientation, cardinalities, which variables are observed or queried;
* ``values`` draws the numbers: table entries and observed values.

Every workload draws its layout from a fixed stream (``LAYOUT_SEED``) and
its values from the run's ``--seed``: one input's shape alone can swing a
run's cost or memory by more than the metric bounds (see README.md).

The generators are written here rather than taken from
``bordertree.randgen`` for two reasons:

* a change to ``randgen`` would silently change the inputs the benchmark
  compares across commits;
* ``randgen.random_dag`` never returns when ``2**n_min`` exceeds its
  ``statespace_cap`` (default ``2**20``): its loop lowers one random
  cardinality to 2 per turn and can never get below the cap, so
  ``bordertree gen --nodes 21`` hangs.  :func:`random_dag_text` below has no
  state-space cap, so it has no such loop.

All conditional tables are drawn uniformly from [0.1, 1.0) and normalised,
so they are strictly positive: every evidence set has positive probability
and no case fails by construction.
"""

from __future__ import annotations

import numpy as np

LAYOUT_SEED = 0  # seeds every workload's layout stream

LABELS = ("s0", "s1", "s2", "s3")


def _network_text(values: np.random.Generator, cards: list[int], parents: list[list[int]]) -> str:
    """``.bn`` text for nodes ``v0..v{n-1}`` with random positive tables."""
    lines = []
    for i, card in enumerate(cards):
        lines.append(f"node v{i} {card} " + " ".join(LABELS[:card]))
    for i, ps in enumerate(parents):
        if ps:
            lines.append(f"parents v{i} " + " ".join(f"v{p}" for p in ps))
    for i, ps in enumerate(parents):
        shape = (*(cards[p] for p in ps), cards[i])
        table = values.uniform(0.1, 1.0, size=shape)
        table /= table.sum(axis=-1, keepdims=True)
        lines.append(f"cpt v{i} " + " ".join(repr(float(x)) for x in table.reshape(-1)))
    return "\n".join(lines) + "\n"


def random_polytree_text(layout, values, n: int, card_max: int) -> str:
    """Uniform random recursive tree on ``n`` nodes, each edge oriented at
    random; any orientation of a tree is a polytree."""
    cards = [int(c) for c in layout.integers(2, card_max + 1, size=n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        other = int(layout.integers(0, i))
        if layout.random() < 0.5:
            parents[i].append(other)
        else:
            parents[other].append(i)
    return _network_text(values, cards, [sorted(ps) for ps in parents])


def random_dag_text(
    layout,
    values,
    n: int,
    card_max: int,
    max_parents: int,
    window: int | None = None,
) -> str:
    """Random DAG: node ``i`` draws 0..``max_parents`` parents uniformly from
    the earlier nodes (or only the ``window`` nodes just before it, which
    bounds the border width while keeping many undirected loops)."""
    cards = [int(c) for c in layout.integers(2, card_max + 1, size=n)]
    parents = []
    for i in range(n):
        pool = list(range(max(0, i - window) if window else 0, i))
        layout.shuffle(pool)
        k = int(layout.integers(0, min(max_parents, len(pool)) + 1))
        parents.append(sorted(pool[:k]))
    return _network_text(values, cards, parents)


def grid_text(values, rows: int, cols: int, card: int) -> str:
    """``rows`` x ``cols`` grid, parents up and left.  The widest border of
    any elimination is a full row or column, so width is fixed by shape."""
    parents = []
    for r in range(rows):
        for c in range(cols):
            ps = []
            if r:
                ps.append((r - 1) * cols + c)
            if c:
                ps.append(r * cols + c - 1)
            parents.append(ps)
    return _network_text(values, [card] * (rows * cols), parents)


def network_cards(text: str) -> dict[str, int]:
    """Cardinality per node name, read back from generated ``.bn`` text."""
    out = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens and tokens[0] == "node":
            out[tokens[1]] = int(tokens[2])
    return out


def evidence_text(layout, values, cards: dict[str, int], k: int) -> str:
    """Hard evidence on exactly ``k`` distinct variables."""
    names = sorted(cards, key=lambda s: int(s[1:]))
    chosen = sorted(int(i) for i in layout.choice(len(names), size=k, replace=False))
    return ",".join(
        f"{names[i]}={LABELS[int(values.integers(0, cards[names[i]]))]}" for i in chosen
    )


def repl_script(layout, values, cards: dict[str, int], steps: int) -> list[tuple[str, str]]:
    """REPL steps as (evidence-or-retract line, query line) pairs.

    Each step adds one hard observation on an unobserved variable, except
    that with probability 1/4 (once two are observed) it retracts one.
    Every step then queries three random variables.
    """
    names = sorted(cards, key=lambda s: int(s[1:]))
    observed: list[str] = []
    script = []
    for _ in range(steps):
        if len(observed) >= 2 and layout.random() < 0.25:
            name = observed.pop(int(layout.integers(0, len(observed))))
            change = f"retract {name}"
        else:
            free = [v for v in names if v not in observed]
            name = free[int(layout.integers(0, len(free)))]
            observed.append(name)
            change = f"evidence {name}={LABELS[int(values.integers(0, cards[name]))]}"
        picks = layout.choice(len(names), size=3, replace=False)
        script.append((change, "query " + ",".join(names[int(i)] for i in picks)))
    return script
