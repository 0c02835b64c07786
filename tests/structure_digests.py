"""Digests of the structure the builders produce, for a fixed seeded corpus.

For every network of :func:`corpus` two digests are kept in
``structure_digests.json``, keyed by the network's name:

* ``structure``: every border of ``build_border_polytree`` and of
  ``build_chain``'s view (id, members, kind, owner, parents, promoted,
  cohort, rule, carried sets, and the cohort table's scope and cards), the
  chain steps, and at every chain step the ``(rule, cohort)`` that forced
  replay (``_rule_for_forced``) gives each border variable;
* ``session``: a ``BorderSession`` on the border polytree under two seeded
  evidence sets, after informing a few borders: its cores, pivots, store
  keys in send order and the ``sent``/``collected``/``distributed`` counts.

No float is hashed: table values may differ in the last bit between numpy
releases, and the tables are functions of the pinned sets anyway.  The
corpus builds its workload-shaped networks with ``randgen`` and ``zoo``,
not with the benchmark's generator, so a change to the benchmark does not
move these digests.

Regenerate the file (only when a change means to alter structure) with::

    PYTHONPATH=src python tests/structure_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from bordertree import zoo
from bordertree.bnformat import parse_network
from bordertree.border_chain import build_chain
from bordertree.bp_build import _rule_for_forced, build_border_polytree
from bordertree.bp_infer import BorderSession
from bordertree.randgen import random_dag, random_polytree
from conftest import random_evidence

HERE = os.path.dirname(os.path.abspath(__file__))
JSON_PATH = os.path.join(HERE, "structure_digests.json")


def grid(rng, rows: int, cols: int, card: int):
    """``rows`` x ``cols`` grid, parents up and left."""
    spec = []
    for r in range(rows):
        for c in range(cols):
            ps = ([f"v{(r - 1) * cols + c}"] if r else []) + ([f"v{r * cols + c - 1}"] if c else [])
            spec.append((f"v{r * cols + c}", card, ps))
    return zoo.build_network(spec, rng)


def corpus():
    """(name, network) pairs: the fixtures, small random DAGs and
    polytrees, and networks shaped like the benchmark's workloads."""
    for name in ("bn_a", "polytree_b", "bn_c"):
        with open(os.path.join(HERE, "..", "fixtures", f"{name}.bn"), encoding="utf-8") as fh:
            yield name, parse_network(fh.read())
    rng = np.random.default_rng(2021)
    for i in range(150):
        yield f"dag-{i}", random_dag(rng, 3, 14, 3)
    for i in range(150):
        yield f"polytree-{i}", random_polytree(rng, 5, 40, 3)
    for i in range(24):
        yield f"dag30-{i}", random_dag(rng, 30, 30, 3, max_parents=3, statespace_cap=3**30)
    for n in (200, 400):
        for i in range(2):
            yield f"polytree{n}-{i}", random_polytree(rng, n, n, 3)
    for i in range(2):
        yield f"grid10x10-{i}", grid(rng, 10, 10, 3)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()[:24]


def _border_rows(bp) -> list:
    return [
        [
            b.id,
            sorted(b.members),
            b.kind,
            b.owner,
            list(b.parents),
            b.promoted,
            sorted(b.cohort),
            b.rule,
            [sorted(s) for s in b.carried],
            None if b.cohort_table is None else [list(b.cohort_table.scope), list(b.cohort_table.cards)],
        ]
        for b in bp.borders
    ]


def structure_rows(bn, bp) -> list:
    """Borders of ``bp`` and of the chain, the chain steps, and each border
    variable's forced-replay classification at every chain step."""
    chain = build_chain(bn)
    steps, classified = [], []
    bottom = frozenset(bn.ids)
    for s in chain.steps:
        steps.append([s.index, s.promoted, sorted(s.cohort), sorted(s.border), s.rule])
        bottom = bottom - s.cohort
        if bottom:
            for v in sorted(s.border):
                cohort, rule = _rule_for_forced(bn, s.border, bottom, v)
                classified.append([s.index, v, rule, sorted(cohort)])
    return [_border_rows(bp), _border_rows(chain.view), steps, classified]


def session_rows(bn, bp, rng) -> list:
    """Cores, pivots, store keys and counters of two seeded sessions."""
    out = []
    for _ in range(2):
        session = BorderSession(bp, random_evidence(rng, bn, 3))
        rows = [
            sorted([c, sorted(core.nodes)] for c, core in session.cores.items()),
            sorted(session.pivots.items()),
        ]
        for bid in rng.choice(len(bp), size=min(3, len(bp)), replace=False):
            session.ensure_informed(int(bid))
            rows.append([session.sent, session.collected, session.distributed])
        rows.append([list(key) for key in session.store])
        out.append(rows)
    return out


def digests() -> dict[str, dict[str, str]]:
    """``{"structure": {name: digest}, "session": {name: digest}}``."""
    out: dict[str, dict[str, str]] = {"structure": {}, "session": {}}
    rng = np.random.default_rng(2022)
    for name, bn in corpus():
        bp = build_border_polytree(bn)
        out["structure"][name] = _digest(structure_rows(bn, bp))
        out["session"][name] = _digest(session_rows(bn, bp, rng))
    return out


if __name__ == "__main__":
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {JSON_PATH}")
