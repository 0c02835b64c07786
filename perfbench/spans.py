"""Span tracing for the traced run, installed from outside the program.

:func:`install` replaces each layer's public callables, as bound in the
modules that call them, with wrappers that record one span per call:
``(id, parent id, name, start ns, end ns)``.  Spans stay in memory and are
written out once the run ends.  Counts are taken at the same boundaries
(messages sent, factors created, bytes a kernel touched, ...).

A span's self time is its duration minus the time of its direct children;
a layer's self time is the sum of that over the layer's spans.  Span names
are ``<module>.<what>``, and the module part names the layer.

Nothing here changes the program's results: every wrapper calls the
original and returns its result unchanged, and :meth:`Tracer.uninstall`
restores the original bindings.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import math
import sys
import time
from collections import defaultdict

# The factor algebra's operations; every module that imported one of them
# calls it through its own binding, and each binding gets a wrapper.
FACTOR_OPS = (
    "multiply",
    "sum_out",
    "restrict",
    "marginal_to",
    "product_all",
    "indicator",
    "normalize",
    "divide",
)


def _border_log2(bn, members) -> float:
    return sum(math.log2(bn.card(v)) for v in members)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, fn, name, before=None, after=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            state = before(args) if before is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, stack[-1], name, t0, t1))
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def wrap_attr(self, owner, attr, name, before=None, after=None):
        """Wrap one binding: a module global or a class attribute."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, before, after))

    def wrap_everywhere(self, fn, name, before=None, after=None):
        """Wrap every binding of ``fn`` in the loaded ``bordertree`` modules."""
        for modname, mod in sorted(sys.modules.items()):
            if modname.split(".")[0] != "bordertree" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.wrap_attr(mod, attr, name, before, after)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def totals(self):
        """(inclusive ns per span name, calls per span name, self ns per layer)."""
        total: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        layer_self: dict[str, int] = defaultdict(int)
        children: dict[int, int] = defaultdict(int)
        # Spans are appended on exit, so each span's children precede it.
        for sid, parent, name, t0, t1 in self.spans:
            d = t1 - t0
            children[parent] += d
            total[name] += d
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += d - children.pop(sid, 0)
        return total, calls, layer_self

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in sorted(self.spans):
                fh.write("\t".join(str(x) for x in span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer the per-layer metrics name (see ``layer_metrics``)."""
    from bordertree import (
        bnformat,
        border_chain,
        bp_build,
        bp_infer,
        cli,
        factor,
        kernels,
        messaging,
        network,
        polytree,
    )

    t = tracer

    def add(key, n=1):
        t.counts[key] += n

    def peak(key, value):
        if value > t.maxima[key]:
            t.maxima[key] = value

    # bnformat
    for fn in (bnformat.parse_network, bnformat.parse_evidence):
        t.wrap_everywhere(fn, "bnformat.parse")

    # bp_build
    def after_stage1(args, mp, state):
        add("bp_build.macros", len(mp.groups))

    def after_stage2(args, bp, state):
        add("bp_build.borders", len(bp.borders))
        peak("bp_build.max_border_log2", max(_border_log2(bp.source, b.members) for b in bp.borders))

    t.wrap_everywhere(bp_build.stage1, "bp_build.stage1", after=after_stage1)
    t.wrap_everywhere(bp_build.stage2, "bp_build.stage2", after=after_stage2)

    # bp_infer
    def sent_before(args):
        return args[0].sent

    def sent_after(args, result, before):
        add("bp_infer.messages_sent", args[0].sent - (before or 0))

    def scheduled(args, result, state):
        sched = result[1] if isinstance(result, tuple) else result
        add("bp_infer.messages_scheduled", len(sched))

    BS = bp_infer.BorderSession
    t.wrap_everywhere(bp_infer.preload_priors, "bp_infer.preload")
    t.wrap_everywhere(bp_infer.bp_query, "bp_infer.query")
    t.wrap_attr(BS, "__init__", "bp_infer.collect", after=sent_after)
    t.wrap_attr(BS, "ensure_informed", "bp_infer.distribute", before=sent_before, after=sent_after)
    t.wrap_attr(BS, "posterior", "bp_infer.posterior")
    t.wrap_attr(BS, "evidence_prob", "bp_infer.evidence_prob")
    t.wrap_attr(bp_infer, "collection_schedule", "messaging.schedule", after=scheduled)
    t.wrap_attr(bp_infer, "distribution_schedule", "messaging.schedule", after=scheduled)

    # polytree
    def polytree_before(args):
        return args[0].distributed

    def polytree_after(args, result, before):
        s = args[0]
        add("polytree.messages", s.collected if before is None else s.distributed - before)

    PE, PS = polytree.PolytreeEngine, polytree.PolytreeSession
    t.wrap_attr(PE, "__init__", "polytree.engine")
    t.wrap_attr(PE, "query", "polytree.query")
    t.wrap_attr(PS, "__init__", "polytree.collect", after=polytree_after)
    t.wrap_attr(PS, "ensure_informed", "polytree.distribute", before=polytree_before, after=polytree_after)
    t.wrap_attr(PS, "posterior", "polytree.posterior")
    t.wrap_attr(PS, "evidence_prob", "polytree.evidence_prob")
    t.wrap_attr(polytree, "collection_schedule", "messaging.schedule")
    t.wrap_attr(polytree, "distribution_schedule", "messaging.schedule")

    # border_chain
    def after_chain(args, chain, state):
        peak(
            "border_chain.max_border_log2",
            max(_border_log2(chain.source, s.border) for s in chain.steps),
        )

    t.wrap_everywhere(border_chain.build_chain, "border_chain.build", after=after_chain)
    t.wrap_everywhere(border_chain.run_passes, "border_chain.passes")
    t.wrap_everywhere(border_chain.chain_posterior, "border_chain.readout")

    # messaging
    for fn in (messaging.smallest_hitting_core, messaging.evidential_core):
        t.wrap_everywhere(fn, "messaging.core")
    t.wrap_attr(messaging.Tree, "__init__", "messaging.tree")
    t.wrap_attr(messaging.Tree, "component_of", "messaging.component_of")
    t.wrap_attr(messaging.Tree, "bfs_path", "messaging.bfs_path")

    # network
    t.wrap_attr(network.EvidenceSet, "fingerprint", "network.fingerprint")
    t.wrap_attr(network._NoEvidence, "fingerprint", "network.fingerprint")  # prior sessions

    # factor
    def after_factor(args, result, state):
        size = args[0].values.size
        add("factor.entries_out", size)
        peak("factor.max_entries", size)

    for op in FACTOR_OPS:
        t.wrap_everywhere(getattr(factor, op), f"factor.{op}")
    t.wrap_attr(factor.Factor, "__init__", "factor.init", after=after_factor)

    # kernels (factor.py looks them up on the kernels module at call time)
    def product_bytes(args, out, state):
        add("kernels.bytes_moved", args[0].nbytes + args[2].nbytes + out.nbytes)

    def sum_bytes(args, out, state):
        add("kernels.bytes_moved", args[0].nbytes + out.nbytes)

    t.wrap_attr(kernels, "product", "kernels.product", after=product_bytes)
    t.wrap_attr(kernels, "sum_axes", "kernels.sum_axes", after=sum_bytes)

    # cli
    t.wrap_everywhere(cli.main, "cli.main")
    t.wrap_attr(cli.ReplSession, "__init__", "cli.repl_init")
    t.wrap_attr(cli.ReplSession, "handle", "cli.repl_handle")


# (metric name, unit, better, how it is read from a traced pass)
LAYER_METRICS = [
    ("bnformat.parse_s", "s", "lower", ("total", "bnformat.parse")),
    ("bp_build.stage1_s", "s", "lower", ("total", "bp_build.stage1")),
    ("bp_build.stage2_s", "s", "lower", ("total", "bp_build.stage2")),
    ("bp_build.macros", "count", "higher", ("count", "bp_build.macros")),
    ("bp_build.borders", "count", "lower", ("count", "bp_build.borders")),
    ("bp_build.max_border_log2", "log2", "lower", ("max", "bp_build.max_border_log2")),
    ("bp_infer.preload_s", "s", "lower", ("total", "bp_infer.preload")),
    ("bp_infer.collect_s", "s", "lower", ("total", "bp_infer.collect")),
    ("bp_infer.distribute_s", "s", "lower", ("total", "bp_infer.distribute")),
    ("bp_infer.self_s", "s", "lower", ("self", "bp_infer")),
    ("bp_infer.messages_sent", "count", "lower", ("count", "bp_infer.messages_sent")),
    ("bp_infer.messages_scheduled", "count", "lower", ("count", "bp_infer.messages_scheduled")),
    ("bp_infer.store_hit_ratio", "ratio", "higher", ("hit_ratio", None)),
    ("polytree.engine_s", "s", "lower", ("total", "polytree.engine")),
    ("polytree.collect_s", "s", "lower", ("total", "polytree.collect")),
    ("polytree.distribute_s", "s", "lower", ("total", "polytree.distribute")),
    ("polytree.self_s", "s", "lower", ("self", "polytree")),
    ("polytree.messages", "count", "lower", ("count", "polytree.messages")),
    ("border_chain.build_s", "s", "lower", ("total", "border_chain.build")),
    ("border_chain.passes_s", "s", "lower", ("total", "border_chain.passes")),
    ("border_chain.readout_s", "s", "lower", ("total", "border_chain.readout")),
    ("border_chain.max_border_log2", "log2", "lower", ("max", "border_chain.max_border_log2")),
    ("messaging.core_s", "s", "lower", ("total", "messaging.core")),
    ("messaging.core_calls", "count", "lower", ("calls", "messaging.core")),
    ("messaging.schedule_s", "s", "lower", ("total", "messaging.schedule")),
    ("messaging.tree_s", "s", "lower", ("total", "messaging.tree")),
    ("messaging.component_of_calls", "count", "lower", ("calls", "messaging.component_of")),
    ("messaging.component_of_s", "s", "lower", ("total", "messaging.component_of")),
    ("messaging.bfs_path_calls", "count", "lower", ("calls", "messaging.bfs_path")),
    ("messaging.bfs_path_s", "s", "lower", ("total", "messaging.bfs_path")),
    ("network.fingerprint_calls", "count", "lower", ("calls", "network.fingerprint")),
    ("network.fingerprint_s", "s", "lower", ("total", "network.fingerprint")),
    ("factor.multiply_calls", "count", "lower", ("calls", "factor.multiply")),
    ("factor.multiply_s", "s", "lower", ("total", "factor.multiply")),
    ("factor.sum_out_calls", "count", "lower", ("calls", "factor.sum_out")),
    ("factor.sum_out_s", "s", "lower", ("total", "factor.sum_out")),
    ("factor.restrict_calls", "count", "lower", ("calls", "factor.restrict")),
    ("factor.restrict_s", "s", "lower", ("total", "factor.restrict")),
    ("factor.factors_created", "count", "lower", ("calls", "factor.init")),
    ("factor.init_s", "s", "lower", ("total", "factor.init")),
    ("factor.self_s", "s", "lower", ("self", "factor")),
    ("factor.entries_out", "count", "lower", ("count", "factor.entries_out")),
    ("factor.max_entries", "count", "lower", ("max", "factor.max_entries")),
    ("kernels.product_calls", "count", "lower", ("calls", "kernels.product")),
    ("kernels.product_s", "s", "lower", ("total", "kernels.product")),
    ("kernels.sum_axes_calls", "count", "lower", ("calls", "kernels.sum_axes")),
    ("kernels.sum_axes_s", "s", "lower", ("total", "kernels.sum_axes")),
    ("kernels.bytes_moved", "B-computed", "lower", ("count", "kernels.bytes_moved")),
    ("cli.self_s", "s", "lower", ("self", "cli")),
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass (0 where a layer did not run)."""
    total, calls, layer_self = tracer.totals()
    out: dict[str, float] = {}
    for name, unit, _better, (kind, key) in LAYER_METRICS:
        if kind == "total":
            out[name] = total.get(key, 0) / 1e9
        elif kind == "self":
            out[name] = layer_self.get(key, 0) / 1e9
        elif kind == "calls":
            out[name] = calls.get(key, 0)
        elif kind == "count":
            out[name] = tracer.counts.get(key, 0)
        elif kind == "max":
            out[name] = tracer.maxima.get(key, 0)
        else:  # store hit ratio, base: messages scheduled
            sched = tracer.counts.get("bp_infer.messages_scheduled", 0)
            sent = tracer.counts.get("bp_infer.messages_sent", 0)
            out[name] = 1.0 - sent / sched if sched else 0.0
    return out


def is_count(name: str) -> bool:
    unit = next(u for n, u, _b, _k in LAYER_METRICS if n == name)
    return unit != "s"
