"""Command-line front end.

Subcommands: validate, chain, build-bp, prior, query, repl, paths, core,
gen.  Exit codes: 0 success, 1 domain error (impossible evidence,
non-polytree input for polytree-only commands), 2 usage or parse error, or
a file that cannot be read or written.
All output is deterministic for fixed inputs.

``query`` reads each engine through one answer call, (posteriors, Pr(e)):
once with no evidence for the prior column, once with the evidence.  The
chain engine answers with ``bp_query`` on the chain's one-macro view,
anchored at its first border, so it shares the border polytree's read-out
and its impossible-evidence check.
``prior`` and the REPL's ``priors`` print an evidence-free border polytree
session's posteriors through one helper, and ``core`` and the REPL's
``core`` print border sets through one formatter.  The REPL is a thin
shell over library objects: its evidence is its current session's
``EvidenceSet``, which ``bnformat`` alone parses, and one evidence-free
session answers its priors.  ``core`` reads structure only
(:func:`~bordertree.messaging.component_cores`): it computes no prior and no
message, and on a polytree it merges the cores of the components that hold
evidence.  ``paths`` reads structure only too: the network's tree and a hub
index over it.  ``--evidence`` and ``--evidence-file`` exclude each other.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__
from .bnformat import (
    emit_network,
    parse_evidence,
    parse_evidence_file,
    parse_network,
)
from .border_chain import build_chain, chain_rows
from .bp_build import build_border_polytree, verify_bp
from .bp_infer import BorderSession, bp_query, preload_priors
from .errors import BnFormatError, BordertreeError, CycleError, ImpossibleEvidenceError
from .messaging import build_hub_index, component_cores, tree_path
from .network import NO_EVIDENCE, BayesianNetwork, EvidenceSet, validate
from .oracle import oracle_event_prob, oracle_posterior
from .polytree import PolytreeEngine, _node_tree
from .randgen import random_dag, random_polytree


def _read(path: str) -> str:
    """The text of a network or evidence file, without a leading
    byte-order mark; bytes that are not UTF-8 are a parse error that names
    the file and their offset in it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise BnFormatError(f"{path}: not UTF-8 text (byte {e.start})") from None
    return text.removeprefix("\ufeff")


def _load(path: str) -> BayesianNetwork:
    return parse_network(_read(path))


def _evidence(args, bn):
    if getattr(args, "evidence", None):
        return parse_evidence(args.evidence, bn)
    if getattr(args, "evidence_file", None):
        return parse_evidence_file(_read(args.evidence_file), bn)
    return NO_EVIDENCE


def _tsv(rows: list[dict], columns: list[str], out) -> None:
    print("\t".join(columns), file=out)
    for row in rows:
        print("\t".join(str(row[c]) for c in columns), file=out)


def _fmt_prob(x: float) -> str:
    return f"{x:.10g}"


# -- subcommands -------------------------------------------------------------


def cmd_validate(args, out):
    bn = _load(args.network)
    diags = validate(bn)
    if not diags:
        print("ok: no diagnostics", file=out)
        return 0
    for d in diags:
        print(f"{d.severity}\t{d.code}\t{d.message}", file=out)
    return 0


def cmd_chain(args, out):
    bn = _load(args.network)
    forced = None
    if args.order is not None:
        tokens = [t.strip() for t in args.order.split(",")]
        forced = [None if t in ("-", "") else bn.id_of(t) for t in tokens]
    chain = build_chain(bn, forced_order=forced)
    rows = chain_rows(chain)
    if args.json:
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:
        _tsv(rows, ["i", "V", "C", "B", "phi", "rule"], out)
    return 0


def cmd_build_bp(args, out):
    bn = _load(args.network)
    bp = build_border_polytree(bn)
    print("# macro-nodes", file=out)
    for g, members in enumerate(bp.macro.groups):
        print(f"m{g}\t" + ",".join(bn.names(members)), file=out)
    print("# borders", file=out)
    _tsv(
        bp.describe(),
        ["id", "kind", "members", "parents", "promoted", "cohort", "owner"],
        out,
    )
    problems = [d for d in verify_bp(bp) if d.severity == "error"]
    for d in problems:
        print(f"error\t{d.code}\t{d.message}", file=out)
    if args.dot:
        text = _dot(bp)
        if args.dot == "-":
            out.write(text)
        else:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
    # A broken border polytree is a domain error: the exit code says what
    # the error lines say.
    return 1 if problems else 0


def _border_sets(bp, ids) -> str:
    """Borders as their member sets, e.g. ``{A,B};{B,C}``."""
    bn = bp.source
    return ";".join("{" + ",".join(bn.names(bp.borders[i].members)) + "}" for i in ids)


def _dot(bp) -> str:
    lines = ["digraph borders {"]
    for b in bp.borders:
        shape = "box" if b.kind == "type1" else "diamond"
        lines.append(f'  b{b.id} [label="{_border_sets(bp, [b.id])}" shape={shape}];')
    for p, c in sorted(bp.edges):
        lines.append(f"  b{p} -> b{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _prior_table(session, queries, out) -> None:
    """The prior marginals of ``queries``, as an evidence-free border
    polytree session answers them."""
    bn = session.bn
    rows = [
        {"variable": bn.name_of(q), "value": label, "prior": _fmt_prob(p)}
        for q in queries
        for label, p in zip(bn.variables[q].value_labels, session.posterior(q).values)
    ]
    _tsv(rows, ["variable", "value", "prior"], out)


def cmd_prior(args, out):
    bn = _load(args.network)
    _prior_table(BorderSession(_bp_for(bn)), _parse_queries(args, bn), out)
    return 0


def _names(text: str, bn) -> list[int]:
    """The variables of a comma-separated name list; blank items are
    skipped, and a variable named twice is rejected."""
    out: list[int] = []
    for t in text.split(","):
        t = t.strip()
        if t:
            var = bn.id_of(t)
            if var in out:
                raise BnFormatError(f"duplicate query for {t!r}")
            out.append(var)
    return out


def _parse_queries(args, bn):
    """``--q``'s variables, or every variable when it is absent; a list
    that names none is an error."""
    q = getattr(args, "q", None)
    if q is None:
        return list(bn.ids)
    queries = _names(q, bn)
    if not queries:
        raise BnFormatError("--q names no variable")
    return queries


def _bp_for(bn):
    bp = build_border_polytree(bn)
    preload_priors(bp)
    return bp


def _tables(posteriors, evidence_prob):
    """An engine's answer with each posterior factor read as its table."""
    return {q: f.values for q, f in posteriors.items()}, evidence_prob


def _posterior_rows(bn, queries, priors, posteriors):
    rows = []
    for q in queries:
        pri = priors[q]
        post = posteriors[q]
        for k, label in enumerate(bn.variables[q].value_labels):
            if post[k] > 0 and pri[k] > 0:
                ratio = f"{math.log(post[k] / pri[k]):.6g}"
            else:
                ratio = "-inf"
            rows.append(
                {
                    "variable": bn.name_of(q),
                    "value": label,
                    "prior": _fmt_prob(pri[k]),
                    "posterior": _fmt_prob(post[k]),
                    "log_ratio": ratio,
                }
            )
    return rows


def cmd_query(args, out):
    if args.pivot is not None and args.engine != "bp":
        print("usage error: --pivot applies to --engine bp only", file=sys.stderr)
        return 2
    bn = _load(args.network)
    ev = _evidence(args, bn)
    queries = _parse_queries(args, bn)

    # Each engine answers through one call, (posterior tables, Pr(e)); the
    # prior column is its answer with no evidence, whose probability is 1,
    # so the oracle computes Pr(e) only for evidence.  The chain is read as
    # the one-macro border polytree it is, anchored at its first border.
    if args.engine == "oracle":

        def answer(evidence, pivot=None):
            posts = {q: oracle_posterior(bn, evidence, q) for q in queries}
            return posts, oracle_event_prob(bn, evidence) if evidence else 1.0

    elif args.engine == "chain":
        chain = build_chain(bn)

        def answer(evidence, pivot=None):
            return _tables(*bp_query(chain.view, evidence, queries, 0))

    elif args.engine == "polytree":
        engine = PolytreeEngine(bn)

        def answer(evidence, pivot=None):
            return _tables(*engine.query(evidence, queries))

    else:  # bp
        bp = _bp_for(bn)

        def answer(evidence, pivot=None):
            return _tables(*bp_query(bp, evidence, queries, pivot))

    priors, _ = answer(NO_EVIDENCE)
    posteriors, evidence_prob = answer(ev, args.pivot)
    rows = _posterior_rows(bn, queries, priors, posteriors)
    if args.json:
        json.dump(
            {"evidence_prob": evidence_prob, "posteriors": rows}, out, indent=2
        )
        out.write("\n")
    else:
        _tsv(rows, ["variable", "value", "prior", "posterior", "log_ratio"], out)
        print(f"evidence_prob\t{_fmt_prob(evidence_prob)}", file=out)
    return 0


def cmd_paths(args, out):
    bn = _load(args.network)
    # Paths read structure only: no prior or message is computed.
    tree = _node_tree(bn)
    x, y = bn.id_of(args.frm), bn.id_of(args.to)
    if tree.comp[x] != tree.comp[y]:
        raise BordertreeError(f"{args.frm} and {args.to} are in different components: no path")
    path = tree_path(tree, build_hub_index(tree), x, y)
    print("from\tto\tpath", file=out)
    print(
        f"{bn.name_of(x)}\t{bn.name_of(y)}\t" + "-".join(bn.name_of(v) for v in path),
        file=out,
    )
    return 0


def cmd_core(args, out):
    bn = _load(args.network)
    ev = _evidence(args, bn)
    if not ev:
        print("error: core needs evidence", file=sys.stderr)
        return 2
    # Cores and pivots read structure only: no prior or message is computed.
    if bn.is_singly_connected():
        # One core per component that holds evidence; print their union.
        cores = [core for core, _ in component_cores(bn.tree(), [{v} for v in ev.vars]).values()]
        print("kind\tnodes", file=out)
        for kind, field in (("core", "nodes"), ("roots", "roots"), ("leaves", "leaves")):
            nodes = set().union(*(getattr(core, field) for core in cores))
            print(f"{kind}\t" + ",".join(bn.names(nodes)), file=out)
    else:
        bp = build_border_polytree(bn)
        groups = [set(bp.variable_home[v]) for v in ev.vars]
        picked = component_cores(bp.tree(), groups).values()
        core_nodes = set().union(*(core.nodes for core, _ in picked))
        print("kind\tborders", file=out)
        print("core\t" + _border_sets(bp, sorted(core_nodes)), file=out)
        print("pivot\t" + _border_sets(bp, [pivot for _, pivot in picked]), file=out)
    return 0


def cmd_gen(args, out):
    for flag, value, least in (
        ("--seed", args.seed, 0),
        ("--nodes", args.nodes, 0),
        ("--max-card", args.max_card, 2),
    ):
        if value < least:
            print(f"usage error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 2
    rng = np.random.default_rng(args.seed)
    if args.polytree:
        bn = random_polytree(rng, args.nodes, args.nodes, args.max_card)
    else:
        try:
            bn = random_dag(rng, args.nodes, args.nodes, args.max_card)
        except ValueError as e:  # --nodes over the state-space cap
            print(f"usage error: {e}", file=sys.stderr)
            return 2
    out.write(emit_network(bn))
    return 0


# -- repl ---------------------------------------------------------------------


REPL_HELP = """commands:
  evidence X=a|b[,Y=c]   add soft/hard evidence, report evidence probability
  retract X              drop evidence on X
  query X[,Y]            prior and posterior side by side
  priors                 prior marginals of every variable
  core                   borders of the current evidential core
  status                 evidence, pivot, messages held and last sent
  reset                  drop all evidence
  quit                   leave
"""


class ReplSession:
    """One network, the session of its current evidence, and one
    evidence-free session.

    The current evidence is the current session's own
    :class:`~bordertree.network.EvidenceSet`: ``evidence`` parses its
    canonical form (``describe``) plus the new text, ``retract`` drops one
    variable from a copy, and ``status`` prints it.  Each change moves to a
    session for the new evidence through
    :meth:`~bordertree.bp_infer.BorderSession.with_evidence`, which keeps
    the messages the change left valid; ``reset`` returns to the
    evidence-free session.  That session, built once, also answers every
    prior (``query``'s prior column and ``priors``); with no evidence no
    variable is relevant, so it sends no message, and each prior it reads
    is kept in the border polytree's memo of prior marginals, which the
    evidence sessions read for their independent queries too.
    ``last_sent`` counts the messages the last ``evidence``, ``retract``,
    ``query`` or ``core`` computed.
    """

    def __init__(self, bn: BayesianNetwork, out):
        self.bn = bn
        self.out = out
        self.bp = _bp_for(bn)
        self.prior = self.session = BorderSession(self.bp, EvidenceSet(bn))
        self.last_sent = 0

    def _move_to(self, ev) -> None:
        """Make the session for ``ev`` current, unless ``ev`` is impossible
        as the read-out decides it (``check_possible``): some component's
        evidence total is 0, however small their product.
        The candidate copies the messages it keeps, so a rejected one
        leaves the current session as it was."""
        session = self.session.with_evidence(ev)
        try:
            session.check_possible()
        except ImpossibleEvidenceError:
            raise ImpossibleEvidenceError("evidence has probability 0; session unchanged") from None
        self.session = session
        self.last_sent = session.sent
        print(f"evidence_prob\t{_fmt_prob(session.evidence_prob())}", file=self.out)

    def handle(self, line: str) -> bool:
        tokens = line.strip().split(None, 1)
        if not tokens:
            return True
        verb, rest = tokens[0], tokens[1] if len(tokens) > 1 else ""
        out = self.out
        try:
            if verb == "quit":
                return False
            elif verb == "help":
                out.write(REPL_HELP)
            elif verb == "evidence":
                self._move_to(parse_evidence(f"{self.session.ev.describe()},{rest}", self.bn))
            elif verb == "retract":
                ev = self.session.ev.copy()
                ev.retract(self.bn.id_of(rest.strip()))
                self._move_to(ev)
            elif verb == "query":
                queries = _names(rest, self.bn)
                if not queries:
                    print("usage: query X[,Y]", file=out)
                    return True
                session = self.session
                priors = {q: self.prior.posterior(q).values for q in queries}
                sent = session.sent
                posts = {q: session.posterior(q).values for q in queries}
                self.last_sent = session.sent - sent
                rows = _posterior_rows(self.bn, queries, priors, posts)
                _tsv(rows, ["variable", "value", "prior", "posterior", "log_ratio"], out)
            elif verb == "priors":
                _prior_table(self.prior, self.bn.ids, out)
            elif verb == "core":
                self.last_sent = 0  # the core is read, not computed
                print(f"core\t{_border_sets(self.bp, sorted(self.session.core_nodes)) or '-'}", file=out)
            elif verb == "status":
                session = self.session
                print(f"evidence\t{session.ev.describe() or '-'}", file=out)
                print(f"core_borders\t{len(session.core_nodes)}", file=out)
                pivots = ",".join(str(p) for p in session.pivots.values())
                print(f"pivot\t{pivots or '-'}", file=out)
                print(f"messages_sent_last\t{self.last_sent}", file=out)
                print(f"cache_entries\t{len(session.store)}", file=out)
            elif verb == "reset":
                self.session = self.prior
                print("ok", file=out)
            else:
                print(f"unknown command {verb!r}; try help", file=out)
        except (BordertreeError, ValueError) as e:
            print(f"error: {e}", file=out)
        except KeyError as e:
            print(f"error: {e.args[0] if e.args else e}", file=out)
        return True


def cmd_repl(args, out):
    bn = _load(args.network)
    session = ReplSession(bn, out)
    print(f"loaded {args.network}: {len(bn)} variables; type help", file=out)
    for line in sys.stdin:
        if not session.handle(line):
            break
    return 0


# -- argument parsing ----------------------------------------------------------


# Built on the first call and reused: parsing leaves the parser unchanged.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bordertree",
        description="Exact posterior marginals for discrete Bayesian networks.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate", help="parse (checking acyclicity and row sums), then report zero cpt entries"
    )
    p.add_argument("network")

    p = sub.add_parser("chain", help="dump the border chain as TSV")
    p.add_argument("network")
    p.add_argument("--order", help="forced promotion order, e.g. '-,A,B,C'")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("build-bp", help="dump macro-nodes, borders and DOT")
    p.add_argument("network")
    p.add_argument("--dot", help="write DOT here ('-' for stdout)")

    p = sub.add_parser("prior", help="prior marginals")
    p.add_argument("network")
    p.add_argument("--q", help="comma-separated variable names (default: all)")

    p = sub.add_parser("query", help="posterior marginals given evidence")
    p.add_argument("network")
    ev = p.add_mutually_exclusive_group()
    ev.add_argument("--evidence", help="e.g. H=h1,K=k0 or X=a|b")
    ev.add_argument("--evidence-file")
    p.add_argument("--q", help="comma-separated variable names (default: all)")
    p.add_argument(
        "--engine", choices=["bp", "chain", "polytree", "oracle"], default="bp"
    )
    p.add_argument("--pivot", type=int, help="border id overriding the pivot (--engine bp only)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("repl", help="interactive incremental-evidence session")
    p.add_argument("network")

    p = sub.add_parser("paths", help="hub-method path between two nodes (polytree)")
    p.add_argument("network")
    p.add_argument("--from", dest="frm", required=True)
    p.add_argument("--to", required=True)

    p = sub.add_parser("core", help="evidential core for an evidence set")
    p.add_argument("network")
    ev = p.add_mutually_exclusive_group()
    ev.add_argument("--evidence")
    ev.add_argument("--evidence-file")

    p = sub.add_parser("gen", help="emit a random network in .bn form")
    p.add_argument("--seed", type=int, default=0, help="generator seed (never affects inference)")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--max-card", type=int, default=3)
    p.add_argument("--polytree", action="store_true")
    return ap


_COMMANDS = {
    "validate": cmd_validate,
    "chain": cmd_chain,
    "build-bp": cmd_build_bp,
    "prior": cmd_prior,
    "query": cmd_query,
    "repl": cmd_repl,
    "paths": cmd_paths,
    "core": cmd_core,
    "gen": cmd_gen,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    # Let "--order -,A,B" through argparse (the value starts with a dash).
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--order" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--order={argv[i + 1]}"]
            break
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (BnFormatError, CycleError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # a missing file, a directory, an unwritable --dot
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BordertreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
