"""Command-line front end.

Subcommands: validate, chain, build-bp, prior, query, repl, paths, core,
gen.  Exit codes: 0 success, 1 domain error (impossible evidence,
non-polytree input for polytree-only commands), 2 usage or parse error.
All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
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
from .border_chain import build_chain, chain_posterior, chain_rows, run_passes
from .bp_build import build_border_polytree, verify_bp
from .bp_infer import BorderSession, preload_priors
from .errors import (
    BnFormatError,
    BordertreeError,
    CycleError,
    ImpossibleEvidenceError,
    NotSinglyConnectedError,
)
from .factor import contract
from .messaging import evidential_core
from .network import NO_EVIDENCE, BayesianNetwork, validate
from .oracle import oracle_event_prob, oracle_posterior
from .polytree import PolytreeEngine
from .randgen import random_dag, random_polytree


def _load(path: str) -> BayesianNetwork:
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


def _evidence(args, bn):
    if getattr(args, "evidence", None):
        return parse_evidence(args.evidence, bn)
    if getattr(args, "evidence_file", None):
        with open(args.evidence_file, encoding="utf-8") as fh:
            return parse_evidence_file(fh.read(), bn)
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
    if args.order:
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


def _dot(bp) -> str:
    bn = bp.source
    lines = ["digraph borders {"]
    for b in bp.borders:
        label = "{" + ",".join(bn.names(b.members)) + "}"
        shape = "box" if b.kind == "type1" else "diamond"
        lines.append(f'  b{b.id} [label="{label}" shape={shape}];')
    for p, c in sorted(bp.edges):
        lines.append(f"  b{p} -> b{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_prior(args, out):
    bn = _load(args.network)
    queries = _parse_queries(args, bn)
    session = BorderSession(_bp_for(bn))
    rows = []
    for q in queries:
        dist = session.posterior(q)[1].values
        for k, label in enumerate(bn.variables[q].value_labels):
            rows.append(
                {"variable": bn.name_of(q), "value": label, "prior": _fmt_prob(dist[k])}
            )
    _tsv(rows, ["variable", "value", "prior"], out)
    return 0


def _parse_queries(args, bn):
    if getattr(args, "q", None):
        return [bn.id_of(t.strip()) for t in args.q.split(",") if t.strip()]
    return list(bn.ids)


def _bp_for(bn):
    bp = build_border_polytree(bn)
    preload_priors(bp)
    return bp


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

    # The prior column comes from the engine that answers the query.
    if args.engine == "oracle":
        priors = {q: oracle_posterior(bn, NO_EVIDENCE, q) for q in queries}
        posteriors = {q: oracle_posterior(bn, ev, q) for q in queries}
        evidence_prob = oracle_event_prob(bn, ev)
    elif args.engine == "chain":
        chain = build_chain(bn)
        prior_passes = run_passes(chain, NO_EVIDENCE)
        priors = {
            q: chain_posterior(chain, NO_EVIDENCE, q, passes=prior_passes)[1].values
            for q in queries
        }
        passes = run_passes(chain, ev)
        posteriors = {q: chain_posterior(chain, ev, q, passes=passes)[1].values for q in queries}
        evidence_prob = contract([passes.pi[0], passes.lam[0]], ()).total()
    elif args.engine == "polytree":
        engine = PolytreeEngine(bn)
        priors = {q: engine.priors[q].values for q in queries}
        posts, evidence_prob = engine.query(ev, queries)
        posteriors = {q: posts[q].values for q in queries}
    else:  # bp
        bp = _bp_for(bn)
        prior_session = BorderSession(bp)
        priors = {q: prior_session.posterior(q)[1].values for q in queries}
        session = BorderSession(bp, ev, pivot=args.pivot)
        posteriors = {q: session.posterior(q)[1].values for q in queries}
        evidence_prob = session.evidence_prob()

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
    engine = PolytreeEngine(bn)
    x, y = bn.id_of(args.frm), bn.id_of(args.to)
    path = engine.path(x, y)
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
    if bn.is_singly_connected():
        engine = PolytreeEngine(bn)
        core = evidential_core(engine.tree, list(ev.vars))
        print("kind\tnodes", file=out)
        print("core\t" + ",".join(bn.names(core.nodes)), file=out)
        print("roots\t" + ",".join(bn.names(core.roots)), file=out)
        print("leaves\t" + ",".join(bn.names(core.leaves)), file=out)
    else:
        bp = _bp_for(bn)
        session = BorderSession(bp, ev)
        print("kind\tborders", file=out)
        ids = sorted(session.core_nodes)
        print("core\t" + ";".join("{" + ",".join(bn.names(bp.borders[i].members)) + "}" for i in ids), file=out)
        print("pivot\t" + ";".join("{" + ",".join(bn.names(bp.borders[p].members)) + "}" for p in session.pivots.values()), file=out)
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
  status                 evidence, pivot, cache and message counters
  reset                  drop all evidence
  quit                   leave
"""


class ReplSession:
    def __init__(self, bn: BayesianNetwork, out):
        self.bn = bn
        self.out = out
        self.bp = build_border_polytree(bn)
        preload_priors(self.bp)
        self.store: dict = {}
        self.items: list[str] = []
        self.last_sent = 0

    def _session(self, update_counter: bool = True) -> BorderSession:
        ev = parse_evidence(",".join(self.items), self.bn) if self.items else NO_EVIDENCE
        session = BorderSession(self.bp, ev, store=self.store)
        if update_counter:
            self.last_sent = session.sent
        return session

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
                candidate = self.items + [s for s in rest.split(",") if s.strip()]
                ev = parse_evidence(",".join(candidate), self.bn)
                session = BorderSession(self.bp, ev, store=self.store)
                pe = session.evidence_prob()
                if pe <= 0.0:
                    raise ImpossibleEvidenceError(
                        "evidence has probability 0; session unchanged"
                    )
                self.items = candidate
                self.last_sent = session.sent
                print(f"evidence_prob\t{_fmt_prob(pe)}", file=out)
            elif verb == "retract":
                name = rest.strip()
                self.bn.id_of(name)
                self.items = [
                    s for s in self.items if s.split("=", 1)[0].strip() != name
                ]
                session = self._session()
                if self.items:
                    print(f"evidence_prob\t{_fmt_prob(session.evidence_prob())}", file=out)
                else:
                    print("evidence_prob\t1", file=out)
            elif verb == "query":
                queries = [self.bn.id_of(t.strip()) for t in rest.split(",") if t.strip()]
                if not queries:
                    print("usage: query X[,Y]", file=out)
                    return True
                session = self._session()
                prior_session = BorderSession(self.bp, store=self.store)
                priors = {q: prior_session.posterior(q)[1].values for q in queries}
                posts = {q: session.posterior(q)[1].values for q in queries}
                self.last_sent = session.sent
                rows = _posterior_rows(self.bn, queries, priors, posts)
                _tsv(rows, ["variable", "value", "prior", "posterior", "log_ratio"], out)
            elif verb == "priors":
                session = BorderSession(self.bp, store=self.store)
                rows = []
                for q in self.bn.ids:
                    dist = session.posterior(q)[1].values
                    for k, label in enumerate(self.bn.variables[q].value_labels):
                        rows.append(
                            {
                                "variable": self.bn.name_of(q),
                                "value": label,
                                "prior": _fmt_prob(dist[k]),
                            }
                        )
                _tsv(rows, ["variable", "value", "prior"], out)
            elif verb == "core":
                session = self._session()
                ids = sorted(session.core_nodes)
                names = ";".join(
                    "{" + ",".join(self.bn.names(self.bp.borders[i].members)) + "}"
                    for i in ids
                )
                print(f"core\t{names or '-'}", file=out)
            elif verb == "status":
                session = self._session(update_counter=False)
                print(f"evidence\t{','.join(self.items) or '-'}", file=out)
                print(f"core_borders\t{len(session.core_nodes)}", file=out)
                pivots = ",".join(str(p) for p in session.pivots.values())
                print(f"pivot\t{pivots or '-'}", file=out)
                print(f"messages_sent_last\t{self.last_sent}", file=out)
                print(f"cache_entries\t{len(self.store)}", file=out)
            elif verb == "reset":
                self.items = []
                print("ok", file=out)
            else:
                print(f"unknown command {verb!r}; try help", file=out)
        except (BordertreeError, KeyError, ValueError) as e:
            print(f"error: {e}", file=out)
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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bordertree",
        description="Exact posterior marginals for discrete Bayesian networks.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report acyclicity/normalization/positivity")
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
    p.add_argument("--evidence", help="e.g. H=h1,K=k0 or X=a|b")
    p.add_argument("--evidence-file")
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
    p.add_argument("--evidence")
    p.add_argument("--evidence-file")

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
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ImpossibleEvidenceError, NotSinglyConnectedError, BordertreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
