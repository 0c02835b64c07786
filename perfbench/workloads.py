"""The benchmark's four workloads.

A *case* is one evidence set, answered with the posterior of every queried
variable plus Pr(evidence).  Each workload times two paths through the
program on the same cases, and each path's answers are the reference for
the other's (the oracle replaces them where the joint table fits):

==================  ==========================  ===============================
workload            primary path                alt path
==================  ==========================  ===============================
polytree-large      ``bp_query``                ``PolytreeEngine.query``
grid-wide           ``bp_query``                chain engine, as ``query
                                                --engine chain`` runs it
dag-small-cli       in-process ``cli.main``     a fresh ``python -m
                    ``query ... --json``        bordertree.cli query`` process
repl-incremental    one ``ReplSession`` step    a fresh ``bp_query`` with no
                                                message store
==================  ==========================  ===============================

Each workload class generates its inputs from the seed in ``__init__``,
makes its networks queryable in ``setup`` (timed as ``setup_s``), runs every
case once in ``run_round``, runs cases in a loop for a given time in
``run_timed`` (resuming at the unit index it is given and returning the next
one), and checks the recorded answers in ``verify``.  Every answer is read
and checked outside the timed call.  The engines are called through their
modules' attributes at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from bordertree import bnformat, border_chain, bp_build, bp_infer, cli, oracle, polytree

ROOT = Path(__file__).resolve().parents[1]  # the checkout: src/, fixtures/, perfbench/
OUT = ROOT / ".perfbench"  # results, span dumps and the CLI workload's network files
TOL = 1e-9  # the test suite's tolerance: absolute on posteriors, relative on Pr(e)

# The fixtures with the evidence the README (bn_a, bn_c) and the CLI tests
# (polytree_b) query them with.
FIXTURES = (
    ("fixtures/bn_a.bn", "H=h0,K=k1"),
    ("fixtures/bn_c.bn", "B=b0,O=o1,Q=q0"),
    ("fixtures/polytree_b.bn", "B=b0,C=c1,K=k0,L4=l40"),
)
COLD_CASE = FIXTURES[1]


def _digest(ans) -> bytes:
    """Exact digest of a (posteriors by name, Pr(e)) answer."""
    posts, pe = ans
    h = hashlib.blake2b(repr(float(pe)).encode())
    for name in sorted(posts):
        h.update(name.encode() + b"\0" + np.asarray(posts[name], dtype=float).tobytes())
    return h.digest()


@dataclass
class Recorder:
    """Times calls and keeps each distinct answer once.

    ``call`` reads a call's answer, as (posteriors by name, Pr(e)), after the
    clock stops, and keeps it only if the same path has not given the same
    answer to the case before; otherwise it only counts the call.  So memory
    does not grow with the number of calls, and every call's answer is still
    checked in ``check``.
    """

    times: list[tuple[str, object, float]] = field(default_factory=list)  # (path, case, s)
    answers: dict[tuple, dict[bytes, list]] = field(default_factory=dict)  # -> {digest: [answer, calls]}
    errors: list[str] = field(default_factory=list)
    probe: object = None  # a hostspeed.HostProbe, run before each timed call

    def call(self, path, case, answer, fn, *args):
        if self.probe is not None:
            self.probe.maybe()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as e:  # a crash is a failed case, never a skipped one
            result = e
        self.times.append((path, case, time.perf_counter() - t0))
        if not isinstance(result, Exception):
            try:
                result = answer(result)
            except (ValueError, KeyError) as e:
                result = e
        if isinstance(result, Exception):
            self.errors.append(_failure(path, case, f"{type(result).__name__}: {result}"))
            return
        slot = self.answers.setdefault((path, case), {}).setdefault(_digest(result), [result, 0])
        slot[1] += 1

    def mean_times(self, path):
        """Each distinct case's mean over its repeats on ``path``.

        A call's time is the host's speed integrated over the call, so the
        mean over a run follows the run's mix of fast and slow host states,
        as the mean probe time does (see hostspeed.py).  A case's fastest
        repeat instead depends on whether the run caught a fast moment.
        """
        by_case: dict[object, list[float]] = {}
        for p, case, seconds in self.times:
            if p == path:
                by_case.setdefault(case, []).append(seconds)
        return [statistics.fmean(ts) for ts in by_case.values()]

    def all_times(self, path):
        return [seconds for p, _case, seconds in self.times if p == path]

    def repeats(self, path):
        return list(Counter(case for p, case, _s in self.times if p == path).values())

    def check(self, reference, what):
        """Every call's failure: its error, or ``what`` when its answer
        differs from ``reference(path, case)``.  ``reference`` returns the
        reference answer, or a string saying why there is none."""
        failures = list(self.errors)
        for (path, case), distinct in self.answers.items():
            ref = reference(path, case)
            for ans, calls in distinct.values():
                if isinstance(ref, str):
                    failures += [_failure(path, case, ref)] * calls
                elif not _answers_match(ans, ref):
                    failures += [_failure(path, case, what)] * calls
        return failures


def _answers_match(a, b) -> bool:
    """(posteriors by name, Pr(e)) pairs agree at the suite's tolerance."""
    posts_a, pe_a = a
    posts_b, pe_b = b
    if posts_a.keys() != posts_b.keys():
        return False
    for name, va in posts_a.items():
        vb = posts_b[name]
        if np.shape(va) != np.shape(vb) or not np.all(np.abs(np.asarray(va) - vb) <= TOL):
            return False
    return abs(pe_a - pe_b) <= TOL * max(abs(pe_a), abs(pe_b))


def _engine_answer(bn):
    """Reads an engine's (posteriors by id, Pr(e)) result on ``bn``."""
    return lambda result: ({bn.name_of(q): f.values for q, f in result[0].items()}, result[1])


def _failure(path, case, what):
    return f"{path} {case}: {what}"


def cross_check(rec):
    """Each path's answers against the other path's first answer to the same case."""

    def reference(path, case):
        other = rec.answers.get(("alt" if path == "main" else "main", case))
        if not other:
            return "the other path failed, so there is no reference"
        return next(iter(other.values()))[0]

    return rec.check(reference, "the two paths disagree")


# -- engine workloads ---------------------------------------------------------


def chain_query(chain, ev):
    """All marginals from one pair of passes, as ``query --engine chain``."""
    passes = border_chain.run_passes(chain, ev)
    posts, pe = {}, 1.0
    for q in chain.source.ids:
        _, posts[q], pe = border_chain.chain_posterior(chain, ev, q, passes=passes)
    return posts, pe


class _PairedEngines:
    """Networks in memory; every case runs on two engines in turn."""

    name = ""
    why = ""
    POOLED = ()  # paths timed over every call, not each case's mean

    def __init__(self):
        self.texts: list[str] = []
        self.evidence: list[list[str]] = []  # per network

    def _alt_setup(self, bn):
        raise NotImplementedError

    def _alt_query(self, alt, ev):
        raise NotImplementedError

    def setup(self):
        nets = []
        for text in self.texts:
            bn = bnformat.parse_network(text)
            bp = bp_build.build_border_polytree(bn)
            bp_infer.preload_priors(bp)
            nets.append((bn, bp, self._alt_setup(bn)))
        return nets

    def cases(self, nets):
        out = []
        for k, (bn, _bp, _alt) in enumerate(nets):
            for j, text in enumerate(self.evidence[k]):
                out.append(((k, j), bnformat.parse_evidence(text, bn)))
        return out

    def run_case(self, rec, nets, key, ev):
        bn, bp, alt = nets[key[0]]
        rec.call("main", key, _engine_answer(bn), bp_infer.bp_query, bp, ev)
        rec.call("alt", key, _engine_answer(bn), self._alt_query, alt, ev)

    def run_round(self, rec, nets):
        for key, ev in self.cases(nets):
            self.run_case(rec, nets, key, ev)

    def run_timed(self, rec, nets, seconds, i):
        cases = self.cases(nets)
        end = time.perf_counter() + seconds
        while True:
            key, ev = cases[i % len(cases)]
            self.run_case(rec, nets, key, ev)
            i += 1
            if time.perf_counter() >= end:
                return i

    def verify(self, rec, _nets):
        return cross_check(rec)


class PolytreeLarge(_PairedEngines):
    name = "polytree-large"
    why = "400-node polytrees with tiny tables: tree bookkeeping dominates, kernels do little"
    NODES, NETWORKS, EVIDENCE_SETS, EVIDENCE_VARS = 400, 2, 2, 5

    def __init__(self, rng):
        super().__init__()
        # Tree shape alone moves a case's cost by up to 60% (0.8 to 1.3 s
        # over six trees), so shapes and evidence positions come from the
        # fixed layout stream.
        layout = np.random.default_rng(gen.LAYOUT_SEED)
        for _ in range(self.NETWORKS):
            text = gen.random_polytree_text(layout, rng, self.NODES, card_max=3)
            cards = gen.network_cards(text)
            self.texts.append(text)
            self.evidence.append(
                [gen.evidence_text(layout, rng, cards, self.EVIDENCE_VARS) for _ in range(self.EVIDENCE_SETS)]
            )

    def _alt_setup(self, bn):
        return polytree.PolytreeEngine(bn)

    def _alt_query(self, engine, ev):
        return engine.query(ev)


class GridWide(_PairedEngines):
    name = "grid-wide"
    why = "10x10 grids at card 3 fix the widest border at 3^10 entries: table kernels dominate"
    ROWS, COLS, CARD, NETWORKS, EVIDENCE_SETS, EVIDENCE_VARS = 10, 10, 3, 2, 6, 5

    def __init__(self, rng):
        super().__init__()
        # Where the evidence sits moves a bp case's cost up to 4x, so the
        # positions come from the fixed layout stream.
        layout = np.random.default_rng(gen.LAYOUT_SEED)
        for _ in range(self.NETWORKS):
            text = gen.grid_text(rng, self.ROWS, self.COLS, self.CARD)
            cards = gen.network_cards(text)
            self.texts.append(text)
            self.evidence.append(
                [gen.evidence_text(layout, rng, cards, self.EVIDENCE_VARS) for _ in range(self.EVIDENCE_SETS)]
            )

    def _alt_setup(self, bn):
        return border_chain.build_chain(bn)

    def _alt_query(self, chain, ev):
        return chain_query(chain, ev)


# -- CLI workload -------------------------------------------------------------


def _cli_answer(result):
    """(posteriors by name, Pr(e)) from ``query --json``'s (exit code, output)."""
    code, stdout = result
    if code != 0:
        raise ValueError(f"exit code {code}")
    doc = json.loads(stdout)
    posts: dict[str, list[float]] = {}
    for row in doc["posteriors"]:
        posts.setdefault(row["variable"], []).append(float(row["posterior"]))
    return posts, float(doc["evidence_prob"])


class DagSmallCli:
    name = "dag-small-cli"
    why = "small DAGs through the CLI, which re-parses and rebuilds per call: per-call overhead"
    NETWORKS, NODES, EVIDENCE_SETS, EVIDENCE_VARS = 12, 30, 3, 3
    COLD_EVERY = 16  # one cold process per this many in-process calls, from the first
    POOLED = ("alt",)  # one cold case, so its percentiles run over every cold call

    def __init__(self, rng):
        OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="dags-", dir=OUT)
        self.cases: list[tuple[str, str]] = []  # (path, evidence); fixtures relative to ROOT
        self.texts = []
        # A wide network moves the run's peak memory by 60% (47 to 81 MB over
        # ten seeds), so shapes and evidence positions come from the fixed
        # layout stream.
        layout = np.random.default_rng(gen.LAYOUT_SEED)
        for k in range(self.NETWORKS):
            text = gen.random_dag_text(layout, rng, self.NODES, card_max=3, max_parents=3)
            path = os.path.join(self.workdir, f"dag{k}.bn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.texts.append(text)
            cards = gen.network_cards(text)
            for _ in range(self.EVIDENCE_SETS):
                self.cases.append((path, gen.evidence_text(layout, rng, cards, self.EVIDENCE_VARS)))
        for path, ev in FIXTURES:
            self.texts.append((ROOT / path).read_text(encoding="utf-8"))
            self.cases.append((path, ev))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self):
        """What one CLI call redoes for its network: parse, stage I+II, priors."""
        for text in self.texts:
            bp = bp_build.build_border_polytree(bnformat.parse_network(text))
            bp_infer.preload_priors(bp)
        return None

    def _warm(self, path, ev):
        out = io.StringIO()
        code = cli.main(["query", str(ROOT / path), "--evidence", ev, "--json"], out=out)
        return code, out.getvalue()

    def _cold(self):
        path, ev = COLD_CASE
        proc = subprocess.run(
            [sys.executable, "-m", "bordertree.cli", "query", path, "--evidence", ev, "--json"],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout

    def run_round(self, rec, _state):
        for case in self.cases:
            rec.call("main", case, _cli_answer, self._warm, *case)

    def run_timed(self, rec, _state, seconds, i):
        end = time.perf_counter() + seconds
        while True:
            case = self.cases[i % len(self.cases)]
            rec.call("main", case, _cli_answer, self._warm, *case)
            i += 1
            if i % self.COLD_EVERY == 1:
                rec.call("alt", COLD_CASE, _cli_answer, self._cold)
            if time.perf_counter() >= end:
                return i

    def _reference(self, path, ev):
        bn = bnformat.parse_network((ROOT / path).read_text(encoding="utf-8"))
        e = bnformat.parse_evidence(ev, bn)
        if (path, ev) in FIXTURES:
            posts = {bn.name_of(q): oracle.oracle_posterior(bn, e, q) for q in bn.ids}
            return posts, oracle.oracle_event_prob(bn, e)
        return _engine_answer(bn)(chain_query(border_chain.build_chain(bn), e))

    def verify(self, rec, _state):
        """Every answer against the oracle (fixtures) or the chain engine."""
        refs = {}

        def reference(_path, case):
            if case not in refs:
                try:
                    refs[case] = self._reference(*case)
                except Exception as e:  # the reference engine is the program too
                    refs[case] = f"reference failed: {e!r}"
            return refs[case]

        return rec.check(reference, "answer differs from the reference")


# -- REPL workload ------------------------------------------------------------


def _repl_answer(text: str):
    """(posteriors by name, Pr(e)) from one step's REPL output."""
    posts: dict[str, list[float]] = {}
    pe = None
    for line in text.splitlines():
        cols = line.split("\t")
        if cols[0] == "evidence_prob":
            pe = float(cols[1])
        elif line.startswith("error"):
            raise ValueError(line)
        elif len(cols) == 5 and cols[0] != "variable":
            posts.setdefault(cols[0], []).append(float(cols[3]))
    if pe is None:
        raise ValueError("no evidence_prob line")
    return posts, pe


class ReplIncremental:
    name = "repl-incremental"
    why = "REPL steps reuse the shared message store; fresh queries never read it"
    DAG_NODES, DAG_WINDOW, POLY_NODES, STEPS = 60, 6, 200, 16
    POOLED = ()

    def __init__(self, rng):
        # A step's cost jumps 100x with which variables are observed (the
        # evidential-core search enumerates combinations of their home
        # borders), so networks and scripts come from the fixed layout stream.
        layout = np.random.default_rng(gen.LAYOUT_SEED)
        self.texts = [
            gen.random_dag_text(
                layout, rng, self.DAG_NODES, card_max=3, max_parents=3, window=self.DAG_WINDOW
            ),
            gen.random_polytree_text(layout, rng, self.POLY_NODES, card_max=3),
        ]
        self.scripts = [
            gen.repl_script(layout, rng, gen.network_cards(t), self.STEPS) for t in self.texts
        ]

    def _session(self, text):
        return cli.ReplSession(bnformat.parse_network(text), io.StringIO())

    def setup(self):
        return [self._session(text) for text in self.texts]

    @staticmethod
    def _step(session, change, query):
        session.out = out = io.StringIO()
        session.handle(change)
        session.handle(query)
        return out.getvalue()

    @staticmethod
    def _fresh(bp, items, names):
        bn = bp.source
        ev = bnformat.parse_evidence(",".join(items), bn)
        return bp_infer.bp_query(bp, ev, queries=[bn.id_of(n) for n in names])

    def _run_script(self, rec, k, session):
        items: list[str] = []
        for j, (change, query) in enumerate(self.scripts[k]):
            verb, arg = change.split(" ", 1)
            if verb == "evidence":
                items.append(arg)
            else:
                items = [s for s in items if s.split("=", 1)[0] != arg]
            names = query.split(" ", 1)[1].split(",")
            rec.call("main", (k, j), _repl_answer, self._step, session, change, query)
            rec.call("alt", (k, j), _engine_answer(session.bn), self._fresh, session.bp, list(items), names)

    def run_round(self, rec, sessions):
        for k, session in enumerate(sessions):
            self._run_script(rec, k, session)

    def run_timed(self, rec, _sessions, seconds, i):
        """Whole scripts, each on a fresh session so the store starts empty."""
        end = time.perf_counter() + seconds
        while True:
            k = i % len(self.texts)
            self._run_script(rec, k, self._session(self.texts[k]))
            i += 1
            if time.perf_counter() >= end:
                return i

    def verify(self, rec, _sessions):
        """REPL answers against a fresh, store-free ``bp_query`` of the step."""
        return cross_check(rec)


# -- layer census ---------------------------------------------------------------

CENSUS_CASE = FIXTURES[2]  # a polytree, so every engine accepts it
CENSUS_ENGINES = ("bp", "polytree", "chain")


def run_census(rec):
    """One query of a fixture per engine through ``cli.main``.

    Each traced pass ends with it, so that every layer runs, and so reports
    a measured value, in every workload; it adds the same few milliseconds
    of work to each.
    """
    path, ev = CENSUS_CASE
    for engine in CENSUS_ENGINES:
        argv = ["query", str(ROOT / path), "--evidence", ev, "--engine", engine, "--json"]
        out = io.StringIO()
        rec.call("census", engine, _cli_answer, lambda: (cli.main(argv, out=out), out.getvalue()))


def verify_census(rec):
    bn = bnformat.parse_network((ROOT / CENSUS_CASE[0]).read_text(encoding="utf-8"))
    ev = bnformat.parse_evidence(CENSUS_CASE[1], bn)
    ref = {bn.name_of(q): oracle.oracle_posterior(bn, ev, q) for q in bn.ids}, oracle.oracle_event_prob(bn, ev)
    return rec.check(lambda _path, _case: ref, "answer differs from the oracle")


WORKLOADS = {w.name: w for w in (PolytreeLarge, GridWide, DagSmallCli, ReplIncremental)}
