"""The command-line front end, driven through main(argv)."""

import io
import json
import os

import numpy as np
import pytest

from bordertree.bnformat import parse_evidence, parse_network
from bordertree.cli import ReplSession, main
from bordertree.oracle import oracle_event_prob, oracle_posterior

from conftest import fixture_path

BN_A = fixture_path("bn_a.bn")
BN_C = fixture_path("bn_c.bn")
POLY_B = fixture_path("polytree_b.bn")
# A polytree in two components: A->B and C->D.
TWO_COMPONENTS = (
    "node A 2 a0 a1\nnode B 2 b0 b1\nnode C 2 c0 c1\nnode D 2 d0 d1\n"
    "parents B A\nparents D C\n"
    "cpt A 0.4 0.6\ncpt B 0.3 0.7 0.8 0.2\n"
    "cpt C 0.5 0.5\ncpt D 0.1 0.9 0.6 0.4\n"
)


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def load(path):
    with open(path, encoding="utf-8") as fh:
        return parse_network(fh.read())


class TestChain:
    def test_forced_order_matches_table(self):
        code, out = run("chain", BN_A, "--order", "-,A,B,C,D,F,H,G,I")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i\tV\tC\tB\tphi\trule"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 9
        assert rows[0] == ["0", "-", "A,B", "A,B", "A,B", "-"]
        assert rows[6] == ["6", "H", "G,J,K", "G,I,J,K", "G,J,K|H,I", "3"]
        assert [r[5] for r in rows] == ["-", "2", "1", "2", "2", "1", "3", "1", "2"]

    def test_empty_order_is_replayed(self, tmp_path, capsys):
        # An explicit empty order is a forced order with no promotion.
        assert run("chain", BN_A, "--order", "")[0] == 1
        assert capsys.readouterr().err == "error: forced order ended before the chain completed\n"
        empty = tmp_path / "empty.bn"
        empty.write_text("")
        assert run("chain", str(empty), "--order", "") == (0, "i\tV\tC\tB\tphi\trule\n0\t-\t-\t\t1\t-\n")

    def test_byte_stable(self):
        a = run("chain", BN_A)[1]
        b = run("chain", BN_A)[1]
        assert a == b

    def test_json_mode(self):
        code, out = run("chain", BN_A, "--json")
        rows = json.loads(out)
        assert rows[0]["B"] == "A,B"


class TestQuery:
    @pytest.mark.parametrize("engine", ["bp", "chain", "oracle"])
    def test_posterior_matches_oracle(self, engine):
        code, out = run(
            "query", BN_A, "--evidence", "H=h0,K=k1", "--q", "A", "--engine", engine
        )
        assert code == 0
        bn = load(BN_A)
        ev = parse_evidence("H=h0,K=k1", bn)
        want = oracle_posterior(bn, ev, bn.id_of("A"))
        lines = out.strip().splitlines()
        got = [float(line.split("\t")[3]) for line in lines[1:3]]
        np.testing.assert_allclose(got, want, atol=1e-9)
        pe = float(lines[-1].split("\t")[1])
        assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)

    def test_polytree_engine_on_polytree(self):
        code, out = run(
            "query", POLY_B, "--evidence", "B=b1", "--q", "A", "--engine", "polytree"
        )
        assert code == 0

    def test_polytree_engine_rejects_loops(self):
        code, _ = run("query", BN_A, "--q", "A", "--engine", "polytree")
        assert code == 1

    @pytest.mark.parametrize("engine", ["chain", "polytree", "oracle"])
    def test_prior_column_from_the_chosen_engine(self, engine, monkeypatch):
        # Only the default engine builds a border polytree.
        import bordertree.cli as cli

        def refuse(bn):
            raise AssertionError("border polytree built for another engine")

        monkeypatch.setattr(cli, "build_border_polytree", refuse)
        code, out = run(
            "query", POLY_B, "--evidence", "B=b1,K=k0", "--engine", engine, "--json"
        )
        assert code == 0
        bn = load(POLY_B)
        rows = json.loads(out)["posteriors"]
        for q in bn.ids:
            got = [float(r["prior"]) for r in rows if r["variable"] == bn.name_of(q)]
            np.testing.assert_allclose(got, oracle_posterior(bn, parse_evidence("", bn), q), atol=1e-9)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([BN_A, "--q", "A"], id="bn_a-bp"),
            *(
                pytest.param([POLY_B, "--engine", engine], id=f"polytree_b-{engine}")
                for engine in ("bp", "chain", "polytree", "oracle")
            ),
        ],
    )
    def test_no_evidence_posterior_equals_prior(self, argv):
        # The prior column is the engine's own answer with no evidence.
        code, out = run("query", *argv)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:-1]]
        assert rows
        for cols in rows:
            assert cols[2] == cols[3] and cols[4] == "0"

    def test_impossible_evidence_exit_1(self, tmp_path):
        text = (
            "node A 2 f t\nnode B 2 f t\nparents B A\n"
            "cpt A 1 0\ncpt B 1 0 0.5 0.5\n"
        )
        net = tmp_path / "imp.bn"
        net.write_text(text)
        code, _ = run("query", str(net), "--evidence", "B=t", "--q", "A")
        assert code == 1

    @pytest.mark.parametrize("engine", ["bp", "chain", "polytree", "oracle"])
    def test_impossible_evidence_same_message_on_every_engine(self, engine, tmp_path, capsys):
        net = tmp_path / "imp.bn"
        net.write_text("node A 2 a0 a1\nnode B 2 b0 b1\nparents B A\ncpt A 1 0\ncpt B 1 0 0.5 0.5\n")
        code, out = run("query", str(net), "--evidence", "B=b1", "--engine", engine)
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: evidence has probability 0\n"

    @pytest.mark.parametrize("engine", ["bp", "chain", "oracle"])
    def test_empty_query_list_exit_2(self, engine, capsys):
        # A --q list that names no variable is a usage error, as the REPL's
        # `query ,` is, whatever the engine.
        for names in (",", "", " , "):
            code, out = run("query", BN_A, "--evidence", "H=h0,K=k1", "--q", names, "--engine", engine)
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "parse error: --q names no variable\n"

    @pytest.mark.parametrize("command", ["query", "prior"])
    def test_repeated_query_name_exit_2(self, command, capsys):
        code, out = run(command, BN_A, "--q", "H, K,H")
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "parse error: duplicate query for 'H'\n"

    @pytest.mark.parametrize("pivot", range(13))
    def test_evidence_prob_is_one_without_evidence_at_any_pivot(self, pivot):
        code, out = run("query", BN_C, "--pivot", str(pivot), "--q", "A", "--json")
        assert code == 0
        assert json.loads(out)["evidence_prob"] == 1.0

    def test_pivot_that_is_not_a_border_exit_2(self, capsys):
        code, out = run("query", BN_C, "--evidence", "B=b0", "--pivot", "999")
        assert code == 2 and out == ""
        assert "pivot 999" in capsys.readouterr().err

    def test_negative_pivot_exit_2(self, capsys):
        code, out = run("query", BN_C, "--evidence", "B=b0", "--pivot", "-1")
        assert code == 2 and out == ""
        assert "pivot -1" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["chain", "polytree", "oracle"])
    def test_pivot_with_another_engine_exit_2(self, engine, capsys):
        code, out = run("query", BN_C, "--evidence", "B=b0", "--engine", engine, "--pivot", "3")
        assert code == 2 and out == ""
        assert "--pivot" in capsys.readouterr().err

    def test_oracle_sums_the_joint_for_the_evidence_only(self, monkeypatch):
        # The prior column's Pr(e) is 1: no second pass over the joint.
        import bordertree.cli as cli

        calls = []

        def spy(bn, ev):
            calls.append(ev)
            return oracle_event_prob(bn, ev)

        monkeypatch.setattr(cli, "oracle_event_prob", spy)
        code, _ = run("query", BN_A, "--evidence", "H=h0", "--q", "A", "--engine", "oracle")
        assert code == 0 and len(calls) == 1
        code, out = run("query", BN_A, "--q", "A", "--engine", "oracle")
        assert code == 0 and len(calls) == 1
        assert out.splitlines()[-1] == "evidence_prob\t1"

    def test_json_schema(self):
        code, out = run(
            "query", BN_A, "--evidence", "H=h0", "--q", "A,B", "--json"
        )
        doc = json.loads(out)
        assert set(doc) == {"evidence_prob", "posteriors"}
        assert {r["variable"] for r in doc["posteriors"]} == {"A", "B"}

    def test_evidence_file(self, tmp_path):
        evf = tmp_path / "obs.txt"
        evf.write_text("# observations\nH=h0\nK=k1\n")
        _, via_file = run("query", BN_A, "--evidence-file", str(evf), "--q", "A")
        _, inline = run("query", BN_A, "--evidence", "H=h0,K=k1", "--q", "A")
        assert via_file == inline

    def test_repeated_evidence_names_no_line(self, capsys):
        code, _ = run("query", BN_A, "--evidence", "H=h0,H=h1")
        assert code == 2
        err = capsys.readouterr().err
        assert err == "parse error: duplicate evidence for 'H'\n"

    def test_soft_evidence_accepted(self):
        code, out = run("query", BN_A, "--evidence", "D=d0|d2", "--q", "L")
        assert code == 0
        bn = load(BN_A)
        ev = parse_evidence("D=d0|d2", bn)
        want = oracle_posterior(bn, ev, bn.id_of("L"))
        got = [float(line.split("\t")[3]) for line in out.strip().splitlines()[1:4]]
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestOtherCommands:
    def test_validate_ok(self):
        code, out = run("validate", BN_A)
        assert code == 0 and "no diagnostics" in out

    def test_validate_parse_error_exit_2(self, tmp_path):
        net = tmp_path / "bad.bn"
        net.write_text("node A 2 f t\ncpt A 0.9 0.9\n")
        code, _ = run("validate", str(net))
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _ = run("validate", "no-such-file.bn")
        assert code == 2

    def test_directory_as_network_exit_2(self, capsys):
        code, _ = run("validate", os.path.dirname(BN_A))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_network_not_utf8_exit_2(self, tmp_path, capsys):
        net = tmp_path / "latin.bn"
        net.write_bytes(b"node A 2 a0 a1\n# \xff\ncpt A 0.5 0.5\n")
        code, _ = run("validate", str(net))
        assert code == 2
        assert capsys.readouterr().err == f"parse error: {net}: not UTF-8 text (byte 17)\n"

    def test_evidence_file_not_utf8_exit_2(self, tmp_path, capsys):
        evf = tmp_path / "obs.txt"
        evf.write_bytes(b"H=h0\n\xff\n")
        code, out = run("query", BN_A, "--evidence-file", str(evf))
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"parse error: {evf}: not UTF-8 text (byte 5)\n"

    def test_network_with_byte_order_mark(self, tmp_path, capsys):
        net = tmp_path / "bom.bn"
        with open(BN_A, "rb") as fh:
            net.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert run("query", str(net)) == run("query", BN_A)
        # A bad byte is still reported at its offset in the file.
        net.write_bytes(b"\xef\xbb\xbfnode A 2 a0 a1\n# \xff\ncpt A 0.5 0.5\n")
        assert run("validate", str(net)) == (2, "")
        assert capsys.readouterr().err == f"parse error: {net}: not UTF-8 text (byte 20)\n"

    def test_evidence_file_with_byte_order_mark(self, tmp_path):
        evf = tmp_path / "obs.txt"
        evf.write_bytes(b"\xef\xbb\xbfH=h0\nK=k1\n")
        via_file = run("query", BN_A, "--evidence-file", str(evf))
        assert via_file == run("query", BN_A, "--evidence", "H=h0,K=k1")

    def test_dot_into_directory_exit_2(self, tmp_path, capsys):
        code, _ = run("build-bp", BN_A, "--dot", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_prior_matches_oracle(self):
        bn = load(BN_A)
        code, out = run("prior", BN_A, "--q", "D")
        vals = [float(line.split("\t")[2]) for line in out.strip().splitlines()[1:]]
        from bordertree.oracle import oracle_marginal

        np.testing.assert_allclose(vals, oracle_marginal(bn, [bn.id_of("D")]), atol=1e-9)

    def test_paths(self):
        code, out = run("paths", POLY_B, "--from", "P", "--to", "A")
        assert code == 0
        assert out.strip().splitlines()[1].split("\t")[2] == "P-I-M-D-A"

    def test_paths_between_components_names_both(self, tmp_path, capsys):
        net = tmp_path / "two.bn"
        net.write_text(TWO_COMPONENTS)
        code, out = run("paths", str(net), "--from", "A", "--to", "C")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: A and C are in different components: no path\n"

    def test_paths_rejects_loopy_network(self, capsys):
        code, _ = run("paths", BN_A, "--from", "A", "--to", "L")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: network has an undirected loop; use the border polytree engine\n"

    def test_paths_computes_no_prior(self, monkeypatch):
        # A path is structure: `paths` must not depend on table sizes.
        from bordertree import polytree

        calls = []
        monkeypatch.setattr(polytree, "node_priors", lambda bn: calls.append(bn))
        code, out = run("paths", POLY_B, "--from", "P", "--to", "A")
        assert code == 0 and out.startswith("from\t")
        assert calls == []

    @pytest.mark.parametrize(
        "evidence,want",
        [
            ("B=b0,D=d1", ["core\tB,D", "roots\tB,D", "leaves\tB,D"]),
            ("A=a0,B=b0,D=d1", ["core\tA,B,D", "roots\tA,D", "leaves\tB,D"]),
        ],
    )
    def test_core_on_polytree_with_two_components(self, tmp_path, evidence, want):
        # One core per component that holds evidence, merged.
        net = tmp_path / "two.bn"
        net.write_text(TWO_COMPONENTS)
        code, out = run("core", str(net), "--evidence", evidence)
        assert code == 0
        assert out.splitlines() == ["kind\tnodes", *want]

    def test_core_on_bp(self):
        code, out = run("core", BN_C, "--evidence", "B=b0,O=o1,Q=q0")
        assert code == 0
        assert "{N,P,Q}" in out and "{B,C,G,P,O}" in out

    def test_core_on_polytree(self):
        code, out = run("core", POLY_B, "--evidence", "B=b0,C=c1,K=k0,L4=l40")
        assert code == 0
        lines = dict(line.split("\t", 1) for line in out.strip().splitlines()[1:])
        assert set(lines["roots"].split(",")) == {"A", "C", "K"}
        assert set(lines["leaves"].split(",")) == {"B", "L4", "M"}

    @pytest.mark.parametrize(
        "path,evidence",
        [(POLY_B, "B=b0,C=c1,K=k0,L4=l40"), (BN_C, "B=b0,O=o1,Q=q0")],
        ids=["polytree", "borders"],
    )
    def test_core_computes_no_message_or_prior(self, monkeypatch, path, evidence):
        # Cores and pivots are structure: `core` must not depend on table
        # sizes it never prints.
        from bordertree import bp_infer, cli
        from bordertree.messaging import TreeSession

        calls = []
        send, preload = TreeSession._send, bp_infer.preload_priors
        monkeypatch.setattr(TreeSession, "_send", lambda *a: calls.append("_send") or send(*a))
        spy = lambda bp: calls.append("preload_priors") or preload(bp)
        monkeypatch.setattr(bp_infer, "preload_priors", spy)
        monkeypatch.setattr(cli, "preload_priors", spy)
        code, out = run("core", path, "--evidence", evidence)
        assert code == 0 and out.startswith("kind\t")
        assert calls == []

    @pytest.mark.parametrize("command", ["query", "core"])
    def test_both_evidence_flags_are_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(command, BN_A, "--evidence", "H=h0", "--evidence-file", BN_A)
        assert exit_.value.code == 2
        assert "not allowed with argument --evidence" in capsys.readouterr().err

    def test_build_bp_lists_and_dot(self, tmp_path):
        dot = tmp_path / "bp.dot"
        code, out = run("build-bp", BN_C, "--dot", str(dot))
        assert code == 0
        assert "# macro-nodes" in out and "# borders" in out
        text = dot.read_text()
        assert text.startswith("digraph") and "->" in text

    def test_build_bp_exits_1_on_a_structural_error(self, monkeypatch):
        from bordertree import cli
        from bordertree.network import Diagnostic

        def one_error(bp):
            return [
                Diagnostic("note", "width", "ignored"),
                Diagnostic("error", "running-intersection", "B split"),
            ]

        monkeypatch.setattr(cli, "verify_bp", one_error)
        code, out = run("build-bp", BN_C)
        assert code == 1
        errors = [line for line in out.splitlines() if line.startswith("error")]
        assert errors == ["error\trunning-intersection\tB split"]

    def test_gen_deterministic_and_parseable(self):
        a = run("gen", "--seed", "5", "--nodes", "6")[1]
        b = run("gen", "--seed", "5", "--nodes", "6")[1]
        assert a == b
        bn = parse_network(a)
        assert len(bn) == 6
        c = run("gen", "--seed", "6", "--nodes", "6")[1]
        assert c != a
        poly = parse_network(run("gen", "--seed", "1", "--nodes", "7", "--polytree")[1])
        assert poly.is_singly_connected()

    def test_gen_over_state_space_cap_is_usage_error(self, capsys):
        code, out = run("gen", "--nodes", "21")
        assert code == 2 and out == ""
        assert "state-space cap 1048576" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [[], ["--polytree"]])
    @pytest.mark.parametrize(
        "flag,value",
        [("--max-card", "1"), ("--max-card", "0"), ("--nodes", "-3"), ("--seed", "-1")],
    )
    def test_gen_rejects_bad_flags(self, shape, flag, value, capsys):
        code, out = run("gen", *shape, flag, value)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err

    def test_gen_accepts_the_least_flags(self):
        for shape in ([], ["--polytree"]):
            assert run("gen", *shape, "--nodes", "0", "--max-card", "2")[0] == 0
            code, out = run("gen", *shape, "--nodes", "1", "--max-card", "2")
            assert code == 0 and len(parse_network(out)) == 1


class TestRepl:
    def _drive(self, lines):
        bn = load(BN_A)
        out = io.StringIO()
        session = ReplSession(bn, out)
        for line in lines:
            if not session.handle(line):
                break
        return session, out.getvalue()

    def test_evidence_then_retract_restores_priors(self):
        _, base = self._drive(["query A"])
        _, after = self._drive(
            ["evidence H=h0", "evidence K=k1", "retract H", "retract K", "query A"]
        )
        assert after.strip().splitlines()[-3:] == base.strip().splitlines()[-3:]

    def test_incremental_evidence_message_counts(self):
        # Collection runs toward the pivot holding the first-listed evidence
        # variable (O); evidence added upstream later only re-sends the
        # messages whose behind-the-message side changed.
        bn = load(BN_C)
        out = io.StringIO()
        session = ReplSession(bn, out)
        session.handle("evidence O=o1,Q=q0")
        session.handle("status")
        session.handle("evidence B=b0")
        session.handle("status")
        stats = [
            int(line.split("\t")[1])
            for line in out.getvalue().splitlines()
            if line.startswith("messages_sent_last")
        ]
        first, second = stats
        from bordertree.bp_infer import BorderSession

        ev2 = parse_evidence("O=o1,Q=q0,B=b0", bn)
        fresh = BorderSession(session.bp, ev2)
        assert first == 3  # the 4-border evidential core has 3 edges
        assert fresh.sent == 3
        assert second == 1  # only the edge whose upstream side now holds B

    def test_shared_store_hits_and_sends_per_step(self):
        # Per step: the messages the step computed and the messages the
        # current session holds after it.  ``query Y,I`` sends 14: the
        # downward message 16->17 ({B,C,G,N,P} to {B,C,G,P,O}) depends on
        # Q alone again once B is retracted, but it went stale when B was
        # added, and a session keeps no message of an earlier evidence set.
        # A shares no ancestor with Q, and Z none with I, so ``query A,O``
        # and ``query A,Z`` read A and Z from the preloaded priors and send
        # only the messages to O and to A.
        steps = [
            ("evidence Q=q0", 0, 0),
            ("query A,O", 4, 4),
            ("evidence B=b0", 2, 5),
            ("query Z", 7, 12),
            ("evidence O=o1", 3, 6),
            ("query A", 2, 8),
            ("retract B", 3, 6),
            ("query Y,I", 14, 20),
            ("evidence S=s0,T=t1", 8, 14),
            ("query J", 4, 18),
            ("evidence B=b1", 1, 8),
            ("query Q", 4, 12),
            ("retract Q", 4, 10),
            ("query A,B,C", 2, 12),
            ("status", 2, 12),
            ("reset", 2, 0),
            ("query A", 0, 0),
            ("evidence I=i0", 0, 0),
            ("query A,Z", 10, 10),
            ("priors", 10, 10),
        ]
        session = ReplSession(load(BN_C), io.StringIO())
        got = []
        for line, *_ in steps:
            session.handle(line)
            got.append((line, session.last_sent, len(session.session.store)))
        assert got == steps

    def test_store_stays_within_two_messages_per_edge(self):
        # A seeded script of observations, retracts, queries and resets:
        # the current session holds at most one message per edge and
        # direction, however long the script runs.
        rng = np.random.default_rng(7)
        bn = load(BN_C)
        names = [bn.name_of(v) for v in bn.ids]
        session = ReplSession(bn, io.StringIO())
        sizes = []
        for _ in range(300):
            observed = [bn.name_of(v) for v in session.session.ev.vars]
            roll = rng.random()
            if observed and roll < 0.25:
                session.handle(f"retract {observed[int(rng.integers(0, len(observed)))]}")
            elif roll < 0.55:
                free = [n for n in names if n not in observed]
                name = free[int(rng.integers(0, len(free)))]
                labels = bn.variables[bn.id_of(name)].value_labels
                session.handle(f"evidence {name}={labels[int(rng.integers(0, len(labels)))]}")
            elif roll < 0.95:
                picks = rng.choice(len(names), size=3, replace=False)
                session.handle("query " + ",".join(names[int(i)] for i in picks))
            else:
                session.handle("reset")
            sizes.append(len(session.session.store))
        assert max(sizes) <= 2 * len(session.bp.edges)
        assert max(sizes) > len(session.bp.edges)

    def test_query_on_evidence_variable(self):
        _, out = self._drive(["evidence D=d0|d1", "query D"])
        rows = [
            line.split("\t")
            for line in out.strip().splitlines()
            if line.startswith("D\t")
        ]
        assert float(rows[2][3]) == 0.0  # excluded value has posterior 0
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0)

    def test_impossible_evidence_leaves_state(self, tmp_path):
        text = (
            "node A 2 f t\nnode B 2 f t\nparents B A\n"
            "cpt A 1 0\ncpt B 1 0 0.5 0.5\n"
        )
        bn = parse_network(text)
        out = io.StringIO()
        session = ReplSession(bn, out)
        session.handle("evidence B=t")
        assert "error" in out.getvalue()
        assert not session.session.ev
        session.handle("query A")
        assert "A\tf\t1\t1" in out.getvalue()

    def test_unknown_names_print_their_message(self):
        _, out = self._drive(["query ZZ", "evidence A=nope", "retract ZZ"])
        assert out.splitlines() == [
            "error: unknown variable name 'ZZ'",
            "error: unknown value 'nope' for variable A",
            "error: unknown variable name 'ZZ'",
        ]

    def test_query_list_with_a_repeated_or_no_name(self):
        _, out = self._drive(["query H,H", "query ,", "query H"])
        lines = out.splitlines()
        assert lines[:2] == ["error: duplicate query for 'H'", "usage: query X[,Y]"]
        assert [line.split("\t")[0] for line in lines[3:]] == ["H", "H"]

    def test_repeated_observation_is_rejected_and_leaves_state(self):
        session, out = self._drive(["evidence B=b0", "status", "evidence B=b1", "status"])
        lines = out.splitlines()
        assert lines[6] == "error: duplicate evidence for 'B'"
        assert lines[1:6] == lines[7:12]  # the same status before and after
        assert lines[1] == "evidence\tB=b0"

    def test_status_prints_canonical_evidence(self):
        session, out = self._drive(["evidence D=d2|d0, H = h1", "status"])
        assert "evidence\tD=d0|d2,H=h1" in out.splitlines()

    def test_priors_come_from_one_evidence_free_session(self, monkeypatch):
        import bordertree.cli as cli

        session = ReplSession(load(BN_C), io.StringIO())
        prior = session.prior
        built = []
        real = cli.BorderSession.__init__

        def spy(self, bp, ev=cli.NO_EVIDENCE, *args, **kwargs):
            built.append(bool(ev))
            real(self, bp, ev, *args, **kwargs)

        monkeypatch.setattr(cli.BorderSession, "__init__", spy)
        for line in ["query A", "evidence B=b0", "query A,O", "priors", "reset", "query Z"]:
            session.handle(line)
        assert built == [True]  # the one session for B=b0; no prior session
        assert session.session is prior
        assert not prior.store

    def test_unknown_command(self):
        _, out = self._drive(["frobnicate"])
        assert "unknown command" in out

    def test_repl_equals_batch(self):
        session, out = self._drive(["evidence H=h0", "evidence K=k1", "query I"])
        bn = load(BN_A)
        ev = parse_evidence("H=h0,K=k1", bn)
        want = oracle_posterior(bn, ev, bn.id_of("I"))
        rows = [
            line.split("\t")
            for line in out.strip().splitlines()
            if line.startswith("I\t")
        ]
        got = [float(r[3]) for r in rows]
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_cli_entrypoint_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "bordertree.cli", "validate", BN_A],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "no diagnostics" in proc.stdout


def test_prior_over_the_table_cap_exits_1_without_a_traceback(tmp_path):
    # The seeded 400-node binary DAG of the benchmark's generator: its
    # widest border holds 84 variables, so some prior is over the cap.
    import importlib.util
    import resource
    import subprocess
    import sys

    from conftest import FIXTURES

    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(FIXTURES, "..", "perfbench", "gen.py")
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path = tmp_path / "wide.bn"
    rng = np.random.default_rng
    path.write_text(gen.random_dag_text(rng(0), rng(1), 400, card_max=2, max_parents=3))

    def limit_memory():
        # Without the cap, the run would try to allocate 2 GiB or more.
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "bordertree.cli", "prior", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: table of ")
    assert "exceeds cap" in proc.stderr


# X has 55 parents of cardinality 1, so its family has more variables than
# einsum has letters (52); Pr(X=x0) = 0.3.
WIDE_FAMILY = (
    "".join(f"node P{i} 1 p\n" for i in range(55))
    + "node X 2 x0 x1\nparents X "
    + " ".join(f"P{i}" for i in range(55))
    + "\n"
    + "".join(f"cpt P{i} 1\n" for i in range(55))
    + "cpt X 0.3 0.7\n"
)
# numpy 1.x arrays hold at most 32 axes: X's table, with 56, cannot be built.
NUMPY_1 = np.lib.NumpyVersion(np.__version__) < "2.0.0"


class TestWideFamily:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "wide_family.bn"
        path.write_text(WIDE_FAMILY)
        return str(path)

    @pytest.mark.parametrize("engine", ["bp", "polytree", "chain", "oracle"])
    def test_query_gives_the_oracle_answer(self, path, engine, capsys):
        code, out = run("query", path, "--evidence", "X=x0", "--q", "X", "--json", "--engine", engine)
        if NUMPY_1:
            assert code == 2 and capsys.readouterr().err.startswith("parse error: line 113: cpt of 'X'")
            return
        assert code == 0
        doc = json.loads(out)
        assert doc["evidence_prob"] == pytest.approx(0.3, abs=1e-12)
        assert [(r["value"], r["posterior"]) for r in doc["posteriors"]] == [("x0", "1"), ("x1", "0")]

    def test_prior_chain_and_repl(self, path):
        if NUMPY_1:
            pytest.skip("numpy 1.x cannot hold X's table of 56 axes")
        code, out = run("prior", path, "--q", "X")
        assert code == 0 and out.splitlines()[1:] == ["X\tx0\t0.3", "X\tx1\t0.7"]
        assert run("chain", path)[0] == 0
        out = io.StringIO()
        session = ReplSession(parse_network(WIDE_FAMILY), out)
        for line in ("evidence X=x0", "query X", "priors"):
            session.handle(line)
        assert "error" not in out.getvalue()
        assert "X\tx0\t0.3\t1\t" in out.getvalue()

    def test_more_axes_than_numpy_holds_is_a_parse_error(self, tmp_path, capsys):
        # 70 parents of cardinality 1: X's table would have 71 axes, more than
        # numpy arrays hold (64 on numpy 2.x).
        text = (
            "".join(f"node P{i} 1 p\n" for i in range(70))
            + "node X 2 x0 x1\nparents X "
            + " ".join(f"P{i}" for i in range(70))
            + "\n"
            + "".join(f"cpt P{i} 1\n" for i in range(70))
            + "cpt X 0.3 0.7\n"
        )
        path = tmp_path / "too_wide.bn"
        path.write_text(text)
        assert run("query", str(path))[0] == 2
        assert capsys.readouterr().err.startswith("parse error: line 143: cpt of 'X': ")
