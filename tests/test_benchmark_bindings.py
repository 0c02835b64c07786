"""The benchmark's tracer (``perfbench/spans.py``) binds names of the
package: each layer's public callables, some class attributes and the
kernels.  It must install on this source, see the calls that ``cli.main``
makes on every message engine, and put every binding back when it is
uninstalled.  This is the check the CI's traced smoke run makes, in one
process and on one fixture.
"""

import importlib.util
import io
import json
import os
import sys

from bordertree import cli
from conftest import FIXTURES, fixture_path

# Every message engine sends messages and builds factors ...
COUNTS = (
    "bp_infer.messages_scheduled",
    "bp_infer.messages_sent",
    "polytree.messages",
    "factor.factors_created",
    "factor.entries_out",
)
# ... and every table goes through ``factor.contract``, so the pairwise
# operations and the kernels behind them are never called.
ZEROS = (
    "factor.multiply_calls",
    "factor.sum_out_calls",
    "kernels.product_calls",
    "kernels.sum_axes_calls",
)


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(FIXTURES, "..", "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def package_bindings():
    """Every attribute of every loaded ``bordertree`` module and of every
    class defined there."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "bordertree" or mod is None:
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_tracer_binds_counts_and_restores():
    spans = load_spans()
    before = package_bindings()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for engine in ("bp", "polytree", "chain"):
            out = io.StringIO()
            argv = ["query", fixture_path("polytree_b.bn"), "--evidence", "B=b0,C=c1", "--json"]
            assert cli.main([*argv, "--engine", engine], out=out) == 0, engine
            assert json.loads(out.getvalue())["posteriors"], engine
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert {k: metrics[k] for k in COUNTS if not metrics[k] > 0} == {}
    assert {k: metrics[k] for k in ZEROS if metrics[k] != 0} == {}
    after = package_bindings()
    for name, attrs in before.items():
        moved = [a for a, value in attrs.items() if after[name].get(a) is not value]
        assert moved == [], name
