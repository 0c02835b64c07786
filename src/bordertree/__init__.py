"""Exact posterior marginals for discrete Bayesian networks.

Three exact engines over one dense factor algebra:

* a border-chain engine that stretches any DAG into a chain of borders and
  reads the π and λ of every border from a border-polytree session on it,
* a polytree engine with directional edge messages for networks that are
  already singly connected,
* a border-polytree engine that first converts the DAG into a polytree of
  borders (macro-node aggregation, then per-macro chains) and propagates
  messages only inside the evidential core.

A brute-force enumeration oracle lives alongside for verification.
"""

from .bnformat import (
    emit_network,
    parse_evidence,
    parse_evidence_file,
    parse_network,
)
from .border_chain import (
    BorderChain,
    ChainStep,
    build_chain,
    chain_posterior,
    run_passes,
)
from .bp_build import (
    BorderPolytree,
    MacroPolytree,
    aggregation_closure,
    build_border_polytree,
    choose_next,
    initial_border,
    stage1,
    stage2,
    verify_bp,
    verify_macro_polytree,
)
from .bp_infer import BorderSession, bp_query, preload_priors
from .errors import (
    BnFormatError,
    BordertreeError,
    CycleError,
    EnumerationCapError,
    ImpossibleEvidenceError,
    NormalizationError,
    NotSinglyConnectedError,
    TableCapError,
)
from .factor import Factor, indicator, marginal_to, multiply, normalize, restrict, sum_out
from .kernels import BACKEND as KERNEL_BACKEND
from .network import BayesianNetwork, EvidenceSet, NO_EVIDENCE, Variable, validate
from .oracle import joint, oracle_event_prob, oracle_marginal, oracle_posterior
from .polytree import PolytreeEngine, node_priors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
