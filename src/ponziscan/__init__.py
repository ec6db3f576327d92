"""Ponzi-scheme detection for Ethereum smart contracts.

Pipeline: Solidity source -> tokens -> AST -> data-flow graph -> encoded
model input -> transformer encoder under a graph-guided attention mask ->
binary Ponzi/benign prediction. Everything is seeded and deterministic;
the numerics are plain float64 numpy.
"""

from ponziscan.dfg import DataFlowGraph, DfEdge, VarNode, extract_dfg
from ponziscan.encoding import ModelInput, Vocabulary, build_mask, build_vocab, encode_input
from ponziscan.model.config import ModelConfig
from ponziscan.pipeline import (
    ContractRecord,
    EvalReport,
    SplitPlan,
    evaluate,
    finetune,
    load_dataset,
    predict_one,
    split_fixed,
    split_partitions,
    split_random,
)
from ponziscan.solparse import lex, parse

__version__ = "0.1.0"

__all__ = [
    "ContractRecord",
    "DataFlowGraph",
    "DfEdge",
    "EvalReport",
    "ModelConfig",
    "ModelInput",
    "SplitPlan",
    "VarNode",
    "Vocabulary",
    "build_mask",
    "build_vocab",
    "encode_input",
    "evaluate",
    "extract_dfg",
    "finetune",
    "lex",
    "load_dataset",
    "parse",
    "predict_one",
    "split_fixed",
    "split_partitions",
    "split_random",
    "__version__",
]
