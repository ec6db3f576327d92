"""Ponzi-scheme detection for Ethereum smart contracts.

Pipeline: Solidity source -> tokens -> AST -> data-flow graph -> encoded
model input -> transformer encoder under a graph-guided attention mask ->
binary Ponzi/benign prediction. Everything is seeded and deterministic;
the numerics are plain float64 numpy.

Importing the package pins the BLAS libraries to one thread before numpy
loads: matrix products sum in a different order with more threads, which
would change trained parameters and probabilities in their last digits.
A caller who imported numpy first keeps the thread count it loaded with.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from ponziscan.dfg import DataFlowGraph, DfEdge, VarNode, extract_dfg
from ponziscan.encoding import ModelInput, Vocabulary, build_mask, build_vocab, encode_input
from ponziscan.model.config import ModelConfig
from ponziscan.pipeline import (
    ContractRecord,
    EvalReport,
    evaluate,
    finetune,
    load_dataset,
    predict_one,
    split_chronological,
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
    "split_chronological",
    "split_random",
    "__version__",
]
