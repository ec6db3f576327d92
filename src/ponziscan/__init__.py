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

__version__ = "0.1.0"
