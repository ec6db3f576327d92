"""Dataset handling, split protocols, fine-tuning, and evaluation.

Three split protocols over creation-ordered records:
  - fixed: train on Ponzi schemes ranked 1-250 plus every non-Ponzi record
    created before the 250th one; test on the remainder.
  - partitions: six chronological parts P0..P5 cut every 50 Ponzi schemes
    (P5 holds rank 251 onward and equals the fixed test set), evaluated as
    cumulative-train/next-test pairs.
  - random: seeded shuffle into 7:1:2 train/validation/test, remainder to
    train; validation picks the best epoch.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ponziscan.dfg import DataFlowGraph, extract_dfg
from ponziscan.encoding import ModelInput, Vocabulary, encode_input
from ponziscan.errors import (
    DuplicateIdx,
    EmptyDataset,
    MalformedRecord,
    TooFewPositives,
)
from ponziscan.model.adam import DEFAULT_LR, AdamState, adam_step
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import Prediction, forward
from ponziscan.model.losses import classification_loss_and_grads
from ponziscan.model.params import Params, init_params
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

log = logging.getLogger(__name__)

TRAIN_PONZI_COUNT = 250
PARTITION_PONZI_STEP = 50


@dataclass(frozen=True)
class ContractRecord:
    idx: int
    source: str
    label: int | None  # 1 = Ponzi scheme, 0 = benign, None = unlabeled


@dataclass
class SplitPlan:
    kind: str
    subsets: dict[str, list[int]] = field(default_factory=dict)

    def sizes(self) -> dict[str, int]:
        return {name: len(ids) for name, ids in self.subsets.items()}


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f_score: float
    threshold: float
    split_name: str = ""
    precision_defined: bool = True

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": self.precision, "recall": self.recall,
            "f_score": self.f_score, "threshold": self.threshold,
            "split_name": self.split_name,
            "precision_defined": self.precision_defined,
        }


def load_dataset(path: str | Path) -> list[ContractRecord]:
    """Line-delimited JSON objects with integer idx, source text, and a
    0/1 label; returned sorted by idx."""
    records: list[ContractRecord] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON: {exc}", line_no) from exc
            if not isinstance(obj, dict):
                raise MalformedRecord("record is not an object", line_no)
            idx, source, label = obj.get("idx"), obj.get("source"), obj.get("label")
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise MalformedRecord("idx must be an integer", line_no)
            if not isinstance(source, str):
                raise MalformedRecord("source must be a string", line_no)
            if label not in (0, 1):
                raise MalformedRecord("label must be 0 or 1", line_no)
            if idx in seen:
                raise DuplicateIdx(f"idx {idx} appears more than once")
            seen.add(idx)
            records.append(ContractRecord(idx=idx, source=source, label=label))
    if not records:
        raise EmptyDataset(f"no records in {path}")
    records.sort(key=lambda r: r.idx)
    n_pos = sum(r.label == 1 for r in records)
    log.info("loaded %d records (%d positive, %d negative)",
             len(records), n_pos, len(records) - n_pos)
    return records


def write_dataset(records: list[ContractRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in sorted(records, key=lambda r: r.idx):
            fh.write(json.dumps({"idx": r.idx, "source": r.source,
                                 "label": r.label}) + "\n")


def _ponzi_sorted(records: list[ContractRecord]) -> list[ContractRecord]:
    return [r for r in sorted(records, key=lambda r: r.idx) if r.label == 1]


def split_fixed(records: list[ContractRecord]) -> SplitPlan:
    ponzi = _ponzi_sorted(records)
    if len(ponzi) < TRAIN_PONZI_COUNT + 1:
        raise TooFewPositives(
            f"fixed split needs more than {TRAIN_PONZI_COUNT} positive records,"
            f" got {len(ponzi)}")
    # everything at or before the 250th Ponzi scheme's idx is training data:
    # Ponzi ranks 1-250 plus every earlier non-Ponzi record
    boundary = ponzi[TRAIN_PONZI_COUNT - 1].idx
    train = sorted(r.idx for r in records if r.idx <= boundary)
    test = sorted(r.idx for r in records if r.idx > boundary)
    return SplitPlan(kind="fixed", subsets={"train": train, "test": test})


def split_partitions(records: list[ContractRecord]) -> SplitPlan:
    ponzi = _ponzi_sorted(records)
    if len(ponzi) < 5 * PARTITION_PONZI_STEP + 1:
        raise TooFewPositives(
            f"partition split needs more than {5 * PARTITION_PONZI_STEP}"
            f" positive records, got {len(ponzi)}")
    boundaries = [ponzi[(k + 1) * PARTITION_PONZI_STEP - 1].idx for k in range(5)]
    subsets: dict[str, list[int]] = {f"P{k}": [] for k in range(6)}
    for r in sorted(records, key=lambda r: r.idx):
        part = 5
        for k, b in enumerate(boundaries):
            if r.idx <= b:
                part = k
                break
        subsets[f"P{part}"].append(r.idx)
    return SplitPlan(kind="partitions", subsets=subsets)


def cumulative_pairs(plan: SplitPlan) -> list[tuple[str, list[int], list[int]]]:
    """(name, train ids, test ids) for P0+P1->P2 through P0..P4->P5."""
    pairs = []
    for upto in range(2, 6):
        train: list[int] = []
        for k in range(upto):
            train.extend(plan.subsets[f"P{k}"])
        name = "+".join(f"P{k}" for k in range(upto)) + f"->P{upto}"
        pairs.append((name, sorted(train), list(plan.subsets[f"P{upto}"])))
    return pairs


def split_random(records: list[ContractRecord], seed: int) -> SplitPlan:
    """7:1:2 by count: validation floor(n/10), test n/5 rounded half up,
    remainder to train."""
    n = len(records)
    if n < 10:
        raise EmptyDataset(f"random split needs at least 10 records, got {n}")
    n_val = n // 10
    n_test = int(math.floor(n / 5 + 0.5))
    n_train = n - n_val - n_test
    ids = [r.idx for r in sorted(records, key=lambda r: r.idx)]
    perm = np.random.default_rng(seed).permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    return SplitPlan(kind="random", subsets={
        "train": sorted(shuffled[:n_train]),
        "val": sorted(shuffled[n_train:n_train + n_val]),
        "test": sorted(shuffled[n_train + n_val:]),
    })


def subset_records(records: list[ContractRecord], ids: list[int]) -> list[ContractRecord]:
    wanted = set(ids)
    return [r for r in records if r.idx in wanted]


# -- encoding ---------------------------------------------------------------


def encode_record(source: str, vocab: Vocabulary, config: ModelConfig,
                  use_dataflow: bool = True) -> ModelInput:
    tokens = lex(source)
    if use_dataflow:
        graph = extract_dfg(parse(tokens), tokens)
    else:
        graph = DataFlowGraph()
    return encode_input(tokens, graph, vocab,
                        code_len=config.code_len, flow_len=config.flow_len)


def encode_records(records: list[ContractRecord], vocab: Vocabulary,
                   config: ModelConfig, use_dataflow: bool = True) -> list[ModelInput]:
    return [encode_record(r.source, vocab, config, use_dataflow) for r in records]


# -- metrics ------------------------------------------------------------------


def compute_metrics(tp: int, fp: int, fn: int, tn: int, threshold: float,
                    split_name: str = "") -> EvalReport:
    """precision = TP/(TP+FP), reported as 0 and flagged when no positive
    predictions exist; recall = TP/(TP+FN); F = 2PR/(P+R), 0 when P+R=0."""
    precision_defined = (tp + fp) > 0
    precision = tp / (tp + fp) if precision_defined else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f_score = (2 * precision * recall / (precision + recall)
               if (precision + recall) > 0 else 0.0)
    return EvalReport(tp=tp, fp=fp, fn=fn, tn=tn, precision=precision,
                      recall=recall, f_score=f_score, threshold=threshold,
                      split_name=split_name, precision_defined=precision_defined)


def evaluate_inputs(inputs: list[ModelInput], labels: list[int], params: Params,
                    config: ModelConfig, threshold: float,
                    split_name: str = "") -> EvalReport:
    tp = fp = fn = tn = 0
    for inp, label in zip(inputs, labels):
        pred = forward(inp, params, config, threshold=threshold)
        if pred.label == 1 and label == 1:
            tp += 1
        elif pred.label == 1 and label == 0:
            fp += 1
        elif pred.label == 0 and label == 1:
            fn += 1
        else:
            tn += 1
    return compute_metrics(tp, fp, fn, tn, threshold, split_name)


def evaluate(records: list[ContractRecord], vocab: Vocabulary, params: Params,
             config: ModelConfig, threshold: float = 0.5, split_name: str = "",
             use_dataflow: bool = True) -> EvalReport:
    if not records:
        raise EmptyDataset("cannot evaluate an empty subset")
    inputs = encode_records(records, vocab, config, use_dataflow)
    labels = [int(r.label) for r in records]
    return evaluate_inputs(inputs, labels, params, config, threshold, split_name)


def predict_one(source: str, vocab: Vocabulary, params: Params,
                config: ModelConfig, threshold: float = 0.5,
                use_dataflow: bool = True) -> Prediction:
    inp = encode_record(source, vocab, config, use_dataflow)
    return forward(inp, params, config, threshold=threshold)


# -- fine-tuning ---------------------------------------------------------------


@dataclass
class FinetuneResult:
    params: Params
    epoch_losses: list[float]
    best_epoch: int  # -1 when no validation set was given (final epoch used)
    val_reports: list[EvalReport] = field(default_factory=list)


def finetune(records: list[ContractRecord], vocab: Vocabulary,
             config: ModelConfig, epochs: int, lr: float = DEFAULT_LR,
             seed: int = 0, params: Params | None = None,
             val_records: list[ContractRecord] | None = None,
             threshold: float = 0.5, use_dataflow: bool = True) -> FinetuneResult:
    """Label cross-entropy, batch size 1, Adam. With a validation set the
    returned params are those of the best-F-score epoch (earliest on ties);
    otherwise the final epoch's."""
    if not records:
        raise EmptyDataset("cannot fine-tune on an empty subset")
    if params is None:
        params = init_params(config, len(vocab))
    inputs = encode_records(records, vocab, config, use_dataflow)
    labels = [int(r.label) for r in records]
    val_inputs = val_labels = None
    if val_records:
        val_inputs = encode_records(val_records, vocab, config, use_dataflow)
        val_labels = [int(r.label) for r in val_records]
    state = AdamState.for_params(params)
    epoch_losses: list[float] = []
    val_reports: list[EvalReport] = []
    best_epoch = -1
    best_f = -1.0
    best_params: Params | None = None
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(len(inputs))
        total = 0.0
        for i in order.tolist():
            loss, grads = classification_loss_and_grads(
                [(inputs[i], labels[i])], params, config)
            adam_step(params, grads, state, lr)
            total += loss
        epoch_losses.append(total / len(inputs))
        if val_inputs is not None:
            report = evaluate_inputs(val_inputs, val_labels, params, config,
                                     threshold, split_name="val")
            val_reports.append(report)
            if report.f_score > best_f:
                best_f = report.f_score
                best_epoch = epoch
                best_params = {k: v.copy() for k, v in params.items()}
    if best_params is not None:
        params = best_params
    return FinetuneResult(params=params, epoch_losses=epoch_losses,
                          best_epoch=best_epoch, val_reports=val_reports)

