"""Dataset handling, split protocols, fine-tuning, and evaluation.

Two split protocols:
  - chronological: records in creation (idx) order are cut after every
    50th Ponzi scheme into P0..P5, P5 holding rank 251 onward. Pair k
    trains on P0..P(k-1) and tests on Pk, for k = 2..5; k = 5 is the fixed
    protocol: Ponzi schemes ranked 1-250 plus every earlier non-Ponzi
    record train, the remainder tests.
  - random: seeded shuffle into 7:1:2 train/validation/test, remainder to
    train; validation picks the best epoch.
select_split picks one by its command-line name, one of SPLITS; "all"
trains and tests on every record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ponziscan.dfg import DataFlowGraph, extract_dfg
from ponziscan.encoding import ModelInput, Vocabulary, encode_input
from ponziscan.errors import (
    DuplicateIdx,
    EmptyDataset,
    MalformedRecord,
    TooFewPositives,
    UnlabeledRecord,
)
from ponziscan.model.adam import DEFAULT_LR, AdamState, adam_step
from ponziscan.model.config import ModelConfig
from ponziscan.model.encoder import Prediction, forward
from ponziscan.model.losses import classification_loss_and_grads
from ponziscan.model.params import Params, init_params
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

PARTITION_PONZI_STEP = 50
TRAIN_PONZI_COUNT = 5 * PARTITION_PONZI_STEP  # the fixed protocol's, P0..P4
SPLITS = ("fixed", "P2", "P3", "P4", "random", "all")


@dataclass(frozen=True)
class ContractRecord:
    idx: int
    source: str
    label: int | None  # 1 = Ponzi scheme, 0 = benign, None = unlabeled


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
        return asdict(self)


def load_dataset(path: str | Path) -> list[ContractRecord]:
    """UTF-8, line-delimited JSON objects with integer idx, source text, and
    a 0/1 label, or null for an unlabeled record; returned sorted by idx.
    A byte-order mark at the start of the file is skipped."""
    records: list[ContractRecord] = []
    seen: set[int] = set()
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8-sig" if line_no == 1 else "utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedRecord("not UTF-8 text", line_no) from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # nested too deep
                raise MalformedRecord(f"invalid JSON: {exc}", line_no) from exc
            if not isinstance(obj, dict):
                raise MalformedRecord("record is not an object", line_no)
            idx, source, label = obj.get("idx"), obj.get("source"), obj.get("label")
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise MalformedRecord("idx must be an integer", line_no)
            if not isinstance(source, str):
                raise MalformedRecord("source must be a string", line_no)
            # JSON true/false and 1.0 compare equal to 1/0; only ints pass
            if ("label" not in obj or label not in (0, 1, None)
                    or isinstance(label, (bool, float))):
                raise MalformedRecord("label must be 0, 1 or null", line_no)
            if idx in seen:
                raise DuplicateIdx(f"idx {idx} appears more than once")
            seen.add(idx)
            records.append(ContractRecord(idx=idx, source=source, label=label))
    if not records:
        raise EmptyDataset(f"no records in {path}")
    records.sort(key=lambda r: r.idx)
    return records


def record_line(record: ContractRecord) -> str:
    """One dataset line, as load_dataset reads it."""
    return json.dumps({"idx": record.idx, "source": record.source,
                       "label": record.label}) + "\n"


def write_dataset(records: list[ContractRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in sorted(records, key=lambda r: r.idx):
            fh.write(record_line(r))


def split_chronological(records: list[ContractRecord],
                        k: int = 5) -> dict[str, list[ContractRecord]]:
    """Pair k of the chronological protocol, 2 <= k <= 5: train on P0..P(k-1),
    every record up to the (50k)th Ponzi scheme in idx order; test on Pk,
    the records after it up to the 50(k+1)th (k = 5: to the end). Every
    pair needs more than 250 positive records, so that P5 is not empty."""
    if not 2 <= k <= 5:
        raise ValueError(f"k must be 2..5, got {k}")
    ordered = sorted(records, key=lambda r: r.idx)
    ponzi = [r.idx for r in ordered if r.label == 1]
    if len(ponzi) <= TRAIN_PONZI_COUNT:
        name = "fixed" if k == 5 else f"P{k}"
        raise TooFewPositives(
            f"{name} split needs more than {TRAIN_PONZI_COUNT} positive"
            f" records, got {len(ponzi)}")
    last_train = ponzi[k * PARTITION_PONZI_STEP - 1]
    last_test = ponzi[(k + 1) * PARTITION_PONZI_STEP - 1] if k < 5 else math.inf
    return {"train": [r for r in ordered if r.idx <= last_train],
            "test": [r for r in ordered if last_train < r.idx <= last_test]}


def split_random(records: list[ContractRecord],
                 seed: int) -> dict[str, list[ContractRecord]]:
    """7:1:2 by count: validation floor(n/10), test n/5 rounded half up,
    remainder to train; each subset in idx order."""
    n = len(records)
    if n < 10:
        raise EmptyDataset(f"random split needs at least 10 records, got {n}")
    n_val = n // 10
    n_test = int(math.floor(n / 5 + 0.5))
    n_train = n - n_val - n_test
    ordered = sorted(records, key=lambda r: r.idx)
    perm = np.random.default_rng(seed).permutation(n).tolist()
    parts = {"train": perm[:n_train], "val": perm[n_train:n_train + n_val],
             "test": perm[n_train + n_val:]}
    # positions into the idx-ordered list: sorted, they keep idx order
    return {name: [ordered[i] for i in sorted(part)]
            for name, part in parts.items()}


def select_split(records: list[ContractRecord], split: str, seed: int):
    """(sizes, train, val, test) records under one of SPLITS; val is None
    unless the split has a validation subset. Every record needs a label.
    fixed is the chronological pair P0..P4 -> P5."""
    for r in records:
        if r.label is None:
            raise UnlabeledRecord(f"record idx {r.idx} has no label")
    if split == "all":
        return {"all": len(records)}, records, None, records
    if split == "random":
        subsets = split_random(records, seed)
    else:
        k = 5 if split == "fixed" else int(split[1:])
        subsets = split_chronological(records, k)
    sizes = {name: len(part) for name, part in subsets.items()}
    return sizes, subsets["train"], subsets.get("val"), subsets["test"]


# -- encoding ---------------------------------------------------------------


def encode_record(source: str, vocab: Vocabulary, config: ModelConfig) -> ModelInput:
    """The model input of one source. The whole source is lexed, so code
    tokens, `truncated` and lexer errors are those of the full text. It is
    parsed only up to the member holding graph node config.flow_len (the
    nodes before it come out as from a full parse), so a parse error after
    that member raises nothing; with flow_len 0 (no graph) the source is not
    parsed."""
    tokens = lex(source)
    if config.flow_len > 0:
        graph = extract_dfg(parse(tokens, config.flow_len))
    else:
        graph = DataFlowGraph()
    return encode_input(tokens, graph, vocab,
                        code_len=config.code_len, flow_len=config.flow_len)


def encode_records(records: list[ContractRecord], vocab: Vocabulary,
                   config: ModelConfig) -> list[ModelInput]:
    return [encode_record(r.source, vocab, config) for r in records]


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
             config: ModelConfig, threshold: float = 0.5,
             split_name: str = "") -> EvalReport:
    if not records:
        raise EmptyDataset("cannot evaluate an empty subset")
    inputs = encode_records(records, vocab, config)
    labels = [int(r.label) for r in records]
    return evaluate_inputs(inputs, labels, params, config, threshold, split_name)


def predict_one(source: str, vocab: Vocabulary, params: Params,
                config: ModelConfig, threshold: float = 0.5) -> Prediction:
    inp = encode_record(source, vocab, config)
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
             threshold: float = 0.5) -> FinetuneResult:
    """Label cross-entropy, batch size 1, Adam. With a validation set the
    returned params are those of the best-F-score epoch (earliest on ties);
    otherwise the final epoch's."""
    if not records:
        raise EmptyDataset("cannot fine-tune on an empty subset")
    if params is None:
        params = init_params(config, len(vocab))
    inputs = encode_records(records, vocab, config)
    labels = [int(r.label) for r in records]
    val_inputs = val_labels = None
    if val_records:
        val_inputs = encode_records(val_records, vocab, config)
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
                inputs[i], labels[i], params, config)
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

