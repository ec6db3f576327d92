"""Command-line entry point.

One binary, subcommand per stage: parse and dfg inspect a single source
file, synth generates a labeled corpus, pretrain/train/eval/predict run
the model pipeline, fetch pulls verified source from an Etherscan-style
API. Machine output is sorted-key JSON on stdout; --pretty switches to an
aligned plain-text rendering. Exit codes: 0 success, 1 domain error,
2 usage error. All randomness flows from --seed.

An optional --config JSON file supplies argument defaults, type-checked as
the flags are; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ponziscan import datasynth
from ponziscan.dfg import extract_dfg, to_dot, to_jsonable as dfg_to_jsonable
from ponziscan.encoding import build_vocab
from ponziscan.errors import DomainError
from ponziscan.ingest import ApiConfig, fetch_verified_source
from ponziscan.model.adam import DEFAULT_LR, AdamState
from ponziscan.model.checkpoint import load_checkpoint, save_checkpoint
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import init_params
from ponziscan.pipeline import (
    ContractRecord,
    encode_records,
    evaluate,
    finetune,
    load_dataset,
    predict_one,
    split_fixed,
    split_random,
    subset_records,
    write_dataset,
)
from ponziscan.pretrain import PretrainFlags, pretrain_epoch
from ponziscan.solparse import lex, parse, to_jsonable as ast_to_jsonable

DEFAULT_VOCAB_CAP = 2048
DEFAULT_THRESHOLD = 0.5
SPLITS = ("fixed", "random", "all")

# model-shape flag dest -> ModelConfig field
_SHAPE_FIELDS = {"layers": "n_layers", "d_h": "d_h", "heads": "n_heads",
                 "d_ff": "d_ff", "code_len": "code_len", "flow_len": "flow_len"}


def _model_config(ns: argparse.Namespace) -> ModelConfig:
    shape = {name: getattr(ns, dest) for dest, name in _SHAPE_FIELDS.items()
             if getattr(ns, dest) is not None}
    return ModelConfig(seed=ns.seed, **shape)


def _pretty_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{str(key).ljust(width)}  {value}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print("\n".join(_pretty_lines(obj)))
    else:
        print(json.dumps(obj, sort_keys=True))


def _read_source(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# -- subcommand handlers -----------------------------------------------------


def _cmd_parse(ns: argparse.Namespace) -> None:
    tokens = lex(_read_source(ns.source))
    _emit(ast_to_jsonable(parse(tokens)), ns.pretty)


def _cmd_dfg(ns: argparse.Namespace) -> None:
    tokens = lex(_read_source(ns.source))
    graph = extract_dfg(parse(tokens), tokens)
    if ns.format == "dot":
        sys.stdout.write(to_dot(graph))
    else:
        _emit(dfg_to_jsonable(graph), ns.pretty)


def _cmd_synth(ns: argparse.Namespace) -> None:
    if ns.published_shape:
        records = datasynth.generate_published_shape(ns.seed)
    else:
        records = datasynth.generate_corpus(ns.n, ns.ponzi, ns.seed)
    write_dataset(records, ns.out)
    _emit({"path": ns.out, "records": len(records),
           "positives": sum(r.label == 1 for r in records)}, ns.pretty)


def _cmd_pretrain(ns: argparse.Namespace) -> None:
    records = load_dataset(ns.dataset)
    vocab = build_vocab(records, ns.vocab_cap)
    config = _model_config(ns)
    params = init_params(config, len(vocab))
    state = AdamState.for_params(params)
    inputs = encode_records(records, vocab, config, ns.use_dataflow)
    flags = PretrainFlags(mlm=ns.use_mlm, edgepred=ns.use_edgepred,
                          nodealign=ns.use_nodealign)
    trace: list[float] = []
    for epoch in range(ns.epochs):
        samples = pretrain_epoch(inputs, vocab, params, state, config,
                                 seed=ns.seed, epoch=epoch, flags=flags,
                                 lr=ns.lr)
        trace.append(sum(s["total"] for s in samples) / max(1, len(samples)))
    save_checkpoint(ns.out, params, vocab, config,
                    extra={"stage": "pretrain", "epochs": ns.epochs,
                           "seed": ns.seed, "loss_trace": trace})
    _emit({"checkpoint": ns.out, "epochs": ns.epochs, "loss_trace": trace},
          ns.pretty)


def _select_split(records: list[ContractRecord], split: str, seed: int):
    """(sizes, train, val, test) records under one of SPLITS; val is None
    unless the split has a validation subset."""
    if split not in ("fixed", "random"):
        return {"all": len(records)}, records, None, records
    plan = split_fixed(records) if split == "fixed" else split_random(records, seed)
    subsets = {name: subset_records(records, ids)
               for name, ids in plan.subsets.items()}
    return plan.sizes(), subsets["train"], subsets.get("val"), subsets["test"]


def _cmd_train(ns: argparse.Namespace) -> None:
    records = load_dataset(ns.dataset)
    _, train, val, _ = _select_split(records, ns.split, ns.seed)
    if ns.checkpoint:
        # warm start: the checkpoint's vocabulary and shape win
        params, vocab, config, _ = load_checkpoint(ns.checkpoint)
    else:
        vocab = build_vocab(train, ns.vocab_cap)
        config = _model_config(ns)
        params = None
    result = finetune(train, vocab, config, epochs=ns.epochs, lr=ns.lr,
                      seed=ns.seed, params=params, val_records=val,
                      threshold=ns.threshold, use_dataflow=ns.use_dataflow)
    save_checkpoint(ns.out, result.params, vocab, config,
                    extra={"stage": "train", "epochs": ns.epochs,
                           "seed": ns.seed, "best_epoch": result.best_epoch,
                           "epoch_losses": result.epoch_losses})
    _emit({"checkpoint": ns.out, "epochs": ns.epochs,
           "best_epoch": result.best_epoch,
           "epoch_losses": result.epoch_losses}, ns.pretty)


def _cmd_eval(ns: argparse.Namespace) -> None:
    records = load_dataset(ns.dataset)
    params, vocab, config, _ = load_checkpoint(ns.checkpoint)
    sizes, _, _, test = _select_split(records, ns.split, ns.seed)
    report = evaluate(test, vocab, params, config, threshold=ns.threshold,
                      split_name=ns.split, use_dataflow=ns.use_dataflow)
    payload = {"split": ns.split, "sizes": sizes, "report": report.to_dict()}
    if ns.out:
        Path(ns.out).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                encoding="utf-8")
    _emit(payload, ns.pretty)


def _cmd_predict(ns: argparse.Namespace) -> None:
    params, vocab, config, _ = load_checkpoint(ns.checkpoint)
    pred = predict_one(_read_source(ns.source), vocab, params, config,
                       threshold=ns.threshold, use_dataflow=ns.use_dataflow)
    _emit({"label": pred.label, "probability": float(pred.probabilities[1])},
          ns.pretty)


def _cmd_fetch(ns: argparse.Namespace) -> None:
    api = ApiConfig(api_key=ns.api_key or "",
                    base_url=ns.base_url or "https://api.etherscan.io/api",
                    timeout=ns.timeout, delay=ns.delay,
                    cache_dir=ns.cache_dir)
    record = fetch_verified_source(ns.address, api)
    if ns.out:
        with open(ns.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"idx": record.idx, "source": record.source,
                                 "label": None}) + "\n")
        _emit({"address": ns.address, "idx": record.idx, "path": ns.out,
               "chars": len(record.source)}, ns.pretty)
    else:
        _emit({"address": ns.address, "idx": record.idx,
               "source": record.source}, ns.pretty)


_HANDLERS = {
    "parse": _cmd_parse,
    "dfg": _cmd_dfg,
    "synth": _cmd_synth,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "fetch": _cmd_fetch,
}


# -- argument plumbing -------------------------------------------------------


def _positive_delay(text: str) -> float:
    value = float(text)
    if value < 0.2:
        raise argparse.ArgumentTypeError("delay must be >= 0.2 seconds")
    return value


def _add_model_overrides(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--layers", type=int, help="encoder layer count")
    sub.add_argument("--d-h", type=int, dest="d_h", help="hidden width")
    sub.add_argument("--heads", type=int, help="attention head count")
    sub.add_argument("--d-ff", type=int, dest="d_ff", help="feed-forward width")
    sub.add_argument("--code-len", type=int, dest="code_len",
                     help="code token budget")
    sub.add_argument("--flow-len", type=int, dest="flow_len",
                     help="graph node budget")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--pretty", action="store_true",
                     help="plain-text table instead of JSON")
    sub.add_argument("--config", help="JSON file of argument defaults")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """defaults (from a --config file) override argument defaults on every
    subcommand but still lose to explicit flags."""
    parser = argparse.ArgumentParser(
        prog="ponziscan",
        description="Ponzi-scheme detection for Solidity contracts.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="tokenize and parse one source file")
    p.add_argument("--source", required=True)
    _add_common(p)

    p = subs.add_parser("dfg", help="extract the data-flow graph of one file")
    p.add_argument("--source", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_common(p)

    p = subs.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--ponzi", type=int, default=16)
    p.add_argument("--published-shape", action="store_true",
                   dest="published_shape",
                   help="6,498 records shaped like the published corpus")
    _add_common(p)

    p = subs.add_parser("pretrain", help="run the self-supervised objectives")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--vocab-cap", type=int, default=DEFAULT_VOCAB_CAP,
                   dest="vocab_cap")
    p.add_argument("--no-mlm", action="store_false", dest="use_mlm")
    p.add_argument("--no-edgepred", action="store_false", dest="use_edgepred")
    p.add_argument("--no-nodealign", action="store_false", dest="use_nodealign")
    p.add_argument("--no-dataflow", action="store_false", dest="use_dataflow")
    _add_model_overrides(p)
    _add_common(p)

    p = subs.add_parser("train", help="fine-tune a classifier")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", dest="checkpoint",
                   help="warm-start checkpoint (its vocab and shape win)")
    p.add_argument("--split", choices=SPLITS, default="fixed")
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--vocab-cap", type=int, default=DEFAULT_VOCAB_CAP,
                   dest="vocab_cap")
    p.add_argument("--no-dataflow", action="store_false", dest="use_dataflow")
    _add_model_overrides(p)
    _add_common(p)

    p = subs.add_parser("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=SPLITS, default="fixed")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--no-dataflow", action="store_false", dest="use_dataflow")
    _add_common(p)

    p = subs.add_parser("predict", help="classify one source file")
    p.add_argument("--source", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--no-dataflow", action="store_false", dest="use_dataflow")
    _add_common(p)

    p = subs.add_parser("fetch", help="download verified source by address")
    p.add_argument("--address", required=True)
    p.add_argument("--out", help="append the record to this JSONL file")
    p.add_argument("--api-key", dest="api_key",
                   default=os.environ.get("ETHERSCAN_API_KEY", ""))
    p.add_argument("--base-url", dest="base_url",
                   default="https://api.etherscan.io/api")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--delay", type=_positive_delay, default=0.2)
    p.add_argument("--cache-dir", dest="cache_dir")
    _add_common(p)

    # subparsers parse into a fresh namespace, so pre-seeding the outer one
    # cannot carry config-file values; per-subparser defaults can. A value
    # for a typed option goes in as text: argparse then converts and checks
    # it as it would the flag's argument, and a bad one is a usage error.
    if defaults:
        for sub in subs.choices.values():
            typed = {a.dest for a in sub._actions if a.type is not None}
            sub.set_defaults(**{k: str(v) if k in typed and v is not None else v
                                for k, v in defaults.items()})

    return parser


def _config_path(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    defaults = None
    config_file = _config_path(argv)
    if config_file:
        try:
            raw = json.loads(Path(config_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
        if not isinstance(raw, dict):
            print("error: cannot read config file: expected a JSON object",
                  file=sys.stderr)
            return 2
        defaults = {str(k).replace("-", "_"): v for k, v in raw.items()}
    parser = build_parser(defaults)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _HANDLERS[ns.command](ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
