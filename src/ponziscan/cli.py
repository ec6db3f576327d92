"""Command-line entry point.

One binary, subcommand per stage: parse and dfg inspect a single source
file, synth generates a labeled corpus, pretrain/train/eval/predict run
the model pipeline, fetch pulls verified source from an Etherscan-style
API. Machine output is sorted-key JSON on stdout; --pretty switches to an
aligned plain-text rendering. Exit codes: 0 success, 1 domain error,
2 usage error. All randomness flows from --seed.

An optional --config JSON file supplies argument defaults, keyed by option
dest and checked as the flags are; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from ponziscan import datasynth
from ponziscan.dfg import extract_dfg, to_dot, to_jsonable as dfg_to_jsonable
from ponziscan.encoding import build_vocab
from ponziscan.errors import DomainError, NoTargets
from ponziscan.ingest import DEFAULT_BASE_URL, MIN_DELAY, ApiConfig, fetch_verified_source
from ponziscan.model.adam import DEFAULT_LR, AdamState
from ponziscan.model.checkpoint import load_checkpoint, save_checkpoint
from ponziscan.model.config import ModelConfig
from ponziscan.model.params import init_params
from ponziscan.pipeline import (
    SPLITS,
    encode_records,
    evaluate,
    finetune,
    load_dataset,
    predict_one,
    record_line,
    select_split,
    write_dataset,
)
from ponziscan.pretrain import PretrainFlags, pretrain_epoch
from ponziscan.solparse.astnodes import to_jsonable as ast_to_jsonable
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import parse

# model-shape flag dest -> ModelConfig field
_SHAPE_FIELDS = {"layers": "n_layers", "d_h": "d_h", "heads": "n_heads",
                 "d_ff": "d_ff", "code_len": "code_len", "flow_len": "flow_len"}


def _model_config(ns: argparse.Namespace) -> ModelConfig:
    shape = {name: getattr(ns, dest) for dest, name in _SHAPE_FIELDS.items()
             if getattr(ns, dest) is not None}
    if not ns.use_dataflow:
        shape["flow_len"] = 0
    return ModelConfig(seed=ns.seed, **shape)


def _load_model(ns: argparse.Namespace):
    """(params, vocab, config) of ns.checkpoint; --no-dataflow drops the
    graph from the checkpoint's config."""
    params, vocab, config, _ = load_checkpoint(ns.checkpoint)
    if not ns.use_dataflow:
        config = replace(config, flow_len=0)
    return params, vocab, config


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


def _save_trained(ns: argparse.Namespace, params, vocab, config: ModelConfig,
                  report: dict) -> None:
    """Save the checkpoint (its stage is the subcommand) and print the report."""
    save_checkpoint(ns.out, params, vocab, config,
                    extra={"stage": ns.command, "epochs": ns.epochs,
                           "seed": ns.seed, **report})
    _emit({"checkpoint": ns.out, "epochs": ns.epochs, **report}, ns.pretty)


# -- subcommand handlers -----------------------------------------------------


def _cmd_parse(ns: argparse.Namespace) -> None:
    _emit(ast_to_jsonable(parse(lex(_read_source(ns.source)))), ns.pretty)


def _cmd_dfg(ns: argparse.Namespace) -> None:
    graph = extract_dfg(parse(lex(_read_source(ns.source))))
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
    inputs = encode_records(records, vocab, config)
    flags = PretrainFlags(mlm=ns.use_mlm, edgepred=ns.use_edgepred,
                          nodealign=ns.use_nodealign)
    trace: list[float] = []
    for epoch in range(ns.epochs):
        samples = pretrain_epoch(inputs, vocab, params, state, config,
                                 seed=ns.seed, epoch=epoch, flags=flags,
                                 lr=ns.lr)
        # a sample runs no objective when its input has nothing an enabled
        # one reads, such as an empty or comment-only source
        totals = [s["total"] for s in samples if s]
        if not totals:
            raise NoTargets("no record has a code token or graph node for the"
                            " enabled pre-training objectives")
        trace.append(sum(totals) / len(totals))
    _save_trained(ns, params, vocab, config, {"loss_trace": trace})


def _cmd_train(ns: argparse.Namespace) -> None:
    records = load_dataset(ns.dataset)
    _, train, val, _ = select_split(records, ns.split, ns.seed)
    if ns.checkpoint:
        # warm start: the checkpoint's vocabulary and shape win
        params, vocab, config = _load_model(ns)
    else:
        vocab = build_vocab(train, ns.vocab_cap)
        config = _model_config(ns)
        params = None
    result = finetune(train, vocab, config, epochs=ns.epochs, lr=ns.lr,
                      seed=ns.seed, params=params, val_records=val,
                      threshold=ns.threshold)
    _save_trained(ns, result.params, vocab, config,
                  {"best_epoch": result.best_epoch,
                   "epoch_losses": result.epoch_losses})


def _cmd_eval(ns: argparse.Namespace) -> None:
    records = load_dataset(ns.dataset)
    params, vocab, config = _load_model(ns)
    sizes, _, _, test = select_split(records, ns.split, ns.seed)
    report = evaluate(test, vocab, params, config, threshold=ns.threshold,
                      split_name=ns.split)
    payload = {"split": ns.split, "sizes": sizes, "report": report.to_dict()}
    if ns.out:
        Path(ns.out).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                encoding="utf-8")
    _emit(payload, ns.pretty)


def _cmd_predict(ns: argparse.Namespace) -> None:
    params, vocab, config = _load_model(ns)
    pred = predict_one(_read_source(ns.source), vocab, params, config,
                       threshold=ns.threshold)
    _emit({"label": pred.label, "probability": float(pred.probabilities[1])},
          ns.pretty)


def _cmd_fetch(ns: argparse.Namespace) -> None:
    api = ApiConfig(api_key=ns.api_key or "",
                    base_url=ns.base_url or DEFAULT_BASE_URL,
                    timeout=ns.timeout, delay=ns.delay,
                    cache_dir=ns.cache_dir)
    record = fetch_verified_source(ns.address, api)
    payload = {"address": ns.address, "idx": record.idx}
    if ns.out:
        with open(ns.out, "a", encoding="utf-8") as fh:
            fh.write(record_line(record))
        payload.update(path=ns.out, chars=len(record.source))
    else:
        payload["source"] = record.source
    _emit(payload, ns.pretty)


# -- argument plumbing -------------------------------------------------------


def _finite(name: str, unit: str = "", minimum: float | None = None):
    """The argparse type of option `name`: a finite number > 0, or >=
    minimum when one is given; `unit` says what the number counts."""
    rule = "> 0" if minimum is None else f">= {minimum}"

    def number(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value)
                and (value > 0 if minimum is None else value >= minimum)):
            raise argparse.ArgumentTypeError(
                f"{name} must be a finite number{unit} {rule}, got {text!r}")
        return value
    return number


def _count(name: str):
    """The argparse type of option `name`: an integer >= 0."""

    def count(text: str) -> int:
        value = int(text)  # a ValueError is argparse's "invalid count value"
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be an integer >= 0, got {text!r}")
        return value
    return count


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"threshold must be in [0, 1], got {text!r}")
    return value


# The options that more than one subcommand takes, each stated once, by
# flag; every subcommand also takes _COMMON.
_OPTIONS = {
    "--source": {"required": True},
    "--dataset": {"required": True},
    "--out": {"required": True},
    "--checkpoint": {"required": True},
    "--split": {"choices": SPLITS, "default": "fixed"},
    "--threshold": {"type": _probability, "default": 0.5},
    "--lr": {"type": _finite("lr"), "default": DEFAULT_LR},
    "--vocab-cap": {"type": int, "default": 2048},
    "--no-dataflow": {"action": "store_false", "dest": "use_dataflow"},
    "--layers": {"type": int, "help": "encoder layer count"},
    "--d-h": {"type": int, "help": "hidden width"},
    "--heads": {"type": int, "help": "attention head count"},
    "--d-ff": {"type": int, "help": "feed-forward width"},
    "--code-len": {"type": int, "help": "code token budget"},
    "--flow-len": {"type": int, "help": "graph node budget"},
    "--seed": {"type": _count("seed"), "default": 0},
    "--pretty": {"action": "store_true", "help": "plain-text table instead of JSON"},
    "--config": {"help": "JSON file of argument defaults"},
}
_SHAPE = ("--layers", "--d-h", "--heads", "--d-ff", "--code-len", "--flow-len")
_COMMON = ("--pretty", "--config")


def _subcommand(subs, name: str, handler, help: str, *flags: str,
                **kwargs) -> argparse.ArgumentParser:
    """Subcommand `name`, run by `handler`, with the shared options `flags`
    and _COMMON; kwargs go to add_parser."""
    sub = subs.add_parser(name, help=help, **kwargs)
    for flag in (*flags, *_COMMON):
        sub.add_argument(flag, **_OPTIONS[flag])
    sub.set_defaults(handler=handler)
    return sub


@dataclass(frozen=True)
class _BadConfigValue:
    """A --config value that its option's flag could not have produced."""

    value: object
    expected: str


def _config_default(action: argparse.Action, value):
    """A --config value as the default of `action`. A typed option's value
    goes in as text: argparse then converts and checks it as it would the
    flag's argument. null suits only an option whose own default is null,
    an on/off option takes a JSON boolean and a text option a string;
    anything else becomes a _BadConfigValue."""
    if value is None:
        return value if action.default is None else _BadConfigValue(value, "a value")
    if action.nargs == 0:
        return value if isinstance(value, bool) else _BadConfigValue(value, "true or false")
    if action.type is not None:
        return str(value)
    return value if isinstance(value, str) else _BadConfigValue(value, "a string")


class _SubcommandParser(argparse.ArgumentParser):
    """argparse checks choices only on given arguments; this also checks
    the values that --config defaults left in place."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            value = getattr(ns, action.dest, None)
            if isinstance(value, _BadConfigValue):
                self.error(f"argument {action.option_strings[0]}: invalid --config"
                           f" value {json.dumps(value.value)} (expected {value.expected})")
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                self.error(f"argument {action.option_strings[0]}: invalid --config"
                           f" value {value!r} (choose from {choices})")
        return ns, extras


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """defaults (from a --config file, keyed by option dest, "-" read as
    "_") override argument defaults on every subcommand but still lose to
    explicit flags. A key that names no option of any subcommand is a usage
    error."""
    parser = argparse.ArgumentParser(
        prog="ponziscan",
        description="Ponzi-scheme detection for Solidity contracts.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_SubcommandParser)

    _subcommand(subs, "parse", _cmd_parse, "tokenize and parse one source file", "--source")

    p = _subcommand(subs, "dfg", _cmd_dfg, "extract the data-flow graph of one file",
                    "--source")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = _subcommand(subs, "synth", _cmd_synth, "generate a synthetic labeled corpus", "--out",
                    "--seed")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--ponzi", type=int, default=16)
    p.add_argument("--published-shape", action="store_true",
                   dest="published_shape",
                   help="6,498 records shaped like the published corpus")

    p = _subcommand(subs, "pretrain", _cmd_pretrain, "run the self-supervised objectives",
                    "--dataset", "--out", "--seed", "--lr", "--vocab-cap", "--no-dataflow",
                    *_SHAPE)
    p.add_argument("--epochs", type=_count("epochs"), default=1)
    p.add_argument("--no-mlm", action="store_false", dest="use_mlm")
    p.add_argument("--no-edgepred", action="store_false", dest="use_edgepred")
    p.add_argument("--no-nodealign", action="store_false", dest="use_nodealign")

    p = _subcommand(subs, "train", _cmd_train, "fine-tune a classifier", "--dataset",
                    "--out", "--split", "--seed", "--lr", "--threshold", "--vocab-cap",
                    "--no-dataflow", *_SHAPE)
    p.add_argument("--init", dest="checkpoint",
                   help="warm-start checkpoint (its vocab and shape win)")
    p.add_argument("--epochs", type=_count("epochs"), default=3)

    p = _subcommand(subs, "eval", _cmd_eval, "score a checkpoint on a dataset split",
                    "--dataset", "--checkpoint", "--split", "--seed", "--threshold",
                    "--no-dataflow")
    p.add_argument("--out", help="also write the JSON report here")

    _subcommand(subs, "predict", _cmd_predict, "classify one source file",
                "--source", "--checkpoint", "--threshold", "--no-dataflow")

    p = _subcommand(subs, "fetch", _cmd_fetch, "download verified source by address",
                    description="A fetched record's idx is int(address, 16)"
                    " % 10**9, not its creation order, so the fixed and P<k>"
                    " splits do not apply to fetched records.")
    p.add_argument("--address", required=True)
    p.add_argument("--out", help="append the record to this JSONL file")
    p.add_argument("--api-key", dest="api_key",
                   default=os.environ.get("ETHERSCAN_API_KEY", ""))
    p.add_argument("--base-url", dest="base_url", default=DEFAULT_BASE_URL)
    p.add_argument("--timeout", type=_finite("timeout", " of seconds"), default=10.0)
    p.add_argument("--delay", type=_finite("delay", " of seconds", MIN_DELAY),
                   default=MIN_DELAY)
    p.add_argument("--cache-dir", dest="cache_dir")

    # subparsers parse into a fresh namespace, so pre-seeding the outer one
    # cannot carry config-file values; per-subparser defaults can. Each
    # subcommand takes the values of its own options only, and a bad one is
    # a usage error when that subcommand runs without the explicit flag.
    if defaults:
        known = {a.dest for sub in subs.choices.values() for a in sub._actions}
        for key in defaults:
            if key.replace("-", "_") not in known:
                parser.error(f"--config key {key!r} names no option")
        values = {key.replace("-", "_"): v for key, v in defaults.items()}
        for sub in subs.choices.values():
            sub.set_defaults(**{a.dest: _config_default(a, values[a.dest])
                                for a in sub._actions if a.dest in values})

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # the --config file as argparse reads the flag: abbreviated (--conf)
        # or repeated (the last one wins)
        config_file = build_parser().parse_args(argv).config
    except SystemExit as exc:
        return int(exc.code or 0)
    defaults = None
    if config_file:
        try:
            defaults = json.loads(Path(config_file).read_text(encoding="utf-8"))
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return 2
        if not isinstance(defaults, dict):
            print("error: cannot read config file: expected a JSON object",
                  file=sys.stderr)
            return 2
    try:
        parser = build_parser(defaults)
        ns = parser.parse_args(argv)
        if (ns.command == "synth" and not ns.published_shape
                and not 0 <= ns.ponzi <= ns.n):
            parser.error(f"synth needs 0 <= --ponzi <= --n, got --n {ns.n}"
                         f" --ponzi {ns.ponzi}")
        if ns.command == "pretrain" and not (ns.use_mlm or ns.use_edgepred
                                             or ns.use_nodealign):
            parser.error("pretrain needs an objective; --no-mlm, --no-edgepred"
                         " and --no-nodealign are all given")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ns.handler(ns)
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
