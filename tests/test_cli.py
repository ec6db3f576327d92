"""End-to-end tests for the command-line interface.

Every test drives main(argv) in-process and inspects exit codes plus
captured stdout/stderr. A module-scoped workspace runs the expensive
stages once: synth -> pretrain -> train, with a deliberately tiny model
so the whole chain stays fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from ponziscan.cli import build_parser, main
from ponziscan.dfg import extract_dfg, to_dot
from ponziscan.dfg import to_jsonable as dfg_to_jsonable
from ponziscan.model.checkpoint import load_checkpoint
from ponziscan.pipeline import (
    ContractRecord,
    load_dataset,
    split_chronological,
    write_dataset,
)
from ponziscan.solparse.astnodes import to_jsonable as ast_to_jsonable
from ponziscan.solparse.lexer import lex
from ponziscan.solparse.parser import MAX_NESTING, parse as parse_tokens

TINY = ["--layers", "1", "--d-h", "8", "--heads", "2", "--d-ff", "16",
        "--code-len", "48", "--flow-len", "12"]

SAMPLE_SOURCE = """\
contract Sample {
    uint total;
    mapping(address => uint) balances;

    function deposit() public payable {
        balances[msg.sender] = balances[msg.sender] + msg.value;
        total = total + msg.value;
    }
}
"""


def run(argv):
    """Invoke the CLI and return (exit_code,)."""
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus pretrained and fine-tuned checkpoints, built once."""
    root = tmp_path_factory.mktemp("cli")
    source = root / "sample.sol"
    source.write_text(SAMPLE_SOURCE, encoding="utf-8")
    data = root / "data.jsonl"
    pre = root / "pre.ckpt"
    model = root / "model.ckpt"
    assert run(["synth", "--out", str(data), "--n", "24", "--ponzi", "8",
                "--seed", "11"]) == 0
    assert run(["pretrain", "--dataset", str(data), "--out", str(pre),
                "--epochs", "1", "--seed", "3", *TINY]) == 0
    assert run(["train", "--dataset", str(data), "--out", str(model),
                "--split", "all", "--epochs", "2", "--seed", "3",
                *TINY]) == 0
    return {"root": root, "source": source, "data": data, "pre": pre,
            "model": model}


# -- inspection commands ------------------------------------------------------


def test_parse_emits_ast_json(workspace, capsys):
    assert run(["parse", "--source", str(workspace["source"])]) == 0
    out = capsys.readouterr().out
    expected = ast_to_jsonable(parse_tokens(lex(SAMPLE_SOURCE)))
    assert json.loads(out) == expected
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_parse_pretty_is_not_json(workspace, capsys):
    assert run(["parse", "--source", str(workspace["source"]),
                "--pretty"]) == 0
    out = capsys.readouterr().out
    assert not out.startswith("{")
    assert "kind" in out


def test_dfg_json_matches_library(workspace, capsys):
    assert run(["dfg", "--source", str(workspace["source"])]) == 0
    out = capsys.readouterr().out
    tokens = lex(SAMPLE_SOURCE)
    expected = dfg_to_jsonable(extract_dfg(parse_tokens(tokens)))
    assert json.loads(out) == expected


def test_dfg_dot_format(workspace, capsys):
    assert run(["dfg", "--source", str(workspace["source"]),
                "--format", "dot"]) == 0
    out = capsys.readouterr().out
    tokens = lex(SAMPLE_SOURCE)
    assert out == to_dot(extract_dfg(parse_tokens(tokens)))
    assert out.startswith("digraph dfg {")


@pytest.mark.parametrize("body", [
    "if (a) { " * 130 + "x = 1;" + " }" * 130,
    "x = " + "(" * 1000 + "1" + ")" * 1000 + ";",
    "x = " + " + ".join(["a"] * 500) + ";",
], ids=["ifs", "parens", "chain"])
@pytest.mark.parametrize("command", ["parse", "dfg"])
def test_deep_nesting_is_a_domain_error(command, body, tmp_path, capsys):
    # each of these once overflowed the parser's or a tree walk's stack
    source = tmp_path / "deep.sol"
    source.write_text("contract C { function f() public { " + body + " } }",
                      encoding="utf-8")
    assert run([command, "--source", str(source)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: nested deeper than {MAX_NESTING} levels at byte ")


def test_non_ascii_digit_is_a_domain_error(tmp_path, capsys):
    source = tmp_path / "sup.sol"
    source.write_text("contract C { uint x = 2\u00b2; }", encoding="utf-8")
    assert run(["parse", "--source", str(source)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: illegal character") and "Traceback" not in err


# -- corpus generation --------------------------------------------------------


def test_synth_reports_counts_and_writes_file(tmp_path, capsys):
    out_path = tmp_path / "corpus.jsonl"
    assert run(["synth", "--out", str(out_path), "--n", "12", "--ponzi", "4",
                "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"path": str(out_path), "records": 12, "positives": 4}
    records = load_dataset(str(out_path))
    assert len(records) == 12
    assert sum(r.label == 1 for r in records) == 4


def test_synth_published_shape_writes_the_published_counts(tmp_path, capsys):
    out_path = tmp_path / "published.jsonl"
    assert run(["synth", "--published-shape", "--out", str(out_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"path": str(out_path), "records": 6498, "positives": 318}
    assert len(load_dataset(str(out_path))) == 6498


# -- model stages -------------------------------------------------------------


def test_pretrain_checkpoint_and_trace(workspace, capsys):
    params, vocab, config, extra = load_checkpoint(str(workspace["pre"]))
    assert extra["stage"] == "pretrain"
    assert extra["epochs"] == 1
    assert len(extra["loss_trace"]) == 1
    assert config.n_layers == 1 and config.d_h == 8
    assert "tok_emb" in params
    assert len(vocab) > 5


def test_train_checkpoint_records_epochs(workspace):
    params, vocab, config, extra = load_checkpoint(str(workspace["model"]))
    assert extra["stage"] == "train"
    assert len(extra["epoch_losses"]) == 2
    assert -1 <= extra["best_epoch"] < 2


def test_train_warm_start_keeps_checkpoint_vocab(workspace, tmp_path, capsys):
    out = tmp_path / "warm.ckpt"
    assert run(["train", "--dataset", str(workspace["data"]),
                "--init", str(workspace["pre"]), "--out", str(out),
                "--split", "all", "--epochs", "1", "--seed", "3"]) == 0
    _, vocab, config, _ = load_checkpoint(str(out))
    _, pre_vocab, pre_config, _ = load_checkpoint(str(workspace["pre"]))
    assert vocab.to_lines() == pre_vocab.to_lines()
    assert config.to_dict() == pre_config.to_dict()


def test_eval_stdout_matches_report_file(workspace, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert run(["eval", "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["model"]), "--split", "all",
                "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert report_path.read_text(encoding="utf-8") == out
    payload = json.loads(out)
    assert payload["split"] == "all"
    assert payload["sizes"] == {"all": 24}
    report = payload["report"]
    counts = report["tp"] + report["fp"] + report["tn"] + report["fn"]
    assert counts == 24
    assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_eval_is_byte_identical_across_runs(workspace, capsys):
    argv = ["eval", "--dataset", str(workspace["data"]),
            "--checkpoint", str(workspace["model"]), "--split", "all"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_random_split_reports_sizes(workspace, capsys):
    assert run(["eval", "--dataset", str(workspace["data"]),
                "--checkpoint", str(workspace["model"]), "--split", "random",
                "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sizes"] == {"train": 17, "val": 2, "test": 5}


def test_train_random_split_selects_on_validation(workspace, tmp_path,
                                                  capsys):
    out = tmp_path / "random.ckpt"
    assert run(["train", "--dataset", str(workspace["data"]), "--out",
                str(out), "--split", "random", "--epochs", "2", "--seed", "1",
                *TINY]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the random split has a validation subset, so an epoch is selected
    assert 0 <= payload["best_epoch"] < 2
    *_, extra = load_checkpoint(str(out))
    assert extra["best_epoch"] == payload["best_epoch"]


@pytest.fixture(scope="module")
def fixed_workspace(tmp_path_factory):
    """One-line records, every other one positive: 300 positives, enough for
    the fixed split's 250-scheme training boundary, trained once."""
    root = tmp_path_factory.mktemp("cli_fixed")
    records = [ContractRecord(idx=k + 1, source=f"contract K{k} {{ uint v{k}; }}",
                              label=k % 2) for k in range(600)]
    data = root / "data.jsonl"
    write_dataset(records, data)
    model = root / "model.ckpt"
    assert run(["train", "--dataset", str(data), "--out", str(model),
                "--split", "fixed", "--epochs", "1", "--seed", "2",
                "--layers", "1", "--d-h", "4", "--heads", "1", "--d-ff", "4",
                "--code-len", "8", "--flow-len", "2"]) == 0
    return {"records": records, "data": data, "model": model}


def test_train_fixed_split_has_no_validation(fixed_workspace):
    *_, extra = load_checkpoint(str(fixed_workspace["model"]))
    assert extra["best_epoch"] == -1
    assert len(extra["epoch_losses"]) == 1


def test_eval_fixed_split_reports_plan_sizes(fixed_workspace, capsys):
    assert run(["eval", "--dataset", str(fixed_workspace["data"]),
                "--checkpoint", str(fixed_workspace["model"]),
                "--split", "fixed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    sizes = {name: len(part) for name, part
             in split_chronological(fixed_workspace["records"]).items()}
    assert payload["split"] == "fixed"
    assert payload["sizes"] == sizes == {"train": 500, "test": 100}
    report = payload["report"]
    assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 100


def test_train_and_eval_chronological_pair(fixed_workspace, tmp_path, capsys):
    # P0..P2 -> P3: the 150th positive is idx 300, the 200th idx 400
    out = tmp_path / "p3.ckpt"
    assert run(["train", "--dataset", str(fixed_workspace["data"]), "--out",
                str(out), "--split", "P3", "--epochs", "1", "--layers", "1",
                "--d-h", "4", "--heads", "1", "--d-ff", "4", "--code-len", "8",
                "--flow-len", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["best_epoch"] == -1
    assert run(["eval", "--dataset", str(fixed_workspace["data"]),
                "--checkpoint", str(out), "--split", "P3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] == "P3"
    assert payload["sizes"] == {"train": 300, "test": 100}
    report = payload["report"]
    assert report["tp"] + report["fn"] == 50
    assert report["split_name"] == "P3"


def test_chronological_pair_too_few_positives(tmp_path, capsys):
    data = tmp_path / "few.jsonl"
    write_dataset([ContractRecord(idx=k, source="contract A {}", label=k % 2)
                   for k in range(400)], data)
    assert run(["train", "--dataset", str(data), "--out",
                str(tmp_path / "unused.ckpt"), "--split", "P3"]) == 1
    assert capsys.readouterr().err == (
        "error: P3 split needs more than 250 positive records, got 200\n")


def test_predict_reports_probability(workspace, capsys):
    assert run(["predict", "--source", str(workspace["source"]),
                "--checkpoint", str(workspace["model"])]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] in (0, 1)
    assert 0.0 < payload["probability"] < 1.0


# More than TINY's 12 graph nodes in contract A, then a header that does not parse.
CUT_OK = ("contract A { uint a; uint b; function f(uint x) public {"
          " a = a + x; b = b + a; a = b * x; b = a - x; } }")
BROKEN = "contract B { function g( }"


@pytest.mark.parametrize("broken_first", [False, True])
def test_predict_sees_parse_errors_only_before_the_cut(workspace, tmp_path, capsys,
                                                       broken_first):
    source = tmp_path / "cut.sol"
    parts = [BROKEN, CUT_OK] if broken_first else [CUT_OK, BROKEN]
    source.write_text("\n".join(parts) + "\n", encoding="utf-8")
    assert run(["parse", "--source", str(source)]) == 1
    parse_err = capsys.readouterr().err
    assert parse_err.startswith("error: expected type name at byte ")
    code = run(["predict", "--source", str(source),
                "--checkpoint", str(workspace["model"])])
    captured = capsys.readouterr()
    if broken_first:
        assert (code, captured.err) == (1, parse_err)
    else:
        assert code == 0
        assert json.loads(captured.out)["label"] in (0, 1)


def test_predict_threshold_flips_label(workspace, capsys):
    base = ["predict", "--source", str(workspace["source"]),
            "--checkpoint", str(workspace["model"])]
    assert run(base) == 0
    prob = json.loads(capsys.readouterr().out)["probability"]
    assert run([*base, "--threshold", repr(prob / 2.0)]) == 0
    low = json.loads(capsys.readouterr().out)
    assert run([*base, "--threshold", repr((prob + 1.0) / 2.0)]) == 0
    high = json.loads(capsys.readouterr().out)
    assert low["label"] == 1
    assert high["label"] == 0


THRESHOLD_ARGV = {
    "train": ["train", "--dataset", "unused.jsonl", "--out", "unused.ckpt"],
    "eval": ["eval", "--dataset", "unused.jsonl", "--checkpoint", "unused.ckpt"],
    "predict": ["predict", "--source", "unused.sol", "--checkpoint", "unused.ckpt"],
}


@pytest.mark.parametrize("command", sorted(THRESHOLD_ARGV))
@pytest.mark.parametrize("value", [float("nan"), 2.0, -1.0])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_threshold_outside_unit_interval_is_usage_error(tmp_path, capsys,
                                                        command, value,
                                                        via_config):
    argv = list(THRESHOLD_ARGV[command])
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": value}), encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv.append(f"--threshold={value}")
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --threshold: threshold must be in [0, 1]" in captured.err


def test_threshold_accepts_zero_and_one(workspace, capsys):
    base = ["predict", "--source", str(workspace["source"]),
            "--checkpoint", str(workspace["model"])]
    assert run([*base, "--threshold", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == 1
    assert run([*base, "--threshold", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == 0


def test_checkpoint_records_no_dataflow(tmp_path, capsys):
    """A model trained with --no-dataflow scores without the graph whether
    or not eval and predict repeat the flag."""
    data, model = tmp_path / "data.jsonl", tmp_path / "model.ckpt"
    assert run(["synth", "--out", str(data), "--n", "40", "--ponzi", "12",
                "--seed", "3"]) == 0
    assert run(["train", "--dataset", str(data), "--out", str(model), "--split",
                "all", "--epochs", "2", "--no-dataflow", *TINY]) == 0
    source = tmp_path / "first.sol"
    source.write_text(load_dataset(str(data))[0].source, encoding="utf-8")
    capsys.readouterr()
    for argv in (["predict", "--source", str(source), "--checkpoint", str(model)],
                 ["eval", "--dataset", str(data), "--checkpoint", str(model),
                  "--split", "all"]):
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run([*argv, "--no-dataflow"]) == 0
        assert capsys.readouterr().out == plain
    assert load_checkpoint(str(model))[2].flow_len == 0


def test_predict_no_dataflow_runs(workspace, capsys):
    assert run(["predict", "--source", str(workspace["source"]),
                "--checkpoint", str(workspace["model"]),
                "--no-dataflow"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] in (0, 1)


# -- config file defaults -----------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "ponzi": 3, "seed": 5}),
                   encoding="utf-8")
    a = tmp_path / "a.jsonl"
    assert run(["synth", "--out", str(a), "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 10
    assert payload["positives"] == 3
    # config seed must act exactly like the explicit flag
    b = tmp_path / "b.jsonl"
    assert run(["synth", "--out", str(b), "--n", "10", "--ponzi", "3",
                "--seed", "5"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_explicit_flag_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "ponzi": 3}), encoding="utf-8")
    out_path = tmp_path / "c.jsonl"
    assert run(["synth", "--out", str(out_path), "--config", str(cfg),
                "--n", "14"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 14
    assert payload["positives"] == 3


def test_config_shape_and_task_keys_act_like_flags(workspace, tmp_path,
                                                   capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layers": 1, "d-h": 8, "heads": 2, "d_ff": 16,
                               "code_len": 48, "flow_len": 12,
                               "use_mlm": False, "seed": 4}),
                   encoding="utf-8")
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    base = ["pretrain", "--dataset", str(workspace["data"])]
    assert run([*base, "--out", str(a), "--config", str(cfg)]) == 0
    assert run([*base, "--out", str(b), "--no-mlm", "--seed", "4",
                *TINY]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    _, _, config, _ = load_checkpoint(str(a))
    assert (config.n_layers, config.d_h, config.n_heads) == (1, 8, 2)


@pytest.mark.parametrize("key, value", [("epochs", [1]), ("seed", True),
                                        ("layers", 1.5)])
def test_wrong_typed_config_value_is_usage_error(workspace, tmp_path, capsys,
                                                 key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run(["train", "--dataset", str(workspace["data"]), "--out",
                str(tmp_path / "m.ckpt"), "--split", "all",
                "--config", str(cfg)]) == 2
    assert "invalid" in capsys.readouterr().err


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert run(["synth", "--out", str(tmp_path / "x.jsonl"),
                "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_that_is_no_json_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]", encoding="utf-8")
    assert run(["synth", "--out", str(tmp_path / "x.jsonl"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: cannot read config file: expected a JSON object\n"
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("key", ["epoch", "no-mlm", "init"])
def test_config_key_naming_no_option_is_usage_error(workspace, tmp_path,
                                                    capsys, key):
    """Keys are option dests: a typo, a flag spelling like no-mlm (dest
    use_mlm) or init (dest checkpoint) would otherwise be ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, key: 5}), encoding="utf-8")
    out = tmp_path / "m.ckpt"
    assert run(["train", "--dataset", str(workspace["data"]), "--out",
                str(out), "--split", "all", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"--config key {key!r} names no option" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    (["eval", "--checkpoint", "unused.ckpt", "--dataset", "unused.jsonl"],
     "split", "bogus"),
    (["dfg", "--source", "unused.sol"], "format", "xml"),
])
def test_config_value_outside_choices_is_usage_error(tmp_path, capsys, argv,
                                                     key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --{key}: invalid --config value {value!r}" in captured.err


def test_explicit_flag_overrides_config_value_outside_choices(workspace,
                                                              tmp_path,
                                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"split": "bogus"}), encoding="utf-8")
    assert run(["eval", "--dataset", str(workspace["data"]), "--checkpoint",
                str(workspace["model"]), "--split", "all",
                "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["split"] == "all"


_PRETRAIN = ["pretrain", "--dataset", "unused.jsonl", "--out", "unused.ckpt"]
_PREDICT = ["predict", "--source", "unused.sol", "--checkpoint", "unused.ckpt"]


_BAD_CONFIG_VALUES = [
    (_PRETRAIN, "epochs", "--epochs", None),
    (_PRETRAIN, "seed", "--seed", None),
    (_PRETRAIN, "vocab_cap", "--vocab-cap", None),
    (_PRETRAIN, "lr", "--lr", None),
    (_PREDICT, "threshold", "--threshold", None),
    (["synth", "--out", "unused.jsonl"], "n", "--n", None),
    (["eval", "--checkpoint", "unused.ckpt", "--dataset", "unused.jsonl"],
     "out", "--out", 5),
    (["fetch", "--address", "0x" + "ab" * 20], "cache_dir", "--cache-dir", 7),
    (["parse", "--source", "unused.sol"], "pretty", "--pretty", "no"),
    (_PREDICT, "use_dataflow", "--no-dataflow", "false"),
]


@pytest.mark.parametrize("argv, key, flag, value", _BAD_CONFIG_VALUES,
                         ids=[f"{argv[0]}-{key}" for argv, key, _, _ in _BAD_CONFIG_VALUES])
def test_config_value_its_flag_cannot_give_is_usage_error(tmp_path, capsys, argv,
                                                          key, flag, value):
    """null only where the option's own default is null, a JSON boolean for
    an on/off option, a string for a text option."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    assert run([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"argument {flag}: invalid --config value {json.dumps(value)}"
            in captured.err)


def test_config_null_where_the_default_is_null(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None, "layers": None, "checkpoint": None,
                               "pretty": False}), encoding="utf-8")
    assert run(["eval", "--dataset", str(workspace["data"]), "--checkpoint",
                str(workspace["model"]), "--split", "all", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["split"] == "all"


def test_config_keys_of_other_subcommands_are_accepted(tmp_path, capsys):
    """One file can serve several subcommands: keys, and values, for
    options the running subcommand lacks are left alone."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "ponzi": 3, "epochs": 2,
                               "use_mlm": False, "split": "random",
                               "format": "xml"}), encoding="utf-8")
    assert run(["synth", "--out", str(tmp_path / "a.jsonl"),
                "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["records"] == 10


@pytest.mark.parametrize("argv", [
    ["parse", "--source", "unused.sol"],
    ["dfg", "--source", "unused.sol"],
    ["predict", "--source", "unused.sol", "--checkpoint", "unused.ckpt"],
    ["fetch", "--address", "0x" + "0" * 40],
])
def test_seed_flag_is_a_usage_error_where_nothing_is_drawn(argv, capsys):
    """Only synth, pretrain, train and eval draw random numbers, so only
    they take --seed."""
    assert run([*argv, "--seed", "7"]) == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_config_seed_is_left_alone_by_predict(workspace, tmp_path, capsys):
    """predict takes no --seed, so a config file's seed is another
    subcommand's key to it: accepted and left alone, the output unchanged."""
    argv = ["predict", "--source", str(workspace["source"]),
            "--checkpoint", str(workspace["model"])]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}), encoding="utf-8")
    assert run([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == plain


# -- fetch (offline via cache) ------------------------------------------------


ADDRESS = "0x" + "AbCd12" * 6 + "eF34"


def _seed_cache(cache_dir: Path, source: str) -> int:
    idx = int(ADDRESS, 16) % 1_000_000_000
    cache_dir.mkdir(parents=True, exist_ok=True)
    entry = cache_dir / f"{ADDRESS.lower()}.json"
    entry.write_text(json.dumps({"idx": idx, "source": source}),
                     encoding="utf-8")
    return idx


def test_fetch_cache_hit_prints_source(tmp_path, capsys):
    cache = tmp_path / "cache"
    idx = _seed_cache(cache, "contract C { uint x; }")
    assert run(["fetch", "--address", ADDRESS, "--cache-dir", str(cache),
                "--api-key", "unused"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"address": ADDRESS, "idx": idx,
                       "source": "contract C { uint x; }"}


def test_fetch_out_appends_unlabeled_record(tmp_path, capsys):
    cache = tmp_path / "cache"
    idx = _seed_cache(cache, "contract C { uint x; }")
    out_path = tmp_path / "fetched.jsonl"
    assert run(["fetch", "--address", ADDRESS, "--cache-dir", str(cache),
                "--api-key", "unused", "--out", str(out_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["idx"] == idx
    assert payload["path"] == str(out_path)
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"idx": idx,
                                    "source": "contract C { uint x; }",
                                    "label": None}


def test_fetch_bad_address_is_domain_error(tmp_path, capsys):
    assert run(["fetch", "--address", "not-an-address",
                "--cache-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


# -- unlabeled records --------------------------------------------------------


def _write_unlabeled(src: Path, dst: Path, keep_label=lambda idx: False) -> int:
    """Copy a dataset with labels set to null, except where keep_label(idx);
    returns the smallest idx left unlabeled."""
    records = [json.loads(line) for line in src.read_text().splitlines()]
    for r in records:
        if not keep_label(r["idx"]):
            r["label"] = None
    dst.write_text("".join(json.dumps(r) + "\n" for r in records))
    return min(r["idx"] for r in records if r["label"] is None)


def test_pretrain_reads_unlabeled_records(workspace, tmp_path, capsys):
    """Pre-training ignores labels: an unlabeled copy of the dataset gives
    the same checkpoint bytes as the labeled one."""
    data = tmp_path / "unlabeled.jsonl"
    _write_unlabeled(workspace["data"], data)
    out = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--dataset", str(data), "--out", str(out),
                "--epochs", "1", "--seed", "3", *TINY]) == 0
    capsys.readouterr()
    assert out.read_bytes() == workspace["pre"].read_bytes()


def test_pretrain_reads_fetched_records(tmp_path, capsys):
    cache = tmp_path / "cache"
    _seed_cache(cache, "contract C { uint x; function f() public { x = x + 1; } }")
    data = tmp_path / "fetched.jsonl"
    assert run(["fetch", "--address", ADDRESS, "--cache-dir", str(cache),
                "--api-key", "unused", "--out", str(data)]) == 0
    assert run(["pretrain", "--dataset", str(data), "--out",
                str(tmp_path / "pre.ckpt"), "--epochs", "1", *TINY]) == 0
    capsys.readouterr()


# sources with no code token and no graph node, so no objective runs on them
_NOTHING_TO_PRETRAIN = ["", "// only a comment\n"]


def test_pretrain_averages_over_samples_that_ran_an_objective(workspace, tmp_path,
                                                               capsys):
    """Records that run no objective take no Adam step and stay out of
    the epoch mean: the checkpoint is the one built without them."""
    lines = workspace["data"].read_text().splitlines(keepends=True)
    last = max(json.loads(line)["idx"] for line in lines)
    data = tmp_path / "data.jsonl"
    data.write_text("".join(lines) + "".join(
        json.dumps({"idx": last + k, "source": source, "label": None}) + "\n"
        for k, source in enumerate(_NOTHING_TO_PRETRAIN, start=1)))
    out = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--dataset", str(data), "--out", str(out),
                "--epochs", "1", "--seed", "3", *TINY]) == 0
    capsys.readouterr()
    assert out.read_bytes() == workspace["pre"].read_bytes()


def test_pretrain_with_nothing_to_pretrain_on_exits_1(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"idx": k, "source": source, "label": None})
                            + "\n" for k, source in enumerate(_NOTHING_TO_PRETRAIN)))
    out = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--dataset", str(data), "--out", str(out), *TINY]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no record has a code token or graph node")
    assert not out.exists()


def test_pretrain_with_every_objective_off_is_usage_error(workspace, tmp_path, capsys):
    out = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--dataset", str(workspace["data"]), "--out", str(out),
                "--no-mlm", "--no-edgepred", "--no-nodealign"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pretrain needs an objective" in captured.err
    assert not out.exists()


def test_pretrain_on_lone_surrogate_exits_1(tmp_path, capsys):
    """json.loads reads the escape \\ud800 as a lone surrogate, which lex
    refuses as an illegal character."""
    data = tmp_path / "data.jsonl"
    source = 'contract C { string s = "\ud800"; }'
    data.write_text(json.dumps({"idx": 1, "source": source, "label": None}) + "\n")
    assert run(["pretrain", "--dataset", str(data), "--out",
                str(tmp_path / "pre.ckpt"), *TINY]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: illegal character '\\ud800' at byte 25")


# deeper than the recursion limit: json.loads raises RecursionError
_NESTED_TOO_DEEP = "[" * 200_000 + "]" * 200_000


def test_dataset_line_nested_too_deep_exits_1(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_text(_NESTED_TOO_DEEP + "\n")
    assert run(["pretrain", "--dataset", str(data), "--out",
                str(tmp_path / "pre.ckpt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: invalid JSON")


def test_config_nested_too_deep_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_NESTED_TOO_DEEP, encoding="utf-8")
    assert run(["parse", "--source", "unused.sol", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read config file")


@pytest.mark.parametrize("argv", [
    ["train", "--out", "unused.ckpt", "--split", "fixed"],
    ["train", "--out", "unused.ckpt", "--split", "random"],
    ["eval", "--checkpoint", "model", "--split", "fixed"],
    ["eval", "--checkpoint", "model", "--split", "all"],
])
def test_labeled_stages_reject_unlabeled_records(workspace, tmp_path, capsys,
                                                 argv):
    data = tmp_path / "mixed.jsonl"
    idx = _write_unlabeled(workspace["data"], data, lambda i: i % 2 == 0)
    argv = [str(workspace["model"]) if a == "model" else a for a in argv]
    argv = [str(tmp_path / a) if a.startswith("unused") else a for a in argv]
    assert run([*argv, "--dataset", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: record idx {idx} has no label\n"


# -- exit codes ---------------------------------------------------------------


def test_missing_source_file_exits_1(tmp_path, capsys):
    assert run(["parse", "--source", str(tmp_path / "absent.sol")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unparseable_source_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_text("contract C { function f() public { assembly { let x",
                   encoding="utf-8")
    assert run(["parse", "--source", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_1(workspace, tmp_path, capsys):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint")
    assert run(["predict", "--source", str(workspace["source"]),
                "--checkpoint", str(garbage)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a valid checkpoint" in err


def _with_config(checkpoint, out, edit):
    """A copy of checkpoint at out whose meta.json config went through edit."""
    with zipfile.ZipFile(checkpoint) as src, zipfile.ZipFile(out, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            if name == "meta.json":
                meta = json.loads(data)
                edit(meta["config"])
                data = json.dumps(meta).encode()
            dst.writestr(name, data)
    return out


@pytest.mark.parametrize("key, value", [("flow_len", 2.9), ("seed", True)])
def test_checkpoint_config_that_is_no_json_integer_exits_1(workspace, tmp_path,
                                                           capsys, key, value):
    edited = _with_config(workspace["model"], tmp_path / "edited.ckpt",
                          lambda config: config.update({key: value}))
    assert run(["predict", "--source", str(workspace["source"]),
                "--checkpoint", str(edited)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a valid checkpoint" in err and key in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_config_missing_keys_exits_1(workspace, tmp_path, capsys, command):
    """Without flow_len and n_heads the model would load with the defaults
    (64, 4), which fit its tensors, and score silently with the wrong shape."""
    def drop(config):
        del config["flow_len"], config["n_heads"]

    edited = _with_config(workspace["model"], tmp_path / "edited.ckpt", drop)
    inputs = {"eval": ["--dataset", str(workspace["data"]), "--split", "all"],
              "predict": ["--source", str(workspace["source"])]}[command]
    assert run([command, *inputs, "--checkpoint", str(edited)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a valid checkpoint" in err
    assert "flow_len, n_heads" in err


def test_non_utf8_source_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.sol"
    bad.write_bytes(b"contract C { uint a\xff; }")
    assert run(["parse", "--source", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "decode" in captured.err


def test_non_utf8_dataset_exits_1(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    data.write_bytes(b"\xff\xfe" + '{"idx": 1, "source": "a;", "label": null}\n'
                     .encode("utf-16-le"))
    assert run(["pretrain", "--dataset", str(data),
                "--out", str(tmp_path / "m.ckpt")]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: not UTF-8 text")


def test_dataset_with_byte_order_mark_is_read(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    record = {"idx": 1, "source": "contract C { uint x; function f() public"
              " { x = x + 1; } }", "label": None}
    data.write_bytes(b"\xef\xbb\xbf" + (json.dumps(record) + "\n").encode("utf-8"))
    assert run(["pretrain", "--dataset", str(data), "--out",
                str(tmp_path / "pre.ckpt"), "--epochs", "1", *TINY]) == 0
    capsys.readouterr()


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"seed": 1\xff}')
    assert run(["synth", "--out", str(tmp_path / "x.jsonl"),
                "--config", str(cfg)]) == 2
    assert "error: cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("counts", [["--n", "-3"], ["--n", "5", "--ponzi", "9"]])
def test_synth_count_out_of_range_is_usage_error(tmp_path, capsys, counts):
    out = tmp_path / "x.jsonl"
    assert run(["synth", "--out", str(out), *counts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: synth needs 0 <= --ponzi <= --n" in captured.err
    assert not out.exists()


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(workspace, capsys):
    assert run(["parse", "--source", str(workspace["source"]),
                "--bogus"]) == 2
    capsys.readouterr()


def test_bad_format_choice_exits_2(workspace, capsys):
    assert run(["dfg", "--source", str(workspace["source"]),
                "--format", "xml"]) == 2
    capsys.readouterr()


def test_finite_options_take_a_finite_value():
    ns = build_parser().parse_args(["fetch", "--address", ADDRESS, "--delay", "0.5",
                                    "--timeout", "2"])
    assert (ns.delay, ns.timeout) == (0.5, 2.0)
    ns = build_parser().parse_args(["train", "--dataset", "d.jsonl", "--out", "m.ckpt",
                                    "--lr", "0.001"])
    assert ns.lr == 0.001


def test_too_small_fetch_delay_exits_2(capsys):
    assert run(["fetch", "--address", ADDRESS, "--delay", "0.05"]) == 2
    assert "delay" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--delay", "inf"), ("--delay", "nan"), ("--timeout", "inf"),
    ("--timeout", "nan"), ("--timeout", "-1"), ("--timeout", "0"),
])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_fetch_seconds_must_be_finite_and_positive(flag, value, via_config, capsys):
    """A usage error before any request: no sleep(inf) or sleep(nan) traceback,
    and no unthrottled run behind a nan delay."""
    argv = ["fetch", "--address", ADDRESS]
    if via_config:
        parser = build_parser({flag[2:]: float(value)})
    else:
        parser, argv = build_parser(), [*argv, flag, value]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert f"{flag[2:]} must be a finite number of seconds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "train"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_learning_rate_must_be_finite_and_positive(tmp_path, capsys, command,
                                                   value, via_config):
    """A usage error before any data is read: a nan learning rate used to
    write a checkpoint of nan tensors, an infinite one a numpy warning."""
    out = tmp_path / "m.ckpt"
    argv = [command, "--dataset", str(tmp_path / "unused.jsonl"), "--out", str(out)]
    if via_config:
        cfg = tmp_path / "cfg.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back
        cfg.write_text(json.dumps({"lr": float(value)}), encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--lr", value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --lr: lr must be a finite number > 0, got " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, message", [
    (["synth"], "seed", -1, "seed must be an integer >= 0, got '-1'"),
    (["pretrain"], "seed", -1, "seed must be an integer >= 0, got '-1'"),
    (["train", "--split", "random"], "seed", -3, "seed must be an integer >= 0, got '-3'"),
    (["pretrain"], "epochs", -2, "epochs must be an integer >= 0, got '-2'"),
    (["train", "--split", "all"], "epochs", -1, "epochs must be an integer >= 0, got '-1'"),
    (["train", "--split", "all"], "epochs", 1.5, "invalid count value: '1.5'"),
])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_seed_and_epochs_must_be_integers_at_least_zero(workspace, tmp_path, capsys,
                                                        command, option, value, message,
                                                        via_config):
    """A usage error that names the option: a negative seed used to end in
    numpy's traceback, and a negative epoch count trained nothing and
    exited 0."""
    out = tmp_path / "out"
    argv = [*command, "--out", str(out)]
    if command[0] != "synth":
        argv += ["--dataset", str(workspace["data"])]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}), encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{option}", str(value)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --{option}: {message}" in captured.err
    assert not out.exists()


def test_zero_epochs_is_accepted(workspace, tmp_path, capsys):
    out = tmp_path / "pre.ckpt"
    assert run(["pretrain", "--dataset", str(workspace["data"]), "--out", str(out),
                "--epochs", "0", "--seed", "0", *TINY]) == 0
    assert json.loads(capsys.readouterr().out)["loss_trace"] == []


def test_abbreviated_or_repeated_config_is_read(tmp_path, capsys):
    """The file read is the one argparse parses: it takes --conf for
    --config, and the last of two."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10, "ponzi": 3}), encoding="utf-8")
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"n": 5, "ponzi": 1}), encoding="utf-8")
    for given, records in ((["--conf", str(cfg)], 10), ([f"--conf={cfg}"], 10),
                           (["--config", str(other), "--config", str(cfg)], 10),
                           (["--config", str(cfg), "--co", str(other)], 5)):
        assert run(["synth", "--out", str(tmp_path / "a.jsonl"), *given]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == records


def _subprocess_env(**overrides: str) -> dict[str, str]:
    """This environment, with the package's sources first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **overrides)


def test_cli_imports_no_scipy_or_requests():
    """numpy is the only third-party package the command line loads."""
    probe = ("import sys, ponziscan.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'requests')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    """pretrain writes the same checkpoint bytes under OPENBLAS_NUM_THREADS
    1 and 2, because importing ponziscan pins one BLAS thread. With two
    threads the matrix products sum in another order. OpenBLAS runs no more
    threads than there are CPUs, so on a one-CPU machine this passes
    trivially."""
    data = tmp_path / "data.jsonl"
    assert run(["synth", "--out", str(data), "--n", "12", "--ponzi", "4", "--seed", "3"]) == 0
    capsys.readouterr()
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.ckpt"
        subprocess.run([sys.executable, "-m", "ponziscan.cli", "pretrain",
                        "--dataset", str(data), "--out", str(out), "--epochs", "1"],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True, timeout=300)
        checkpoints.append(out.read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "ponziscan" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["parse", "dfg", "synth", "pretrain",
                                     "train", "eval", "predict", "fetch"])
def test_subcommand_help_exits_0(command, capsys):
    """argparse formats an option's help only when it prints it."""
    assert run([command, "--help"]) == 0
    assert f"usage: ponziscan {command}" in capsys.readouterr().out
