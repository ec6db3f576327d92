"""End-to-end tests for the command-line interface.

Every test drives main(argv) in-process and inspects exit codes plus
captured stdout/stderr. A module-scoped workspace runs the expensive
stages once: synth -> pretrain -> train, with a deliberately tiny model
so the whole chain stays fast.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ponziscan.cli import main
from ponziscan.dfg import extract_dfg, to_dot
from ponziscan.dfg import to_jsonable as dfg_to_jsonable
from ponziscan.model.checkpoint import load_checkpoint
from ponziscan.pipeline import (
    ContractRecord,
    load_dataset,
    split_fixed,
    write_dataset,
)
from ponziscan.solparse import lex
from ponziscan.solparse import parse as parse_tokens
from ponziscan.solparse import to_jsonable as ast_to_jsonable

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
    expected = dfg_to_jsonable(extract_dfg(parse_tokens(tokens), tokens))
    assert json.loads(out) == expected


def test_dfg_dot_format(workspace, capsys):
    assert run(["dfg", "--source", str(workspace["source"]),
                "--format", "dot"]) == 0
    out = capsys.readouterr().out
    tokens = lex(SAMPLE_SOURCE)
    assert out == to_dot(extract_dfg(parse_tokens(tokens), tokens))
    assert out.startswith("digraph dfg {")


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
    sizes = split_fixed(fixed_workspace["records"]).sizes()
    assert payload["split"] == "fixed"
    assert payload["sizes"] == sizes == {"train": 500, "test": 100}
    report = payload["report"]
    assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 100


def test_predict_reports_probability(workspace, capsys):
    assert run(["predict", "--source", str(workspace["source"]),
                "--checkpoint", str(workspace["model"])]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] in (0, 1)
    assert 0.0 < payload["probability"] < 1.0


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


def test_too_small_fetch_delay_exits_2(capsys):
    assert run(["fetch", "--address", ADDRESS, "--delay", "0.05"]) == 2
    assert "delay" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "ponziscan" in capsys.readouterr().out
