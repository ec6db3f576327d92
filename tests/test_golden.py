"""Equivalence oracles against committed golden files.

(a) Front-end digests: for each source of a fixed corpus (the synthetic
training corpus, mutated sources, and the benchmark's flattened sources at
two input budgets), SHA-256 digests of its parse JSON, its data-flow graph
JSON and its encoded model input (or of the DomainError it raises). One
digest per corpus is checked; on a mismatch the failure lists the sources
that changed, and how.

(b) A tiny CLI chain: synth, parse, dfg, pretrain, train and eval/predict
in a temporary directory, each subcommand's stdout compared with the
golden run: structure, strings and integers exactly, floats within 1e-9
(BLAS rounding differs between machines). The float-free parse and dfg
outputs are compared by digest.

A golden file may only change with a named, intended behaviour change.
Rewrite both after one with:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shlex
import sys
from pathlib import Path

from ponziscan import datasynth
from ponziscan.cli import main
from ponziscan.dfg import extract_dfg, to_jsonable as dfg_to_jsonable
from ponziscan.encoding import build_vocab, encode_input
from ponziscan.errors import DomainError
from ponziscan.model.config import ModelConfig
from ponziscan.pipeline import ContractRecord, write_dataset
from ponziscan.solparse import lex, parse, to_jsonable as ast_to_jsonable

from helpers import mutated_sources, perfbench_module

GOLDEN = Path(__file__).with_name("golden")
FRONTEND_GOLDEN = GOLDEN / "frontend.json"
CLI_GOLDEN = GOLDEN / "cli_chain.json"
FLOAT_TOL = 1e-9


# -- (a) front-end digests ---------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=int)


def source_digests(source: str, vocab, config: ModelConfig) -> dict[str, str]:
    try:
        tokens = lex(source)
        ast = parse(tokens)
        graph = extract_dfg(ast)
        inp = encode_input(tokens, graph, vocab, code_len=config.code_len,
                           flow_len=config.flow_len)
    except DomainError as exc:
        return {"error": _sha(f"{type(exc).__name__}: {exc}")}
    encoded = [inp.token_ids.tolist(), inp.position_ids.tolist(),
               inp.segments.tolist(), inp.node_alignment, inp.dfg_edges,
               inp.withdrawn, inp.truncated, inp.n_code, inp.n_nodes]
    return {"parse": _sha(_dump(ast_to_jsonable(ast))),
            "dfg": _sha(_dump(dfg_to_jsonable(graph))),
            "encoded": _sha(_dump(encoded))}


def frontend_digests() -> dict[str, dict]:
    """Per corpus: its SHA-256 and the per-source digests behind it.

    The benchmark's flattened sources are the truncated inputs: 181 of the
    256 overflow the default 256/64 budgets and all of them overflow
    64/16, so they are digested at both."""
    corpus = datasynth.generate_corpus(64, 16, seed=0)
    flattened = perfbench_module("workloads").flattened_records(0)
    vocab = build_vocab(corpus, 2048)
    flattened_vocab = build_vocab(flattened, 2048)
    small = ModelConfig(code_len=64, flow_len=16)
    corpora = {
        "generate_corpus_64_16_0": ([r.source for r in corpus], vocab, ModelConfig()),
        "mutated_48": (mutated_sources(), vocab, ModelConfig()),
        "flattened_records_0_256_64": ([r.source for r in flattened],
                                       flattened_vocab, ModelConfig()),
        "flattened_records_0_64_16": ([r.source for r in flattened],
                                      flattened_vocab, small),
    }
    out = {}
    for name, (sources, vocab, config) in corpora.items():
        per_source = [source_digests(s, vocab, config) for s in sources]
        out[name] = {"sha256": _sha(_dump(per_source)), "sources": per_source}
    return out


def test_frontend_digests():
    want = json.loads(FRONTEND_GOLDEN.read_text(encoding="utf-8"))
    got = frontend_digests()
    assert sorted(got) == sorted(want)
    for name in want:
        if got[name]["sha256"] == want[name]["sha256"]:
            continue
        diff = []
        for i, (g, w) in enumerate(zip(got[name]["sources"],
                                       want[name]["sources"])):
            for part in sorted(set(g) | set(w)):
                if g.get(part) != w.get(part):
                    diff.append(f"  {name}[{i}] {part}: {w.get(part)}"
                                f" -> {g.get(part)}")
        raise AssertionError(f"front-end digest of {name} changed:\n"
                             + "\n".join(diff))


# -- (b) CLI chain --------------------------------------------------------------

TINY = "--layers 1 --d-h 8 --heads 2 --d-ff 16 --code-len 48 --flow-len 12"
# (name, argv); $T is the temporary directory
CHAIN = [
    ("synth", "synth --out $T/data.jsonl --n 24 --ponzi 8 --seed 3"),
    ("parse", "parse --source $T/sample.sol"),
    ("dfg_json", "dfg --source $T/sample.sol"),
    ("dfg_dot", "dfg --source $T/sample.sol --format dot"),
    ("pretrain", f"pretrain --dataset $T/data.jsonl --out $T/pre.ckpt {TINY}"),
    ("train_random", "train --dataset $T/data.jsonl --init $T/pre.ckpt"
                     " --out $T/model.ckpt --split random --epochs 2 --seed 1"),
    ("train_fixed", "train --dataset $T/fixed.jsonl --out $T/fixed.ckpt"
                    " --split fixed --epochs 1 --seed 2 --layers 1 --d-h 4"
                    " --heads 1 --d-ff 4 --code-len 8 --flow-len 2"),
    *[(f"eval_{split}", f"eval --dataset $T/fixed.jsonl --checkpoint"
                        f" $T/fixed.ckpt --split {split} --seed 1")
      for split in ("fixed", "P2", "P3", "P4", "random", "all")],
    ("eval_random_model", "eval --dataset $T/data.jsonl --checkpoint"
                          " $T/model.ckpt --split all"),
    ("predict", "predict --source $T/sample.sol --checkpoint $T/model.ckpt"),
]
FRONT_END_STEPS = ("parse", "dfg_json", "dfg_dot")


def fixed_corpus() -> list[ContractRecord]:
    """One-line records, every other one positive: 300 positives."""
    return [ContractRecord(idx=k + 1, source=f"contract K{k} {{ uint v{k}; }}",
                           label=k % 2) for k in range(600)]


def run_chain(tmp: Path) -> dict:
    write_dataset(fixed_corpus(), tmp / "fixed.jsonl")
    out = {}
    for name, command in CHAIN:
        if name == "parse":  # the first Ponzi contract of the synth corpus
            first = next(json.loads(line) for line in
                         (tmp / "data.jsonl").read_text().splitlines()
                         if json.loads(line)["label"] == 1)
            (tmp / "sample.sol").write_text(first["source"], encoding="utf-8")
        argv = shlex.split(command.replace("$T", str(tmp)))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        text = stdout.getvalue().replace(str(tmp), "$T")
        if name in FRONT_END_STEPS:  # float-free, and covered by (a) too
            out[name] = {"code": code, "stdout_sha256": _sha(text)}
        else:
            out[name] = {"code": code, "stdout": json.loads(text)}
    return out


def assert_close(got, want, where: str = "") -> None:
    """Equal structure, strings and integers; floats within FLOAT_TOL."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)}"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), f"{where}: length {len(got)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


def test_cli_chain(tmp_path):
    want = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    assert_close(run_chain(tmp_path), want, "chain")


def _write_golden(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    _write_golden(FRONTEND_GOLDEN, frontend_digests())
    with tempfile.TemporaryDirectory() as tmp:
        _write_golden(CLI_GOLDEN, run_chain(Path(tmp)))
    print(f"wrote {FRONTEND_GOLDEN} and {CLI_GOLDEN}", file=sys.stderr)
