"""The benchmark workloads: inputs, one timed cycle, output checks.

Every program function is reached through its module attribute at call
time (`pipeline.finetune`, not a name imported once), so the traced run's
rebound wrappers see these calls too.

Workloads, and why each was chosen:
  train_small  one pretrain pass with all three objectives, one finetune
      epoch warm from the pre-trained weights, and save_checkpoint, over
      generate_corpus(64, 16). The encoder forward/backward, losses, Adam
      and the pretrain samplers do nearly all of the work; inputs are about
      half padding. Each pass is made as sixteen calls over four samples
      (pretrain_epoch with epoch = slice number, so every slice draws its
      own sampling stream; one Adam state throughout pretraining), which
      gives sixteen timed pieces per phase.
  scan_flattened  the forward-only eval/predict path over 256 flattened
      multi-contract sources: evaluate scores all of them, then predict_one
      scores the first 128 one at a time. Inputs are long (most slots real,
      most truncate), so padding barely matters and the forward pass
      dominates. The front end (lex, parse, dfg, encoding) is about a
      quarter of its time, against a few percent in train_small.

The published-shape front-end workload (build_vocab + encode_records over
6,498 contracts) is left out: its pure-Python work swung up to 1.8x in
speed between minutes on a shared 2-vCPU machine, more than any bound a
later change could be held to. Its layers are traced in both workloads.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ponziscan import datasynth, encoding, pipeline, pretrain
import ponziscan.model.adam as adam
import ponziscan.model.checkpoint as checkpoint
import ponziscan.model.params as model_params
from ponziscan.model.config import ModelConfig

clock = time.perf_counter

VOCAB_CAP = 2048
DEFAULT_SEED = 0
TRAIN_TOTAL, TRAIN_PONZI = 64, 16
TRAIN_SLICE = 4            # samples per pretrain_epoch / finetune call
SCAN_SOURCES = 256
SCAN_PREDICTED = 128
SCAN_CHUNK = 8             # records per evaluate call
SCAN_MAX_PARTS = 6
SCAN_PONZI_SHARE = 0.15    # chance that one joined contract is a Ponzi scheme
REL_TOL = 1e-9


@dataclass
class CycleOutput:
    """One cycle: items attempted, per-phase piece timings, raw outputs.

    A phase is timed as several equal pieces (one call into the program
    each), so that the run can report a quantile of the pieces rather than
    a sum that a few seconds of machine noise would move."""

    items: int
    outputs: dict
    pieces: dict[str, list[float]] = field(default_factory=dict)
    phase_items: dict[str, int] = field(default_factory=dict)

    def timed(self, phase: str, items: int, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.pieces.setdefault(phase, []).append(clock() - start)
        self.phase_items[phase] = self.phase_items.get(phase, 0) + items
        return result


def _scratch_dir(root: Path) -> tempfile.TemporaryDirectory:
    work = root / "perfbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=work)


# -- train_small ------------------------------------------------------------------


class TrainSmall:
    name = "train_small"

    def setup(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.config = ModelConfig()
        self.records = datasynth.generate_corpus(TRAIN_TOTAL, TRAIN_PONZI, seed)
        self.vocab = encoding.build_vocab(self.records, VOCAB_CAP)
        self.inputs = pipeline.encode_records(self.records, self.vocab, self.config)
        self.initial = model_params.init_params(self.config, len(self.vocab))
        self._scratch = _scratch_dir(root)
        self.path = Path(self._scratch.name) / "train_small.ckpt"

    def cycle(self) -> CycleOutput:
        params = {name: arr.copy() for name, arr in self.initial.items()}
        state = adam.AdamState.for_params(params)
        n = len(self.records)
        out = CycleOutput(items=2 * n, outputs={})
        totals, losses = [], []
        for k, start in enumerate(range(0, n, TRAIN_SLICE)):
            trace = out.timed("pretrain", TRAIN_SLICE, pretrain.pretrain_epoch,
                              self.inputs[start:start + TRAIN_SLICE], self.vocab, params,
                              state, self.config, seed=self.seed, epoch=k)
            totals.extend(r["total"] for r in trace)
        for start in range(0, n, TRAIN_SLICE):
            result = out.timed("finetune", TRAIN_SLICE, pipeline.finetune,
                               self.records[start:start + TRAIN_SLICE], self.vocab,
                               self.config, epochs=1, seed=self.seed, params=params)
            params = result.params
            losses.append(result.epoch_losses[0])
        out.timed("save_checkpoint", 0, checkpoint.save_checkpoint,
                  self.path, params, self.vocab, self.config)
        out.outputs = {"totals": totals, "finetune_losses": losses, "params": params}
        return out

    def check(self, out: CycleOutput, reference: dict | None) -> int:
        totals = out.outputs["totals"]
        losses = out.outputs["finetune_losses"]
        n = len(self.records)
        failed = sum(not math.isfinite(t) for t in totals) + n - len(totals)
        failed += TRAIN_SLICE * sum(not math.isfinite(x) for x in losses)
        if reference is not None:
            failed += sum(not _close(t, r) for t, r in zip(totals, reference["pretrain_totals"]))
            failed += TRAIN_SLICE * sum(not _close(x, r) for x, r
                                        in zip(losses, reference["finetune_losses"]))
        params, vocab, config, _ = checkpoint.load_checkpoint(self.path)
        saved = out.outputs["params"]
        same = (params.keys() == saved.keys()
                and all(np.array_equal(params[k], saved[k]) for k in saved)
                and vocab.to_lines() == self.vocab.to_lines() and config == self.config)
        return failed + (0 if same else n)

    def reference(self, out: CycleOutput) -> dict:
        return {"pretrain_totals": out.outputs["totals"],
                "finetune_losses": out.outputs["finetune_losses"]}


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * max(abs(ref), 1e-300)


# -- scan_flattened ----------------------------------------------------------------


def flattened_records(seed: int) -> list:
    """SCAN_SOURCES sources, each 1..SCAN_MAX_PARTS synthetic contracts
    joined under `// file:` headers as a flattened verified-source bundle
    reads. Labelled positive when any joined contract is a Ponzi scheme."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(SCAN_SOURCES):
        n_parts = int(rng.integers(1, SCAN_MAX_PARTS + 1))
        labels = [int(rng.random() < SCAN_PONZI_SHARE) for _ in range(n_parts)]
        parts = [f"// file: contracts/S{i}_{j}.sol\n{datasynth.make_source(label, rng)}"
                 for j, label in enumerate(labels)]
        records.append(pipeline.ContractRecord(idx=i + 1, source="\n\n".join(parts),
                                               label=max(labels)))
    return records


class ScanFlattened:
    name = "scan_flattened"

    def setup(self, seed: int, root: Path) -> None:
        config = ModelConfig()
        self.records = flattened_records(seed)
        vocab = encoding.build_vocab(self.records, VOCAB_CAP)
        with _scratch_dir(root) as scratch:
            path = Path(scratch) / "scan.ckpt"
            checkpoint.save_checkpoint(path, model_params.init_params(config, len(vocab)),
                                       vocab, config)
            self.params, self.vocab, self.config, _ = checkpoint.load_checkpoint(path)

    def cycle(self) -> CycleOutput:
        records, vocab, params, config = self.records, self.vocab, self.params, self.config
        out = CycleOutput(items=len(records) + SCAN_PREDICTED, outputs={})
        reports = [out.timed("evaluate", SCAN_CHUNK, pipeline.evaluate,
                             records[start:start + SCAN_CHUNK], vocab, params, config)
                   for start in range(0, len(records), SCAN_CHUNK)]
        predictions = [out.timed("predict_one", 1, pipeline.predict_one,
                                 record.source, vocab, params, config)
                       for record in records[:SCAN_PREDICTED]]
        out.outputs = {"reports": reports, "predictions": predictions}
        return out

    def check(self, out: CycleOutput, reference: dict | None) -> int:
        reports, predictions = out.outputs["reports"], out.outputs["predictions"]
        if len(reports) * SCAN_CHUNK < len(self.records) or len(predictions) != SCAN_PREDICTED:
            return len(self.records) + SCAN_PREDICTED
        failed = 0
        for i, pred in enumerate(predictions):
            probs = np.asarray(pred.probabilities)
            ok = (np.isfinite(probs).all() and abs(probs.sum() - 1.0) <= 1e-12
                  and pred.label == int(probs[1] >= pred.threshold))
            if reference is not None:
                ok = ok and abs(float(probs[1]) - reference["p_positive"][i]) <= REL_TOL
            failed += not ok
        tally = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        for pred, record in zip(predictions, self.records):
            key = ("t" if pred.label == record.label else "f") + ("p" if pred.label else "n")
            tally[key] += 1
        shared = reports[:SCAN_PREDICTED // SCAN_CHUNK]
        counts = {k: sum(getattr(r, k) for r in shared) for k in tally}
        if counts != tally:
            failed += SCAN_PREDICTED
        return failed

    def reference(self, out: CycleOutput) -> dict:
        return {"p_positive": [float(p.probabilities[1]) for p in out.outputs["predictions"]]}


WORKLOADS = {w.name: w for w in (TrainSmall, ScanFlattened)}
