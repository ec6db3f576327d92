"""Outside-in span recorder for the traced benchmark run.

Timing wrappers are installed by rebinding module attributes at each call
site. Rebinding only the defining module would miss calls, because
`from x import y` copies the binding into the caller; so every entry in
SITES names the caller's module and attribute. A site whose attribute no
longer exists is skipped and its span name reported as absent, so a
refactor of the program cannot crash the benchmark.

Spans (name, start, end, parent) stay in memory and are written once at the
end. A span's self time is its duration minus the durations of its direct
children. Counts are computed here from the arguments and return values of
the wrapped calls, never by the program itself; the time spent computing
them is recorded as a `trace.count` child span so it is not charged to the
layer that called the counted function.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

COUNT_SPAN = "trace.count"

# span name -> call sites (module, attribute) that are rebound to time it
SITES: dict[str, list[tuple[str, str]]] = {
    "datasynth.generate": [("ponziscan.datasynth", "generate_corpus"),
                           ("ponziscan.datasynth", "make_source")],
    "solparse.lex": [("ponziscan.pipeline", "lex"), ("ponziscan.encoding", "lex")],
    "solparse.parse": [("ponziscan.pipeline", "parse")],
    "dfg.extract_dfg": [("ponziscan.pipeline", "extract_dfg")],
    "encoding.build_vocab": [("ponziscan.encoding", "build_vocab")],
    "encoding.encode_input": [("ponziscan.pipeline", "encode_input")],
    "encoding.build_mask": [("ponziscan.encoding", "build_mask"),
                            ("ponziscan.pretrain", "build_mask"),
                            ("ponziscan.model.encoder", "build_mask")],
    "pipeline.encode_records": [("ponziscan.pipeline", "encode_records")],
    "pipeline.encode_record": [("ponziscan.pipeline", "encode_record")],
    "pipeline.finetune": [("ponziscan.pipeline", "finetune")],
    "pipeline.evaluate": [("ponziscan.pipeline", "evaluate")],
    "pipeline.predict_one": [("ponziscan.pipeline", "predict_one")],
    "pretrain.pretrain_epoch": [("ponziscan.pretrain", "pretrain_epoch")],
    "pretrain.sample_mlm": [("ponziscan.pretrain", "sample_mlm")],
    "pretrain.sample_edge_mask": [("ponziscan.pretrain", "sample_edge_mask")],
    "pretrain.sample_align_mask": [("ponziscan.pretrain", "sample_align_mask")],
    "model.encoder.forward": [("ponziscan.pipeline", "forward")],
    "model.encoder.forward_hidden": [("ponziscan.model.losses", "forward_hidden"),
                                     ("ponziscan.model.encoder", "forward_hidden")],
    "model.encoder.embed": [("ponziscan.model.encoder", "embed")],
    "model.encoder.mask_additive": [("ponziscan.model.encoder", "mask_additive")],
    "model.encoder.layer_forward": [("ponziscan.model.encoder", "layer_forward")],
    "model.encoder.softmax_rows": [("ponziscan.model.encoder", "softmax_rows")],
    "model.encoder.layer_norm": [("ponziscan.model.encoder", "layer_norm")],
    "model.encoder.gelu": [("ponziscan.model.encoder", "gelu")],
    "model.encoder.backward_hidden": [("ponziscan.model.losses", "backward_hidden")],
    "model.encoder.layer_backward": [("ponziscan.model.encoder", "layer_backward")],
    "model.encoder.softmax_rows_backward": [("ponziscan.model.encoder", "softmax_rows_backward")],
    "model.encoder.layer_norm_backward": [("ponziscan.model.encoder", "layer_norm_backward")],
    "model.encoder.gelu_grad": [("ponziscan.model.encoder", "gelu_grad")],
    "model.losses.mlm": [("ponziscan.pretrain", "mlm_loss_and_grads")],
    "model.losses.pair_bce": [("ponziscan.pretrain", "pair_bce_loss_and_grads")],
    "model.losses.classification": [("ponziscan.pipeline", "classification_loss_and_grads")],
    "model.losses.add_grads": [("ponziscan.pretrain", "add_grads")],
    "model.params.init_params": [("ponziscan.model.params", "init_params"),
                                 ("ponziscan.pipeline", "init_params")],
    "model.params.zeros_like_params": [("ponziscan.pretrain", "zeros_like_params"),
                                       ("ponziscan.model.losses", "zeros_like_params")],
    "model.params.check_finite": [("ponziscan.model.losses", "check_finite")],
    "model.adam.adam_step": [("ponziscan.pretrain", "adam_step"),
                             ("ponziscan.pipeline", "adam_step")],
    "model.checkpoint.save_checkpoint": [("ponziscan.model.checkpoint", "save_checkpoint")],
    "model.checkpoint.load_checkpoint": [("ponziscan.model.checkpoint", "load_checkpoint")],
}

# spans whose exact call count is reported as `<name>.calls`
CALL_COUNTED = ("solparse.lex", "encoding.encode_input", "encoding.build_mask",
                "model.encoder.forward_hidden", "model.encoder.backward_hidden",
                "model.adam.adam_step")


def _count_lex(counts, args, result):
    counts["solparse.lex.tokens"] += len(result)


def _count_parse(counts, args, result):
    from ponziscan.solparse.astnodes import OPAQUE
    stack, opaque = [result], 0
    while stack:
        node = stack.pop()
        opaque += node.kind == OPAQUE
        stack.extend(node.children)
    counts["solparse.parse.opaque_stmts"] += opaque


def _count_dfg(counts, args, result):
    counts["dfg.nodes"] += len(result.vars)
    counts["dfg.edges"] += len(result.edges)


def _count_encode(counts, args, result):
    from ponziscan.encoding import SEG_CODE, SEG_NODE, SEG_PAD, Vocabulary
    seg, ids = result.segments, result.token_ids
    content = (seg == SEG_CODE) | (seg == SEG_NODE)
    counts["encoding.inputs"] += 1
    counts["encoding.slots"] += int(seg.shape[0])
    counts["encoding.real_slots"] += int((seg != SEG_PAD).sum())
    counts["encoding.content_slots"] += int(content.sum())
    counts["encoding.unk_slots"] += int((content & (ids == Vocabulary.UNK_ID)).sum())
    counts["encoding.truncated"] += int(bool(result.truncated))
    counts["encoding.input_bytes"] += _held_bytes(result)


def _held_bytes(obj) -> int:
    """Bytes of the arrays, lists and tuples a ModelInput holds."""
    total = 0
    todo = list(vars(obj).values())
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, (list, tuple)):
            total += sys.getsizeof(item)
            todo.extend(item)
        elif isinstance(item, int) and not isinstance(item, bool) and not -5 <= item <= 256:
            total += sys.getsizeof(item)  # small ints are interned and shared
    return total


def _count_pairs(counts, args, result):
    counts["model.losses.pairs"] += len(args[1])


def _count_checkpoint(counts, args, result):
    counts["model.checkpoint.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "solparse.lex": _count_lex,
    "solparse.parse": _count_parse,
    "dfg.extract_dfg": _count_dfg,
    "encoding.encode_input": _count_encode,
    "model.losses.pair_bce": _count_pairs,
    "model.checkpoint.save_checkpoint": _count_checkpoint,
}


class Tracer:
    """Records spans around the wrapped call sites of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = [-1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.failed_counters: set[str] = set()
        self.installed: set[str] = set()
        self._originals: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.region_start = self.region_end = 0.0
        self._minflt0 = self.minor_faults = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count_id = self._name_id(COUNT_SPAN)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if counter is not None and name not in self.failed_counters:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError, IndexError, KeyError, ImportError, OSError):
                    self.failed_counters.add(name)
                spans.append((count_id, end, clock(), parent))
            return result

        return timed

    def install(self) -> None:
        for name, sites in SITES.items():
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    def start(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._minflt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.region_start = time.perf_counter()

    def stop(self) -> None:
        self.region_end = time.perf_counter()
        self.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._minflt0
        gc.callbacks.remove(self._on_gc)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the seconds of the region that
        no top-level span covers."""
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for span in self.spans:
            _, start, end, parent = span
            if parent < 0:
                covered += end - start
            else:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            self_s[self.names[name_id]] += end - start - child_s[i]
        return self_s, (self.region_end - self.region_start) - covered

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name_id, _, _, _ in self.spans:
            out[self.names[name_id]] += 1
        return out

    def absent(self) -> list[str]:
        """Span names none of whose call sites exist any more."""
        return sorted(name for name in SITES if name not in self.installed)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded region. A metric whose span
        could not be installed, or whose counter no longer fits the
        program's return values, is left out."""
        self_s, unattributed = self.self_times()
        calls = self.calls()
        out: dict[str, float] = {f"{name}.self_s": self_s.get(name, 0.0)
                                 for name in SITES if name in self.installed}
        out.update({f"{name}.calls": calls.get(name, 0)
                    for name in CALL_COUNTED if name in self.installed})
        counted = {name for name in COUNTERS
                   if name in self.installed and name not in self.failed_counters}
        c = self.counts
        if "solparse.lex" in counted:
            out["solparse.lex.tokens"] = c["solparse.lex.tokens"]
        if "solparse.parse" in counted:
            out["solparse.parse.opaque_stmts"] = c["solparse.parse.opaque_stmts"]
        if "dfg.extract_dfg" in counted:
            out["dfg.nodes"] = c["dfg.nodes"]
            out["dfg.edges"] = c["dfg.edges"]
        if "encoding.encode_input" in counted and c["encoding.inputs"]:
            out["encoding.real_len_share"] = c["encoding.real_slots"] / c["encoding.slots"]
            out["encoding.truncated_share"] = c["encoding.truncated"] / c["encoding.inputs"]
            out["encoding.unk_share"] = c["encoding.unk_slots"] / max(c["encoding.content_slots"], 1)
            out["encoding.input_kb"] = c["encoding.input_bytes"] / c["encoding.inputs"] / 1024.0
        if "model.losses.pair_bce" in counted:
            out["model.losses.pairs"] = c["model.losses.pairs"]
        if "model.checkpoint.save_checkpoint" in counted:
            out["model.checkpoint.bytes"] = c["model.checkpoint.bytes"]
        out["process.gc_s"] = self.gc_s
        out["process.minor_faults"] = self.minor_faults
        out["trace.unattributed_share"] = unattributed / (self.region_end - self.region_start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.region_start
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                                 for n, s, e, p in self.spans]}, fh)
