"""The benchmark's tracer still finds a call site for every span it times.

perfbench/tracer.py times the program by rebinding module attributes; a
span none of whose sites exists any more is skipped, and its per-layer
metrics drop out of the benchmark's output. The tracer is read from its
file and executed here without writing anything next to it.
"""

from __future__ import annotations

from helpers import perfbench_module


def test_every_traced_span_has_a_call_site():
    tracer = perfbench_module("tracer").Tracer()
    try:
        tracer.install()
        assert tracer.absent() == []
    finally:
        tracer.uninstall()


def test_encode_record_is_traced_through_one_parse_and_one_dfg():
    # the traced run's parse and dfg metrics are read at these two sites
    from ponziscan import pipeline
    from ponziscan.encoding import build_vocab
    from ponziscan.model.config import ModelConfig

    source = ("contract C { uint x; function f(uint y) public { x = x + y; } }"
              " contract D { uint z; function g() public { z = z * 2; } }")
    vocab = build_vocab([source], 64)
    tracer = perfbench_module("tracer").Tracer()
    try:
        tracer.install()
        pipeline.encode_record(source, vocab, ModelConfig(flow_len=2))
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["pipeline.encode_record"] == 1
    assert calls["solparse.parse"] == 1
    assert calls["dfg.extract_dfg"] == 1
