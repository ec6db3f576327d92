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


def test_pretrain_epoch_is_traced_per_sampler_and_pair_loss_call():
    # the traced run's sampler and pair-loss metrics are read at these sites,
    # which pretrain_epoch must look up when it runs
    from ponziscan import pretrain
    from ponziscan.datasynth import generate_corpus
    from ponziscan.encoding import build_vocab
    from ponziscan.model.adam import AdamState
    from ponziscan.model.config import ModelConfig
    from ponziscan.model.params import init_params
    from ponziscan.pipeline import encode_records

    records = generate_corpus(3, 1, 0)
    vocab = build_vocab(records, 64)
    config = ModelConfig(n_layers=1, d_h=8, n_heads=2, d_ff=16, code_len=24,
                         flow_len=6)
    inputs = encode_records(records, vocab, config)
    assert all(inp.n_nodes for inp in inputs)
    params = init_params(config, len(vocab))
    tracer = perfbench_module("tracer").Tracer()
    try:
        tracer.install()
        pretrain.pretrain_epoch(inputs, vocab, params, AdamState.for_params(params),
                                config, seed=0, epoch=0)
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["pretrain.sample_edge_mask"] == len(inputs)
    assert calls["pretrain.sample_align_mask"] == len(inputs)
    assert calls["model.losses.pair_bce"] == 2 * len(inputs)


def test_attention_is_timed_in_every_layer_of_a_training_pass():
    # softmax_rows and softmax_rows_backward hold the attention's exp-and-sum
    # and score-gradient steps, so the traced run times attention there
    from ponziscan.datasynth import generate_corpus
    from ponziscan.encoding import build_vocab
    from ponziscan.model import losses
    from ponziscan.model.config import ModelConfig
    from ponziscan.model.params import init_params
    from ponziscan.pipeline import encode_records

    records = generate_corpus(1, 1, 0)
    vocab = build_vocab(records, 64)
    config = ModelConfig(n_layers=2, d_h=8, n_heads=2, d_ff=16, code_len=24, flow_len=6)
    inp = encode_records(records, vocab, config)[0]
    assert inp.n_nodes
    params = init_params(config, len(vocab))
    tracer = perfbench_module("tracer").Tracer()
    try:
        tracer.install()
        losses.classification_loss_and_grads(inp, 1, params, config)
    finally:
        tracer.uninstall()
    names = [tracer.names[span[0]] for span in tracer.spans]
    for layer, step in (("layer_forward", "softmax_rows"),
                        ("layer_backward", "softmax_rows_backward")):
        layers = [i for i, name in enumerate(names) if name == f"model.encoder.{layer}"]
        assert len(layers) == config.n_layers
        for i in layers:
            assert any(names[j] == f"model.encoder.{step}" and tracer.spans[j][3] == i
                       for j in range(len(names))), (layer, i)
