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
