"""Run one workload untraced (end-to-end metrics) or traced (per-layer)."""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass

import harness
import layers
from tracer import Tracer


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    wrong: int


def run(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
        trace_dir: str) -> Outcome:
    module = importlib.import_module(workload)
    size = module.SIZES[size_name]

    def build() -> harness.Setup:
        return module.build(size)

    def measured(setup: harness.Setup, span: float, tracer=None):
        harness.freeze_heap()
        try:
            return module.measure(setup.system, seed, size, span, tracer)
        finally:
            module.teardown(setup.system)
            setup.system = None
            harness.thaw_heap()

    if not trace:
        first, mem = harness.first_setup(build)
        run_ = measured(first, seconds)
        setups = [first] + harness.fresh_setups(
            workload, size_name, first.nodes, harness.SETUPS - 1
        )
        return Outcome(
            harness.end_to_end(setups, mem, run_),
            run_.attempted, run_.failed, run_.wrong,
        )

    # Traced run: an untraced half for the counts and the baseline
    # throughput, then the same workload rebuilt under the wrappers.
    first, _ = harness.first_setup(build)
    setups = [first]
    plain = measured(first, seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measured(build(), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = harness.sim_per_layer(setups, plain)
    metrics.update(harness.common_per_layer(plain))
    metrics.update(harness.traced_per_layer(tracer, traced.events))
    # Only the deployed plane has a request breakdown of its own.
    serve_metrics = getattr(module, "traced_per_layer", None)
    if serve_metrics is not None:
        metrics.update(serve_metrics(tracer, traced))
    untraced_qps = harness.median_rate(plain)
    traced_qps = harness.median_rate(traced)
    metrics["trace.untraced_queries_per_s"] = untraced_qps
    metrics["trace.traced_queries_per_s"] = traced_qps
    metrics["trace.overhead_frac"] = harness.ratio(
        untraced_qps - traced_qps, untraced_qps
    )
    os.makedirs(trace_dir, exist_ok=True)
    tracer.dump(
        os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl"),
        {"workload": workload, "seed": seed, "seconds": seconds / 2},
    )
    return Outcome(
        metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.wrong + traced.wrong,
    )
