#!/usr/bin/env python3
"""Export a chrome://tracing timeline of a simulated training batch.

Installs a :class:`repro.instrument.Tracer` on the runtime, trains one
scaled VGG-16 batch under UVM with discard, and writes
``vgg16_trace.json`` — load it in chrome://tracing or
https://ui.perfetto.dev to see kernels on the compute track overlapping
prefetches and evictions on the link tracks, exactly like an Nsight
capture of the real system.

Run:  python examples/timeline_trace.py
"""

from __future__ import annotations

from repro.cuda.device import rtx_3080ti
from repro.harness.oversubscribe import apply_oversubscription
from repro.harness.runner import run_uvm_prefix
from repro.harness.systems import System
from repro.instrument import Tracer
from repro.interconnect import pcie_gen4
from repro.workloads.dl import DarknetTrainer, TrainerConfig, vgg16

SCALE = 1 / 16
BATCH = 125  # oversubscribed at this scale
OUTPUT = "vgg16_trace.json"


def main() -> None:
    network = vgg16().scaled(SCALE)
    trainer = DarknetTrainer(
        network, TrainerConfig(batch_size=BATCH, batches=2), System.UVM_DISCARD
    )
    # The CPU-only setup prefix first, then trace the measured body —
    # the order ``repro trace`` uses.
    runtime = run_uvm_prefix(
        trainer.setup_program(), rtx_3080ti().scaled(SCALE), pcie_gen4()
    )
    apply_oversubscription(runtime, trainer.app_bytes, 1.0)
    tracer = Tracer().install(runtime)
    runtime.run(trainer.body_program())
    tracer.uninstall()

    compute_track = f"{runtime.gpu.name}/compute"
    compute = tracer.busy_seconds(compute_track)
    h2d = tracer.busy_seconds("link/h2d")
    d2h = tracer.busy_seconds("link/d2h")
    overlap = tracer.overlap_seconds(compute_track, "link/h2d")
    print(f"records traced:     {len(tracer.events)}")
    print(f"compute busy:       {compute * 1e3:8.2f} ms")
    print(f"H2D link busy:      {h2d * 1e3:8.2f} ms")
    print(f"D2H link busy:      {d2h * 1e3:8.2f} ms")
    print(f"compute/H2D overlap:{overlap * 1e3:8.2f} ms (prefetch pipelining)")
    tracer.write(OUTPUT)
    print(f"\nwrote {OUTPUT} — open it in chrome://tracing")


if __name__ == "__main__":
    main()
