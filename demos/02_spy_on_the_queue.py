"""A full eavesdropping session on a shared quantum service.

Simulates a victim running GHZ circuits on shared hardware while an
attacker interleaves tiny probe jobs, reconstructs the victim's
per-execution durations purely from the attacker's own timestamps, then:

1. identifies which benchmark circuit the victim is running (UC),
2. decides whether the job ran on a simulator or real hardware,
3. fingerprints which of two candidate processors served it (QP).
"""
from pathlib import Path

from qleak import (
    HARDWARE,
    bundled_table,
    detect_backend,
    ground_truth_durations,
    load_scenario,
    qp_fingerprint,
    reconstruct,
    run_simulation,
    uc_classify,
)

scenario_path = Path(__file__).parent / "scenarios" / "ghz_hardware.yaml"
scenario = load_scenario(scenario_path)
log = run_simulation(scenario)
print(f"simulated {len(log)} jobs on {scenario.device.name!r}")

# --- the attacker's side: only its own probes are visible -------------
trace = reconstruct(log)
truth = ground_truth_durations(log)
# unusually long draws can be double-counted, so compare distributions,
# not elements: the trace mean is what every attack consumes
miscounted = abs(len(trace) - len(truth))
print(
    f"reconstructed {len(trace)} victim durations "
    f"({miscounted} miscounted of {len(truth)}); "
    f"mean {trace.durations.mean():.4f}s vs true {truth.mean():.4f}s"
)

table = bundled_table()
uc = uc_classify(trace, table, HARDWARE)
print(
    f"\n[UC] victim circuit: {uc.label!r} "
    f"({uc.measurements_used} measurements, plan was {uc.planned_n:.0f}"
    f"{', UNDER-POWERED' if uc.underpowered else ''})"
)

backend = detect_backend(trace, table)
print(f"[UC] backend: {backend.label}")

qp = qp_fingerprint(trace, scenario.reference_devices, scenario.victim_circuit)
print(
    f"[QP] processor: {qp.label!r} "
    f"({qp.measurements_used} measurements, plan was {qp.planned_n:.0f}"
    f"{', UNDER-POWERED' if qp.underpowered else ''})"
)
