"""qleak: a timing side-channel laboratory for cloud quantum services.

Models job timing of a shared quantum-computing service, reconstructs
victim circuit durations from an attacker's probe jobs, and quantifies -
via two-sample power analysis - how many timing measurements each
inference attack needs, together with the countermeasures that raise
that cost.
"""
from .stats import (
    PowerSpec,
    TimingDistribution,
    effect_size,
    mc_power_oracle,
    pooled_t_power,
    required_sample_size,
)
from .baseline import (
    BACKENDS,
    HARDWARE,
    BaselineTable,
    bundled_table,
    catalog_matrices,
    grover_catalog,
    nearest_neighbor_requirement,
    pairwise_matrix,
)
from .cloudsim import (
    DeviceProfile,
    Scenario,
    ground_truth_durations,
    load_reference_devices,
    load_scenario,
    run_simulation,
)
from .trace import (
    AttackerView,
    assemble_trace,
    estimate_victim_mean,
    reconstruct,
)
from .attacks import (
    INDISTINGUISHABLE,
    co_identify,
    detect_backend,
    null_distinguishability,
    qp_fingerprint,
    uc_classify,
)
from .mitigations import (
    Mitigation,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
