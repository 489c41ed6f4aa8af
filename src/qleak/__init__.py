"""qleak: a timing side-channel laboratory for cloud quantum services.

Models job timing of a shared quantum-computing service, reconstructs
victim circuit durations from an attacker's probe jobs, and quantifies -
via two-sample power analysis - how many timing measurements each
inference attack needs, together with the countermeasures that raise
that cost.
"""
from .stats import (
    MixtureTiming,
    PowerSpec,
    TimingDistribution,
    dom_curves,
    effect_size,
    mc_power_oracle,
    ovl,
    pooled_t_power,
    required_sample_size,
)
from .baseline import (
    BACKENDS,
    HARDWARE,
    SIMULATOR,
    BaselineEntry,
    BaselineTable,
    TableFormatError,
    bundled_table,
    catalog_matrices,
    grover_catalog,
    load_table,
    nearest_neighbor_requirement,
    pairwise_matrix,
)
from .cloudsim import (
    DeviceProfile,
    Scenario,
    ScenarioError,
    ground_truth_durations,
    load_reference_devices,
    load_scenario,
    run_simulation,
)
from .trace import (
    AttackerView,
    Trace,
    assemble_trace,
    estimate_victim_mean,
    reconstruct,
)
from .attacks import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    NULL_RULE_FP_LEVEL,
    AttackVerdict,
    co_identify,
    detect_backend,
    null_distinguishability,
    qp_fingerprint,
    uc_classify,
)
from .csvout import write_csv
from .mitigations import (
    KINDS,
    Mitigation,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
