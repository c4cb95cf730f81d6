"""OMEGA core: full-system drivers, offload compiler, reports, models.

The paper's primary contribution lives here: the machinery that wires
the graph substrate, the Ligra-like engine, and the memory-subsystem
simulator into baseline-vs-OMEGA experiments.
"""

from repro.core.analytic import (
    LARGE_GRAPHS,
    AnalyticResult,
    LargeGraph,
    WorkloadProfile,
    calibrate_zipf_exponent,
    estimate_cycles,
    estimate_speedup,
    zipf_coverage,
)
from repro.core.characterization import (
    AccessProfile,
    access_fraction_to_top,
    measured_algorithm_profile,
    tmam_breakdown,
)
from repro.core.offload import (
    RegisterWrite,
    UpdateSpec,
    compile_update,
    generate_config_code,
    microcode_for_algorithm,
    render_offload_stub,
)
from repro.core.context import RunContext, RunRequest
from repro.core.report import Comparison, SimReport
from repro.core.sliced import SlicedRunReport, run_sliced, slice_plan
from repro.core.system import (
    DEFAULT_CHUNK_SIZE,
    compare_systems,
    estimate_system,
    run_backends,
    run_system,
)
from repro.memsim.mapping import ScratchpadMapping

__all__ = [
    "LARGE_GRAPHS",
    "AnalyticResult",
    "LargeGraph",
    "WorkloadProfile",
    "calibrate_zipf_exponent",
    "estimate_cycles",
    "estimate_speedup",
    "zipf_coverage",
    "AccessProfile",
    "access_fraction_to_top",
    "measured_algorithm_profile",
    "tmam_breakdown",
    "RegisterWrite",
    "UpdateSpec",
    "compile_update",
    "generate_config_code",
    "microcode_for_algorithm",
    "render_offload_stub",
    "Comparison",
    "RunContext",
    "RunRequest",
    "SimReport",
    "SlicedRunReport",
    "run_sliced",
    "slice_plan",
    "DEFAULT_CHUNK_SIZE",
    "compare_systems",
    "estimate_system",
    "run_backends",
    "run_system",
    "ScratchpadMapping",
]
