"""Multi-cell Massive MIMO in line-of-sight propagation.

Closed-form MR/ZF effective SINRs on both links, target-SINR and max-min
power control, and a symbol-level Monte Carlo oracle that verifies every
closed form.
"""

from .channel import CrossGram, link_budget, stream_cross_gram, wavelength_m
from .config import ScenarioConfig, load_config, parse_config, serialize_config
from .errors import (
    ConfigurationError,
    DegenerateChannelError,
    LosMimoError,
    MaxminError,
    SingularChannelError,
    SingularGeometryError,
)
from .geometry import circular_array, drop_users, hex_centers, in_hexagon
from .linproc import gram_inverse
from .mcsim import SimResult, simulate
from .powerctl import (
    MaxminResult,
    PcSystem,
    build_pc_system,
    maxmin_common_target,
    single_cell_zf_maxmin,
    solve_targets,
)
from .scenario import CdfTable, Drop, VerificationReport, run_scenario, solve_drop, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
