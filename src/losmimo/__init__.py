"""Multi-cell Massive MIMO in line-of-sight propagation.

Closed-form MR/ZF effective SINRs on both links, target-SINR and max-min
power control, and a symbol-level Monte Carlo oracle that verifies every
closed form.
"""

from .channel import (
    ChannelSet,
    LinkBudget,
    build_channel_set,
    dump_channel_set,
    fspl_db,
    link_budget,
    load_channel_set,
    los_channel,
    wavelength_m,
)
from .config import ScenarioConfig, load_config, parse_config, serialize_config
from .errors import (
    ConfigurationError,
    DegenerateChannelError,
    LosMimoError,
    SingularChannelError,
    SingularGeometryError,
)
from .geometry import (
    ArrayGeometry,
    CellLayout,
    UserDrop,
    circular_array,
    drop_users,
    hex_centers,
    in_hexagon,
)
from .linproc import (
    PowerAllocation,
    Precoder,
    dl_allocation,
    gram_inverse,
    mr_precoder,
    ul_allocation,
    zf_precoder,
)
from .mcsim import SimResult, simulate
from .powerctl import (
    CrossGram,
    MaxminResult,
    PcSolution,
    PcSystem,
    build_pc_system,
    cross_gram,
    maxmin_common_target,
    single_cell_zf_maxmin_dl,
    single_cell_zf_maxmin_ul,
    solve_targets,
)
from .scenario import CdfTable, VerificationReport, build_drop_channels, run_scenario, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
