"""Multi-cell Massive MIMO in line-of-sight propagation.

Closed-form MR/ZF effective SINRs on both links, target-SINR and max-min
power control, and a symbol-level Monte Carlo oracle that verifies every
closed form.
"""

from .channel import (
    ChannelSet,
    build_channel_set,
    dump_channel_set,
    link_budget,
    wavelength_m,
)
from .config import ScenarioConfig, load_config, parse_config, serialize_config
from .errors import (
    ConfigurationError,
    DegenerateChannelError,
    LosMimoError,
    MaxminError,
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
    stream_cross_gram,
)
from .scenario import CdfTable, VerificationReport, build_drop_channels, run_scenario, verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
