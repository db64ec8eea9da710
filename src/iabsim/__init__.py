"""Monte Carlo simulator for multi-hop mmWave wireless backhaul path selection.

The package samples random base-station deployments, draws a statistical
mmWave channel between every pair, runs greedy hop-by-hop parent-selection
policies (with optional wired-bias functions) and aggregates hop-count and
bottleneck-SNR distributions, optionally against a centralized max-min
bottleneck benchmark.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    LinkTable,
    LosState,
    RadioConfig,
    associate_min_pathloss,
    link_table,
    los_probabilities,
    noise_power_dbm,
    shannon_rate,
)
from .config import WBF_PRESETS, config_document, parse_config
from .errors import ConfigError
from .geometry import Deployment, Region, assign_roles, sample_ppp
from .policy import (
    PathOutcome,
    PathResult,
    PolicyKind,
    WbfConfig,
    WbfKind,
    build_path,
    wbf_exp,
    wbf_poly,
    wired_bias_db,
)
from .simulate import (
    CampaignResult,
    CampaignSummary,
    EmpiricalCdf,
    PolicySpec,
    PolicySummary,
    SimConfig,
    aggregate,
    repetition_rng,
    run_campaign,
    run_repetition,
    sample_world,
    widest_path_oracle,
)

__all__ = [
    "__version__",
    "ConfigError",
    # geometry
    "Region", "Deployment", "sample_ppp", "assign_roles",
    # channel
    "RadioConfig", "ChannelParams", "LosState", "LinkTable",
    "noise_power_dbm", "los_probabilities", "link_table", "associate_min_pathloss",
    "shannon_rate",
    # policy
    "WbfKind", "WbfConfig", "PolicyKind", "PathOutcome", "PathResult",
    "wbf_poly", "wbf_exp", "wired_bias_db", "build_path",
    # simulate
    "SimConfig", "PolicySpec", "EmpiricalCdf", "CampaignResult",
    "CampaignSummary", "PolicySummary", "repetition_rng", "sample_world",
    "run_repetition", "run_campaign", "widest_path_oracle", "aggregate",
    # config
    "parse_config", "config_document", "WBF_PRESETS",
]
