"""Outage simulation and analytic bounds for time-duplexed cooperative
multiaccess networks."""

from .mathcore import (
    WeightedExpSum,
    capacity,
    hypoexp_cdf,
    hypoexp_coefficients,
    hypoexp_leading_cdf_term,
)
from .network import GeometryParams, NodePlacement, sample_placement, user_id
from .strategies import Strategy, parse_strategy
from .power import (
    PowerConfig,
    processing_power,
    relay_power,
    total_power,
    user_burst_power,
)
from .ddf import (
    BoundPair,
    clustering_condition,
    ddf_bounds_multihop,
    ddf_bounds_rc,
    ddf_bounds_uc2,
    listen_fraction_cdf,
    listen_fraction_rc,
    listen_fraction_uc2,
    multihop_schedule,
    trial_mutual_info_multihop,
    trial_mutual_info_rc,
    trial_mutual_info_uc2,
)
from .af import (
    EquivalentChannel,
    af2_equivalent_channel,
    af_amplifier_gain,
    af_bounds_2hop,
    af_bounds_multihop,
    af_trial_mutual_info,
    afmh_equivalent_channel,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    OutageEstimate,
    area_averaged_outage,
    diversity_slope,
    estimate_outage,
    mac_outage,
    run_experiment,
    sweep_fixed_placement,
)
from .config import ConfigError, config_from_dict, load_config

__version__ = "0.1.0"

__all__ = [
    "WeightedExpSum",
    "capacity",
    "hypoexp_cdf",
    "hypoexp_coefficients",
    "hypoexp_leading_cdf_term",
    "GeometryParams",
    "NodePlacement",
    "sample_placement",
    "user_id",
    "Strategy",
    "parse_strategy",
    "PowerConfig",
    "processing_power",
    "relay_power",
    "total_power",
    "user_burst_power",
    "BoundPair",
    "clustering_condition",
    "ddf_bounds_multihop",
    "ddf_bounds_rc",
    "ddf_bounds_uc2",
    "listen_fraction_cdf",
    "listen_fraction_rc",
    "listen_fraction_uc2",
    "multihop_schedule",
    "trial_mutual_info_multihop",
    "trial_mutual_info_rc",
    "trial_mutual_info_uc2",
    "EquivalentChannel",
    "af2_equivalent_channel",
    "af_amplifier_gain",
    "af_bounds_2hop",
    "af_bounds_multihop",
    "af_trial_mutual_info",
    "afmh_equivalent_channel",
    "CSV_HEADER",
    "ExperimentConfig",
    "OutageEstimate",
    "area_averaged_outage",
    "diversity_slope",
    "estimate_outage",
    "mac_outage",
    "run_experiment",
    "sweep_fixed_placement",
    "ConfigError",
    "config_from_dict",
    "load_config",
    "__version__",
]
