"""Outage simulation and analytic bounds for time-duplexed cooperative
multiaccess networks.

Every public name loads its submodule on first use (PEP 562), so
``import tdcoop`` imports nothing and a process loads only the modules
it uses: building placements or strategies needs neither the sweep
engine nor PyYAML.  The sweep engine does the same with its worker
pool: only a sweep whose round starts workers imports
``concurrent.futures.process`` and ``multiprocessing``.
"""

import importlib

__version__ = "0.1.0"

# The public names by submodule: the sweep's inputs, entry points and config
# readers, the bound functions and trial-rate kernels it runs, and the
# capacity and hypoexponential CDF they rest on.  The one-forwarder and AF
# log-det references the kernels are checked against (``listen_fraction_rc``,
# ``af2_equivalent_channel``, ...) are importable from ``tdcoop.ddf`` and
# ``tdcoop.af`` only.
_MODULE_NAMES = {
    "mathcore": ("capacity", "hypoexp_cdf", "hypoexp_leading_cdf_term"),
    "network": ("GeometryParams", "LinkRangeError", "NodePlacement", "sample_placement", "user_id"),
    "strategies": ("Strategy", "parse_strategy"),
    "power": ("PowerConfig", "processing_power", "relay_power", "total_power", "user_burst_power"),
    "ddf": (
        "BoundPair", "ddf_bounds_multihop", "ddf_bounds_rc", "ddf_bounds_uc2", "listen_fraction_uc2",
        "multihop_schedule", "trial_mutual_info_multihop", "trial_mutual_info_uc2",
    ),
    "af": ("af_bounds_2hop", "af_bounds_multihop"),
    "harness": (
        "CSV_HEADER", "ExperimentConfig", "OutageEstimate", "estimate_outage", "mac_outage",
        "run_experiment", "sweep_fixed_placement",
    ),
    "config": ("ConfigError", "config_from_dict", "load_config"),
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
