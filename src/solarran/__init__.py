"""Deterministic energy-balance simulator for a 5G access network served by
tethered, solar-assisted UAV base stations."""

import os
from importlib import resources

# Before numpy loads: one BLAS thread, so simulate forks a single-threaded process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .design import (CellConfig, InstanceTooLargeError, NetworkConfig,
                     brute_force_design, greedy_design, network_config)
from .energy import (BatterySpec, Equipment, MimoSpec, ParameterError, PvSpec,
                     RisSpec, UavAirframe, mimo_power, pv_power, ris_power,
                     station_power_w, uav_hover_power)
from .engine import (PairResult, SeasonStats, SimulationError, StudyMetrics,
                     compute_metrics, run_network, run_pair,
                     verify_conservation)
from .radio import Position, RadioParams, link_table
from .scenario import (AccessNode, ConfigError, Scenario, UserTerminal,
                       WeatherError, WeatherSeries, default_node_grid,
                       load_config, load_weather_csv, place_users,
                       synth_study_series, synth_weather, write_weather_csv)

__version__ = "0.1.0"


def example_config_path() -> str:
    """Filesystem path of the bundled example scenario file."""
    return str(resources.files("solarran").joinpath("data/example_scenario.json"))


def example_oracle_instance_path() -> str:
    """Filesystem path of the bundled small oracle instance."""
    return str(resources.files("solarran").joinpath("data/oracle_small.json"))
