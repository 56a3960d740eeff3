"""Deterministic energy-balance simulator for a 5G access network served by
tethered, solar-assisted UAV base stations."""

from importlib import resources

from .design import (Assignment, CandidateTable, CellConfig,
                     InstanceTooLargeError, NetworkConfig, brute_force_design,
                     enumerate_candidates, greedy_design)
from .energy import (BatterySpec, MimoSpec, ParameterError, PvSpec, RisSpec,
                     UavAirframe, cell_temperature, mimo_power, pv_power,
                     ris_power, uav_hover_power)
from .engine import (PairResult, SeasonStats, SimulationError, StudyMetrics,
                     compute_metrics, run_network, run_pair,
                     verify_conservation)
from .radio import (Position, RadioParams, link_feasible, link_table,
                    path_loss, required_prbs, snr, spectral_efficiency)
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
