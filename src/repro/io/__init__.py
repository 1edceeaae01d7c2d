"""Serialisation: networks to/from JSON, experiment results to files."""

from repro.io.network_json import load_network, save_network
from repro.io.results import (
    fault_sweep_from_json,
    fault_sweep_to_json,
    robustness_from_json,
    robustness_to_json,
    tables_to_csv,
    tables_to_json,
    tables_to_markdown,
)

__all__ = [
    "save_network",
    "load_network",
    "fault_sweep_from_json",
    "fault_sweep_to_json",
    "robustness_from_json",
    "robustness_to_json",
    "tables_to_csv",
    "tables_to_json",
    "tables_to_markdown",
]
