"""Experiment harness: the paper's simulation environment and figure drivers.

:class:`~repro.workload.config.PaperEnvironment` captures Section 4's setup
(100x100 area, ``d ∈ {6, 18}``, ``n ∈ 20..100``, discard disconnected
samples, 99% CI within ±5%); :mod:`repro.workload.experiments` turns it into
the three figures' series tables.
"""

from repro.workload.config import PaperEnvironment
from repro.workload.trials import TrialOutcome, paired_trials
from repro.workload.experiments import (
    run_fig6,
    run_fig7,
    run_fig8,
    run_flooding_comparison,
)
from repro.workload.contention import ContentionPoint, run_contention_sweep
from repro.workload.faultsweep import FaultSweepPoint, run_fault_sweep
from repro.workload.mobility_scaling import (
    MobilityScalingPoint,
    run_mobility_scaling,
)
from repro.workload.robustness import RobustnessPoint, run_robustness_sweep
from repro.workload.scaling import ScalingPoint, run_scaling_study
from repro.workload.storm import StormPoint, run_storm_experiment

__all__ = [
    "PaperEnvironment",
    "TrialOutcome",
    "paired_trials",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_flooding_comparison",
    "ContentionPoint",
    "run_contention_sweep",
    "FaultSweepPoint",
    "run_fault_sweep",
    "RobustnessPoint",
    "run_robustness_sweep",
    "StormPoint",
    "run_storm_experiment",
    "ScalingPoint",
    "run_scaling_study",
    "MobilityScalingPoint",
    "run_mobility_scaling",
]
