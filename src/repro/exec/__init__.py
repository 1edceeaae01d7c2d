"""Execution subsystem: backends, trial specs and the scenario cache.

``repro.exec`` is the layer between the workload drivers and the hardware:

* :mod:`repro.exec.backends` — ``serial`` (the bit-exact reference) or
  ``process`` execution for :func:`repro.workload.trials.paired_trials`,
  with a persistent process pool and an index-ordered determinism contract
  (estimates are bit-identical across backends and worker counts);
* :mod:`repro.exec.spec` — picklable :class:`TrialSpec` descriptions so
  trial functions resolve worker-side instead of pickling per call;
* :mod:`repro.exec.scenarios` — the cross-experiment scenario cache that
  draws each connected network sample once and shares it between figures,
  sweeps and fault scenarios;
* :mod:`repro.exec.supervise` — the fault-tolerant wrapper: per-chunk
  timeouts, classified failures, retry with backoff, pool rebuilds and
  the ``process`` → ``serial`` degradation ladder;
* :mod:`repro.exec.journal` — crash-safe run journaling (append-only
  fsync'd JSONL) so an interrupted run resumes bit-identically.

See docs/performance.md and docs/resilience.md for the user-level tour.
"""

from repro.exec.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    as_backend,
    shared_backend,
    shutdown_shared_backends,
)
from repro.exec.scenarios import (
    Scenario,
    ScenarioCache,
    ScenarioKey,
    connected_scenario,
    get_scenario_cache,
    scenario_positions,
)
from repro.exec.journal import (
    PointJournal,
    RunJournal,
    open_journal,
)
from repro.exec.spec import IndexedTrialFn, TrialSpec, resolve_cached
from repro.exec.supervise import (
    DEGRADE_ORDER,
    FAILURE_KINDS,
    ExecEvent,
    SupervisedBackend,
    classify_failure,
)

__all__ = [
    "BACKENDS",
    "DEGRADE_ORDER",
    "FAILURE_KINDS",
    "ExecEvent",
    "ExecutionBackend",
    "IndexedTrialFn",
    "PointJournal",
    "ProcessBackend",
    "RunJournal",
    "Scenario",
    "ScenarioCache",
    "ScenarioKey",
    "SerialBackend",
    "SupervisedBackend",
    "TrialSpec",
    "as_backend",
    "classify_failure",
    "connected_scenario",
    "get_scenario_cache",
    "open_journal",
    "resolve_cached",
    "scenario_positions",
    "shared_backend",
    "shutdown_shared_backends",
]
