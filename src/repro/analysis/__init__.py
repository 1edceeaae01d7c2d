"""Post-hoc analysis of networks, clusterings and broadcast outcomes.

Two lenses the paper's evaluation does not plot but users of a broadcast
backbone care about:

* **latency** — restricting forwarding to a backbone can lengthen delivery
  paths; :func:`~repro.analysis.latency.latency_stretch` measures the
  slowdown relative to the BFS optimum;
* **redundancy** — how many copies of the packet each host receives
  (the broadcast-storm quantity the backbones exist to shrink).
"""

from repro.analysis.latency import latency_stretch, latency_study
from repro.analysis.redundancy import RedundancyReport, redundancy_report

__all__ = [
    "latency_stretch",
    "latency_study",
    "RedundancyReport",
    "redundancy_report",
]
