"""Offline (pre-solve) analyses.

- :mod:`~repro.preprocess.hvn` — the offline label stages behind
  ``--opt ovs|hvn|hu``: Offline Variable Substitution (Rountev & Chandra),
  the paper's constraint pre-processing step (60-77% reduction), run as
  one HU label round, and the HVN/HU fixpoints of the SAS 2007 companion
  paper.  :func:`preprocess_system` runs any stage by name.
- :mod:`~repro.preprocess.hcd_offline` — the offline half of Hybrid Cycle
  Detection: builds the ref-node constraint graph, runs Tarjan, and emits
  the pair list ``L`` the online solvers consume.
"""

from repro.preprocess.hcd_offline import HCDOfflineResult, hcd_offline_analysis
from repro.preprocess.hvn import PreprocessResult, preprocess_system

__all__ = [
    "HCDOfflineResult",
    "hcd_offline_analysis",
    "PreprocessResult",
    "preprocess_system",
]
