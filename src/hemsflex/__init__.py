"""Multi-period flexibility forecasting for residential prosumers.

Pipeline: correlated net-load scenarios from per-lead-time forecast quantiles,
a two-dimensional evolutionary particle swarm collecting trajectories that
stay feasible across most scenarios, and a one-class support-vector boundary
that classifies new trajectories. The boundary's model file holds some of
the household's feasible trajectories (see `svdd`).
"""

from . import analysis, cli, epso, hems, scenarios, svdd

__version__ = "0.1.0"

__all__ = ["analysis", "cli", "epso", "hems", "scenarios", "svdd", "__version__"]
