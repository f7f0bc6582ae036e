"""Dynamic WDM provisioning (routing and wavelength assignment) layer.

The paper motivates semilightpath routing with on-line circuit switching in
wide-area networks: connection requests arrive over time, each needs a
transmission path with concrete wavelengths reserved on every link, and
resources return to the pool when the connection ends.  This subpackage is
that system, built on the optimal-semilightpath router:

* :mod:`~repro.wdm.state` — per-(link, wavelength) occupancy with safe
  reserve/release,
* :mod:`~repro.wdm.provisioning` — admit connections by routing on the
  *residual* network (occupied wavelengths removed),
* :mod:`~repro.wdm.first_fit` — the classic baseline: fixed shortest-path
  routing + first-fit wavelength assignment, no conversion,
* :mod:`~repro.wdm.traffic` — seeded Poisson/exponential traffic,
* :mod:`~repro.wdm.simulation` — the dynamic event loop measuring blocking
  probability under Erlang load sweeps.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WavelengthState",
    "Connection",
    "SemilightpathProvisioner",
    "FirstFitProvisioner",
    "TrafficGenerator",
    "TrafficRequest",
    "DynamicSimulation",
    "BlockingStats",
    "ProtectedPath",
    "route_disjoint_pair",
    "route_optimal_channel_disjoint_pair",
    "Demand",
    "Plan",
    "StaticPlanner",
    "RestorationReport",
    "cut_fiber",
    "restore",
    "restore_channels",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "FirstFitProvisioner": ".first_fit",
        "route_optimal_channel_disjoint_pair": ".optimal_protection",
        "Demand": ".planner",
        "Plan": ".planner",
        "StaticPlanner": ".planner",
        "ProtectedPath": ".protection",
        "route_disjoint_pair": ".protection",
        "Connection": ".provisioning",
        "SemilightpathProvisioner": ".provisioning",
        "RestorationReport": ".restoration",
        "cut_fiber": ".restoration",
        "restore": ".restoration",
        "restore_channels": ".restoration",
        "BlockingStats": ".simulation",
        "DynamicSimulation": ".simulation",
        "WavelengthState": ".state",
        "TrafficGenerator": ".traffic",
        "TrafficRequest": ".traffic",
    },
)
