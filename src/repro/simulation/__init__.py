"""Discrete-event execution of offloading schemes.

The paper evaluates schemes with the closed-form model of Section II
(formulas (1)-(6)).  This package provides the corresponding *executable*
substrate: an event-driven simulator that actually plays a scheme out
over time — devices compute locally, uplinks carry the cut data, the
shared edge server queues and serves remote work — and reports measured
completion times and energies.

Two purposes:

* **validation** — with an instantaneous network the simulated totals
  reduce exactly to the analytic FCFS formulas, and the test suite
  asserts that agreement (the strongest check that formulas (1)-(5) are
  implemented consistently);
* **what the formulas can't say** — mid-run faults (server degradation,
  bandwidth drops) and the resulting timelines, used by the
  fault-injection tests and the ``fault_injection``/``scenario_comparison``
  examples.
"""

from repro.simulation.engine import SimulationEngine, simulate_scheme
from repro.simulation.events import EventQueue
from repro.simulation.faults import BandwidthChange, Fault, ServerDegradation, ServerOutage
from repro.simulation.report import SimulationReport, UserTimeline
from repro.simulation.scenario import Scenario, ScenarioComparison, compare_scenarios

__all__ = [
    "SimulationEngine",
    "simulate_scheme",
    "EventQueue",
    "SimulationReport",
    "UserTimeline",
    "Fault",
    "ServerDegradation",
    "ServerOutage",
    "BandwidthChange",
    "Scenario",
    "ScenarioComparison",
    "compare_scenarios",
]
