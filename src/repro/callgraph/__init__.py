"""Application model: function data-flow graphs and their extraction.

The paper obtains each application's function call relationships with Soot
from compiled executables (Section II).  Soot and real APKs are not
available here, so this package provides the closest synthetic equivalent:

* :mod:`repro.callgraph.bytecode` — a miniature mobile-app IR in which a
  function is a list of instructions (compute, call-with-payload, sensor
  read, local I/O, return-with-payload);
* :mod:`repro.callgraph.extractor` — a static analyzer that walks that IR
  and produces the weighted function data-flow graph the algorithms
  consume, exactly the artifact Soot would have produced;
* :mod:`repro.callgraph.offloadability` — the rule set that marks functions
  as unoffloadable (sensor access, local I/O, UI interaction);
* :mod:`repro.callgraph.model` — the :class:`FunctionCallGraph` wrapper
  carrying per-function metadata on top of the graph substrate.
"""

from repro.callgraph.bytecode import (
    ApplicationBinary,
    FunctionBytecode,
    Instruction,
    Opcode,
)
from repro.callgraph.extractor import extract_call_graph
from repro.callgraph.interpreter import (
    BytecodeInterpreter,
    ExecutionProfile,
    profile_application,
)
from repro.callgraph.model import FunctionCallGraph, FunctionInfo
from repro.callgraph.offloadability import (
    OffloadabilityPolicy,
    classify_offloadability,
)

__all__ = [
    "Opcode",
    "Instruction",
    "FunctionBytecode",
    "ApplicationBinary",
    "extract_call_graph",
    "BytecodeInterpreter",
    "ExecutionProfile",
    "profile_application",
    "FunctionCallGraph",
    "FunctionInfo",
    "OffloadabilityPolicy",
    "classify_offloadability",
]
