"""repro — software synthesis for embedded control applications.

A from-scratch reproduction of Balarin et al., *Synthesis of Software
Programs for Embedded Control Applications* (DAC'95 / IEEE TCAD 18(6),
1999) — the POLIS software-synthesis flow:

* CFSM networks (:mod:`repro.cfsm`) specified programmatically or in the
  Esterel-flavoured RSL language (:mod:`repro.frontend`);
* characteristic-function BDDs (:mod:`repro.bdd`, :mod:`repro.synthesis`)
  optimized by constrained sifting;
* s-graph construction, optimization, and C generation
  (:mod:`repro.sgraph`, :mod:`repro.codegen`);
* cost/performance estimation calibrated per target
  (:mod:`repro.estimation`) against a miniature embedded ISA
  (:mod:`repro.target`);
* generated RTOS with schedulers, event flags, and a timed cosimulator
  (:mod:`repro.rtos`);
* single-FSM/ESTEREL-style baselines (:mod:`repro.baselines`) and the
  paper's example applications (:mod:`repro.apps`).

Quick start::

    from repro import synthesize, generate_c, compile_source

    cfsm = compile_source(open("module.rsl").read())
    result = synthesize(cfsm, scheme="sift")
    print(generate_c(result))
"""

from .bdd import BddManager, Function
from .cfsm import Cfsm, CfsmBuilder, Network, NetworkSimulator, react
from .codegen import generate_c
from .estimation import calibrate, estimate
from .flow import SystemBuild, build_system
from .frontend import compile_source, parse_module
from .pipeline import ArtifactCache, BuildTrace
from .rtos import RtosConfig, RtosRuntime, SchedulingPolicy, Stimulus
from .sgraph import SynthesisResult, synthesize
from .synthesis import synthesize_reactive
from .target import K11, K32, analyze_program, compile_sgraph, run_reaction

__version__ = "1.0.0"

__all__ = [
    "BddManager",
    "Function",
    "Cfsm",
    "CfsmBuilder",
    "Network",
    "NetworkSimulator",
    "react",
    "generate_c",
    "calibrate",
    "estimate",
    "SystemBuild",
    "build_system",
    "ArtifactCache",
    "BuildTrace",
    "compile_source",
    "parse_module",
    "RtosConfig",
    "RtosRuntime",
    "SchedulingPolicy",
    "Stimulus",
    "SynthesisResult",
    "synthesize",
    "synthesize_reactive",
    "K11",
    "K32",
    "analyze_program",
    "compile_sgraph",
    "run_reaction",
    "__version__",
]
