"""ROBDD engine with constrained dynamic reordering (sifting).

Public surface:

* :class:`~repro.bdd.manager.BddManager` / :class:`~repro.bdd.manager.Function`
  — the ROBDD package: struct-of-arrays node store with complemented
  edges (handles are plain ints, NOT is a bit flip), refcounted GC,
  swap-stable operation caches, iterative ITE, cube quantification (see
  DESIGN.md §5, "The BDD kernel");
* :class:`~repro.bdd.manager.SizeProbe` — a function's ``size()`` after
  level swaps, recounting only the swapped levels (the synthesis flow's
  sift metric);
* :class:`~repro.bdd.mdd.MultiValuedVar` — finite-domain variables encoded on
  binary variable groups;
* :func:`~repro.bdd.sifting.sift` / :func:`~repro.bdd.sifting.sift_to_convergence`
  and :class:`~repro.bdd.sifting.PrecedenceConstraints` — Rudell sifting with
  the paper's output-after-support constraint;
* :mod:`~repro.bdd.ordering` — static ordering heuristics for the ablations.
"""

from .manager import BddManager, Function, SizeProbe, FALSE_ID, TRUE_ID
from .mdd import MultiValuedVar
from .ordering import appearance_order, apply_order, force_order
from .sifting import (
    PrecedenceConstraints,
    move_var_to_level,
    sift,
    sift_to_convergence,
)

__all__ = [
    "BddManager",
    "Function",
    "SizeProbe",
    "FALSE_ID",
    "TRUE_ID",
    "MultiValuedVar",
    "PrecedenceConstraints",
    "sift",
    "sift_to_convergence",
    "move_var_to_level",
    "appearance_order",
    "apply_order",
    "force_order",
]
