"""Full-resolution LP of the multi-energy design problem.

Decision variables are the current-year capacity additions, per-time-step
production levels, imports, and transport: a nonnegative directed flow pair
for transshipment components (losses charge on the pair's sum, so reverse
flows cannot fabricate energy) and a signed flow plus nodal voltage angles
for DC components.

There is no second formulation here: the full LP is the aggregated lower
bound of :mod:`sparta.bounds` at the identity partition, where every node is
its own cluster and internal transport no longer exists, built with node ids
in its keys.  The builder doubles as the restricted re-solves used later in
the pipeline: fixing both capacity dictionaries yields the operational check,
fixing only the converter side yields the network optimization.

Like every builder it only assembles; :func:`sparta.pipeline.solve_full` and
:func:`sparta.driver.run_iterations` run the structural checks once first.
"""

from __future__ import annotations

from typing import Mapping

from .bounds import LOWER, _AggregatedBuilder
from .lp import LinearProgram
from .model import EnergySystemInstance


def build_full_lp(
    instance: EnergySystemInstance,
    *,
    fix_production: Mapping[tuple[str, str], float] | None = None,
    fix_grid: Mapping[tuple[str, str], float] | None = None,
    name: str = "full",
) -> LinearProgram:
    """Translate an instance into its minimum-cost design LP.

    ``fix_production`` maps (component id, node id) to a frozen capacity
    addition; ``fix_grid`` does the same for (component id, edge id).  Unknown
    keys are rejected so a typo cannot silently leave a variable free.
    """
    lp = _AggregatedBuilder(instance, None, LOWER).build()
    lp.name = name
    for kind, frozen in (("cap", fix_production), ("gcap", fix_grid)):
        for (cid, where), value in (frozen or {}).items():
            lp.set_variable_bounds((kind, cid, where), lb=value, ub=value)
    return lp
