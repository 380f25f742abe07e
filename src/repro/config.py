"""Global configuration knobs for solvers and experiments.

The defaults are chosen so the full test suite and the default benchmark
grids finish on a laptop.  The paper's own prototype took "few minutes to
few days" per network; we expose the same trade-off through
:class:`SolverConfig` (iteration caps, tolerances) and the ``REPRO_FULL``
environment variable, which the experiment drivers consult to decide
between reduced and paper-scale parameter grids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


def full_scale() -> bool:
    """Return True when paper-scale experiment grids were requested."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false", "False")


#: Weight of the mean-utilization tie-breaker added to the smoothed-minimax
#: objective.  Worst-case-optimal solutions are massively degenerate (many
#: routings share the same max); the tie-breaker steers toward solutions
#: that are also good on average, matching the balanced configurations the
#: paper's GP solver produces.
REGULARIZATION = 5e-3


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps shared by the optimization stack.

    Attributes:
        ratio_tolerance: relative gap at which the adversarial outer loop
            declares convergence (oracle ratio within this factor of the
            incumbent objective).
        max_adversarial_rounds: cutting-plane iterations of the robust
            outer loop (each round adds one worst-case demand matrix).
        max_inner_iterations: the ``maxiter`` cap of each inner
            optimizer call: L-BFGS iterations per start and smoothing
            temperature (twice that for the balance polish), SLSQP
            iterations per GP condensation round.  An iteration cap,
            not a restart count.
        smoothing_temperatures: annealing schedule for the smoothed-minimax
            optimizer; higher temperature approximates ``max`` more tightly.
    """

    ratio_tolerance: float = 1e-3
    max_adversarial_rounds: int = 12
    max_inner_iterations: int = 60
    smoothing_temperatures: tuple[float, ...] = (8.0, 32.0, 128.0)

    def scaled_down(self) -> "SolverConfig":
        """A cheaper configuration for coarse searches and fast benchmarks.

        Every budget shrinks: the outer adversarial rounds are halved
        (at least 2), the inner L-BFGS iterations per stage are cut to
        two thirds (at least 10; the default 60 becomes 40, and 26 if
        scaled down twice), and only the first two smoothing
        temperatures are kept, so the last, sharpest stage is dropped.
        """
        return replace(
            self,
            max_adversarial_rounds=max(2, self.max_adversarial_rounds // 2),
            max_inner_iterations=max(10, (2 * self.max_inner_iterations) // 3),
            smoothing_temperatures=self.smoothing_temperatures[:2],
        )


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the experiment drivers (margins, models, sizes).

    ``full`` is the single source of truth for paper-scale vs reduced
    grids: drivers that pick topology subsets consult it instead of
    re-reading the ``REPRO_FULL`` environment variable, so a config built
    from ``--full`` behaves identically to one built from the environment.
    """

    margins: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0)
    solver: SolverConfig = field(default_factory=SolverConfig)
    demand_model: str = "gravity"
    seed: int = 20161101  # arXiv v2 date of the paper
    full: bool = False

    @classmethod
    def reduced(cls) -> "ExperimentConfig":
        """Grid used by default in benchmarks (fast, laptop-friendly)."""
        return cls(margins=(1.0, 2.0, 3.0), solver=DEFAULT_CONFIG.scaled_down())

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """Full grid from Table I (margins 1..5 in 0.5 increments)."""
        margins = tuple(1.0 + 0.5 * i for i in range(9))
        return cls(margins=margins, full=True)

    @classmethod
    def from_environment(cls) -> "ExperimentConfig":
        """Pick :meth:`paper` when ``REPRO_FULL`` is set, else :meth:`reduced`."""
        return cls.paper() if full_scale() else cls.reduced()
