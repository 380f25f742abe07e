"""The adversarial cutting-plane loop (Appendix C of the technical report).

A *master* optimizes a routing against a finite demand set ``T``; the
*oracle* certifies its worst case over the whole cone and proposes the
worst-case demands of its most-violated edges as cuts; each new cut,
normalized to unit optimum, joins ``T``.  COYOTE's robust splitting
(:mod:`repro.core.robust`) runs on :func:`cutting_plane`, so the cut and
stop policy lives here only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

from repro.config import SolverConfig
from repro.demands.matrix import DemandMatrix
from repro.exceptions import SolverError
from repro.lp.worst_case import OracleResult

Candidate = TypeVar("Candidate")


@dataclass
class CuttingPlaneResult(Generic[Candidate]):
    """Outcome of :func:`cutting_plane`.

    Attributes:
        best: the first candidate with the lowest certified ratio.
        objective: the master's finite-set objective for ``best``.
        oracle: the oracle's certification of ``best``.
        rounds: rounds executed.
        stop: ``"converged"`` (a round's certified ratio came within
            ``ratio_tolerance`` of its objective), ``"cycling"`` (no cut
            of a round was new to ``T``) or ``"round-cap"``
            (``max_adversarial_rounds`` ran out first).
        history: (finite-set objective, certified ratio) per round.
    """

    best: Candidate
    objective: float
    oracle: OracleResult
    rounds: int
    stop: str
    history: list[tuple[float, float]]


def cutting_plane(
    master: Callable[[list[DemandMatrix]], tuple[float, Candidate]],
    certify: Callable[[Candidate], OracleResult],
    normalize: Callable[[DemandMatrix], DemandMatrix],
    matrices: list[DemandMatrix],
    config: SolverConfig,
    dedupe_tolerance: float,
) -> CuttingPlaneResult[Candidate]:
    """Alternate ``master`` and ``certify`` until the worst case is covered.

    Args:
        master: ``T -> (finite-set objective, candidate)``.
        certify: the candidate's worst case over the whole cone.
        normalize: scales a cut to unit optimum before it joins ``T``.
        matrices: the initial ``T``, already normalized; it grows in
            place with every new cut, the final round's included.
        config: ``ratio_tolerance`` and ``max_adversarial_rounds``.
        dedupe_tolerance: a normalized cut within this (entry-wise,
            absolute) distance of a member of ``T`` is not new.

    Raises:
        SolverError: ``max_adversarial_rounds`` is below 1.
    """
    if config.max_adversarial_rounds < 1:
        raise SolverError("the cutting-plane loop needs max_adversarial_rounds >= 1")
    history: list[tuple[float, float]] = []
    best: tuple[Candidate, float, OracleResult] | None = None
    stop = "round-cap"
    for rounds in range(1, config.max_adversarial_rounds + 1):
        objective, candidate = master(matrices)
        result = certify(candidate)
        history.append((objective, result.ratio))
        if best is None or result.ratio < best[2].ratio:
            best = (candidate, objective, result)
        if result.ratio <= objective * (1.0 + config.ratio_tolerance):
            stop = "converged"
            break
        added = 0
        for cut in result.cuts:
            if not cut:
                continue
            normalized = normalize(cut)
            if any(normalized.close_to(seen, tolerance=dedupe_tolerance) for seen in matrices):
                continue
            matrices.append(normalized)
            added += 1
        if added == 0:
            stop = "cycling"
            break
    candidate, objective, result = best
    return CuttingPlaneResult(candidate, objective, result, rounds, stop, history)
