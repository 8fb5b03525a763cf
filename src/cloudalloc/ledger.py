"""Storage-allocation reporting on top of the map.

Converts raw orbit values into the operational quantity an operator
would track: per-stage allocations in bytes.

Byte quantities are decimal throughout (1 Gb = 1000 Mb = 10^9 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .model import ModelParams, SystemState, two_user_orbit

MEGABYTE = 1_000_000.0
GIGABYTE = 1_000_000_000.0


class OutOfRangeError(ValueError):
    """A requested stage precedes the initial stage of the report."""


def _sign(value: float) -> int:
    return (value > 0.0) - (value < 0.0)


@dataclass(frozen=True)
class UserAllocation:
    """One user's allocation at a stage: magnitude in bytes plus the raw
    sign of xi_i * x_i (the alternating sign measures transfer direction
    relative to the other users, it is not an error)."""

    magnitude: float
    sign: int

    @property
    def raw(self) -> float:
        return self.sign * self.magnitude


@dataclass(frozen=True)
class AllocationRecord:
    l: int
    owner_alloc: float                      # alpha * v_c, in bytes
    user_alloc: tuple[UserAllocation, ...]  # xi_i * x_i, in bytes


def allocation_report(
    params: ModelParams,
    s0: SystemState,
    stages,
    unit_scale: float,
) -> list[AllocationRecord]:
    """Iterate the two-user map once from s0 and sample allocations at the
    requested stages.

    `stages` must be nonempty, sorted ascending and lie at or after s0's
    stage; `unit_scale` is bytes per model unit.  Divergence surfaces as
    DivergenceError from the raw orbit.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("stages must be nonempty")
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ValueError(f"stages must be strictly ascending, got {stages}")
    if stages[0] < s0.l:
        raise OutOfRangeError(f"stage {stages[0]} precedes the initial stage {s0.l}")

    wanted = set(stages)
    orbit = chain([(s0.l, s0.v_c, *s0.x)], two_user_orbit(params, s0, stages[-1] - s0.l))
    return [
        AllocationRecord(
            l=l,
            owner_alloc=params.alpha * v * unit_scale,
            user_alloc=tuple(
                UserAllocation(magnitude=abs(raw), sign=_sign(raw))
                for raw in (params.xi1 * x1 * unit_scale, params.xi2 * x2 * unit_scale)
            ),
        )
        for l, v, x1, x2 in orbit
        if l in wanted
    ]
