"""Storage-allocation reporting on top of the map.

Converts raw orbit values into the operational quantity an operator
would track: per-stage allocations in bytes.

Byte quantities are decimal throughout (1 Gb = 1000 Mb = 10^9 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelParams, SystemState, step_general, step_two_user

MEGABYTE = 1_000_000.0
GIGABYTE = 1_000_000_000.0


class OutOfRangeError(IndexError):
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
    """Iterate once from s0 and sample allocations at the requested stages.

    `stages` must be sorted ascending and lie at or after s0's stage;
    `unit_scale` is bytes per model unit.  Divergence surfaces as
    DivergenceError from the underlying step.
    """
    stages = list(stages)
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ValueError(f"stages must be strictly ascending, got {stages}")
    if stages and stages[0] < s0.l:
        raise OutOfRangeError(f"stage {stages[0]} precedes the initial stage {s0.l}")

    step = step_two_user if params.n_users == 2 else step_general
    records = []
    state = s0
    for target in stages:
        while state.l < target:
            state = step(params, state)
        records.append(
            AllocationRecord(
                l=state.l,
                owner_alloc=params.alpha * state.v_c * unit_scale,
                user_alloc=tuple(
                    UserAllocation(magnitude=abs(raw), sign=_sign(raw))
                    for raw in (
                        xi_i * x_i * unit_scale
                        for xi_i, x_i in zip(params.xi, state.x)
                    )
                ),
            )
        )
    return records

