"""Discrete owner/user storage-allocation map.

One owner holds a capacity level v_c; each of n users holds a demand
level x_i.  Per stage the capacity is rescaled by alpha and debited by
the signed user allocations (-1)^i * xi_i * x_i, while each demand is
driven by its own allocation times the capacity minus everyone else's
allocations.  `step_general` and its chain `iterate` are the reference
map for any number of users; the two-user form gets a dedicated raw
loop, `two_user_orbit`, kept bit-for-bit identical to that chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

# A state is declared divergent as soon as any component leaves this
# bound (or stops being finite); the quadratic terms permit unbounded
# orbits and we fail loudly instead of emitting infinities.
DIVERGENCE_BOUND = 1e12


class DivergenceError(RuntimeError):
    """An iterate left the divergence bound at stage `stage`."""

    def __init__(self, stage: int, value: float):
        self.stage = stage
        self.value = value
        super().__init__(
            f"orbit diverged at stage {stage} (component magnitude {value!r} "
            f"exceeds {DIVERGENCE_BOUND:g} or is not finite)"
        )

    def __reduce__(self):
        # pickle rebuilds it from (stage, value), as a forked share sends it
        return type(self), (self.stage, self.value)


@dataclass(frozen=True)
class ModelParams:
    """Scaling parameters of the allocation map.

    alpha: capacity rescale factor, 0 < alpha <= 1.
    xi:    per-user demand scale factors, all finite and >= 0.

    The alternating-sign scale sum  sum_i (-1)^i xi_i  should not exceed 1;
    a violation is reported as a warning rather than rejected, since the
    map itself stays well defined.
    """

    alpha: float
    xi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "xi", tuple(float(v) for v in self.xi))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if len(self.xi) < 1:
            raise ValueError("at least one user scale xi_i is required")
        if not all(0.0 <= v < math.inf for v in self.xi):
            raise ValueError(f"all xi_i must be finite and >= 0, got {self.xi}")
        if self.signed_scale_sum() > 1.0:
            warnings.warn(
                "alternating scale sum exceeds 1; the map is still iterated "
                "but the capacity constraint cannot hold",
                stacklevel=3,  # past the dataclass-generated __init__
            )

    @classmethod
    def two_user(cls, alpha: float, xi1: float, xi2: float) -> "ModelParams":
        return cls(alpha=alpha, xi=(xi1, xi2))

    @property
    def xi1(self) -> float:
        self._require_two_user()
        return self.xi[0]

    @property
    def xi2(self) -> float:
        self._require_two_user()
        return self.xi[1]

    def signed_scale_sum(self) -> float:
        """sum_i (-1)^i xi_i with users indexed from 1."""
        return math.fsum(
            (xi_i if i % 2 == 0 else -xi_i) for i, xi_i in enumerate(self.xi, start=1)
        )

    def _require_two_user(self):
        if len(self.xi) != 2:
            raise ValueError(f"operation requires exactly two users, got {len(self.xi)}")


@dataclass(frozen=True)
class SystemState:
    """Map state at stage l: capacity v_c and demands x = (x_1, ..., x_n)."""

    l: int
    v_c: float
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if self.l < 0:
            raise ValueError(f"stage index must be >= 0, got {self.l}")

    def components(self) -> tuple[float, ...]:
        return (self.v_c, *self.x)


def check_divergence(stage: int, components: tuple[float, ...]) -> None:
    """The divergence predicate, shared by every orbit loop: raise
    DivergenceError at `stage` for the first component that is not finite
    or exceeds DIVERGENCE_BOUND.  One comparison per component covers all
    three cases, because NaN and infinities fail `abs(c) <= bound`."""
    for c in components:
        if not abs(c) <= DIVERGENCE_BOUND:
            raise DivergenceError(stage, c)


def _chain_sum(values) -> float:
    """Left-to-right sum seeded with the first term rather than 0.0, so a
    lone -0.0 keeps its sign (0.0 + -0.0 is +0.0); an empty sum is 0.0."""
    it = iter(values)
    total = next(it, 0.0)
    for t in it:
        total += t
    return total


def step_general(params: ModelParams, s: SystemState) -> SystemState:
    """Advance one stage for any number of users.

    v'   = alpha*v - sum_i (-1)^i xi_i x_i
    x_i' = (-1)^i xi_i x_i v - sum_{j != i} (-1)^j xi_j x_j
    """
    if len(s.x) != len(params.xi):
        raise ValueError(
            f"state has {len(s.x)} demand components but params define {len(params.xi)} users"
        )
    # signed terms t_i = ((-1)^i xi_i) * x_i, users indexed from 1
    terms = []
    for i, (xi_i, x_i) in enumerate(zip(params.xi, s.x), start=1):
        sign = -1.0 if i % 2 else 1.0
        terms.append((sign * xi_i) * x_i)

    v_next = params.alpha * s.v_c - _chain_sum(terms)
    x_next = [
        t_i * s.v_c - _chain_sum(t_j for j, t_j in enumerate(terms) if j != i)
        for i, t_i in enumerate(terms)
    ]

    nxt = SystemState(l=s.l + 1, v_c=v_next, x=tuple(x_next))
    check_divergence(nxt.l, nxt.components())
    return nxt


def step_two_user_raw(
    alpha: float, xi1: float, xi2: float, v: float, x1: float, x2: float
) -> tuple[float, float, float]:
    """Raw two-user update; no divergence check, no state wrapper.

    v'  = alpha*v + xi1*x1 - xi2*x2
    x1' = -xi1*x1*v - xi2*x2
    x2' =  xi1*x1 + xi2*x2*v

    Term grouping mirrors step_general so the n=2 results are bit-identical.
    """
    u1 = xi1 * x1
    u2 = xi2 * x2
    return (
        alpha * v - (u2 - u1),
        -(u1 * v) - u2,
        u2 * v + u1,
    )


def step_two_user(params: ModelParams, s: SystemState) -> SystemState:
    """Advance one stage of the two-user specialization."""
    params._require_two_user()
    if len(s.x) != 2:
        raise ValueError(f"two-user step needs a 2-demand state, got {len(s.x)}")
    v, x1, x2 = step_two_user_raw(
        params.alpha, params.xi[0], params.xi[1], s.v_c, s.x[0], s.x[1]
    )
    nxt = SystemState(l=s.l + 1, v_c=v, x=(x1, x2))
    check_divergence(nxt.l, nxt.components())
    return nxt


def check_window(steps: int, transient: int) -> None:
    """The orbit window of `iterate` and `cli iterate`: `steps` stages, of
    which the first `transient` are dropped; at least one is kept."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0 <= transient < steps:
        raise ValueError(f"transient must lie in [0, steps), got {transient}")


def two_user_orbit(params: ModelParams, s0: SystemState, steps: int):
    """Yield (l, v_c, x1, x2) at stages s0.l + 1 through s0.l + steps of the
    two-user map, as bare floats; raise DivergenceError at the first stage
    that leaves the bound.  The raw loop behind the CLI, the ledger and
    the dynamics kernel: no SystemState is built per stage.  It equals the
    reference chain `iterate` bit for bit, divergence stage included.

    The step is `step_two_user_raw` written inline, with its term grouping,
    and the bound test is `check_divergence`'s comparison written inline;
    `check_divergence` runs only once that test fails, to name the stage and
    the first offending component.
    """
    a, k1, k2 = params.alpha, params.xi1, params.xi2
    v, (x1, x2) = s0.v_c, s0.x
    bound = DIVERGENCE_BOUND
    for l in range(s0.l + 1, s0.l + steps + 1):
        u1 = k1 * x1
        u2 = k2 * x2
        v, x1, x2 = a * v - (u2 - u1), -(u1 * v) - u2, u2 * v + u1
        if not (abs(v) <= bound and abs(x1) <= bound and abs(x2) <= bound):
            check_divergence(l, (v, x1, x2))
        yield l, v, x1, x2


def iterate(
    params: ModelParams, s0: SystemState, steps: int, transient: int = 0
) -> tuple[SystemState, ...]:
    """Apply the map `steps` times from s0 and keep the last steps - transient states.

    The returned states are those at stages s0.l + transient + 1
    through s0.l + steps; s0 itself is never included.  Raises
    DivergenceError (with the offending stage) if the orbit leaves the bound.
    The reference chain of `step_general`, for any number of users; the
    production loops run `two_user_orbit`, which the tests hold to it.
    """
    check_window(steps, transient)
    state = s0
    kept = []
    for k in range(steps):
        state = step_general(params, state)
        if k >= transient:
            kept.append(state)
    return tuple(kept)
