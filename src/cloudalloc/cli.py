"""Command-line front end.

Every subcommand resolves its full configuration (defaults included),
embeds it in the output header, and returns text chunks of either CSV
(comment lines, then a header row) or JSON (an envelope with artifact,
config, result); CSV rows, and the rows of `iterate`'s JSON, come in
blocks of _ROWS_PER_BLOCK.  `run` writes them to stdout or --out, and a
run that fails midway writes nothing (see `_emit`); a relative --out is
placed under $CLOUDALLOC_OUTDIR when that is set.  Identical argv
produces byte-identical output.

Exit codes: 0 success, 1 usage error, 2 numeric divergence, 3 I/O failure,
130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

from . import __version__, dynamics, failsim, ledger, replication, report, strides
from .model import DivergenceError, ModelParams, SystemState, check_window, two_user_orbit

DEFAULT_TRANSIENT = 1000
DEFAULT_LYAP_ITERS = 100_000
DEFAULT_MC_TRIALS = 1_000_000
DEFAULT_SEED = 42
OUTDIR_ENV = "CLOUDALLOC_OUTDIR"
# rows per written chunk: enough that per-chunk costs vanish, few enough
# that a block stays a fraction of a MiB
_ROWS_PER_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    """Raises ValueError, which `run` reports as a usage error, instead of
    exiting the process."""

    def error(self, message):
        raise ValueError(message)


def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_")}
    cfg["artifact_version"] = __version__
    return cfg


def _comment_header(config: dict) -> str:
    return f"# cloudalloc {__version__}\n# config: {_strict_json(config)}\n"


def _row_blocks(template: str, rows, count: int = 0):
    """Yield `template % row` for every tuple row, joined into one chunk per
    _ROWS_PER_BLOCK rows.  Given `count`, the number of rows, the blocks
    are formatted by `strides.imap` with one share per block: each process
    cuts every block from its own copy of `rows` and formats only its
    own."""
    rest, size = iter(rows), _ROWS_PER_BLOCK
    blocks = iter(lambda: tuple(itertools.islice(rest, size)), ())
    return strides.imap(
        lambda block: "".join(map(template.__mod__, block)), blocks, -(-count // size)
    )


def _csv_document(config: dict, header: list[str], rows, count: int = 0):
    """Yield the CSV artifact in row blocks (see `_row_blocks` for `count`).
    Cells are ints, floats and empty strings, written by `%s` as their str
    (a float's str is its repr); CSV quotes none of them."""
    yield _comment_header(config) + ",".join(header) + "\n"
    yield from _row_blocks(",".join(["%s"] * len(header)) + "\n", rows, count)


def _finite_or_null(obj):
    """RFC 8259 JSON has no infinities or NaN; they are written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _strict_json(obj, indent: int | None = None) -> str:
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=indent, allow_nan=False)


def _json_document(config: dict, result) -> list[str]:
    envelope = {
        "artifact": "cloudalloc", "version": __version__, "config": config, "result": result
    }
    return [_strict_json(envelope, indent=2) + "\n"]


def _json_rows_document(config: dict, keys: list[str], rows, count: int):
    """Yield the JSON envelope of `_json_document(config, [dict(zip(keys, row))
    for row in rows])` with its rows in blocks (see `_row_blocks` for
    `count`).  Rows must be nonempty, keys sorted and every cell a finite
    number, which `%s` writes as `json.dumps` does."""
    head, _, tail = _json_document(config, None)[0].rpartition('"result": null')
    fields = ",\n".join(f'      "{k}": %s' for k in keys)
    # every row leads with its separator; the first row's comma is dropped
    blocks = _row_blocks(",\n    {\n" + fields + "\n    }", rows, count)
    yield head + '"result": [' + next(blocks)[1:]
    yield from blocks
    yield "\n  ]" + tail


def _emit(chunks, out: str | None) -> None:
    """Write an artifact only once every chunk of it exists.  A regular
    --out file is streamed into a temporary file beside it, opened with
    plain `open` so its mode follows the umask, and renamed over it;
    stdout, devices and pipes get the joined text."""
    if out is None:
        sys.stdout.write("".join(chunks))
        return
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(out):
        out = os.path.join(outdir, out)
    out = os.path.realpath(out)  # replace a symlink's target, not the link
    if os.path.exists(out) and not os.path.isfile(out):
        text = "".join(chunks)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return
    tmp = f"{out}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _add_params(parser, with_state=True):
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--xi1", type=float, required=True)
    parser.add_argument("--xi2", type=float, required=True)
    if with_state:
        parser.add_argument("--v0", type=float, default=0.01)
        parser.add_argument("--x1", type=float, default=0.01)
        parser.add_argument("--x2", type=float, default=-0.01)


def _add_output(parser, formats=("csv", "json")):
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default=formats[0])


def _params(args) -> ModelParams:
    # built here, not through a factory, so a warning names the CLI
    return ModelParams(alpha=args.alpha, xi=(args.xi1, args.xi2))


def _state(args) -> SystemState:
    for flag in ("v0", "x1", "x2"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise ValueError(f"--{flag} must be finite, got {value}")
    return SystemState(l=0, v_c=args.v0, x=(args.x1, args.x2))


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _seed_list(text: str) -> list[tuple[float, ...]]:
    return [tuple(map(float, part.split(","))) for part in text.split(";") if part.strip()]


def _cmd_iterate(args):
    params, s0 = _params(args), _state(args)
    check_window(args.steps, args.transient)
    orbit = itertools.islice(two_user_orbit(params, s0, args.steps), args.transient, None)
    config = _config_dict(args)
    keys, count = ["l", "v_c", "x1", "x2"], args.steps - args.transient
    if args.format == "json":
        return _json_rows_document(config, keys, orbit, count)
    return _csv_document(config, keys, orbit, count)


def _cmd_fixed_points(args):
    params = _params(args)
    claimed = report.claimed_point(params)
    seeds = [(0.0, 0.0, 0.0), claimed["point"]] if args.seeds is None else _seed_list(args.seeds)
    results = dynamics.find_fixed_points(params, seeds)
    result = {
        "search": [{"seed": seed, **dataclasses.asdict(r)} for seed, r in zip(seeds, results)],
        "claimed_point": claimed,
    }
    return _json_document(_config_dict(args), result)


def _cmd_lyapunov(args):
    params = _params(args)
    dynamics.check_zero_band(args.zero_band)
    spec = dynamics.lyapunov_spectrum(params, _state(args), iterations=args.iters)
    attractor = dynamics.classify_attractor(spec, zero_band=args.zero_band)
    config = _config_dict(args)
    if args.format == "csv":
        header = ["iteration", "lambda1", "lambda2", "lambda3"]
        return _csv_document(config, header, spec.history, len(spec.history))
    result = {
        "exponents": list(spec.exponents),
        "iterations": spec.iterations,
        "classification": attractor.value,
    }
    return _json_document(config, result)


def _cmd_bifurcate(args):
    params = _params(args)
    scan = dynamics.bifurcation_scan(
        params,
        args.param,
        args.lo,
        args.hi,
        args.points,
        _state(args),
        transient=args.transient,
        samples=args.samples,
        lyap_iterations=args.lyap_iters,
    )
    rows = []
    for gp in scan.points:
        if gp.divergent:
            rows.append((gp.value, "", "", "", 1))
        else:
            rows.extend((gp.value, k, v, gp.lambda_max, 0) for k, v in enumerate(gp.v_samples))
    header = [args.param, "sample", "v_c", "lambda_max", "divergent"]
    return _csv_document(_config_dict(args), header, rows)


def _cmd_storage_report(args):
    params = _params(args)
    records = ledger.allocation_report(
        params, _state(args), _int_list(args.stages), unit_scale=args.unit_scale
    )
    rows = (
        (
            r.l,
            r.owner_alloc,
            r.user_alloc[0].magnitude,
            r.user_alloc[0].sign,
            r.user_alloc[1].magnitude,
            r.user_alloc[1].sign,
        )
        for r in records
    )
    header = [
        "l",
        "owner_alloc_bytes",
        "user1_alloc_bytes",
        "user1_sign",
        "user2_alloc_bytes",
        "user2_sign",
    ]
    return _csv_document(_config_dict(args), header, rows)


def _cmd_placement(args):
    plan = replication.build_placement(args.nodes)
    blocks = plan.owner_blocks + plan.user_blocks
    config = _config_dict(args)
    if args.format == "json":
        result = {
            "n": plan.n,
            "machines": replication.MACHINES_PER_NODE * plan.n,
            "blocks": [
                {
                    "rack": b.rack,
                    "index": b.index,
                    "members": list(b.entries),
                    "machine_ids": list(b.machine_ids),
                }
                for b in blocks
            ],
        }
        return _json_document(config, result)
    # one block a line: rack, index, member labels, machine ids
    lines = (
        f"{b.rack} {b.index} {' '.join(b.entries)} "
        f"machines={','.join(map(str, b.machine_ids))}\n"
        for b in blocks
    )
    return [_comment_header(config), "".join(lines)]


def _cmd_loss_exact(args):
    result = {"n": args.nodes, "p": args.p}
    for method in replication.LOSS_METHODS:
        loss = replication.prob_data_loss(args.nodes, args.p, method)
        result[method.replace("-", "_")] = loss.p_loss
    return _json_document(_config_dict(args), result)


def _cmd_loss_curve(args):
    rows = replication.loss_curve(_int_list(args.nodes_list), args.p)
    header = [f.name for f in dataclasses.fields(replication.LossCurveRow)]
    return _csv_document(_config_dict(args), header, map(dataclasses.astuple, rows))


def _cmd_loss_mc(args):
    est = failsim.mc_estimate(
        args.nodes,
        args.p,
        args.trials,
        seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    return _json_document(_config_dict(args), dataclasses.asdict(est))


def _cmd_verify_coefficients(args):
    counts = failsim.verify_coefficients()
    expected = replication.loss_polynomial(1)
    result = {
        "non_fatal_counts": list(counts),
        "expected": list(expected),
        "match": counts == expected,
    }
    return _json_document(_config_dict(args), result)


def _cmd_discrepancy_report(args):
    data = report.build_discrepancy_report(mc_trials=args.mc_trials, seed=args.seed)
    return [report.render_discrepancy_markdown(data)]


# parsing leaves the parser as it was, so one serves every `run` of a process
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="cloudalloc")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("iterate", help="iterate the two-user map")
    _add_params(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--transient", type=int, default=0)
    _add_output(p)
    p.set_defaults(_fn=_cmd_iterate)

    p = sub.add_parser("fixed-points", help="damped Newton fixed-point search")
    _add_params(p, with_state=False)
    p.add_argument("--seeds", default=None, help='semicolon-separated "v,x1,x2" seeds')
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_fixed_points)

    p = sub.add_parser("lyapunov", help="Lyapunov exponent spectrum")
    _add_params(p)
    p.add_argument("--iters", type=int, default=DEFAULT_LYAP_ITERS)
    p.add_argument("--zero-band", type=float, default=0.01)
    _add_output(p, formats=("json", "csv"))
    p.set_defaults(_fn=_cmd_lyapunov)

    p = sub.add_parser("bifurcate", help="parameter sweep with v_c samples")
    _add_params(p)
    p.add_argument("--param", choices=dynamics.SWEEPABLE, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--transient", type=int, default=DEFAULT_TRANSIENT)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--lyap-iters", type=int, default=4000)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_bifurcate)

    p = sub.add_parser("storage-report", help="per-stage allocation report")
    _add_params(p)
    p.add_argument("--stages", required=True, help="comma-separated stage list")
    p.add_argument("--unit-scale", type=float, default=ledger.GIGABYTE)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_storage_report)

    p = sub.add_parser("placement", help="cyclic replica placement plan")
    p.add_argument("--nodes", type=int, required=True)
    _add_output(p, formats=("text", "json"))
    p.set_defaults(_fn=_cmd_placement)

    p = sub.add_parser("loss-exact", help="exact data-loss probability")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_loss_exact)

    p = sub.add_parser("loss-curve", help="loss probability per cluster size")
    p.add_argument("--nodes-list", required=True, help="comma-separated node counts")
    p.add_argument("--p", type=float, required=True)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_loss_curve)

    p = sub.add_parser("loss-mc", help="Monte Carlo loss estimate")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_MC_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", choices=failsim.SCENARIO_MODES, default="group")
    p.add_argument("--workers", type=int, default=1)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_loss_mc)

    p = sub.add_parser("verify-coefficients", help="brute-force survival coefficients")
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_verify_coefficients)

    p = sub.add_parser("discrepancy-report", help="computed vs quoted reference values")
    p.add_argument("--mc-trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p, formats=None)
    p.set_defaults(_fn=_cmd_discrepancy_report)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args._fn(args), args.out)
        return 0
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
