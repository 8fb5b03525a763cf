"""Byte identity as a standing gate: a fixed list of small argv, run through
`cli.run` in-process, must write exactly the stdout bytes recorded in
`output_digests.json` (sha256 and length per argv).

The record is keyed by platform, because `fixed-points` goes through LAPACK
and `log-domain` and the Lyapunov sums through libm, which may differ between
platforms.  A change that alters an output on purpose records the new
digests with

    PYTHONPATH=src python tests/test_output_digests.py

and names every changed argv in its change notes.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys

import pytest

from cloudalloc import cli

DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")
PLATFORM = f"{sys.platform}-{platform.machine()}"

_CHAOS = ["--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23"]
_SWEEP = ["--alpha", "0.5", "--xi1", "1.28", "--xi2", "1.23",
          "--transient", "200", "--samples", "3", "--lyap-iters", "1000"]
_MC = ["loss-mc", "--nodes", "10", "--p", "0.1", "--trials", str(3 * 4096 + 5)]
# The one argv whose scale sum -xi1 + xi2 = 1.23 exceeds 1, so ModelParams
# warns; every other argv runs under the suite's warnings-as-errors filter.
_SCALE_SUM_ABOVE_ONE = ["lyapunov", "--alpha", "0.6", "--xi1", "0", "--xi2", "1.23",
                        "--iters", "1000"]

ARGV = [
    ["iterate", *_CHAOS, "--steps", "300", "--transient", "100"],
    ["iterate", *_CHAOS, "--steps", "300", "--format", "json"],
    # five row blocks, the last one short, and three for lyapunov's history
    # (a row per 100 iterations): long enough that the blocks are dealt to
    # forked shares
    ["iterate", *_CHAOS, "--steps", "5000", "--transient", "100"],
    ["iterate", *_CHAOS, "--steps", "5000", "--transient", "100", "--format", "json"],
    ["lyapunov", *_CHAOS, "--iters", "205000", "--format", "csv"],
    ["fixed-points", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28"],
    ["fixed-points", "--alpha", "0.5", "--xi1", "0.1", "--xi2", "0.1",
     "--seeds", "0.5,0.1,-0.1;0.9,0.3,0.2"],
    ["lyapunov", *_CHAOS, "--iters", "2000"],
    ["lyapunov", *_CHAOS, "--iters", "1050", "--format", "csv"],
    ["lyapunov", "--alpha", "0.9", "--xi1", "1.4", "--xi2", "0.8", "--iters", "3000"],
    # every block longer than one stage fails the stretch bound here, so the
    # tangent kernel runs one Gram-Schmidt pass per stage: these are the bytes
    # of a kernel without blocks
    ["lyapunov", "--alpha", "0.001", "--xi1", "0.5", "--xi2", "0.5", "--iters", "2000"],
    _SCALE_SUM_ABOVE_ONE,
    ["bifurcate", *_SWEEP, "--param", "alpha", "--lo", "0.2", "--hi", "0.9", "--points", "3"],
    ["bifurcate", *_SWEEP, "--param", "xi1", "--lo", "0.6", "--hi", "1.7", "--points", "4"],
    ["bifurcate", *_SWEEP, "--param", "xi2", "--lo", "0.6", "--hi", "1.7", "--points", "4"],
    ["storage-report", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
     "--stages", "0,1,5,20"],
    ["placement", "--nodes", "4"],
    ["placement", "--nodes", "4", "--format", "json"],
    ["loss-exact", "--nodes", "10", "--p", "0.0103"],
    ["loss-exact", "--nodes", "200", "--p", "0.01"],
    # loss 5.7e-299, still a normal float, over a denominator of about 330 bits
    ["loss-exact", "--nodes", "57", "--p", "1e-100"],
    ["loss-curve", "--nodes-list", "1,3,10,57", "--p", "0.0103"],
    *(
        [*_MC, "--mode", mode, "--workers", str(workers)]
        for mode in ("group", "structural")
        for workers in (1, 2, 3)
    ),
    # two chunks, the second short, in slabs of one word-row
    *(
        ["loss-mc", "--nodes", "1000", "--p", "0.05", "--trials", "4100",
         "--workers", str(workers)]
        for workers in (1, 2)
    ),
    ["verify-coefficients"],
    ["discrepancy-report", "--seed", "42", "--mc-trials", "5000"],
]


def _digest(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    if code:
        raise AssertionError(f"exit {code}: {' '.join(argv)}")
    data = out.getvalue().encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def test_outputs_match_the_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    if PLATFORM not in recorded:
        pytest.skip(f"no digests recorded for {PLATFORM}")
    want = recorded[PLATFORM]
    got = {}
    for argv in ARGV:
        if argv is _SCALE_SUM_ABOVE_ONE:
            with pytest.warns(UserWarning, match="alternating scale sum exceeds 1") as record:
                got[" ".join(argv)] = _digest(argv)
            assert len(record) == 1
        else:
            got[" ".join(argv)] = _digest(argv)
    assert sorted(got) == sorted(want), "the argv list and the record differ"
    changed = [key for key in got if got[key] != want[key]]
    assert not changed, "outputs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded[PLATFORM] = {" ".join(argv): _digest(argv) for argv in ARGV}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
