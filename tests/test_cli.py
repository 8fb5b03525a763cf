import contextlib
import csv
import io
import itertools
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cloudalloc
from cloudalloc import cli
from cloudalloc.cli import run
from cloudalloc.model import ModelParams, SystemState, iterate, two_user_orbit
from conftest import assert_no_children, fake_cpus

# An orbit that leaves the divergence bound at stage 1245, inside the second
# row block, after its first rows have reached the output file.
LATE_DIVERGENCE = ["iterate", "--alpha", "0.553", "--xi1", "1.191", "--xi2", "1.321",
                   "--v0", "-0.365", "--steps", "2000"]


def live_group_members(pgid):
    """Pids of the processes of group `pgid` that are not zombies, read
    from Linux's /proc."""
    members = []
    for entry in os.listdir("/proc"):
        with contextlib.suppress(OSError):
            stat = Path("/proc", entry, "stat").read_bytes() if entry.isdigit() else b""
            fields = stat.rpartition(b")")[2].split()
            if fields and int(fields[2]) == pgid and fields[0] != b"Z":
                members.append(int(entry))
    return members


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def reference_orbit(alpha, xi1, xi2, v0, x1, x2, steps, transient):
    """The kept stages from the reference `model.iterate`."""
    p = ModelParams.two_user(alpha, xi1, xi2)
    return [(s.l, s.v_c, *s.x)
            for s in iterate(p, SystemState(0, v0, (x1, x2)), steps, transient)]


def iterate_argv(alpha, xi1, xi2, v0, x1, x2, steps, transient):
    return ["iterate", "--alpha", repr(alpha), "--xi1", repr(xi1), "--xi2", repr(xi2),
            "--v0", repr(v0), "--x1", repr(x1), "--x2", repr(x2),
            "--steps", str(steps), "--transient", str(transient)]


class TestIterate:
    def test_zero_orbit_prints_zero_rows(self, capsys):
        rc = run(
            ["iterate", "--alpha", "0.5", "--xi1", "1", "--xi2", "1",
             "--v0", "0", "--x1", "0", "--x2", "0", "--steps", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# cloudalloc")
        assert lines[1].startswith("# config:")
        assert lines[2] == "l,v_c,x1,x2"
        data_rows = lines[3:]
        assert len(data_rows) == 10
        for row in data_rows:
            _, v, x1, x2 = row.split(",")
            assert float(v) == 0.0 and float(x1) == 0.0 and float(x2) == 0.0

    def test_config_embedded_and_resolved(self, capsys):
        run(["iterate", "--alpha", "0.5", "--xi1", "1", "--xi2", "1", "--steps", "2"])
        out = capsys.readouterr().out
        config_line = out.splitlines()[1]
        cfg = json.loads(config_line.split("# config: ", 1)[1])
        assert cfg["subcommand"] == "iterate"
        assert cfg["transient"] == 0          # default materialized
        assert cfg["v0"] == 0.01
        assert cfg["artifact_version"] == "0.1.0"

    def test_divergence_exit_code(self):
        rc = run(
            ["iterate", "--alpha", "1.0", "--xi1", "2", "--xi2", "2",
             "--v0", "10", "--x1", "10", "--x2", "10", "--steps", "100"]
        )
        assert rc == 2

    def test_divergence_writes_no_artifact(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "orbit.csv"
        rc = run(
            ["iterate", "--alpha", "1.0", "--xi1", "2", "--xi2", "2",
             "--v0", "10", "--x1", "10", "--x2", "10", "--steps", "100",
             "--out", str(target)]
        )
        assert rc == 2
        assert not target.exists()

        # stdout gets nothing either
        assert run(LATE_DIVERGENCE) == 2
        assert capsys.readouterr().out == ""

        # a pre-existing target survives a run that fails after its rows
        # started streaming, and no temporary file is left behind
        target.write_bytes(b"previous artifact\n")
        assert run(LATE_DIVERGENCE + ["--out", str(target)]) == 2
        assert read(target) == b"previous artifact\n"
        assert os.listdir(tmp_path) == ["orbit.csv"]

        def orbit_then_usage_error(params, s0, steps):
            yield from two_user_orbit(params, s0, 1000)
            raise ValueError("rejected midway")

        monkeypatch.setattr(cli, "two_user_orbit", orbit_then_usage_error)
        assert run(LATE_DIVERGENCE + ["--out", str(target)]) == 1
        assert "usage error: rejected midway" in capsys.readouterr().err
        assert read(target) == b"previous artifact\n"
        assert os.listdir(tmp_path) == ["orbit.csv"]

    def test_out_writes_through_links_and_pipes(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_bytes(b"previous artifact\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        assert run(["verify-coefficients", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(read(real))["result"]["match"] is True

        # a pipe cannot be renamed over; it gets the artifact in place
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(read(fifo)), daemon=True)
        reader.start()
        assert run(["verify-coefficients", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert json.loads(got[0])["result"]["match"] is True
        assert sorted(os.listdir(tmp_path)) == ["link.json", "pipe", "real.json"]

    def test_out_rows_stream_in_bounded_memory(self, tmp_path):
        # holding every stage as a SystemState and the artifact as one
        # string peaks at about 9 MiB here
        argv = ["iterate", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                "--steps", "20000", "--out", str(tmp_path / "orbit.csv")]
        tracemalloc.start()
        try:
            rc = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("kept", [4095, 4096, 4097, 8193])
    def test_csv_row_blocks_match_the_csv_module(self, kept, capsys):
        # 4096 is a whole number of blocks, so these straddle block ends
        assert 4096 % cli._ROWS_PER_BLOCK == 0
        orbit = (0.6, 1.28, 1.23, 0.01, 0.01, -0.01, kept + 7, 7)
        assert run(iterate_argv(*orbit)) == 0
        *comments, body = capsys.readouterr().out.split("\n", 2)
        assert all(line.startswith("# ") for line in comments)
        oracle = io.StringIO()
        writer = csv.writer(oracle, lineterminator="\n")
        writer.writerow(["l", "v_c", "x1", "x2"])
        writer.writerows(reference_orbit(*orbit))
        assert body == oracle.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_divergence_inside_the_second_block_writes_nothing(self, fmt, tmp_path, capsys):
        block = cli._ROWS_PER_BLOCK
        argv = LATE_DIVERGENCE + ["--format", fmt]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stage = int(captured.err.split("diverged at stage ")[1].split()[0])
        assert block < stage <= 2 * block
        assert run(argv + ["--out", str(tmp_path / "orbit")]) == 2
        assert os.listdir(tmp_path) == []

    @staticmethod
    def at_cpus(argv, capsys, monkeypatch):
        """(exit code, stdout, stderr) of `run(argv)` at one, two and three
        usable CPUs, so its row blocks are dealt to that many shares."""
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            runs.append((run(argv), *capsys.readouterr()))
        return runs

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_row_blocks_do_not_depend_on_the_cpu_count(self, fmt, capsys, monkeypatch):
        # five blocks, the last one short
        argv = iterate_argv(0.6, 1.28, 1.23, 0.01, 0.01, -0.01, 5000, 100) + ["--format", fmt]
        serial, *forked = self.at_cpus(argv, capsys, monkeypatch)
        assert serial[0] == 0 and forked == [serial] * 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_divergence_in_a_forked_block_reports_as_serial(self, fmt, capsys, monkeypatch):
        # stage 2127 lies in block 1, which a forked share formats; its
        # DivergenceError reaches the caller pickled
        argv = ["iterate", "--alpha", "0.3", "--xi1", "2.1", "--xi2", "0.8",
                "--steps", "20000", "--transient", "1024", "--format", fmt]
        serial, *forked = self.at_cpus(argv, capsys, monkeypatch)
        assert serial[:2] == (2, "") and "diverged at stage 2127 " in serial[2]
        assert forked == [serial] * 2

    @pytest.mark.parametrize(
        "orbit",
        [
            # signed zeros stay signed: v_c is -0.0 at every stage
            (0.5, 0.0, 0.0, -0.0, -0.0, -0.0, 3000, 4),
            (0.6, 1.28, 1.23, 0.01, 0.01, -0.01, 2500, 3),
            (0.6, 1.28, 1.23, 0.01, 0.01, -0.01, 1, 0),
        ],
    )
    def test_json_rows_match_the_buffered_document(self, orbit, capsys):
        assert run(iterate_argv(*orbit) + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        envelope = {
            "artifact": "cloudalloc",
            "version": cloudalloc.__version__,
            "config": json.loads(out)["config"],
            "result": [dict(zip(("l", "v_c", "x1", "x2"), row))
                       for row in reference_orbit(*orbit)],
        }
        assert out == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        if orbit[3] == -0.0:
            assert '"v_c": -0.0' in out

    def test_json_rows_stream_in_bounded_memory(self, tmp_path):
        # the buffered document (row dicts, their strict-JSON copy and one
        # string) peaks at about 27 MiB here
        argv = ["iterate", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                "--steps", "20000", "--format", "json", "--out", str(tmp_path / "orbit.json")]
        tracemalloc.start()
        try:
            rc = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 2 * 2**20
        assert len(json.loads(read(tmp_path / "orbit.json"))["result"]) == 20000

    def test_json_format(self, capsys):
        rc = run(
            ["iterate", "--alpha", "0.5", "--xi1", "1", "--xi2", "1",
             "--steps", "3", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["artifact"] == "cloudalloc"
        assert len(doc["result"]) == 3


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["iterate", "--alpha", "0.5", "--xi1", "1", "--xi2", "1"]) == 1
        assert "steps" in capsys.readouterr().err

    def test_bad_domain_value(self, capsys):
        assert run(
            ["iterate", "--alpha", "7", "--xi1", "1", "--xi2", "1", "--steps", "1"]
        ) == 1

    def test_vmax_is_not_an_option(self, capsys):
        assert run(
            ["iterate", "--alpha", "0.5", "--xi1", "1", "--xi2", "1", "--steps", "1",
             "--vmax", "2"]
        ) == 1
        assert "--vmax" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan", "-5", "0"])
    def test_unit_scale_must_be_finite_and_positive(self, scale, capsys):
        assert run(
            ["storage-report", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
             "--stages", "1", f"--unit-scale={scale}"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: unit_scale must be finite and > 0, got {float(scale)}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["bifurcate", "--alpha", "0.5", "--xi1", "1.28", "--xi2", "1.23", "--param",
             "xi1", "--lo", "0.1", "--hi", "inf", "--points", "2", "--lyap-iters", "100"],
            ["storage-report", "--alpha", "0.5", "--xi1", "nan", "--xi2", "0.1",
             "--stages", "0,3"],
            ["storage-report", "--alpha", "0.5", "--xi1", "inf", "--xi2", "0.1",
             "--stages", "0"],
        ],
    )
    def test_non_finite_model_inputs_are_usage_errors(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", ["--v0", "--x1", "--x2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["iterate", "--steps", "5"],
            ["lyapunov", "--iters", "1000"],
            ["bifurcate", "--param", "xi1", "--lo", "0.5", "--hi", "1", "--points", "2",
             "--lyap-iters", "1000"],
            ["storage-report", "--stages", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_initial_state_is_a_usage_error(self, argv, flag, value, capsys):
        params = ["--alpha", "0.5", "--xi1", "0.1", "--xi2", "0.1"]
        assert run(argv[:1] + params + argv[1:] + [f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {flag} must be finite, got {value}" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["loss-exact", "--nodes", "1000", "--p", "0.01"],
         ["loss-curve", "--nodes-list", "10,1000", "--p", "0.01"]],
    )
    def test_exact_bigint_work_budget(self, argv, capsys):
        start = time.perf_counter()
        assert run(argv) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exact-bigint is limited to" in captured.err
        assert "closed-form" in captured.err

    def test_loss_curve_checks_every_n_before_the_first_sum(self, capsys, monkeypatch):
        calls = []
        real = cli.replication.prob_data_loss
        monkeypatch.setattr(
            cli.replication, "prob_data_loss",
            lambda n, *rest: calls.append(n) or real(n, *rest),
        )
        assert run(["loss-curve", "--nodes-list", "400,401", "--p", "0.0103"]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exact-bigint is limited to 7n <= 2800 machines, got n = 401" in captured.err

    @pytest.mark.parametrize(
        "nodes, p, message",
        [
            ("200,0", "0.01", "n must be >= 1, got 0"),
            ("200", "2", "p must lie in [0, 1], got 2.0"),
        ],
    )
    def test_loss_curve_refuses_a_bad_n_or_p_before_the_first_sum(
        self, nodes, p, message, capsys, monkeypatch
    ):
        calls = []
        real = cli.replication.prob_data_loss
        monkeypatch.setattr(
            cli.replication, "prob_data_loss",
            lambda n, *rest: calls.append(n) or real(n, *rest),
        )
        assert run(["loss-curve", "--nodes-list", nodes, "--p", p]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_loss_mc_seed_range(self, seed, capsys):
        argv = ["loss-mc", "--nodes", "3", "--p", "0.1", "--trials", "100", "--seed", str(seed)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: seed must lie in [0, 2**128), got {seed}\n" == captured.err

    @pytest.mark.parametrize("workers", ["0", "65"])
    def test_loss_mc_worker_bound(self, workers, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(9)), raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        argv = ["loss-mc", "--nodes", "3", "--p", "0.1", "--trials", "100",
                "--workers", workers]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: workers must lie in 1..64, got {workers}\n" == captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["storage-report", "--stages", "1,x"],
             "expected a comma-separated integer list, got '1,x'"),
            (["storage-report", "--stages", ","], "stages must be nonempty"),
            (["fixed-points", "--seeds", "1,2"], "each seed needs 3 components, got (1.0, 2.0)"),
            (["fixed-points", "--seeds", ""], "at least one seed is required"),
            (["fixed-points", "--seeds", "nan,0,0"],
             "seed components must be finite, got [(nan, 0.0, 0.0)]"),
            (["lyapunov", "--iters", "1000", "--zero-band", "nan"],
             "zero_band must be > 0, got nan"),
            (["bifurcate", "--alpha", "0.5", "--xi1", "0.1", "--xi2", "0.1", "--param", "alpha",
              "--lo", "0.5", "--hi", "1.5", "--points", "200"],
             "alpha must lie in (0, 1], got 1.5"),
            # a one-point grid is just lo; hi is still checked
            (["bifurcate", "--alpha", "0.5", "--xi1", "1.28", "--xi2", "1.23", "--param",
              "alpha", "--lo", "0.5", "--hi", "7", "--points", "1", "--lyap-iters", "1000"],
             "alpha must lie in (0, 1], got 7.0"),
        ],
        ids=["int-list-token", "empty-stages", "seed-arity", "empty-seeds", "nan-seed",
             "nan-zero-band", "sweep-end", "one-point-sweep-end"],
    )
    def test_refused_arguments(self, argv, message, capsys):
        params = ["--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23"]
        assert run(argv[:1] + params + argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    @pytest.mark.parametrize("band", ["0", "-0.5", "nan"])
    def test_zero_band_refused_before_the_spectrum(self, band, capsys, monkeypatch):
        def no_spectrum(*args, **kwargs):
            raise AssertionError("the spectrum was computed")

        monkeypatch.setattr(cli.dynamics, "lyapunov_spectrum", no_spectrum)
        argv = ["lyapunov", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                "--zero-band", band]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: zero_band must be > 0, got {float(band)}\n"

    @pytest.mark.parametrize("zero", ["0.0", "-0.0"])
    @pytest.mark.parametrize("flag", ["--xi1", "--xi2"])
    def test_fixed_points_refuses_a_zero_xi(self, flag, zero, tmp_path, capsys):
        xi = {"--xi1": "0.5", "--xi2": "0.6", flag: zero}
        target = tmp_path / "fp.json"
        argv = ["fixed-points", "--alpha", "0.6", *itertools.chain(*xi.items()),
                "--out", str(target)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: the claimed fixed point is undefined for {flag[2:]} = {zero}\n"
        )
        assert os.listdir(tmp_path) == []

    def test_stage_before_the_initial_stage(self, capsys):
        assert run(
            ["storage-report", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
             "--stages", "-1"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: stage -1 precedes the initial stage 0" in captured.err

    @pytest.mark.parametrize("nodes", ["0", "-2"])
    def test_loss_mc_needs_a_node(self, nodes, capsys):
        assert run(["loss-mc", "--nodes", nodes, "--p", "0.1", "--trials", "100"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: n must be >= 1, got {nodes}" in captured.err

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "0"), ("--samples", "-5"), ("--transient", "-50")]
    )
    def test_bifurcate_rejects_an_empty_sample_window(self, flag, value, capsys):
        assert run(
            ["bifurcate", "--alpha", "0.5", "--xi1", "1.28", "--xi2", "1.23",
             "--param", "alpha", "--lo", "0.3", "--hi", "0.6", "--points", "3",
             "--lyap-iters", "1000", flag, value]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:]} must be >= " in captured.err

    def test_io_failure_exit_code(self, capsys):
        rc = run(
            ["verify-coefficients", "--out", "/nonexistent-dir/x/y.json"]
        )
        assert rc == 3


# Values for every float flag of the fuzzed argv: signed zeros, ordinary and
# extreme magnitudes, a subnormal, the infinities and NaN.
_FLOATS = st.sampled_from(
    ["0", "-0.0", "0.01", "0.5", "1", "2", "-1", "1e300", "1e-320", "inf", "-inf", "nan"]
)
_SMALL_INTS = st.integers(-2, 6).map(str)


def _flag(name, values):
    return values.map(lambda v: [f"--{name}", v])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _argv(command, *flags):
    """`command` followed by one drawn fragment of each flag strategy."""
    return st.tuples(*flags).map(lambda parts: [command, *itertools.chain(*parts)])


_MODEL = [_flag(name, _FLOATS) for name in ("alpha", "xi1", "xi2")]
_STATE = [_maybe(name, _FLOATS) for name in ("v0", "x1", "x2")]
_INT_LIST = st.lists(st.integers(-2, 40).map(str), max_size=4).map(",".join)
_SEEDS = st.lists(
    st.lists(_FLOATS, min_size=2, max_size=4).map(",".join), max_size=3
).map(";".join)

# Every computing command, kept small: at most 50 steps, 1500 Lyapunov
# iterations, 2 grid points, 40 stages, 6 nodes, 3000 trials and 2 workers.
FUZZ_ARGV = st.one_of(
    _argv("iterate", *_MODEL, *_STATE, _flag("steps", st.integers(-1, 50).map(str)),
          _maybe("transient", _SMALL_INTS), _maybe("format", st.sampled_from(["csv", "json"]))),
    _argv("fixed-points", *_MODEL, _maybe("seeds", _SEEDS)),
    _argv("lyapunov", *_MODEL, *_STATE, _flag("iters", st.integers(999, 1500).map(str)),
          _maybe("zero-band", _FLOATS), _maybe("format", st.sampled_from(["json", "csv"]))),
    _argv("bifurcate", *_MODEL, *_STATE, _flag("param", st.sampled_from(["alpha", "xi1", "xi2"])),
          _flag("lo", _FLOATS), _flag("hi", _FLOATS), _flag("points", st.integers(-1, 2).map(str)),
          _flag("lyap-iters", st.sampled_from(["999", "1000"])),
          _maybe("transient", _SMALL_INTS), _maybe("samples", _SMALL_INTS)),
    _argv("storage-report", *_MODEL, *_STATE, _flag("stages", _INT_LIST),
          _maybe("unit-scale", _FLOATS)),
    _argv("placement", _flag("nodes", _SMALL_INTS),
          _maybe("format", st.sampled_from(["text", "json"]))),
    _argv("loss-exact", _flag("nodes", _SMALL_INTS), _flag("p", _FLOATS)),
    _argv("loss-curve", _flag("nodes-list", st.lists(_SMALL_INTS, max_size=3).map(",".join)),
          _flag("p", _FLOATS)),
    _argv("loss-mc", _flag("nodes", _SMALL_INTS), _flag("p", _FLOATS),
          _maybe("trials", st.integers(-1, 3000).map(str)), _maybe("seed", _SMALL_INTS),
          _maybe("mode", st.sampled_from(["group", "structural"])),
          _maybe("workers", st.sampled_from(["0", "1", "2"]))),
)


@settings(max_examples=200, deadline=None)
@given(argv=FUZZ_ARGV)
@example(argv=["fixed-points", "--alpha", "0.6", "--xi1", "0", "--xi2", "1.2"])
def test_no_argv_escapes_run(argv):
    """Whatever the argv, `run` answers with an exit code and raises nothing."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(argv) in (0, 1, 2), argv


# One argv per CSV command; the bifurcate sweep has divergent points.
CSV_COMMANDS = {
    "iterate": ["iterate", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                "--steps", "300", "--transient", "100"],
    "lyapunov": ["lyapunov", "--alpha", "0.6", "--xi1", "0", "--xi2", "1.23",
                 "--iters", "1000", "--format", "csv"],
    "bifurcate": ["bifurcate", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                  "--param", "xi1", "--lo", "0.5", "--hi", "2.5", "--points", "5",
                  "--transient", "100", "--samples", "3", "--lyap-iters", "1000"],
    "storage-report": ["storage-report", "--alpha", "0.6", "--xi1", "1.25",
                       "--xi2", "1.28", "--v0", "-1.6", "--stages", "0,1,10,20,365"],
    "loss-curve": ["loss-curve", "--nodes-list", "1,10,20", "--p", "0.01"],
}


class TestOutputs:
    @pytest.mark.parametrize("name", sorted(CSV_COMMANDS))
    def test_csv_bytes_match_the_csv_module(self, name, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert run(CSV_COMMANDS[name]) == 0
        out = capsys.readouterr().out
        *comments, body = out.split("\n", 2)
        assert all(line.startswith("# ") for line in comments)
        rows = list(csv.reader(io.StringIO(body)))
        assert len(rows) > 2
        oracle = io.StringIO()
        csv.writer(oracle, lineterminator="\n").writerows(rows)
        assert body == oracle.getvalue()
        if name == "bifurcate":
            assert {row[4] for row in rows[1:]} == {"0", "1"}

    def test_byte_identical_reruns(self, tmp_path):
        # identical argv (same seed, same --out) must give identical bytes
        target = tmp_path / "estimate.json"
        argv = ["loss-mc", "--nodes", "4", "--p", "0.2", "--trials", "20000",
                "--seed", "42", "--out", str(target)]
        assert run(argv) == 0
        first = read(target)
        assert run(argv) == 0
        assert read(target) == first
        assert os.listdir(tmp_path) == ["estimate.json"]

    def test_outdir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CLOUDALLOC_OUTDIR", str(tmp_path))
        assert run(["verify-coefficients", "--out", "counts.json"]) == 0
        doc = json.loads(read(tmp_path / "counts.json"))
        assert doc["result"]["match"] is True

    def test_non_finite_values_are_strict_json_null(self, capsys):
        def reject(constant):
            raise ValueError(f"non-RFC-8259 constant {constant}")

        # a tangent direction the Jacobian annihilates (xi1 = 0) gives -inf exponents
        with pytest.warns(UserWarning):
            rc = run(["lyapunov", "--alpha", "0.6", "--xi1", "0", "--xi2", "1.23",
                      "--iters", "1000"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["result"]["exponents"][1:] == [None, None]

        # a seed whose residual overflows; the search reports it without
        # leaking numpy's floating-point warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(["fixed-points", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
                      "--seeds", "1e200,1e200,1e200"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["result"]["search"][0]["residual"] is None

        # a non-finite option value in a CSV header's config line
        assert run(["lyapunov", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
                    "--iters", "1000", "--format", "csv", "--zero-band", "inf"]) == 0
        config_line = capsys.readouterr().out.splitlines()[1]
        assert config_line.startswith("# config: ")
        config = json.loads(config_line[len("# config: "):], parse_constant=reject)
        assert config["zero_band"] is None

    def test_scale_sum_warning_names_the_cli(self, capsys):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run(["lyapunov", "--alpha", "0.6", "--xi1", "0", "--xi2", "1.23",
                        "--iters", "1000"]) == 0
        assert record[0].category is UserWarning
        assert record[0].filename.endswith("cli.py")

    def test_stdout_when_no_out(self, capsys):
        assert run(["verify-coefficients"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["non_fatal_counts"] == [1, 7, 21, 34, 30, 12, 0, 0]


class TestLossCommands:
    def test_loss_exact_json(self, capsys):
        assert run(["loss-exact", "--nodes", "10", "--p", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["result"]
        assert set(res) == {"n", "p", "exact_bigint", "log_domain", "closed_form"}
        assert res["exact_bigint"] == pytest.approx(res["closed_form"], rel=1e-12)
        assert res["exact_bigint"] == pytest.approx(1.01e-5, rel=1e-2)

    def test_loss_curve_csv(self, capsys):
        assert run(["loss-curve", "--nodes-list", "10,20,40", "--p", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[2] == "n,p,p_loss_exact,p_loss_closed_form"
        assert len(lines) == 6
        ns = [int(row.split(",")[0]) for row in lines[3:]]
        assert ns == [10, 20, 40]

    def test_loss_mc_json(self, capsys):
        assert run(
            ["loss-mc", "--nodes", "4", "--p", "0.2", "--trials", "20000"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        res = doc["result"]
        assert set(res) == {
            "n", "p", "trials", "seed", "mode", "p_hat", "half_width_95",
            "ci95_low", "ci95_high",
        }
        assert res["seed"] == 42
        assert res["ci95_low"] < res["p_hat"] < res["ci95_high"]


class TestAnalysisCommands:
    def test_lyapunov_regular_regime(self, capsys):
        rc = run(
            ["lyapunov", "--alpha", "0.96", "--xi1", "0.2", "--xi2", "1.18",
             "--v0", "0.01", "--x1", "0.01", "--x2", "-0.01", "--iters", "2000"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(e < 0 for e in doc["result"]["exponents"])
        assert doc["result"]["classification"] == "fixed/periodic"

    def test_lyapunov_history_csv(self, capsys):
        # a running estimate every 100 iterations, then the final one
        for iters, last in (("1000", []), ("1050", ["1050"])):
            rc = run(
                ["lyapunov", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
                 "--iters", iters, "--format", "csv"]
            )
            assert rc == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[2] == "iteration,lambda1,lambda2,lambda3"
            column = [row.split(",")[0] for row in lines[3:]]
            assert column == [str(100 * k) for k in range(1, 11)] + last

    def test_fixed_points_reports_claimed_point(self, capsys):
        rc = run(["fixed-points", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        claimed = doc["result"]["claimed_point"]
        assert claimed["residual"] == pytest.approx(1.0, abs=1e-9)
        search = doc["result"]["search"]
        for row in search:
            assert set(row) == {"seed", "point", "residual", "converged", "iterations"}
        assert search[0]["converged"] and search[0]["residual"] < 1e-12

    def test_bifurcate_csv(self, capsys):
        rc = run(
            ["bifurcate", "--alpha", "0.5", "--xi1", "1.28", "--xi2", "1.23",
             "--param", "alpha", "--lo", "0.3", "--hi", "0.6", "--points", "3",
             "--transient", "200", "--samples", "4", "--lyap-iters", "1000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[2] == "alpha,sample,v_c,lambda_max,divergent"
        data = [row.split(",") for row in lines[3:]]
        live_values = {row[0] for row in data if row[4] == "0"}
        assert len(data) >= 3
        for value in live_values:
            assert sum(1 for row in data if row[0] == value) == 4
        # swept values reach the CSV as plain floats, not numpy scalar reprs
        assert "np." not in out
        for row in data:
            for cell in row:
                if cell:
                    float(cell)

    def test_storage_report_columns(self, capsys):
        rc = run(
            ["storage-report", "--alpha", "0.6", "--xi1", "1.25", "--xi2", "1.28",
             "--v0", "1.6666666666666667", "--x1", "0.08", "--x2", "0.078125",
             "--stages", "1,10,20"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[2] == "l,owner_alloc_bytes,user1_alloc_bytes,user1_sign,user2_alloc_bytes,user2_sign"
        assert [row.split(",")[0] for row in lines[3:]] == ["1", "10", "20"]

    def test_placement_text(self, capsys):
        assert run(["placement", "--nodes", "3"]) == 0
        out = capsys.readouterr().out
        assert "owner 1 P1 S1_2 S2_3 machines=0,1,2,3" in out

    def test_module_entry_point(self):
        src = str(Path(cloudalloc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "cloudalloc.cli", "placement", "--nodes", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "owner 1 P1 S1_2 S2_3 machines=0,1,2,3" in proc.stdout

    @staticmethod
    def long_argvs(outdir):
        """Every caller of the fork driver, each busy for far longer than any
        wait below: eight non-divergent sweep points of 2M Lyapunov stages
        each, 40M Monte Carlo trials, and a 10M-row orbit written to a file
        in `outdir`."""
        return (
            ["bifurcate", "--alpha", "0.5", "--xi1", "0.1", "--xi2", "0.1", "--param", "alpha",
             "--lo", "0.5", "--hi", "0.9", "--points", "8", "--lyap-iters", "2000000"],
            ["loss-mc", "--nodes", "10", "--p", "0.1", "--trials", "40000000", "--workers", "2"],
            ["iterate", "--alpha", "0.6", "--xi1", "1.28", "--xi2", "1.23",
             "--steps", "10000000", "--out", str(outdir / "orbit.csv")],
        )

    @staticmethod
    def start_long(argv):
        """The command `argv` in a new session."""
        src = str(Path(cloudalloc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, "-m", "cloudalloc.cli", *argv],
            env={**os.environ, "PYTHONPATH": path}, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

    @staticmethod
    def kill_group(proc):
        """SIGKILL whatever is left of proc's session, then reap proc."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    @pytest.mark.parametrize("to_group", [False, True], ids=["leader", "group"])
    def test_bifurcate_interrupt_leaves_no_process(self, to_group, tmp_path):
        # the report's forked sections end within milliseconds; the signal
        # lands in its structural Monte Carlo, which runs in the caller
        report = ["discrepancy-report", "--mc-trials", "40000000",
                  "--out", str(tmp_path / "report.md")]
        for argv in (*self.long_argvs(tmp_path), report):
            proc = self.start_long(argv)
            pgid = proc.pid
            try:
                time.sleep(1)
                if to_group:   # as Ctrl-C at a terminal does
                    os.killpg(pgid, signal.SIGINT)
                else:
                    proc.send_signal(signal.SIGINT)
                start = time.monotonic()
                _, err = proc.communicate(timeout=30)
                assert time.monotonic() - start < 5, argv[0]
            finally:
                if proc.poll() is None:
                    self.kill_group(proc)
            assert proc.returncode == 130, argv[0]
            assert err == b"interrupted\n"
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
            assert os.listdir(tmp_path) == []   # no --out file, no temporary file

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/stat") or len(os.sched_getaffinity(0)) < 2,
        reason="needs Linux /proc and two usable CPUs, so that the commands fork",
    )
    def test_bifurcate_killed_leaves_no_process(self, tmp_path):
        # SIGKILL gives the leader no chance to kill its children: each must
        # see the leader gone and end itself
        for argv in self.long_argvs(tmp_path):
            proc = self.start_long(argv)
            pgid = proc.pid
            try:
                deadline = time.monotonic() + 10
                while len(live_group_members(pgid)) < 2:   # the leader and a worker
                    assert time.monotonic() < deadline, f"{argv[0]} never forked"
                    time.sleep(0.05)
                proc.kill()
                proc.wait(timeout=10)
                deadline = time.monotonic() + 10
                while True:
                    try:
                        os.killpg(pgid, 0)
                    except ProcessLookupError:
                        break
                    assert time.monotonic() < deadline, (argv[0], live_group_members(pgid))
                    time.sleep(0.05)
            finally:
                self.kill_group(proc)

    @pytest.mark.parametrize("n", [3, 10, 60])
    def test_placement_json(self, n, capsys):
        assert run(["placement", "--nodes", str(n), "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["machines"] == 7 * n
        assert len(result["blocks"]) == 2 * n
        ids = [i for block in result["blocks"] for i in block["machine_ids"]]
        assert sorted(ids) == list(range(7 * n))


class TestDiscrepancyReport:
    def test_report_contains_all_sections(self, capsys):
        rc = run(["discrepancy-report", "--mc-trials", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        headings = (
            "# Discrepancy report",
            "## Fixed points",
            "## Routh stable region",
            "## Hopf condition",
            "## Loss probabilities",
            "## Allocation table",
            "## Structural placement vs independent-group model",
        )
        assert [out.count(heading) for heading in headings] == [1] * len(headings)
        positions = [out.index(heading) for heading in headings]
        assert positions == sorted(positions)
        assert "exact/reference" in out
        assert "| 95% Wilson interval |" in out

    def test_builders_are_looked_up_at_call_time(self, monkeypatch):
        """A wrapper set on the module, as the benchmark's spans set one,
        replaces what the report builds and renders, whether this process
        builds the section (1 CPU) or a forked child does (6 CPUs: one
        share per section), which returns a pickled copy."""
        from cloudalloc import report

        fake = {
            "grid_step": 0.25,
            "grid_max": 9.0,
            "counterexample_count": 31337,
            "examples": [{"xi1": 0.5, "xi2": 1.5, "alpha": 0.125}],
        }
        monkeypatch.setattr(report, "hopf_section", lambda: fake)
        for cpus in (1, 6):
            fake_cpus(monkeypatch, cpus)
            data = report.build_discrepancy_report(mc_trials=1000, seed=1)
            assert_no_children()
            assert data["hopf"] == fake
            text = report.render_discrepancy_markdown(data)
            assert "(step 0.25, up to 9.0): 31337" in text
            assert "- xi1=0.50, xi2=1.50 -> alpha=0.1250" in text

    def test_report_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch):
        """Each section is one share of the fork driver; at 1 CPU this
        process builds all six, at 6 a child builds each but the first."""
        from cloudalloc import report

        texts = []
        for cpus in (1, 2, 3, 6):
            fake_cpus(monkeypatch, cpus)
            data = report.build_discrepancy_report(mc_trials=1000, seed=7)
            assert_no_children()
            assert list(data) == [
                "fixed_points", "routh_region", "hopf", "loss_table", "allocation_table",
                "structural_vs_group",
            ]
            texts.append(report.render_discrepancy_markdown(data))
        assert texts[1:] == texts[:1] * 3

    def test_a_childs_builder_error_is_raised_in_the_caller(self, monkeypatch):
        from cloudalloc import report

        caller = os.getpid()

        def broken():
            raise ValueError(os.getpid())

        # the loss table is the second share, so at 2 CPUs a child builds it
        monkeypatch.setattr(report, "loss_table_section", broken)
        fake_cpus(monkeypatch, 2)
        with pytest.raises(ValueError) as err:
            report.build_discrepancy_report(mc_trials=1000, seed=1)
        assert err.value.args[0] != caller
        assert_no_children()

    def test_report_deterministic(self, tmp_path):
        a = tmp_path / "a.md"
        b = tmp_path / "b.md"
        argv = ["discrepancy-report", "--mc-trials", "20000", "--seed", "7"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_routh_region_counts(self):
        from cloudalloc.report import routh_region_section

        assert routh_region_section() == {
            "grid_points": 33620,
            "routh_stable_count": 0,
            "p_and_q_positive_count": 0,
            "stability_window_count": 5426,
        }

    def test_hopf_counterexample_count(self):
        from cloudalloc.report import hopf_section

        assert hopf_section()["counterexample_count"] == 1874

    def test_grid_sections_match_a_scalar_loop(self):
        """The array scans agree with one scalar call per grid point: the
        coefficients, verdicts and Hopf alphas by `float.hex`, the counts and
        the examples.  For a float `x ** 2` is libm pow and for an array
        `x * x`, so the equality is checked, not assumed."""
        from cloudalloc import report

        def hexes(values):
            return [float(v).hex() for v in values]

        stable = pq_joint = window_hits = total = 0
        xis = np.linspace(0.0, 2.0, 41)
        for a in np.linspace(0.05, 1.0, 20).tolist():
            coeffs = report.characteristic_coeffs(a, xis[:, None], xis[None, :])
            verdicts = [report.routh_stable(*coeffs), report.stability_window(
                a, xis[:, None], xis[None, :])]
            coeffs, verdicts = [c.tolist() for c in coeffs], [v.tolist() for v in verdicts]
            for i, x1 in enumerate(xis.tolist()):
                for j, x2 in enumerate(xis.tolist()):
                    total += 1
                    P, Q, R = report.characteristic_coeffs(a, x1, x2)
                    assert hexes((P, Q, R)) == hexes(c[i][j] for c in coeffs)
                    is_stable = report.routh_stable(P, Q, R)
                    in_window = report.stability_window(a, x1, x2)
                    assert [is_stable, in_window] == [v[i][j] for v in verdicts]
                    stable += is_stable
                    pq_joint += P > 0 and Q > 0
                    window_hits += in_window
        assert report.routh_region_section() == {
            "grid_points": total,
            "routh_stable_count": stable,
            "p_and_q_positive_count": pq_joint,
            "stability_window_count": window_hits,
        }

        values = [round(k * 0.01, 10) for k in range(1, 201)]
        count, examples = 0, []
        for x1 in values:
            row = [x2 for x2 in values if x2 != x1]
            alphas = [report.hopf_alpha(x1, x2) for x2 in row]
            assert hexes(alphas) == hexes(report.hopf_alpha(x1, np.array(row)).tolist())
            for x2, a in zip(row, alphas):
                if 0.0 < a <= 1.0:
                    count += 1
                    if len(examples) < 10:
                        examples.append((x1, x2, a))
        section = report.hopf_section()
        assert section["counterexample_count"] == count
        assert [hexes((e["xi1"], e["xi2"], e["alpha"])) for e in section["examples"]] == [
            hexes(e) for e in examples
        ]
        assert all(type(v) is float for e in section["examples"] for v in e.values())


class TestReadmeExamples:
    def test_every_cli_example_parses(self):
        """Every `cloudalloc ...` line of the README's CLI block, with `\\`
        continuations joined, is accepted by the parser (nothing runs)."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cloudalloc ")
        ]
        assert len(commands) >= 10
        parser = cli.build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            assert args.subcommand == argv[1]


class TestParserReuse:
    def test_successive_runs_share_one_parser_and_no_options(self, capsys):
        """`build_parser` is built once per process; no option or error of
        one `run` reaches the next."""
        assert cli.build_parser() is cli.build_parser()
        it = ["iterate", "--alpha", "0.5", "--xi1", "0.1", "--xi2", "0.1", "--steps", "3"]
        assert run(it + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["format"] == "json"
        assert run(it) == 0
        csv_text = capsys.readouterr().out
        assert csv_text.startswith("# cloudalloc") and '"format": "csv"' in csv_text

        mc = ["loss-mc", "--nodes", "3", "--p", "0.1", "--trials", "100"]
        assert run(mc + ["--workers", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["workers"] == 2
        assert run(mc) == 0
        assert json.loads(capsys.readouterr().out)["config"]["workers"] == 1

        for refused in (it + ["--format", "xml"], ["iterate", "--alpha", "0.5"]):
            assert run(refused) == 1
            assert capsys.readouterr().err.startswith("usage error: ")
            assert run(it) == 0
            assert capsys.readouterr().out == csv_text
