"""Command line interface: solve, gen, bench, selftest, exit codes."""

import csv
import dataclasses
import io
import json
import subprocess
import sys

import pytest

from knapsolve import (
    SolverConfig,
    Stats,
    generate_instance,
    solve_bellman,
    solve_exhaustive,
    solve_fast,
    solve_proximity_smawk,
)
from knapsolve.cli import (
    BENCH_HEADER,
    InstanceParseError,
    format_instance,
    main,
    parse_instance_text,
)

SMALL = "3 6\n2 30\n3 40\n5 50\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_and_format_round_trip():
    items, capacity = parse_instance_text(SMALL)
    assert items == [(2, 30), (3, 40), (5, 50)]
    assert capacity == 6
    assert parse_instance_text(format_instance(items, capacity)) == (items, capacity)


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\n2 5  # trailing\n1 1\n2 2\n"
    assert parse_instance_text(text) == ([(1, 1), (2, 2)], 5)


def test_parse_rejects_malformed_input():
    for bad in ("", "2 x\n1 1\n1 1\n", "2 6\n1 1\n", "1 6\n0 3\n", "-1 6\n", "1 2 3\n"):
        with pytest.raises(InstanceParseError):
            parse_instance_text(bad)


def test_solve_from_file(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.strip() == "70"


def test_solve_empty_instance(tmp_path, capsys):
    path = write(tmp_path, "empty.txt", "0 5\n")
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_solve_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(SMALL))
    assert main(["solve", "-"]) == 0
    assert capsys.readouterr().out.strip() == "70"


def test_solvers_agree_through_the_cli(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", SMALL)
    outs = []
    for solver in ("fast", "bellman", "proximity", "exhaustive"):
        assert main(["solve", path, "--solver", solver]) == 0
        outs.append(capsys.readouterr().out.strip())
    assert set(outs) == {"70"}


def stats_record(capsys):
    """The one JSON line ``solve --stats`` wrote to stderr, as a dict."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    return captured.out, json.loads(lines[0])


def library_record(text, solver, config=None):
    """``asdict`` of the Stats the library call behind ``--solver`` fills."""
    stats = Stats()
    items, capacity = parse_instance_text(text)
    if solver == "fast":
        solve_fast(items, capacity, config, stats)
    elif solver == "bellman":
        solve_bellman(items, capacity, stats=stats)
    elif solver == "proximity":
        solve_proximity_smawk(items, capacity, stats=stats)
    else:
        # solve_exhaustive fills no Stats; the CLI names its engine
        solve_exhaustive(items, capacity)
        stats.engine = "exhaustive"
    return dataclasses.asdict(stats)


def test_solve_stats_go_to_stderr(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--stats"]) == 0
    out, record = stats_record(capsys)
    assert out.strip() == "70"
    assert record["engine"] == "dense"
    assert "peak_table_cells" in record
    # three candidates folded, fewer than one prune's eight passes
    assert record["fold_passes"] == 3 and record["cells_pruned"] == 0
    # one band per side: the greedy side's lower key is sorted, each
    # side's top key is a tie group
    assert record["core_sorted"] == 1


def test_solve_stats_record_for_every_solver(tmp_path, capsys):
    # the line is the whole Stats record the library call fills, extend
    # nested, and its engine names the path that ran; stdout is the answer
    path = write(tmp_path, "inst.txt", SMALL)
    runs = [("fast", engine, engine if engine != "auto" else "dense")
            for engine in ("auto", "dense", "hinted")]
    runs += [(solver, "auto", solver) for solver in ("bellman", "proximity", "exhaustive")]
    for solver, engine, ran in runs:
        assert main(["solve", path, "--stats", "--solver", solver, "--engine", engine]) == 0
        out, record = stats_record(capsys)
        assert out == "70\n"
        assert record == library_record(SMALL, solver, SolverConfig(engine=engine))
        assert record["engine"] == ran


def test_solve_stats_hinted_counters(tmp_path, capsys):
    # the hinted engine's record carries its extension counters
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--stats", "--engine", "hinted"]) == 0
    out, record = stats_record(capsys)
    assert out.strip() == "70"
    assert record == library_record(SMALL, "fast", SolverConfig(engine="hinted"))
    assert record["engine"] == "hinted"
    assert record["fold_passes"] == 0 and record["cells_pruned"] == 0
    assert record["extend"]["matrix_evals"] > 0


def test_solve_verify_flag(tmp_path, capsys):
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--verify"]) == 0
    assert capsys.readouterr().out.strip() == "70"


def test_solve_verify_at_w_1024(tmp_path, capsys):
    # n = 4096 at w = 1024: verify answers on uniform items and refuses the
    # table that hard-equal-weights leaves free at its answer
    items, capacity = generate_instance(4096, 1024, 32, 0.5, 1, "uniform")
    path = write(tmp_path, "uniform.txt", format_instance(items, capacity))
    assert main(["solve", path, "--verify"]) == 0
    assert capsys.readouterr().out.strip() == str(solve_fast(items, capacity))
    items, capacity = generate_instance(4096, 1024, 32, 0.5, 1, "hard-equal-weights")
    path = write(tmp_path, "equal.txt", format_instance(items, capacity))
    assert main(["solve", path, "--verify"]) == 3
    assert "refused: table needs 3467335685 cells" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "2 oops\n1 1\n1 1\n")
    assert main(["solve", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_budget_error_exit_code(tmp_path, capsys):
    # proximity's table: 2.3e9 int16 cells, 4.6 GB
    path = write(tmp_path, "wide.txt", "2 24000\n24000 5\n24000 9\n")
    assert main(["solve", path, "--solver", "proximity"]) == 3
    cells = 2 * (2 * 24000**2) + 1
    assert f"refused: fold table needs {2 * cells} bytes" in capsys.readouterr().err


def test_unexpected_exception_exit_code(tmp_path, capsys, monkeypatch):
    import knapsolve.cli

    def broken(items, capacity, stats=None):
        raise RuntimeError("table went missing")

    monkeypatch.setattr(knapsolve.cli, "solve_proximity_smawk", broken)
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--solver", "proximity"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: table went missing\n"


def test_solve_stats_proximity_passes(tmp_path, capsys):
    # three weight classes of one candidate each on their side: one pass each
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--solver", "proximity", "--stats"]) == 0
    out, record = stats_record(capsys)
    assert out.strip() == "70"
    assert record["fold_passes"] == 3


def test_solve_stats_proximity_all_fit(tmp_path, capsys):
    # every item fits, so proximity and bellman answer without folding, as
    # solve_fast does
    path = write(tmp_path, "inst.txt", "3 10\n2 30\n3 40\n5 50\n")
    for solver in ("fast", "proximity", "bellman"):
        assert main(["solve", path, "--solver", solver, "--stats"]) == 0
        out, record = stats_record(capsys)
        assert out.strip() == "120"
        assert record["engine"] == "trivial"
        assert record["peak_table_cells"] == 0 and record["fold_passes"] == 0


def test_solve_stats_bellman_passes(tmp_path, capsys):
    # three distinct items: one chunk pass each
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path, "--solver", "bellman", "--stats"]) == 0
    out, record = stats_record(capsys)
    assert out.strip() == "70"
    assert record["engine"] == "bellman"
    assert record["peak_table_cells"] == 7 and record["fold_passes"] == 3


def test_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    import knapsolve.solver

    structured = knapsolve.solver._solve_structured

    def off_by_one(inst, config, stats):
        return structured(inst, config, stats) + 1

    monkeypatch.setattr(knapsolve.solver, "_solve_structured", off_by_one)
    path = write(tmp_path, "inst.txt", SMALL)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out == "71\n"
    assert main(["solve", path, "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verification failed: fast answer 71 disagrees with capacity DP 70\n"
    )


def test_solve_refuses_options_the_solver_ignores(tmp_path, capsys):
    # --verify and --engine reach only the fast solver; with another solver
    # they are refused before anything is solved, not silently dropped
    path = write(tmp_path, "inst.txt", SMALL)
    for solver in ("bellman", "proximity", "exhaustive"):
        for argv in (["--verify"], ["--engine", "dense"], ["--engine", "hinted"]):
            assert main(["solve", path, "--solver", solver] + argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            option = argv[0]
            assert captured.err == f"error: {option} applies only to --solver fast\n"
        assert main(["solve", path, "--solver", solver, "--engine", "auto"]) == 0
        assert capsys.readouterr().out.strip() == "70"
    for argv in (["--verify"], ["--engine", "dense"], ["--engine", "hinted"]):
        assert main(["solve", path, "--solver", "fast"] + argv) == 0
        assert capsys.readouterr().out.strip() == "70"


def test_capacity_dp_fallback_refuses_before_allocating(tmp_path, capsys):
    # w_max > n^2 takes the capacity DP, whose table here would be 2e13 cells
    big = 10**13
    path = write(tmp_path, "huge.txt", f"2 {big}\n{big} 5\n{big} 9\n")
    assert main(["solve", path]) == 3
    assert "refused:" in capsys.readouterr().err


def test_capacity_dp_row_budget_exit_code(tmp_path, capsys, monkeypatch):
    # two int16 rows of 71 cells take 284 bytes, over the lowered budget
    import knapsolve.baselines

    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 283)
    path = write(tmp_path, "short.txt", "2 70\n50 7\n60 9\n")
    for solver in ("fast", "bellman"):
        assert main(["solve", path, "--solver", solver]) == 3
        assert "refused:" in capsys.readouterr().err


def test_fold_table_budget_exit_code(tmp_path, capsys, monkeypatch):
    # the core fold's first table has half-size 5: 11 int16 cells of 2
    # bytes (its values lie in [-9, 18]); it grows to 41 cells
    import knapsolve.baselines

    path = write(tmp_path, "fold.txt", "4 9\n5 9\n5 8\n4 6\n3 4\n")
    assert main(["solve", path, "--stats"]) == 0
    record = stats_record(capsys)[1]
    assert (record["peak_table_cells"], record["cell_bytes"]) == (41, 2)
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 21)
    assert main(["solve", path]) == 3
    assert "refused: fold table needs 22 bytes, over the budget of 21" in capsys.readouterr().err
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 81)
    assert main(["solve", path]) == 3
    assert "fold table needs 82 bytes" in capsys.readouterr().err
    monkeypatch.setattr(knapsolve.baselines, "TABLE_BYTE_BUDGET", 82)
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.strip() == "15"



def test_hinted_budget_exit_code(tmp_path, capsys):
    # n = 4w at w = 4096: the hinted engine's fold table would be 3.9 GB,
    # refused from the schedule before stage one runs
    items, capacity = generate_instance(4 * 4096, 4096, 32, 0.5, 1, "uniform")
    path = write(tmp_path, "wide.txt", format_instance(items, capacity))
    assert main(["solve", path, "--engine", "hinted"]) == 3
    assert "refused: fold table needs 3871473672 bytes" in capsys.readouterr().err


def test_gen_is_deterministic_and_round_trips(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["gen", "--n", "30", "--wmax", "15", "--pmax", "40", "--t-frac", "0.4", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    want = generate_instance(30, 15, 40, 0.4, 9, "uniform")
    assert parse_instance_text(out1.read_text(encoding="utf-8")) == want


def test_gen_writes_stdout_by_default(capsys):
    assert main(["gen", "--n", "3", "--wmax", "4", "--pmax", "5", "--seed", "2"]) == 0
    text = capsys.readouterr().out
    items, capacity = parse_instance_text(text)
    assert len(items) == 3


def test_gen_accepts_every_distribution(tmp_path):
    for dist in ("uniform", "clustered", "hard-equal-weights"):
        out = tmp_path / f"{dist}.txt"
        code = main(
            ["gen", "--n", "12", "--wmax", "9", "--pmax", "9", "--seed", "4",
             "--dist", dist, "--out", str(out)]
        )
        assert code == 0
        items, _ = parse_instance_text(out.read_text(encoding="utf-8"))
        assert len(items) == 12


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--wmax-list", "8,16", "--solvers", "fast,bellman",
         "--reps", "1", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"wrote 4 rows to {out}" in stdout
    assert stdout.count("log-log slope") == 2
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER.split(",")
    assert len(rows) == 5
    by_instance = {}
    for rec in rows[1:]:
        by_instance.setdefault(rec[0], set()).add(rec[5])
        assert int(rec[6]) > 0  # wall time
        assert int(rec[7]) >= 0  # peak cells
    for profits in by_instance.values():
        assert len(profits) == 1  # solvers agree per instance


def test_bench_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    import knapsolve.cli

    def off_by_one(items, capacity, stats=None):
        return solve_bellman(items, capacity, stats=stats) + 1

    monkeypatch.setattr(knapsolve.cli, "solve_bellman", off_by_one)
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--wmax-list", "8", "--solvers", "fast,bellman", "--out", str(out)]
    )
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bench: solvers disagree on uniform-w8-n32-r0: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_bench_rejects_bad_arguments(capsys):
    assert main(["bench", "--wmax-list", "8,banana"]) == 2
    assert main(["bench", "--wmax-list", "8", "--solvers", "fast,warp"]) == 2
    capsys.readouterr()


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.count("error:") == 1 and "Traceback" not in err


def usage_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_solve_unreadable_file_exit_code(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.txt")]) == 2
    assert one_error_line(capsys)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe 3 6\n")
    assert main(["solve", str(tmp_path / "binary.txt")]) == 2
    assert one_error_line(capsys)


def test_gen_rejects_out_of_range_shapes(capsys):
    for argv in (["--n", "3", "--wmax", "0"], ["--n", "-1", "--wmax", "3"]):
        assert usage_exit_code(["gen"] + argv) == 2
        assert one_error_line(capsys)


def test_bench_rejects_nonpositive_wmax(tmp_path, capsys):
    # refused before the valid first size is benchmarked
    out = tmp_path / "bench.csv"
    assert main(["bench", "--wmax-list", "8,0", "--out", str(out)]) == 2
    assert one_error_line(capsys)
    assert not out.exists()


def test_bench_rejects_nonpositive_reps(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    for reps in ("0", "-2"):
        assert usage_exit_code(["bench", "--wmax-list", "8", "--reps", reps, "--out", str(out)]) == 2
        assert one_error_line(capsys)
    assert not out.exists()


def test_bench_rejects_empty_lists(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    for argv in (["--solvers", ""], ["--solvers", " , "], ["--wmax-list", ""]):
        assert main(["bench", "--out", str(out)] + argv) == 2
        assert one_error_line(capsys)
    assert not out.exists()


def test_retired_constant_options_are_usage_errors(tmp_path, capsys):
    # the hinted engine always runs at the analysis constant C = 2
    path = write(tmp_path, "inst.txt", SMALL)
    out = tmp_path / "bench.csv"
    for argv in (
        ["solve", path, "--engine", "hinted", "--constant", "2"],
        ["solve", path, "--engine", "hinted", "--structural-constant", "2"],
        ["bench", "--wmax-list", "8", "--out", str(out), "--constant", "2"],
    ):
        assert usage_exit_code(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_selftest_quick(capsys):
    assert main(["selftest", "--quick"]) == 0
    assert "ok" in capsys.readouterr().out


def test_selftest_full_run(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok random (300 checks)",
        "ok tie-heavy (300 checks)",
        "ok magnitude (300 checks)",
    ]


def test_selftest_reports_a_wrong_solver(capsys, monkeypatch):
    import knapsolve.selftest

    def off_by_one(items, capacity):
        return knapsolve.selftest.solve_exhaustive(items, capacity) + 1

    solvers = dict(knapsolve.selftest.SOLVERS)
    solvers["proximity"] = off_by_one
    monkeypatch.setattr(knapsolve.selftest, "SOLVERS", tuple(solvers.items()))
    assert main(["selftest", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("FAIL ") and "proximity gave" in line for line in lines)


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "knapsolve", "solve", "-"],
        input=SMALL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "70"
