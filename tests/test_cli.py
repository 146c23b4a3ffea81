"""CLI tests."""

import pytest

from repro.cli import main


def test_generate_builtin_c(capsys):
    assert main(["generate", "--problem", "wave1d", "--backend", "c"]) == 0
    out = capsys.readouterr().out
    assert "void wave1d(" in out
    assert "void wave1d_b(" in out


def test_generate_primal_only(capsys):
    main(["generate", "--problem", "heat2d", "--kind", "primal"])
    out = capsys.readouterr().out
    assert "heat2d_b" not in out


def test_generate_adjoint_strategy_and_merge(capsys):
    main(["generate", "--problem", "heat1d", "--kind", "adjoint",
          "--strategy", "guarded", "--no-merge"])
    out = capsys.readouterr().out
    assert "if (" in out


def test_generate_to_file(tmp_path, capsys):
    out_file = tmp_path / "code.c"
    main(["generate", "--problem", "wave1d", "--output", str(out_file)])
    assert "void wave1d(" in out_file.read_text()
    assert capsys.readouterr().out == ""


def test_generate_from_frontend_file(tmp_path, capsys):
    src = tmp_path / "stencil.txt"
    src.write_text(
        "stencil lap1d { iterate i = 1 .. n-2 "
        "  r[i] = u[i-1] - 2*u[i] + u[i+1] }"
    )
    assert main(["generate", "--file", str(src), "--kind", "adjoint"]) == 0
    out = capsys.readouterr().out
    assert "void lap1d_b(" in out
    assert "u_b[i] +=" in out


def test_verify_command(capsys):
    assert main(["verify", "--problem", "burgers1d"]) == 0
    out = capsys.readouterr().out
    assert "all adjoints agree" in out


def test_verify_custom_n(capsys):
    assert main(["verify", "--problem", "heat1d", "--n", "30"]) == 0


def test_verify_native_threads_take_the_openmp_knob(monkeypatch, capsys):
    """``--backend native --threads N`` verifies ``native_threads=N``:
    the worker pool is the python backend's knob, refused on native."""
    from repro.runtime import ExecutionConfig, ExecutionPlan

    configs = []
    real_build = ExecutionPlan.build.__func__

    def spy(cls, kernel, config, shard=None):
        configs.append(config)
        return real_build(cls, kernel, config, shard)

    monkeypatch.setattr(ExecutionPlan, "build", classmethod(spy))
    argv = ["verify", "--problem", "heat2d", "--backend", "native", "--threads", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "  plan [2 thread(s), backend native] vs serial: 0.000e+00" in out
    assert "  scatter plan [2 thread(s), backend native] vs serial: 0.000e+00" in out
    # One config, run on the gather adjoint and on the scatter adjoint.
    assert [c for c in configs if c.backend == "native"] == [
        ExecutionConfig(backend="native", native_threads=2, min_block_iterations=1)
    ] * 2


def test_verify_threads_checks_the_scatter_adjoint(capsys):
    """``verify --threads N`` also runs the conventional scatter adjoint
    through the threaded plan and requires it bitwise equal to serial."""
    assert main(["verify", "--problem", "wave2d", "--threads", "4"]) == 0
    out = capsys.readouterr().out
    assert "  plan [4 thread(s)] vs serial: 0.000e+00" in out
    assert "  scatter plan [4 thread(s)] vs serial: 0.000e+00" in out


def test_figures_single(capsys):
    assert main(["figures", "--figure", "fig10"]) == 0
    out = capsys.readouterr().out
    assert "Runtimes of the Wave Equation on Broadwell" in out
    assert "4.14" in out  # paper value column


def test_figures_all(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for fig in ("fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15"):
        assert fig in out


def test_loop_counts(capsys):
    assert main(["loop-counts"]) == 0
    out = capsys.readouterr().out
    assert "wave3d" in out and "53" in out


def test_sweep_quick_writes_ensemble_record(tmp_path, capsys):
    import json

    out_file = tmp_path / "BENCH_ensemble.json"
    assert main([
        "sweep", "--problem", "heat1d", "--n", "16",
        "--members", "6", "--param", "alpha=0.1,0.2",
        "--output", str(out_file),
    ]) == 0
    record = json.loads(out_file.read_text())
    assert record["benchmark"] == "ensemble_sweep"
    assert record["problem"] == "heat1d"
    assert record["members"] == 6
    assert record["bitwise_identical"] is True
    assert record["param_grid"] == {"alpha": [0.1, 0.2]}
    assert len(record["groups"]) == 2  # one EnsemblePlan per grid point
    assert [g["members"] for g in record["groups"]] == [[0, 2, 4], [1, 3, 5]]
    assert [r["member"] for r in record["member_results"]] == list(range(6))
    # members cycle over the grid: 0,2,4 -> alpha=0.1; 1,3,5 -> alpha=0.2
    assert record["member_results"][0]["params"] == {"alpha": 0.1}
    assert record["member_results"][1]["params"] == {"alpha": 0.2}
    for member in record["member_results"]:
        assert member["gradients"]["u_1_b"] > 0
    # the record is the per-member product, not a timing report
    assert "_us_" not in out_file.read_text()
    assert "time" not in out_file.read_text()
    out = capsys.readouterr().out
    assert "bitwise=ok" in out


def test_sweep_fewer_members_than_grid_points(tmp_path):
    import json

    out_file = tmp_path / "BENCH_ensemble.json"
    assert main([
        "sweep", "--problem", "heat1d", "--n", "16", "--members", "2",
        "--param", "alpha=0.1,0.2,0.3", "--output", str(out_file),
    ]) == 0
    record = json.loads(out_file.read_text())
    assert [g["members"] for g in record["groups"]] == [[0], [1]]


def test_sweep_exits_1_when_a_member_diverges(tmp_path, monkeypatch, capsys):
    """The contract check decides the exit code: one member's result
    differing in one bit from its looped run fails the command."""
    from repro.runtime.ensemble import EnsemblePlan

    real_run = EnsemblePlan.run

    def run_then_corrupt(self):
        real_run(self)
        self.member_arrays(1)["u_1_b"].flat[3] += 1.0

    monkeypatch.setattr(EnsemblePlan, "run", run_then_corrupt)
    assert main([
        "sweep", "--problem", "heat1d", "--n", "16", "--members", "3",
        "--output", str(tmp_path / "BENCH_ensemble.json"),
    ]) == 1
    assert "bitwise=MISMATCH" in capsys.readouterr().out


def test_sweep_rejects_unknown_parameter(capsys):
    assert main([
        "sweep", "--problem", "heat1d", "--members", "2",
        "--param", "nosuch=1.0",
    ]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_sweep_native_backend_falls_back_cleanly(tmp_path, monkeypatch):
    """--backend native without a toolchain falls back, results intact."""
    import json
    import warnings

    monkeypatch.setenv("REPRO_CC", str(tmp_path / "no-such-compiler"))
    out_file = tmp_path / "BENCH_ensemble.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fallback warn-once
        assert main([
            "sweep", "--problem", "heat1d", "--n", "16",
            "--members", "4", "--backend", "native",
            "--output", str(out_file),
        ]) == 0
    record = json.loads(out_file.read_text())
    assert record["backend"] == "native"
    assert record["bitwise_identical"] is True
    # no toolchain: every statement ran batched python, none native
    assert record["groups"][0]["native_statements"] == 0
    assert record["groups"][0]["batched_statements"] > 0


_ADJOINT = ["adjoint", "--problem", "heat1d", "--n", "14", "--steps", "6",
            "--snaps", "2"]


def test_adjoint_prints_checkpoint_verdicts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(_ADJOINT) == 0
    out = capsys.readouterr().out
    assert "bitwise=ok" in out and "FAIL" not in out
    from repro import optimal_cost

    recompute = optimal_cost(6, 2) - 6
    assert f"recompute    {recompute} forward steps (revolve optimum {recompute}," in out
    assert "(0.333x, bound 2/6)" in out
    assert out.endswith("  sweep: per-action — python backend\n")
    assert not list(tmp_path.iterdir())  # a verdict, not a record


def test_adjoint_ensemble_members(capsys):
    assert main([
        "adjoint", "--problem", "burgers1d", "--n", "20", "--steps", "5",
        "--snaps", "2", "--members", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "members=3" in out and "bitwise=ok" in out


def test_adjoint_native_reports_the_program_rung(capsys):
    """The line CI greps: a silent fall to per-action is a performance
    regression no bitwise check sees."""
    from repro.runtime import native_available

    if not native_available():
        pytest.skip("no C toolchain on this machine")
    for extra, tail in (
        ([], "1 call)\n"),
        (["--members", "4", "--workers", "2"], "1 call) x 4 chunks, one join\n"),
    ):
        assert main([*_ADJOINT, "--backend", "native", *extra]) == 0
        out = capsys.readouterr().out
        assert "bitwise=ok" in out
        last = out.splitlines(keepends=True)[-1]
        assert last.startswith("  sweep: program (") and last.endswith(tail)


def test_adjoint_exit_code_follows_each_hard_check(monkeypatch, capsys):
    """Bitwise identity, recompute == revolve optimum and the snapshot
    memory bound each fail the command on their own."""
    from repro.runtime.checkpoint import CheckpointedAdjointPlan as Plan

    real_adjoint = Plan.adjoint

    def flipped(self, *args, **kwargs):
        out = real_adjoint(self, *args, **kwargs)
        next(iter(out.values())).flat[0] += 1.0
        return out

    def one_extra_recompute(self, *args, **kwargs):
        out = real_adjoint(self, *args, **kwargs)
        self.forward_steps += 1
        return out

    for name, patched, message in (
        ("adjoint", flipped, "bitwise=MISMATCH"),
        ("adjoint", one_extra_recompute, "FAIL: 9 forward steps, revolve optimum is 8"),
        ("snapshot_bytes", property(lambda self: 10**9), "FAIL: snapshot memory ratio"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(Plan, name, patched)
            assert main(_ADJOINT) == 1
        assert message in capsys.readouterr().out
    assert main(_ADJOINT) == 0


def test_shard_exits_1_when_a_rank_diverges(monkeypatch, capsys):
    from repro.runtime.distributed import ShardedPlan

    argv = ["shard", "--problem", "heat1d", "--n", "24", "--steps", "2",
            "--ranks", "1", "--ranks", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("forward bitwise OK  adjoint bitwise OK") == 2
    assert "VERDICT: sharded == single-shard, bitwise" in out

    real_gather = ShardedPlan.gather

    def gather_with_rank1_off(self, names=None):
        out = real_gather(self, names)
        if self.nranks == 2 and "u" in out:
            out["u"][-2] = -out["u"][-2]  # a row rank 1 owns
        return out

    monkeypatch.setattr(ShardedPlan, "gather", gather_with_rank1_off)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "ranks=1  forward bitwise OK" in out
    assert "ranks=2  forward bitwise MISMATCH  adjoint bitwise OK" in out
    assert "VERDICT: bitwise contract VIOLATED" in out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_problem_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "--problem", "nosuch"])
