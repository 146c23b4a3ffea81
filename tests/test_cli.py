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


def test_generate_cuda_backend(capsys):
    main(["generate", "--problem", "burgers1d", "--backend", "cuda",
          "--kind", "adjoint"])
    out = capsys.readouterr().out
    assert "__global__" in out


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
        "sweep", "--quick", "--problem", "heat1d", "--n", "16",
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
    assert [r["member"] for r in record["member_results"]] == list(range(6))
    # members cycle over the grid: 0,2,4 -> alpha=0.1; 1,3,5 -> alpha=0.2
    assert record["member_results"][0]["params"] == {"alpha": 0.1}
    assert record["member_results"][1]["params"] == {"alpha": 0.2}
    for member in record["member_results"]:
        assert member["gradients"]["u_1_b"] > 0
    assert record["ensemble_us_per_member_step"] > 0
    out = capsys.readouterr().out
    assert "throughput" in out and "bitwise=ok" in out


def test_sweep_rejects_unknown_parameter(capsys):
    assert main([
        "sweep", "--quick", "--problem", "heat1d", "--members", "2",
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
            "sweep", "--quick", "--problem", "heat1d", "--n", "16",
            "--members", "4", "--backend", "native",
            "--output", str(out_file),
        ]) == 0
    record = json.loads(out_file.read_text())
    assert record["backend"] == "native"
    assert record["bitwise_identical"] is True
    # no toolchain: every statement ran batched python, none native
    assert record["groups"][0]["native_statements"] == 0
    assert record["groups"][0]["batched_statements"] > 0


def test_adjoint_writes_checkpoint_record(tmp_path, capsys):
    import json

    out_file = tmp_path / "BENCH_checkpoint.json"
    assert main([
        "adjoint", "--problem", "heat1d", "--n", "14", "--steps", "6",
        "--snaps", "2", "--reps", "1", "--output", str(out_file),
    ]) == 0
    record = json.loads(out_file.read_text())
    assert record["benchmark"] == "checkpointed_adjoint"
    assert record["bitwise_identical"] is True
    assert record["forward_steps_per_sweep"] == record["predicted_forward_steps"]
    assert record["memory_ratio"] <= 2 / 6 + 1e-9
    out = capsys.readouterr().out
    assert "bitwise=ok" in out


def test_adjoint_ensemble_members(tmp_path):
    import json

    out_file = tmp_path / "BENCH_checkpoint.json"
    assert main([
        "adjoint", "--problem", "burgers1d", "--n", "20", "--steps", "5",
        "--snaps", "2", "--members", "3", "--reps", "1",
        "--output", str(out_file),
    ]) == 0
    record = json.loads(out_file.read_text())
    assert record["members"] == 3
    assert record["bitwise_identical"] is True


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_problem_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "--problem", "nosuch"])
