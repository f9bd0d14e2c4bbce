import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torelli3 import cli
from torelli3.lattice import MismatchError, UsageError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_types_counts(capsys):
    code, report, _ = run_cli(capsys, "types")
    assert code == 0
    assert report["ok"] is True
    assert report["verdicts"]["counts"] == [3, 6, 3, 2]
    assert report["verdicts"]["total"] == 14
    assert report["tool"]["name"] == "torelli3"


@pytest.mark.parametrize("dim, count", [(0, 3), (1, 6), (2, 3), (3, 2), (4, 0)])
def test_types_single_dimension(capsys, dim, count):
    code, report, _ = run_cli(capsys, "types", "--dim", str(dim))
    assert code == 0
    assert report["verdicts"]["count"] == count
    assert report["config"] == {"dim": dim}


def test_types_negative_dimension_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "types", "--dim", "-1")
    assert code == 2
    assert report is None
    assert "error" in err


def test_cells_bounds_and_arithmetic(capsys):
    code, report, _ = run_cli(capsys, "cells")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["count"] == 14
    assert verdicts["max_dim_plus_cd"] == 4
    assert "6 − 1 − 3 + 0 = 2" in verdicts["arithmetic"]
    assert "6 − 1 − 2 + 0 = 3" in verdicts["arithmetic"]


def test_ladder_audit(capsys):
    code, report, _ = run_cli(capsys, "ladder", "--mn", "1,1", "--K", "2")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["euler"] == 1
    assert verdicts["psi"] == {"top": 2, "previous": 3, "vertical": 3}
    assert all(verdicts["checks"].values())
    assert report["config"] == {"m": 1, "n": 1, "K": 2}


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "--mn", "1,5", "--K", "3"],
        ["ladder", "--mn", "2,5", "--K", "1"],
        ["ladder", "--mn", "1,4", "--K", "2"],
        ["report", "--mn", "1,5", "--K", "2"],
    ],
)
def test_ladder_truncated_before_its_closing_sheet(capsys, argv):
    """K below t = (n - 1) // m leaves no closing triangle; the top weight
    sum is read off ("R", 0)."""
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["ok"] is True
    m, n = map(int, argv[2].split(","))
    verdicts = report["verdicts"]
    if argv[0] == "report":
        verdicts = verdicts["ladder"]["verdicts"]
    assert verdicts["euler"] == 1
    assert (verdicts["psi"]["top"], verdicts["psi"]["previous"]) == (m + n, 2 * m + n)
    assert all(verdicts["checks"].values())


def test_ladder_rejects_malformed_weights(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["ladder", "--mn", "7"])
    assert info.value.code == 2


def test_ladder_rejects_zero_weight(capsys):
    code, report, err = run_cli(capsys, "ladder", "--mn", "0,1")
    assert code == 2
    assert report is None
    assert "positive" in err


def test_check_d31_injective(capsys):
    code, report, _ = run_cli(capsys, "check", "d31", "--K", "5")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["orbits"] == 2
    assert verdicts["columns"] == 10
    assert verdicts["rank"] == 10
    assert verdicts["injective"] is True


def test_check_d22_trivial_kernel(capsys):
    code, report, _ = run_cli(capsys, "check", "d22", "--mn", "1,2", "--K", "2")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["kernel_rank"] == 0
    assert verdicts["separation"] is True
    assert verdicts["basis"] > 0


def test_check_d22_height_cap_is_usage_error(capsys):
    code, report, err = run_cli(capsys, "check", "d22", "--height", "0")
    assert code == 2
    assert report is None
    assert "height" in err


def test_check_d13_kernel_matches_type_counts(capsys):
    code, report, _ = run_cli(capsys, "check", "d13")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["counts"] == {"a": 2, "b": 1, "c": 1}
    assert verdicts["kernel_rank"] == 6
    assert verdicts["kernel_rank"] == verdicts["expected_rank"]


def test_check_d13_tilde_kernel_one_per_splitting(capsys):
    code, report, _ = run_cli(capsys, "check", "d13-tilde")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["counts"] == {"1": 1, "2": 1, "3": 1, "4": 1}
    assert verdicts["kernel_rank"] == 4


def test_check_d13_over_the_whole_bound_1_family(capsys, monkeypatch):
    from torelli3.specseq import SparseIntMatrix

    def refuse(self):
        raise AssertionError("dense kernel vectors built")

    monkeypatch.setattr(SparseIntMatrix, "kernel_vectors", refuse)
    code, report, _ = run_cli(capsys, "check", "d13", "--bound", "1")
    assert code == 0
    assert report["config"] == {"target": "d13", "bound": 1}
    verdicts = report["verdicts"]
    want = cli.load_expectations()["check"]["d13"]["bound"]["1"]
    assert verdicts["splittings"] == 12657
    assert verdicts["counts"] == want["counts"] == {"a": 1297, "b": 5392, "c": 5968}
    assert verdicts["kernel_rank"] == want["kernel_rank"] == 24017


def test_bound_1_letters_recounted_from_decompose():
    # the letter counts the nonzero components of x = a1, not the classifier
    from oracles import decompose
    from torelli3.lattice import A1, enumerate_splittings

    counts = {"a": 0, "b": 0, "c": 0}
    for s in enumerate_splittings(1):
        touched = sum(1 for comp in decompose(s, A1) if not comp.is_zero())
        counts["abc"[touched - 1]] += 1
    want = cli.load_expectations()["check"]["d13"]["bound"]["1"]
    assert counts == want["counts"]
    assert counts["a"] + 2 * counts["b"] + 2 * counts["c"] == want["kernel_rank"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "d13", "--bound", "2"], "error: --bound 2 is above the limit 1"),
        (["check", "d31", "--bound", "1"], "error: --bound applies to check d13 only"),
    ],
    ids=["above-limit", "other-target"],
)
def test_bound_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    from torelli3 import lattice

    def refuse(*args):
        raise AssertionError("splittings were enumerated")

    monkeypatch.setattr(lattice, "_splittings_cached", refuse)
    monkeypatch.setattr(cli, "enumerate_splittings", refuse)
    code, report, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE == 2
    assert report is None
    assert err.startswith(message)


@pytest.mark.parametrize("target", ["d13", "d13-tilde"])
def test_kernel_pattern_mismatch_is_a_failed_check(capsys, monkeypatch, target):
    from torelli3 import specseq

    monkeypatch.setattr(specseq, "_kernel_matches_pattern", lambda *args: False)
    code, report, _ = run_cli(capsys, "check", target)
    assert code == 1
    assert report["ok"] is False
    assert "pattern" in report["verdicts"]["error"]
    assert "kernel_rank" not in report["verdicts"]


def test_kernel_pattern_mismatch_fails_the_report(capsys, monkeypatch):
    from torelli3 import specseq

    monkeypatch.setattr(specseq, "_kernel_matches_pattern", lambda *args: False)
    code, report, _ = run_cli(capsys, "report", "--K", "2")
    assert code == 1
    assert report["ok"] is False
    sections = report["verdicts"]
    assert sections["d13"]["ok"] is False
    assert sections["d13-tilde"]["ok"] is False
    assert sections["d31"]["ok"] is True


@pytest.mark.parametrize(
    "argv", [["ladder"], ["report", "--K", "2"]], ids=["ladder", "report"]
)
def test_internal_inconsistency_is_its_own_exit_code(capsys, monkeypatch, argv):
    from torelli3.cycles import InternalInconsistencyError

    def contradict(*args):
        raise InternalInconsistencyError("cell R[0] faces drifted")

    monkeypatch.setattr(cli, "run_ladder", contradict)
    code, report, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INTERNAL == 3
    assert report is None
    assert err.startswith("error: cell R[0] faces drifted")


@pytest.mark.parametrize(
    "argv", [["ladder"], ["report", "--K", "2"]], ids=["ladder", "report"]
)
def test_internal_assertion_is_an_internal_error(capsys, monkeypatch, argv):
    def contradict(*args):
        raise AssertionError("components do not sum to x")

    monkeypatch.setattr(cli, "run_ladder", contradict)
    code, report, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_INTERNAL == 3
    assert report is None
    assert err.startswith("error: components do not sum to x")


@pytest.mark.parametrize(
    "argv",
    [["ladder"], ["check", "d22"], ["report"], ["check", "d31"]],
    ids=["ladder", "check", "report", "check-d31"],
)
def test_window_above_the_bound_is_refused_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_run_command", refuse)
    for K, message in [(cli.MAX_K + 1, "is above the limit"), (0, "is below 1"), (-5, "is below 1")]:
        code, report, err = run_cli(capsys, *argv, "--K", str(K))
        assert code == cli.EXIT_USAGE == 2
        assert report is None
        assert err.startswith(f"error: --K {K} {message}")


@pytest.mark.parametrize(
    "error, code",
    [
        (KeyError("orbit"), 3),
        (ArithmeticError("unexpected torsion"), 3),
        (AssertionError(), 3),
        (UsageError("dimension must be nonnegative"), 2),
        (MismatchError("kernel does not match the expected pattern"), 1),
    ],
    ids=["key", "arithmetic", "bare-assertion", "usage", "mismatch"],
)
def test_exit_code_is_read_off_the_error(capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "run_types", fail)
    got, report, err = run_cli(capsys, "types")
    assert got == code
    assert report is None
    assert err == f"error: {str(error) or type(error).__name__}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ladder", "--mn", "2,4"], "coprime"),
        (["check", "d13", "--bound", "0"], "coefficient bound must be at least 1"),
    ],
    ids=["ladder-not-coprime", "bound-0"],
)
def test_usage_error_from_a_suite_exits_2(capsys, argv, message):
    code, report, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE == 2
    assert report is None
    assert message in err


def test_mismatch_keeps_its_report_and_only_it_is_caught(capsys, monkeypatch):
    def mismatch(src):
        raise MismatchError("kernel misses its pattern at ('a', 0)")

    monkeypatch.setattr(cli, "e2_13_kernel", mismatch)
    code, report, _ = run_cli(capsys, "check", "d13")
    assert code == cli.EXIT_MISMATCH == 1
    assert report["ok"] is False
    assert report["verdicts"]["error"] == "kernel misses its pattern at ('a', 0)"

    def usage(src):
        raise UsageError("source must be the plain (1, 3) truncation")

    monkeypatch.setattr(cli, "e2_13_kernel", usage)
    code, report, err = run_cli(capsys, "check", "d13")
    assert code == cli.EXIT_USAGE == 2
    assert report is None
    assert err.startswith("error: source must be the plain")


def test_kernel_table(capsys):
    code, report, _ = run_cli(capsys, "kernel")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["rows"] == 14
    assert verdicts["tilde_0_4_zero"] is True
    assert len(verdicts["bounds"]) == 14


def test_smodule_structure(capsys):
    code, report, _ = run_cli(capsys, "smodule")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["rank"] == 2
    assert verdicts["invariant_factors"] == [1, 1, 1, 1]
    assert verdicts["torsion_free"] is True
    assert verdicts["equivariant"] is True
    assert verdicts["diagonal_collapses"] is True


def test_lantern_default(capsys):
    code, report, _ = run_cli(capsys, "lantern")
    assert code == 0
    verdicts = report["verdicts"]
    assert verdicts["configs"] == 5
    assert verdicts["translated"] == 0
    assert verdicts["all_pass"] is True


def test_lantern_seed_reproducible(capsys):
    code1, first, _ = run_cli(capsys, "lantern", "--seed", "11")
    code2, second, _ = run_cli(capsys, "lantern", "--seed", "11")
    assert code1 == code2 == 0
    assert first["verdicts"] == second["verdicts"]
    assert first["verdicts"]["configs"] == 10
    assert first["verdicts"]["translated"] == 5
    assert first["verdicts"]["all_pass"] is True


def test_json_file_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "kernel", "--json", str(target))
    assert code == 0
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    assert on_disk["verdicts"] == report["verdicts"]
    assert on_disk["command"] == "kernel"


def test_unwritable_json_path_is_an_internal_error(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, report, err = run_cli(capsys, "kernel", "--json", str(target))
    assert code == cli.EXIT_INTERNAL == 3
    assert report["ok"] is True
    assert err.startswith("error: [Errno 2]")


def test_report_aggregates_every_suite(capsys):
    code, report, _ = run_cli(capsys, "report", "--K", "2", "--seed", "3")
    assert code == 0
    sections = report["verdicts"]
    assert sorted(sections) == [
        "cells",
        "d13",
        "d13-tilde",
        "d22",
        "d31",
        "kernel",
        "ladder",
        "lantern",
        "smodule",
        "types",
    ]
    assert all(section["ok"] for section in sections.values())
    assert report["config"]["K"] == 2


def counting_builds(monkeypatch):
    """The ladders ``cli.build_ladder`` returns from now on, in order."""
    built = []
    build = cli.build_ladder

    def counting(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_ladder", counting)
    return built


@pytest.mark.parametrize(
    "argv", [["report"], ["check", "d22"], ["ladder"]], ids=["report", "check-d22", "ladder"]
)
def test_each_run_builds_one_ladder(capsys, monkeypatch, argv):
    built = counting_builds(monkeypatch)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["ok"] is True
    assert len(built) == 1


def test_no_ladder_outlives_its_report(capsys, monkeypatch):
    built = counting_builds(monkeypatch)
    reports = []
    for _ in range(2):
        code, report, _ = run_cli(capsys, "report")
        assert code == 0
        report.pop("timing")
        reports.append(report)
    assert reports[0] == reports[1]
    assert len(built) == 2 and built[0] is not built[1]


def test_reports_deterministic_modulo_timing(capsys):
    _, first, _ = run_cli(capsys, "cells")
    _, second, _ = run_cli(capsys, "cells")
    first.pop("timing")
    second.pop("timing")
    assert first == second


GOLDEN_REPORT = Path(__file__).resolve().parent.parent / "perfbench" / "golden_report.json"


def without_seeds(node):
    """The JSON tree with the ``seed`` entry of every ``config`` removed."""
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if key == "config" and isinstance(value, dict):
                value = {k: v for k, v in value.items() if k != "seed"}
            out[key] = without_seeds(value)
        return out
    if isinstance(node, list):
        return [without_seeds(v) for v in node]
    return node


def test_report_matches_golden_outside_timing(capsys):
    code, report, _ = run_cli(capsys, "report", "--seed", "1")
    assert code == 0
    report.pop("timing")
    got = json.dumps(without_seeds(report), indent=2, sort_keys=True, ensure_ascii=False)
    assert got == GOLDEN_REPORT.read_text(encoding="utf-8").rstrip("\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert "torelli3" in capsys.readouterr().out


def test_log_environment_variable():
    # the child imports the package from where the tests found it
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TORELLI3_LOG="info", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "torelli3.cli", "types"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "census counts" in proc.stderr


def test_default_path_leaves_logging_unimported():
    # only TORELLI3_LOG sets up logging, so a run without it never loads it
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "TORELLI3_LOG"}
    env["PYTHONPATH"] = package_root
    code = (
        "import sys, torelli3.cli as cli; imported = 'logging' in sys.modules; "
        "cli.main(['types']); print(imported, 'logging' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "False False"


def test_python_m_torelli3_runs_the_cli_from_a_checkout():
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "TORELLI3_LOG"}
    env["PYTHONPATH"] = package_root
    proc = subprocess.run(
        [sys.executable, "-m", "torelli3", "types"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdicts"]["counts"] == [3, 6, 3, 2]
    # importing the entry module, as the bench harness's set-up probe does, runs nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import torelli3.__main__"], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_expectations_load():
    exp = cli.load_expectations()
    assert exp["version"] == 1
    assert exp["types"]["counts"] == [3, 6, 3, 2]
