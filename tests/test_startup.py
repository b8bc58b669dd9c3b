"""Start-up: each command loads only the modules it runs, and the console
entry point exits with ``main``'s code.

Each import check runs in a fresh interpreter, since this test session has
loaded every module long before.
"""

import atexit
import gc
import subprocess
import sys
import textwrap

import pytest

from conftest import cli_env

from sigarchive import cli

SYNTH = ["synth", "--n-features", "12", "--n-classes", "3", "--samples-per-class", "10",
         "--seed", "3"]
BUILD = ["build", "--features", "features.csv", "--labels", "labels.csv",
         "--archive", "arc.json", "--k-max", "3", "--n-perturbations", "4",
         "--min-cluster-size", "5"]
CLASSIFY = ["classify", "--archive", "arc.json", "--features", "features.csv",
            "--output", "predictions.csv"]


def run_python(code: str, cwd) -> None:
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                            capture_output=True, text=True, cwd=cwd, env=cli_env())
    assert result.returncode == 0, result.stderr


def test_import_and_evaluate_load_no_numpy(tmp_path):
    (tmp_path / "predictions.csv").write_text(
        "sample_id,decision,label,score,attribution\n"
        "a,classified,x,0.9,root/0\n"
        "b,rejected,y,0.4,root/1\n"
        "c,classified,y,0.8,root/1\n")
    (tmp_path / "truth.csv").write_text("sample_id,label,novel\na,x,0\nb,z,1\nc,x,0\n")
    run_python("""
        import sys
        import sigarchive, sigarchive.cli
        assert "numpy" not in sys.modules, "import loaded numpy"
        code = sigarchive.cli.main(["evaluate", "--predictions", "predictions.csv",
                                    "--truth", "truth.csv", "--report", "report.json"])
        assert code == 0, code
        assert "numpy" not in sys.modules, "evaluate loaded numpy"
        assert "logging" not in sys.modules, "evaluate loaded logging"
        """, tmp_path)
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "report.curve.csv").is_file()


def test_star_import_and_dir_cover_every_public_name(tmp_path):
    run_python("""
        import sigarchive
        names = {}
        exec("from sigarchive import *", names)
        missing = [n for n in sigarchive.__all__ if n not in names]
        assert not missing, f"not bound by import *: {missing}"
        assert all(names[n] is getattr(sigarchive, n) for n in sigarchive.__all__)
        unlisted = set(sigarchive.__all__) - set(dir(sigarchive))
        assert not unlisted, f"not in dir(): {sorted(unlisted)}"
        assert not hasattr(sigarchive, "no_such_name")
        """, tmp_path)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding a synthesized table and an archive built from it."""
    root = tmp_path_factory.mktemp("startup")
    run_python(f"""
        from sigarchive import cli
        assert cli.main({SYNTH!r}) == 0
        assert cli.main({BUILD!r}) == 0
        """, root)
    return root


def test_classify_loads_no_rank_selection_metrics_or_logging(built):
    run_python(f"""
        import sys
        from sigarchive import cli
        assert cli.main({CLASSIFY!r}) == 0
        loaded = {{"numpy.random", "sigarchive.rank", "sigarchive.evaluation", "logging",
                  "multiprocessing"}} & set(sys.modules)
        assert not loaded, f"classify loaded {{sorted(loaded)}}"
        """, built)


def test_build_loads_rank_selection(built):
    run_python(f"""
        import sys
        from sigarchive import cli
        assert "sigarchive.rank" not in sys.modules
        assert cli.main({BUILD!r}) == 0
        assert "sigarchive.rank" in sys.modules
        """, built)


def test_run_exits_with_the_code_of_main_and_registers_one_exit_hook(tmp_path, monkeypatch):
    (tmp_path / "predictions.csv").write_text(
        "sample_id,decision,label,score,attribution\na,classified,x,0.9,root/0\n")
    (tmp_path / "truth.csv").write_text("sample_id,label,novel\na,x,0\n")
    monkeypatch.chdir(tmp_path)
    hooks = []
    monkeypatch.setattr(atexit, "register", hooks.append)
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    base = ["evaluate", "--predictions", "predictions.csv", "--report"]
    # 0: written; 1: the report's directory is missing (OSError); 2: no truth file
    for code, argv in ((0, [*base, "report.json", "--truth", "truth.csv"]),
                       (1, [*base, "missing/report.json", "--truth", "truth.csv"]),
                       (2, [*base, "report.json", "--truth", "none.csv"])):
        assert cli.main(argv) == code
        assert hooks == [], "main registered an exit hook"
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        monkeypatch.setattr(sys, "argv", ["sigarchive", *argv])
        with pytest.raises(SystemExit) as stop:
            cli.run()
        assert stop.value.code == code
        assert hooks == [gc.freeze]
        hooks.clear()
