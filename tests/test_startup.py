"""Start-up: ``import sigarchive`` and the ``evaluate`` command load no numpy.

Each check runs in a fresh interpreter, since this test session has loaded
numpy long before.
"""

import subprocess
import sys
import textwrap

from conftest import cli_env


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
