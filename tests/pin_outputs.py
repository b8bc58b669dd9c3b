"""SHA-256 digests of the command line's output bytes, and the manifest that pins them.

Run ``python tests/pin_outputs.py`` from the repository root to rewrite
``tests/output_digests.json``. It runs, in a temporary directory:

- a small seeded round trip: ``synth``, ``build`` at ``--workers 1`` and at
  ``--workers 2``, ``classify`` and ``evaluate``; its root archives every
  cluster, so neither build forks;
- a seeded ``synth``, ``build`` at ``--workers 1`` and at ``--workers 2``, and
  ``classify`` of eight overlapping, noisy classes, whose archive holds ten
  signatures, so that the NNLS projection meets passive sets of many sizes;
  its root splits into two mixed clusters, so the ``--workers 2`` build
  builds their subtrees in forked workers;
- ``evaluate`` on two hand-written prediction/truth pairs.

It records the digest of every output file and the environment the digests
were made in. ``tests/test_pinned_outputs.py`` recomputes them, names every
file that moved, and checks that each ``--workers 2`` build (``*.w2.*``)
wrote its ``--workers 1`` twin's bytes. A change that moves bytes on purpose
rewrites the manifest in the same commit.

The hand cases' outputs come from pure Python and hold anywhere. The round
trip goes through BLAS and LAPACK kernels, whose bits can differ between CPU
kernels and library versions, so its digests are compared only in the
recorded environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "output_digests.json"
_SRC = Path(__file__).resolve().parent.parent / "src"

ROUND_TRIP = (
    ("synth", "--n-features", "24", "--n-classes", "3", "--samples-per-class", "20",
     "--overlap", "0.1", "--noise", "0.02", "--seed", "11"),
    ("build", "--features", "features.csv", "--labels", "labels.csv",
     "--archive", "arc.json", "--k-min", "1", "--k-max", "5",
     "--n-perturbations", "6", "--min-cluster-size", "5", "--seed", "0",
     "--workers", "1"),
    ("build", "--features", "features.csv", "--labels", "labels.csv",
     "--archive", "arc.w2.json", "--k-min", "1", "--k-max", "5",
     "--n-perturbations", "6", "--min-cluster-size", "5", "--seed", "0",
     "--workers", "2"),
    ("classify", "--archive", "arc.json", "--features", "features.csv",
     "--output", "predictions.csv", "--threshold", "0.95"),
    ("evaluate", "--predictions", "predictions.csv", "--truth", "truth.csv",
     "--report", "report.json"),
)
ROUND_TRIP_OUTPUTS = ("features.csv", "labels.csv", "truth.json", "arc.json",
                      "arc.report.json", "arc.w2.json", "arc.w2.report.json",
                      "predictions.csv", "report.json", "report.curve.csv")
MANY_SIGNATURES = (
    ("synth", "--n-features", "32", "--n-classes", "8", "--samples-per-class", "12",
     "--overlap", "0.3", "--noise", "0.1", "--seed", "12"),
    ("build", "--features", "features.csv", "--labels", "labels.csv",
     "--archive", "arc.json", "--k-min", "1", "--k-max", "9",
     "--n-perturbations", "4", "--min-cluster-size", "4", "--seed", "0"),
    ("build", "--features", "features.csv", "--labels", "labels.csv",
     "--archive", "arc.w2.json", "--k-min", "1", "--k-max", "9",
     "--n-perturbations", "4", "--min-cluster-size", "4", "--seed", "0",
     "--workers", "2"),
    ("classify", "--archive", "arc.json", "--features", "features.csv",
     "--output", "predictions.csv", "--threshold", "0.95"),
)
MANY_SIGNATURES_OUTPUTS = ("arc.json", "arc.report.json", "arc.w2.json", "arc.w2.report.json",
                           "predictions.csv")

_PREDICTION_HEADER = "sample_id,decision,label,score,attribution\n"
HAND_CASES = {
    # the four-sample AURC case: exact integral 11/96
    "hand4": (_PREDICTION_HEADER
              + "a,classified,x,0.9,root/k2/c0\nb,classified,x,0.8,root/k2/c0\n"
                "c,classified,x,0.7,root/k2/c0\nd,classified,x,0.6,root/k2/c0\n",
              "sample_id,label,novel\na,x,0\nb,x,0\nc,y,0\nd,x,0\n"),
    # a rejected novel sample and a negative-zero score
    "hand3": (_PREDICTION_HEADER
              + "a,classified,x,0.99,root/k2/c0\nb,classified,y,-0.0,root/k2/c1\n"
                "c,rejected,x,0.3,root/k2/c0\n",
              "sample_id,label,novel\na,x,0\nb,y,0\nc,z,1\n"),
}
HAND_OUTPUTS = ("report.json", "report.curve.csv")


def environment() -> dict[str, str]:
    """What the round trip's bits depend on besides the sources."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _run(args, cwd: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(_SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "sigarchive.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr}")


def _digests(root: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}


def round_trip_digests(root: Path) -> dict[str, str]:
    """Digests of both round trips' outputs, written under ``root``; the
    many-signature trip's names start with ``many/``."""
    for args in ROUND_TRIP:
        if args[0] == "evaluate":  # truth table: every training label, none novel
            lines = (root / "labels.csv").read_text().splitlines()[1:]
            (root / "truth.csv").write_text(
                "sample_id,label,novel\n" + "".join(f"{line},0\n" for line in lines))
        _run(args, root)
    many = root / "many"
    many.mkdir()
    for args in MANY_SIGNATURES:
        _run(args, many)
    return {**_digests(root, ROUND_TRIP_OUTPUTS),
            **{f"many/{n}": d for n, d in _digests(many, MANY_SIGNATURES_OUTPUTS).items()}}


def hand_digests(root: Path) -> dict[str, str]:
    """Digests of ``evaluate``'s outputs on each hand case, written under ``root``."""
    out = {}
    for name, (predictions, truth) in HAND_CASES.items():
        case = root / name
        case.mkdir()
        (case / "p.csv").write_text(predictions)
        (case / "t.csv").write_text(truth)
        _run(("evaluate", "--predictions", "p.csv", "--truth", "t.csv",
              "--report", "report.json"), case)
        out.update({f"{name}/{n}": d for n, d in _digests(case, HAND_OUTPUTS).items()})
    return out


def moved(pinned: dict[str, str], current: dict[str, str]) -> list[str]:
    """Every file whose digest differs from the pinned one, or is on one side only."""
    return sorted(n for n in pinned.keys() | current.keys() if pinned.get(n) != current.get(n))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "trip").mkdir()
        (root / "hand").mkdir()
        doc = {"environment": environment(),
               "round_trip": round_trip_digests(root / "trip"),
               "hand": hand_digests(root / "hand")}
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
