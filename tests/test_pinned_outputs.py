"""Output bytes pinned across commits by ``tests/output_digests.json``.

A file that moves is named in the failure. A change that moves bytes on
purpose regenerates the manifest with ``python tests/pin_outputs.py`` and
lists the moved files in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from pin_outputs import (MANIFEST, ROUND_TRIP, _run, environment, hand_digests, moved,
                         round_trip_digests)

from sigarchive import cli, dataio

PINNED = json.loads(MANIFEST.read_text())
WORKERS_2 = {"arc.w2.json", "arc.w2.report.json", "many/arc.w2.json", "many/arc.w2.report.json"}


def assert_workers_2_wrote_the_serial_bytes(digests: dict[str, str]) -> None:
    """Every ``--workers 2`` output in ``digests`` has its ``--workers 1`` twin's digest."""
    forked = {n: d for n, d in digests.items() if ".w2." in n}
    assert set(forked) == WORKERS_2
    assert forked == {n: digests[n.replace(".w2.", ".")] for n in forked}


def test_manifest_pins_workers_2_builds_with_their_serial_twins():
    assert_workers_2_wrote_the_serial_bytes(PINNED["round_trip"])


def test_hand_case_outputs_are_pinned(tmp_path):
    changed = moved(PINNED["hand"], hand_digests(tmp_path))
    assert not changed, f"output bytes moved: {changed}"


def test_round_trip_outputs_are_pinned(tmp_path):
    current = round_trip_digests(tmp_path)
    assert_workers_2_wrote_the_serial_bytes(current)   # in any environment
    changed = moved(PINNED["round_trip"], current)
    here = environment()
    if here != PINNED["environment"]:
        # BLAS and LAPACK bits may differ here; report, never pass silently
        pytest.skip(f"manifest made under {PINNED['environment']}, this run under "
                    f"{here}; files that differ here: {changed or 'none'}")
    assert not changed, f"output bytes moved: {changed}"


def test_split_read_classify_writes_the_pinned_predictions(tmp_path, monkeypatch):
    # the round trip's classify, in-process, its features table read in three ranges
    synth, build, _, classify, _ = ROUND_TRIP
    for args in (synth, build):
        _run(args, tmp_path)
    monkeypatch.setattr(dataio, "_RANGE_BYTES", 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(classify)) == 0
    assert len(forked) == 3
    digest = hashlib.sha256((tmp_path / "predictions.csv").read_bytes()).hexdigest()
    here = environment()
    if here != PINNED["environment"]:
        pytest.skip(f"manifest made under {PINNED['environment']}, this run under {here}")
    assert digest == PINNED["round_trip"]["predictions.csv"]
