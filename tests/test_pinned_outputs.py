"""Output bytes pinned across commits by ``tests/output_digests.json``.

A file that moves is named in the failure. A change that moves bytes on
purpose regenerates the manifest with ``python tests/pin_outputs.py`` and
lists the moved files in CHANGES.md.
"""

import json

import pytest

from pin_outputs import MANIFEST, environment, hand_digests, moved, round_trip_digests

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
