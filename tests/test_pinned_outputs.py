"""Output bytes pinned across commits by ``tests/output_digests.json``.

A file that moves is named in the failure. A change that moves bytes on
purpose regenerates the manifest with ``python tests/pin_outputs.py`` and
lists the moved files in CHANGES.md.
"""

import json

import pytest

from pin_outputs import MANIFEST, environment, hand_digests, moved, round_trip_digests

PINNED = json.loads(MANIFEST.read_text())


def test_hand_case_outputs_are_pinned(tmp_path):
    changed = moved(PINNED["hand"], hand_digests(tmp_path))
    assert not changed, f"output bytes moved: {changed}"


def test_round_trip_outputs_are_pinned(tmp_path):
    changed = moved(PINNED["round_trip"], round_trip_digests(tmp_path))
    here = environment()
    if here != PINNED["environment"]:
        # BLAS and LAPACK bits may differ here; report, never pass silently
        pytest.skip(f"manifest made under {PINNED['environment']}, this run under "
                    f"{here}; files that differ here: {changed or 'none'}")
    assert not changed, f"output bytes moved: {changed}"
