"""The README walkthrough writes the recorded outputs (tests/walkthrough.py)."""

import json

import pytest

from tests import walkthrough


def test_walkthrough_outputs_match_the_recorded_ones(tmp_path):
    recorded = json.loads(walkthrough.GOLDEN.read_text())
    got = walkthrough.run(tmp_path)
    assert sorted(got["sha256"]) == sorted(recorded["sha256"])
    env = got["environment"]
    if env == recorded["environment"] and "unknown" not in env.values():
        print(f"walkthrough: sha256 of {len(got['sha256'])} files ({env})")
        assert got["sha256"] == recorded["sha256"]
        assert got["numbers"] == recorded["numbers"]
    else:
        print(f"walkthrough: numbers to 1e-9 relative; {env} is not the "
              f"recorded {recorded['environment']}")
        assert got["numbers"] == pytest.approx(recorded["numbers"], rel=1e-9, abs=0)
