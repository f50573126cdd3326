"""The derivation battery: every scenario must reproduce its golden fact set."""
import json

import pytest

from golden_scenarios import GOLDEN_DIR, SCENARIOS, run_scenario, snapshot


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_golden_scenario(name):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    report, _registry = run_scenario(name)
    assert snapshot(report) == expected
