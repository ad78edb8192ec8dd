"""Acceptance gate: every headline property at its documented scale.

Each criterion prints one pass/fail line; the suite is the same code the CLI
``selftest`` command runs. Tolerance throughout is exactness over the default
prime (~2^62) under the three-trial agreement policy; a trial disagreement
would raise rather than soften a verdict.
"""

from pathlib import Path

import pytest

from balrig.selftest import CHECKS


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance(name, check):
    passed, detail = check()
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({detail})")
    assert passed, f"{name}: {detail}"


def test_readme_lists_the_checks_in_order():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Acceptance criteria", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines() if line.startswith("|")]
    assert rows[:2] == ["check", "---"]
    assert rows[2:] == [name for name, _ in CHECKS]
