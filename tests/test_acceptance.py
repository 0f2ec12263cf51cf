"""Acceptance gate: every criterion runs at its stated tolerance.

Each test runs the bundled check through verify.run_all (the same code
`coordsim verify` runs), prints its one-line verdict, and asserts it passed.
The suite is seeded end to end, so a failure is a behaviour change, not
noise.
"""

import pytest

from coordsim import verify


@pytest.mark.parametrize("criterion", verify.criterion_ids())
def test_acceptance(criterion):
    [result] = verify.run_all([criterion])
    status = "PASS" if result.passed else "FAIL"
    print(f"{criterion}: {status} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{criterion} failed: {result.detail}"


def test_every_criterion_has_a_check():
    assert verify.criterion_ids() == tuple(f"AC{i}" for i in range(1, 10))
