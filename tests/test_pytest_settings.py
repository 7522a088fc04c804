"""The suite's pytest settings report a failing property test as a failure."""

import pathlib
import tomllib

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_a_failure_not_an_internal_error(pytester):
    # Under filterwarnings = error, a DeprecationWarning that hypothesis sets
    # off while building its failure report ends the run in INTERNALERROR
    # unless pyproject.toml ignores it.
    warnings = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {w}\n" for w in warnings))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(n):
            assert False
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
