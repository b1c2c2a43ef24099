"""Unit tests for the no-matrix-densify rule."""

from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.densify import NoMatrixDensifyRule

from tests.analysis.conftest import check_snippet


class TestNoMatrixDensify:
    def test_flags_todense_calls(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            import numpy as np

            def f(matrix):
                dense = np.asarray(matrix.todense())
                return dense
            """,
        )
        assert len(findings) == 1
        assert "toarray" in findings[0].message

    def test_flags_uncalled_attribute_too(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            def f(matrix):
                densify = matrix.todense
                return densify()
            """,
        )
        assert len(findings) == 1

    def test_toarray_is_fine(self):
        findings = check_snippet(
            NoMatrixDensifyRule(),
            """
            def f(matrix):
                return matrix.toarray()
            """,
        )
        assert findings == []

    def test_registered(self):
        assert NoMatrixDensifyRule in ALL_RULES
        assert NoMatrixDensifyRule.id == "no-matrix-densify"
