"""Unit tests for deterministic-emit."""

from repro.analysis.rules.set_iteration import DeterministicEmitRule

from tests.analysis.conftest import check_snippet


class TestDeterministicEmit:
    def test_flags_for_loop_over_set_literal(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            """
            for item in {1, 2, 3}:
                print(item)
            """,
        )
        assert len(findings) == 1

    def test_flags_list_tuple_enumerate_and_join(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            """
            a = list({1, 2})
            b = tuple(set(xs))
            c = enumerate({s for s in names})
            d = ",".join({"x", "y"})
            """,
        )
        assert len(findings) == 4

    def test_flags_list_comprehension_over_set(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            "out = [f(x) for x in set(xs)]\n",
        )
        assert len(findings) == 1

    def test_order_insensitive_consumers_are_fine(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            """
            a = sorted({3, 1, 2})
            b = len({1, 2})
            c = sum(x for x in {1, 2})
            d = max(set(xs))
            e = any(f(x) for x in {1, 2})
            f2 = sorted(x * 2 for x in {1, 2})
            """,
        )
        assert findings == []

    def test_set_to_set_transforms_are_fine(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            """
            doubled = {x * 2 for x in {1, 2}}
            lookup = {x: x for x in set(xs)}
            """,
        )
        assert findings == []

    def test_plain_variable_iteration_is_out_of_scope(self):
        findings = check_snippet(
            DeterministicEmitRule(),
            """
            for x in xs:
                print(x)
            """,
        )
        assert findings == []
