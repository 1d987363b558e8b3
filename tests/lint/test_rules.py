"""Rule regression tests: every rule against its paired fixtures.

Each rule is pointed at its ``<rule>_bad.py`` fixture (every documented
violation pattern must be found, at the marked lines) and its
``<rule>_good.py`` twin (the closest legal spellings must stay
finding-free).  Path scopes are overridden so the fixtures — which live
in the globally excluded ``tests/lint/fixtures/`` — are reachable.
"""

from pathlib import Path

import pytest

from tools.repro_lint import default_config, lint_file

FIXTURES = Path(__file__).parent / "fixtures"
RULES = (
    "async-blocking",
    "slab-mutation",
    "fork-safety",
    "no-sleep-tests",
    "determinism",
)

#: rule → number of distinct violations its bad fixture stages
EXPECTED_BAD_FINDINGS = {
    "async-blocking": 8,
    "slab-mutation": 14,
    "fork-safety": 6,
    "no-sleep-tests": 4,
    "determinism": 10,
}


def _fixture(rule: str, kind: str) -> Path:
    return FIXTURES / f"{rule.replace('-', '_')}_{kind}.py"


def _run_rule_on(rule: str, path: Path):
    """Lint *path* with only *rule* enabled and its scope forced open."""
    config = (
        default_config()
        .select([rule])
        .override(rule, paths=("",), excludes=())
    )
    config = config.__class__(scopes=config.scopes, global_excludes=())
    return lint_file(path, config, root=path.parent)


class TestBadFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_every_staged_violation_is_found(self, rule):
        findings = _run_rule_on(rule, _fixture(rule, "bad"))
        assert len(findings) == EXPECTED_BAD_FINDINGS[rule], [
            finding.render() for finding in findings
        ]
        assert all(finding.rule == rule for finding in findings)

    @pytest.mark.parametrize("rule", RULES)
    def test_findings_land_on_the_marked_lines(self, rule):
        """Every staged violation carries a ``# BAD`` marker on its
        line (or its enclosing statement's line for multi-line
        patterns); every finding must hit a marked region."""
        path = _fixture(rule, "bad")
        lines = path.read_text().splitlines()
        marked = {
            number
            for number, line in enumerate(lines, start=1)
            if "BAD" in line
        }
        for finding in _run_rule_on(rule, path):
            # A finding anchors on the statement; the marker sits on the
            # anchor line or within the following two physical lines
            # (decorated / multi-line statements).
            window = {finding.line, finding.line + 1, finding.line + 2}
            assert window & marked, finding.render()

    def test_bad_fixture_lines_are_exact_for_sleep(self):
        findings = _run_rule_on(
            "no-sleep-tests", _fixture("no-sleep-tests", "bad")
        )
        sleeps = [f for f in findings if "time.sleep" in f.message]
        assert [f.line for f in sleeps] == [9, 14]


class TestGoodFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_legal_spellings_stay_clean(self, rule):
        findings = _run_rule_on(rule, _fixture(rule, "good"))
        assert findings == [], [finding.render() for finding in findings]


class TestDeterminismBudgetHookScoping:
    """The batch-major helpers of ISSUE 9 must stay outside the
    sanctioned monotonic-clock hooks: phase timing is read only in the
    ``search_many`` loop body, never in the bookkeeping it calls."""

    def test_batch_helpers_are_not_sanctioned_hooks(self):
        from tools.repro_lint.rules.determinism import _BUDGET_HOOKS

        assert "S3kSearch.search_many" in _BUDGET_HOOKS
        for helper in (
            "S3kSearch.search",  # a batch of one: reads no clock itself
            "S3kSearch._update_bounds",
            "S3kSearch._clean",
            "S3kSearch._stop_screen",
            "S3kSearch._stop_replay_positions",
            "S3kSearch._absorb_discovery",
            "S3kSearch._assemble",
        ):
            assert helper not in _BUDGET_HOOKS

    def test_helper_nested_inside_a_hook_is_still_flagged(self, tmp_path):
        # innermost-def attribution: a def nested in search_many has its
        # own qualname and is not sanctioned by the enclosing hook
        path = tmp_path / "kernel.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "class S3kSearch:\n"
            "    def search_many(self, queries):\n"
            "        def tick():\n"
            "            return time.perf_counter()\n"
            "        return [tick() for _ in queries]\n"
        )
        findings = _run_rule_on("determinism", path)
        assert len(findings) == 1
        assert "tick" in findings[0].message

    def test_clock_read_in_hook_body_stays_clean(self, tmp_path):
        path = tmp_path / "kernel.py"
        path.write_text(
            "import time\n"
            "\n"
            "\n"
            "class S3kSearch:\n"
            "    def search_many(self, queries):\n"
            "        started = time.perf_counter()\n"
            "        return time.perf_counter() - started\n"
        )
        assert _run_rule_on("determinism", path) == []


class TestRuleMetadata:
    def test_all_five_rules_are_registered(self):
        from tools.repro_lint import registered_rules

        assert set(registered_rules()) == set(RULES)

    @pytest.mark.parametrize("rule", RULES)
    def test_rules_document_themselves(self, rule):
        from tools.repro_lint import registered_rules

        instance = registered_rules()[rule]
        assert instance.description
        assert instance.rationale
        assert instance.default_paths
