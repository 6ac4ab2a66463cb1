"""Unit tests for extraction-rule caching (Section 6.6, repro.core.rules)."""

import pytest

from repro.core.rules import ExtractionRule, RuleStore, StaleRuleError
from repro.tree.builder import parse_document

PAGE = (
    "<html><head><title>t</title></head><body>"
    "<p>nav</p><table><tr><td>a</td></tr><tr><td>b</td></tr></table>"
    "</body></html>"
)


@pytest.fixture
def tree():
    return parse_document(PAGE)


@pytest.fixture
def rule():
    return ExtractionRule(
        site="example.com",
        subtree_path="html[1].body[2].table[2]",
        separator="tr",
    )


class TestExtractionRule:
    def test_apply_resolves_subtree(self, tree, rule):
        node = rule.apply(tree)
        assert node.name == "table"

    def test_apply_raises_on_missing_path(self, rule):
        redesigned = parse_document("<body><div>new layout</div></body>")
        with pytest.raises(StaleRuleError):
            rule.apply(redesigned)

    def test_apply_raises_when_separator_gone(self, rule):
        page = PAGE.replace("<tr><td>a</td></tr><tr><td>b</td></tr>", "<caption>x</caption>")
        with pytest.raises(StaleRuleError):
            rule.apply(parse_document(page))

    def test_stale_rule_error_is_lookup_error(self):
        assert issubclass(StaleRuleError, LookupError)


class TestRuleStore:
    def test_put_get(self, rule):
        store = RuleStore()
        store.put(rule)
        assert store.get("example.com") is rule
        assert "example.com" in store
        assert len(store) == 1

    def test_get_missing_returns_none(self):
        assert RuleStore().get("nowhere") is None

    def test_invalidate(self, rule):
        store = RuleStore()
        store.put(rule)
        store.invalidate("example.com")
        assert store.get("example.com") is None

    def test_invalidate_missing_is_noop(self):
        RuleStore().invalidate("nowhere")

    def test_replace_rule(self, rule):
        store = RuleStore()
        store.put(rule)
        newer = ExtractionRule("example.com", "html[1].body[2]", "p")
        store.put(newer)
        assert store.get("example.com") is newer

    def test_sites_sorted(self, rule):
        store = RuleStore()
        store.put(rule)
        store.put(ExtractionRule("aaa.com", "html[1]", "p"))
        assert store.sites() == ["aaa.com", "example.com"]


class TestRuleStoreAsRuleSource:
    def test_lease_elects_a_learner_only_without_a_rule(self, rule):
        store = RuleStore()
        assert store.lease("example.com").learner
        store.put(rule)
        lease = store.lease("example.com")
        assert not lease.learner and lease.rule is rule

    def test_report_stale_invalidates_only_the_stored_rule(self, rule):
        store = RuleStore()
        newer = ExtractionRule("example.com", "html[1].body[2]", "p")
        store.put(newer)
        assert store.report_stale("example.com", rule) is False
        assert store.get("example.com") is newer
        assert store.report_stale("example.com", newer) is True
        assert store.get("example.com") is None

    def test_publish_stores_and_abstention_stores_nothing(self, rule):
        store = RuleStore()
        store.publish("example.com", None)
        store.abort("example.com")
        assert len(store) == 0
        store.publish("example.com", rule)
        assert store.get("example.com") is rule

    def test_offer_has_no_abstention_to_upgrade(self, rule):
        store = RuleStore()
        assert store.offer("example.com", rule) is False
        assert store.get("example.com") is None


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path, rule):
        path = tmp_path / "rules.json"
        store = RuleStore()
        store.put(rule)
        store.save(path)

        loaded = RuleStore(path)
        restored = loaded.get("example.com")
        assert restored == rule

    def test_store_with_path_autoloads(self, tmp_path, rule):
        path = tmp_path / "rules.json"
        first = RuleStore(path)
        first.put(rule)
        first.save()
        second = RuleStore(path)
        assert len(second) == 1

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            RuleStore().save()

    def test_load_without_path_raises(self):
        with pytest.raises(ValueError):
            RuleStore().load()

    def test_missing_file_starts_empty(self, tmp_path):
        store = RuleStore(tmp_path / "nonexistent.json")
        assert len(store) == 0
