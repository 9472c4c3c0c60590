import pytest

from permutoehr import ehrhart, graphs, verify
from permutoehr.errors import BudgetError


class TestRunAll:
    def test_all_pass_at_small_scale(self):
        results = verify.run_all(max_m=3, max_t=2, seed=0)
        assert results
        failing = [r.name for r in results if not r.passed]
        assert failing == []
        names = {r.name for r in results}
        assert "closed-vs-postnikov" in names
        assert "closed-vs-brute-force" in names
        assert "tree-coefficient-transfer" in names

    def test_lines_are_printable(self):
        for result in verify.run_all(max_m=2, max_t=1, seed=1):
            line = result.line()
            assert line.startswith("PASS ") or line.startswith("FAIL ")

    def test_seed_reproducible(self):
        a = verify.check_transfer_identity(seed=42)
        b = verify.check_transfer_identity(seed=42)
        assert a == b

    def test_oracle_counts_within_the_budget(self):
        # the largest count, at (2, 4, 1), has work bound 192
        assert verify.check_oracle_agreement(2, 1, budget=192).passed
        with pytest.raises(BudgetError, match="= 192 exceeds budget 191"):
            verify.check_oracle_agreement(2, 1, budget=191)

    def test_rejects_bad_max_m(self):
        with pytest.raises(ValueError):
            verify.run_all(max_m=0)

    def test_structure_counts_checked_past_the_listing_bound(self, monkeypatch):
        # the component DP has its own budget; the listing bound m <= 7
        # does not clip the check
        seen, structure_counts = [], graphs.structure_counts

        def counted(m):
            seen.append(m)
            return structure_counts(m)

        monkeypatch.setattr(graphs, "structure_counts", counted)
        lines = [r.line() for r in verify.check_structure_counts(9)]
        assert lines == [
            "PASS structure-counts-closed-forms: m <= 9 match",
            "PASS quasitree-count-vs-series: m <= 9 match",
        ]
        assert seen == list(range(1, 10))


class TestFaultInjection:
    def test_corrupted_double_factorial_is_caught(self, monkeypatch):
        good = ehrhart.double_factorial

        def flipped(k):
            return -good(k)

        monkeypatch.setattr(ehrhart, "double_factorial", flipped)
        results = {r.name: r for r in verify.check_engine_agreement(max_m=3)}
        assert not results["closed-vs-postnikov"].passed

    def test_corrupted_census_is_caught(self, monkeypatch):
        import permutoehr.ehrhart as engine_module

        good = engine_module.graph_census

        def shaved(m, *rest):
            census = dict(good(m, *rest))
            key = next(iter(census))
            census[key] += 1
            return census

        monkeypatch.setattr(engine_module, "graph_census", shaved)
        results = {r.name: r for r in verify.check_engine_agreement(max_m=3)}
        assert not results["closed-vs-graphsum"].passed

    def test_listing_mismatch_is_caught(self, monkeypatch):
        good = graphs.enumerate_sequences

        def short(m):
            return list(good(m))[:-1]

        monkeypatch.setattr(graphs, "enumerate_sequences", short)
        results = {r.name: r for r in verify.check_bijection(max_m=3)}
        assert not results["bijection-round-trip"].passed
        assert "the listings differ" in results["bijection-round-trip"].detail
