"""ResiliencePolicy: spec grammar, backoff, memory budget, breaker."""

from __future__ import annotations

import pytest

from repro.resilience import (
    CircuitBreaker,
    MemoryBudgetError,
    ResiliencePolicy,
    ResilienceReport,
    parse_policy,
)
from repro.resilience.policy import ChunkIncident


class TestSpecGrammar:
    def test_empty_spec_is_defaults(self):
        assert parse_policy("") == ResiliencePolicy()
        assert ResiliencePolicy().spec() == ""

    def test_full_spec_round_trips(self):
        text = ("retries=3;backoff=0.1;jitter=0.5;chunk-timeout=2;"
                "job-timeout=60;memory=256M;breaker=0.5/8;ladder=SZ_T>GZIP;seed=7")
        pol = parse_policy(text)
        assert pol.retries == 3
        assert pol.backoff_s == pytest.approx(0.1)
        assert pol.jitter == pytest.approx(0.5)
        assert pol.chunk_timeout_s == pytest.approx(2.0)
        assert pol.job_timeout_s == pytest.approx(60.0)
        assert pol.memory_budget == 256 * 2**20
        assert pol.breaker_threshold == pytest.approx(0.5)
        assert pol.breaker_window == 8
        assert pol.ladder == ("SZ_T", "GZIP")
        assert pol.seed == 7
        assert parse_policy(pol.spec()) == pol

    def test_spec_emits_only_non_defaults(self):
        assert parse_policy("retries=5").spec() == "retries=5"
        assert parse_policy("breaker=0.25").spec() == "breaker=0.25/10"

    def test_memory_suffixes(self):
        assert parse_policy("memory=4K").memory_budget == 4096
        assert parse_policy("memory=1G").memory_budget == 2**30
        assert parse_policy("memory=1048576").memory_budget == 2**20

    @pytest.mark.parametrize("bad", [
        "retries=-1",
        "jitter=2",
        "chunk-timeout=0",
        "job-timeout=-5",
        "memory=0",
        "memory=lots",
        "breaker=0",
        "breaker=1.5",
        "ladder=",
        "nonsense=1",
        "justaword",
    ])
    def test_bad_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError, match="bad resilience policy"):
            parse_policy(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(breaker_window=0)


class TestBackoff:
    def test_exponential_without_jitter(self):
        pol = ResiliencePolicy(backoff_s=0.1)
        assert pol.backoff_for(1) == pytest.approx(0.1)
        assert pol.backoff_for(2) == pytest.approx(0.2)
        assert pol.backoff_for(3) == pytest.approx(0.4)

    def test_jitter_is_deterministic_and_bounded(self):
        pol = ResiliencePolicy(backoff_s=0.1, jitter=0.5, seed=3)
        for attempt in (1, 2, 3):
            for index in (0, 1, 17):
                base = 0.1 * 2 ** (attempt - 1)
                got = pol.backoff_for(attempt, index)
                assert got == pol.backoff_for(attempt, index)  # deterministic
                assert base * 0.5 <= got <= base * 1.5

    def test_jitter_decorrelates_chunks(self):
        pol = ResiliencePolicy(backoff_s=0.1, jitter=0.9, seed=1)
        values = {pol.backoff_for(1, index) for index in range(16)}
        assert len(values) > 8

    def test_seed_changes_schedule(self):
        a = ResiliencePolicy(backoff_s=0.1, jitter=0.9, seed=1)
        b = ResiliencePolicy(backoff_s=0.1, jitter=0.9, seed=2)
        assert any(a.backoff_for(1, i) != b.backoff_for(1, i) for i in range(8))


class TestMemoryBudget:
    def test_unbudgeted_is_identity(self):
        assert ResiliencePolicy().max_workers(8, 1 << 20) == 8

    def test_budget_caps_workers(self):
        pol = ResiliencePolicy(memory_budget=8 * (1 << 20))
        # 4x charge per worker: 8M budget / 4M per 1M-chunk worker = 2.
        assert pol.max_workers(8, 1 << 20) == 2

    def test_budget_below_one_worker_raises(self):
        pol = ResiliencePolicy(memory_budget=1 << 20)
        with pytest.raises(MemoryBudgetError, match="below one"):
            pol.max_workers(4, 1 << 20)


class TestCircuitBreaker:
    def test_needs_full_window_before_tripping(self):
        br = CircuitBreaker(threshold=0.5, window=4)
        assert not br.record(False)
        assert not br.record(False)
        assert not br.record(False)  # only 3 observed: never trips early
        assert br.record(False)  # 4/4 failures > 0.5

    def test_trips_on_rate_not_count(self):
        br = CircuitBreaker(threshold=0.5, window=4)
        for ok in (True, True, True, False, True, True):
            assert not br.record(ok)  # 1/4 recent failures <= 0.5
        assert not br.tripped

    def test_never_self_closes(self):
        br = CircuitBreaker(threshold=0.1, window=2)
        br.record(False)
        assert br.record(False)
        for _ in range(8):
            assert br.record(True)  # stays tripped through recovery
        assert "breaker threshold" in br.describe()

    def test_policy_breaker_factory(self):
        assert ResiliencePolicy().breaker() is None
        br = ResiliencePolicy(breaker_threshold=0.5, breaker_window=3).breaker()
        assert br.window == 3


class TestResilienceReport:
    def test_quiet_report(self):
        rep = ResilienceReport(n_chunks=5)
        assert rep.quiet
        assert "clean" in rep.summary()

    def test_noisy_report(self):
        rep = ResilienceReport(
            n_chunks=5, retried=1, timed_out=2, fallbacks=3,
            incidents=(ChunkIncident(0, "timeout", "hung"),),
        )
        assert not rep.quiet
        text = rep.summary()
        assert "2 timed out" in text and "3 fell back" in text
        d = rep.to_dict()
        assert d["incidents"] == [{"index": 0, "kind": "timeout", "detail": "hung"}]
