"""Batched serving: coalesced same-source batches through route_batch."""

import time

import pytest

from repro.exceptions import DeadlineExceeded, NoPathError
from repro.faults.resilience import CircuitBreaker, RetryPolicy
from repro.service.cache import EpochRouterCache
from repro.service.engine import QueryEngine
from repro.service.metrics import MetricsRegistry


def sync_engine(net, **kwargs):
    kwargs.setdefault("workers", 0)
    return QueryEngine(EpochRouterCache(net), **kwargs)


class TestBatchedDispatch:
    def test_batched_counter_covers_whole_batch(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(paper_net, metrics=registry)
        futures = [engine.submit(1, t) for t in (6, 7, 2, 3)]
        engine.run_pending()
        snap = registry.snapshot()
        assert snap["engine.batched"] == 4
        assert snap["engine.served"] == 4
        assert all(f.done() for f in futures)

    def test_results_identical_to_unbatched(self, paper_net):
        engine = sync_engine(paper_net)
        reference = EpochRouterCache(paper_net)
        futures = {t: engine.submit(1, t) for t in (2, 3, 6, 7)}
        engine.run_pending()
        for target, future in futures.items():
            assert future.result() == reference.route(1, target)

    def test_single_request_skips_batch_path(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(paper_net, metrics=registry)
        engine.submit(1, 7)
        engine.run_pending()
        assert "engine.batched" not in registry.snapshot()

    def test_epochs_consistent_across_batch(self, paper_net):
        engine = sync_engine(paper_net)
        futures = [engine.submit(1, t) for t in (6, 7)]
        engine.run_pending()
        del futures
        _, epoch_a = engine.route_with_epoch(1, 6)
        _, epoch_b = engine.route_with_epoch(1, 7)
        assert epoch_a == epoch_b

    def test_no_path_inside_batch(self, paper_net):
        # 7 is a sink in the paper network: both answers are NoPathError.
        engine = sync_engine(paper_net)
        futures = [engine.submit(7, 1), engine.submit(7, 2)]
        engine.run_pending()
        for f in futures:
            with pytest.raises(NoPathError):
                f.result()

    def test_expired_member_fails_alone(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(paper_net, metrics=registry)
        live = engine.submit(1, 7)
        dead = engine.submit(1, 6, timeout=0.0)
        time.sleep(0.01)
        engine.run_pending()
        assert live.result().total_cost == 2.0
        with pytest.raises(DeadlineExceeded):
            dead.result()
        assert registry.snapshot()["engine.expired"] == 1

    def test_mixed_sources_split_into_batches(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(paper_net, metrics=registry)
        engine.submit(1, 7)
        engine.submit(1, 6)
        engine.submit(2, 7)
        engine.run_pending()
        # Only the same-source pair is batched; the third serves alone.
        assert registry.snapshot()["engine.batched"] == 2
        assert registry.snapshot()["engine.served"] == 3


class TestGuardedFallback:
    def test_retry_disables_batching(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(
            paper_net, retry=RetryPolicy(max_attempts=2), metrics=registry
        )
        futures = [engine.submit(1, t) for t in (6, 7)]
        engine.run_pending()
        assert "engine.batched" not in registry.snapshot()
        assert all(f.result().hops for f in futures)

    def test_breaker_disables_batching(self, paper_net):
        registry = MetricsRegistry()
        engine = sync_engine(paper_net, breaker=CircuitBreaker(), metrics=registry)
        futures = [engine.submit(1, t) for t in (6, 7)]
        engine.run_pending()
        assert "engine.batched" not in registry.snapshot()
        assert all(f.result().hops for f in futures)


class TestRouteBatchCache:
    def test_route_batch_matches_single_routes(self, paper_net):
        cache = EpochRouterCache(paper_net)
        answers = cache.route_batch(1, [2, 3, 6, 7])
        for target, (path, epoch) in zip((2, 3, 6, 7), answers):
            assert path == cache.route(1, target)
            assert epoch == cache.epoch

    def test_route_batch_none_for_unreachable(self, paper_net):
        cache = EpochRouterCache(paper_net)
        (answer,) = cache.route_batch(7, [1])
        assert answer[0] is None
