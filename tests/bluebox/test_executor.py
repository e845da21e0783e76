"""Load-balancing executor tests."""

import threading
import time

from repro.bluebox.executor import ExecutorShutdownError, LoadBalancingExecutor


class TestLoadBalancingExecutor:
    def test_basic_execution(self):
        executor = LoadBalancingExecutor(capacity=2)
        try:
            f = executor.submit(lambda: 21 * 2)
            assert f.touch(timeout=5) == 42
        finally:
            executor.shutdown()

    def test_capacity_respected(self):
        """No more than `capacity` thunks run at once."""
        executor = LoadBalancingExecutor(capacity=2)
        running = []
        lock = threading.Lock()
        peak = [0]
        release = threading.Event()

        def job():
            with lock:
                running.append(1)
                peak[0] = max(peak[0], len(running))
            release.wait(timeout=5)
            with lock:
                running.pop()
            return True

        try:
            futures = [executor.submit(job) for _ in range(6)]
            time.sleep(0.2)
            assert peak[0] <= 2
            release.set()
            for f in futures:
                assert f.touch(timeout=5) is True
            assert executor.total_submitted == 6
            assert executor.peak_in_use <= 2
            assert executor.peak_queue >= 1
        finally:
            release.set()
            executor.shutdown()

    def test_failure_propagates(self):
        executor = LoadBalancingExecutor(capacity=1)
        try:
            f = executor.submit(lambda: 1 / 0)
            import pytest

            with pytest.raises(ZeroDivisionError):
                f.touch(timeout=5)
        finally:
            executor.shutdown()

    def test_queued_jobs_run_after_release(self):
        executor = LoadBalancingExecutor(capacity=1)
        try:
            fs = [executor.submit(lambda i=i: i) for i in range(5)]
            assert [f.touch(timeout=5) for f in fs] == [0, 1, 2, 3, 4]
        finally:
            executor.shutdown()

    def test_shutdown_fails_queued_futures(self):
        """Shutdown with thunks still queued must fail their futures
        with a typed error, not drop them — a later touch would
        otherwise hang forever on a future nobody will determine."""
        import pytest

        executor = LoadBalancingExecutor(capacity=1)
        release = threading.Event()
        blocker = executor.submit(lambda: release.wait(timeout=5))
        queued = [executor.submit(lambda i=i: i, label=f"queued-{i}")
                  for i in range(3)]
        # shut down from a helper thread: the pool join blocks on the
        # in-flight blocker, but the queued futures must already be
        # failed by then
        stopper = threading.Thread(target=executor.shutdown)
        stopper.start()
        try:
            for i, future in enumerate(queued):
                with pytest.raises(ExecutorShutdownError) as err:
                    future.touch(timeout=5)
                assert f"queued-{i}" in str(err.value)
        finally:
            release.set()
            stopper.join(timeout=5)
        assert blocker.touch(timeout=5) is True
