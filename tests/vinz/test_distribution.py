"""for-each / parallel / fork-and-exec / spawn limit tests (§3.4, §3.5)."""

import pytest

from repro.lang.symbols import Keyword
from repro.vinz.api import VinzEnvironment, WorkflowError

K = Keyword


@pytest.fixture
def env():
    return VinzEnvironment(nodes=4, seed=11)


class TestForEach:
    def test_results_in_input_order(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (* x x)))""")
        assert env.call("W", [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_empty_sequence(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (* x x)))""")
        assert env.call("W", []) == []

    def test_single_item(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (for-each (x in params) (1+ x)))""")
        assert env.call("W", [41]) == [42]

    def test_one_child_fiber_per_item(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (for-each (x in params) x))""")
        task_id = env.run("W", [1, 2, 3, 4, 5])
        # 1 main + 5 children
        assert len(env.registry.tasks[task_id].fiber_ids) == 6

    def test_children_run_on_multiple_nodes(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (compute 1.0) x))""",
            spawn_limit=8)
        env.run("W", list(range(8)))
        busy_nodes = {e.detail["node"]
                      for e in env.cluster.tracer.events
                      if e.kind == "fiber-run"}
        assert len(busy_nodes) > 1

    def test_distribution_is_actually_parallel(self, env):
        """8 children, 1 simulated second each, 4 nodes: makespan far
        below the 8 serial seconds."""
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (compute 1.0) x))""",
            spawn_limit=8)
        env.run("W", list(range(8)))
        assert env.cluster.kernel.now < 5.0

    def test_nested_for_each(self, env):
        """Distribution 'may be nested to an arbitrary depth' (§3.1)."""
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (row in params)
                (apply #'+ (for-each (x in row) (* x x)))))""")
        assert env.call("W", [[1, 2], [3, 4]]) == [5, 25]

    def test_child_failure_propagates_to_parent(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params)
                (if (= x 13) (error "unlucky") x)))""")
        with pytest.raises(WorkflowError):
            env.call("W", [1, 13, 3])

    def test_parent_can_handle_child_failure(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (handler-case
                  (for-each (x in params)
                    (if (= x 13) (error "unlucky") x))
                (child-fiber-error (c) :handled)))""")
        assert env.call("W", [1, 13]) == K("handled")

    def test_listing1_dist_sum_squares(self, env):
        """The paper's Listing 1, verbatim shape."""
        env.deploy_workflow("SumSquares", """
            (defun dist-sum-squares (numbers)
              (apply #'+
                (for-each (number in numbers)
                  (* number number))))
            (defun main (params) (dist-sum-squares params))""")
        assert env.call("SumSquares", list(range(1, 11))) == 385

    def test_listing4_task_var_early_exit(self, env):
        """The paper's Listing 4: a task variable as a stop flag."""
        env.deploy_workflow("W", """
            (deftaskvar exit-flag
              "A global flag. When this becomes true, stop.")
            (defun main (numbers)
              (for-each (number in numbers)
                (unless ^exit-flag^
                  (if (= -1 number)
                      (setf ^exit-flag^ t)
                      (* number number)))))""")
        result = env.call("W", [2, 3, -1, 4])
        assert result[0] == 4
        assert result[1] == 9
        # the -1 item took the setf branch, whose value is t
        assert result[2] is True
        # the item after the flag was set either ran before seeing the
        # flag (16) or skipped its body (nil) — both are legal orders
        assert result[3] in (16, None)


class TestSpawnLimit:
    def test_spawn_limit_caps_concurrency(self, env):
        """With limit L, at most L children are in flight at once."""
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params) (compute 1.0) x))""",
            spawn_limit=2)
        env.run("W", list(range(6)))
        # reconstruct in-flight children over time from the trace
        events = [e for e in env.cluster.tracer.events
                  if e.kind in ("fiber-fork", "fiber-complete")]
        in_flight = 0
        peak = 0
        for event in events:
            if event.kind == "fiber-fork":
                in_flight += 1
                peak = max(peak, in_flight)
            elif event.detail.get("fiber", "").startswith("fiber-") and \
                    event.detail["fiber"] != "fiber-1":
                in_flight -= 1
        assert peak <= 3  # limit 2 (+1 tolerance for fork/complete skew)

    def test_total_yields_equal_children(self, env):
        """Section 3.5: 'The total number of yield forms will be equal
        to the number of child fibers created'."""
        env.deploy_workflow("W", """
            (defun main (params) (for-each (x in params) x))""",
            spawn_limit=3)
        env.run("W", list(range(7)))
        awakes = env.cluster.metrics.get("op.W.AwakeFiber")
        assert awakes >= 7

    def test_dynamic_spawn_limit_adjustment(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (set-spawn-limit 1)
              (list (get-spawn-limit)
                    (for-each (x in params) x)))""")
        limit, results = env.call("W", [1, 2, 3])
        assert limit == 1
        assert results == [1, 2, 3]

    def test_spawn_limit_floor_is_one(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (set-spawn-limit 0) (get-spawn-limit))""")
        assert env.call("W", None) == 1

    def test_high_limit_faster_than_low(self):
        """The throttle works: limit 1 serializes, limit 8 parallelizes."""
        times = {}
        for limit in (1, 8):
            env = VinzEnvironment(nodes=8, seed=1)
            env.deploy_workflow("W", """
                (defun main (params)
                  (for-each (x in params) (compute 1.0) x))""",
                spawn_limit=limit)
            env.run("W", list(range(8)))
            times[limit] = env.cluster.kernel.now
        assert times[8] < times[1] / 2


class TestChunking:
    def test_chunked_results_flattened_in_order(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params :chunk-size 3) (* x 2)))""")
        assert env.call("W", [1, 2, 3, 4, 5, 6, 7]) == \
            [2, 4, 6, 8, 10, 12, 14]

    def test_chunking_reduces_fiber_count(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (for-each (x in params :chunk-size 5) x))""")
        task_id = env.run("W", list(range(10)))
        # 1 main + 2 chunk fibers (not 10)
        assert len(env.registry.tasks[task_id].fiber_ids) == 3

    def test_chunk_list_helper(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (chunk-list params 2))""")
        assert env.call("W", [1, 2, 3, 4, 5]) == [[1, 2], [3, 4], [5]]


class TestParallel:
    def test_parallel_collects_all_forms(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (parallel (+ 1 1) (* 2 2) (- 9 1)))""")
        assert env.call("W", None) == [2, 4, 8]

    def test_parallel_forms_run_in_fibers(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (parallel (get-process-id) (get-process-id)))""")
        ids = env.call("W", None)
        assert len(set(ids)) == 2  # two distinct fibers

    def test_parallel_form_may_yield(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (parallel (progn (workflow-sleep 1) :a)
                        :b))""")
        assert env.call("W", None) == [K("a"), K("b")]


class TestForkAndExec:
    def test_fork_returns_child_id(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (fork-and-exec (lambda (x) x) :argument 1))""")
        child_id = env.call("W", None)
        assert child_id.startswith("fiber-")

    def test_fork_with_arguments_list(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (join-process
                (fork-and-exec (lambda (a b) (+ a b))
                               :arguments (list 3 4))))""")
        assert env.call("W", None) == 7

    def test_clone_isolation(self, env):
        """Section 3.4: 'changes either fiber makes will not be visible
        to its clone'."""
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((shared (list 1)))
                (let ((child (fork-and-exec
                               (lambda (x) (append! shared 99) (length shared))
                               :arguments (list nil))))
                  (append! shared 2)
                  ;; child saw its own copy: [1, 99]; we see [1, 2]
                  (list (join-process child) (length shared) shared))))""")
        child_len, parent_len, parent_list = env.call("W", None)
        assert child_len == 2
        assert parent_len == 2
        assert parent_list == [1, 2]

    def test_clone_isolation_through_callable_instance(self, env):
        """The clone copies a ``constantly`` result with the list it
        shares with ``shared``: the child's mutation stays in the child,
        and the parent's ``c`` and ``shared`` stay one list."""
        env.deploy_workflow("W", """
            (defun main (params)
              (let* ((shared (list 1))
                     (c (constantly shared))
                     (child (fork-and-exec
                              (lambda (x)
                                (append! (funcall c) 99)
                                (length (funcall c)))
                              :arguments (list nil))))
                (let ((n (join-process child)))
                  (append! (funcall c) 2)
                  (list n (length shared) shared))))""")
        assert env.call("W", None) == [2, 2, [1, 2]]

    def test_plain_fork_does_not_notify_parent(self, env):
        """Footnote 1: fork-and-exec fibers do not AwakeFiber the parent."""
        env.deploy_workflow("W", """
            (defun main (params)
              (fork-and-exec (lambda (x) x) :argument 1)
              (workflow-sleep 5)
              :done)""")
        env.call("W", None)
        assert env.cluster.metrics.get("op.W.AwakeFiber") == 0

    def test_task_ids_shared_across_fibers(self, env):
        env.deploy_workflow("W", """
            (defun main (params)
              (let ((my-task (get-task-id)))
                (list my-task
                      (join-process
                        (fork-and-exec (lambda (x) (get-task-id))
                                       :arguments (list nil))))))""")
        parent_task, child_task = env.call("W", None)
        assert parent_task == child_task


class TestWorkflowSleep:
    def test_sleep_advances_virtual_time(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (workflow-sleep 3600) :woke)""")
        env.run("W", None)
        assert env.cluster.kernel.now >= 3600

    def test_sleeping_fiber_holds_no_slot(self, env):
        env.deploy_workflow("W", """
            (defun main (params) (workflow-sleep 100) :woke)""")
        task_id = env.start("W", None)
        env.cluster.run_until(
            lambda: any(e.kind == "fiber-suspend"
                        for e in env.cluster.tracer.events))
        env.cluster.run_until(lambda: not env.cluster._in_flight)
        assert all(n.busy == 0 for n in env.cluster.nodes.values())
        env.wait_for_task(task_id)
