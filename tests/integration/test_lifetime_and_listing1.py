"""Figure 1 (workflow lifetime) and Listing 1 (sum-of-squares) checks."""

import pytest

from repro.bluebox.services import simple_service
from repro.gvm.runtime import make_runtime
from repro.vinz.api import VinzEnvironment

LISTING1 = """
(defun loc-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (* number number))))

(defun par-sum-squares (numbers)
  (apply #'+
    (loop for number in numbers
          collect (future (* number number)))))

(defun dist-sum-squares (numbers)
  (apply #'+
    (for-each (number in numbers)
      (* number number))))
"""


class TestListing1:
    """All three variants produce the same answer — the paper's point
    that parallel/distributed code looks like sequential code."""

    NUMBERS = list(range(1, 21))
    EXPECTED = sum(n * n for n in NUMBERS)

    def test_loc_and_par_locally(self):
        rt = make_runtime(deterministic=True)
        rt.eval_string(LISTING1.split("(defun dist")[0])
        assert rt.eval_string(f"(loc-sum-squares (list {' '.join(map(str, self.NUMBERS))}))") == self.EXPECTED
        assert rt.eval_string(f"(par-sum-squares (list {' '.join(map(str, self.NUMBERS))}))") == self.EXPECTED

    def test_all_three_in_a_workflow(self):
        env = VinzEnvironment(nodes=4, seed=17)
        env.deploy_workflow("SumSquares", LISTING1 + """
            (defun main (numbers)
              (list (loc-sum-squares numbers)
                    (par-sum-squares numbers)
                    (dist-sum-squares numbers)))""")
        loc, par, dist = env.call("SumSquares", self.NUMBERS)
        assert loc == par == dist == self.EXPECTED

    def test_par_with_real_threads(self):
        rt = make_runtime(deterministic=False, max_workers=4)
        try:
            rt.eval_string(LISTING1.split("(defun dist")[0])
            assert rt.eval_string(
                "(par-sum-squares (loop for i from 1 to 50 collect i))") == \
                sum(i * i for i in range(1, 51))
        finally:
            rt.shutdown()


class TestFigure1Lifetime:
    """Reconstruct the paper's Figure 1: the lifetime of one workflow
    task, as a causally ordered event trace."""

    def _run_sample_workflow(self):
        env = VinzEnvironment(nodes=3, seed=18)

        def price(ctx, body):
            ctx.charge(0.25)
            return 101.25

        env.deploy_service(simple_service("Pricing", {"Price": price},
                                          namespace="urn:pricing",
                                          parameters={"Price": ["Id"]}))
        env.deploy_workflow("Sample", """
            (deflink P :wsdl "urn:pricing")
            (defun main (params)
              (let ((price (P-Price-Method :Id params)))
                (apply #'+ (for-each (x in (list 1 2))
                             (* x price)))))""")
        task_id = env.run("Sample", "IBM")
        return env, task_id

    def test_lifetime_phases_in_order(self):
        env, task_id = self._run_sample_workflow()
        events = env.cluster.tracer.for_task(task_id)
        kinds = [e.kind for e in events]
        # the canonical phases of Figure 1:
        assert "task-start" in kinds
        assert "fiber-run" in kinds
        assert "service-request" in kinds
        assert "fiber-suspend" in kinds
        assert "fiber-fork" in kinds
        assert "fiber-complete" in kinds
        assert "task-complete" in kinds
        # ordering: start < first run < suspend-for-service < complete
        t = {k: min(e.time for e in events if e.kind == k) for k in set(kinds)}
        assert t["task-start"] <= t["fiber-run"]
        assert t["fiber-run"] <= t["fiber-suspend"]
        assert t["fiber-suspend"] <= t["task-complete"]

    def test_result_correct(self):
        env, task_id = self._run_sample_workflow()
        assert env.registry.tasks[task_id].result == pytest.approx(
            1 * 101.25 + 2 * 101.25)

    def test_suspensions_match_resumes(self):
        env, task_id = self._run_sample_workflow()
        events = env.cluster.tracer.for_task(task_id)
        suspends = sum(1 for e in events if e.kind == "fiber-suspend")
        resumes = sum(1 for e in events
                      if e.kind == "fiber-run" and e.detail.get("resume"))
        assert suspends == resumes

    def test_trace_renders(self):
        env, task_id = self._run_sample_workflow()
        text = env.cluster.tracer.render(env.cluster.tracer.for_task(task_id))
        assert "task-start" in text
        assert "task-complete" in text
