#!/usr/bin/env python3
"""ETL fan-out with failure injection — survivability in action.

Paper Section 3.2: "the failure of any instance will result in only
minimal delays as other instances automatically compensate."  This
example runs a long extract-transform-load workflow, kills cluster
nodes while it runs, and shows the task completing anyway — then prints
the Figure-1-style lifetime trace of what happened.

Run:  python examples/etl_fanout.py
"""

from repro.bluebox.services import simple_service
from repro.vinz.api import VinzEnvironment

ETL_WORKFLOW = """
(deflink EX :wsdl "urn:extract-service")

(defun transform (record)
  "CPU-heavy per-record transformation."
  (compute 2.0)                      ; 2 simulated seconds of work
  (* record record))

(defun main (params)
  ;; extract: one non-blocking service call per source partition
  (let ((batches (for-each (part in params)
                   (EX-Extract-Method :Partition part))))
    ;; transform: fan out over all extracted records
    (let ((records (apply #'append batches)))
      (let ((transformed (for-each (r in records) (transform r))))
        ;; load: a final reduce
        (list :records (length transformed)
              :checksum (apply #'+ transformed))))))
"""


def extract_service():
    def extract(ctx, body):
        ctx.charge(1.0)  # a slow scan
        partition = body.get("Partition", 0)
        return [partition * 10 + i for i in range(5)]

    return simple_service("Extract", {"Extract": extract},
                          namespace="urn:extract-service",
                          parameters={"Extract": ["Partition"]})


def main() -> None:
    env = VinzEnvironment(nodes=5, seed=99)
    env.deploy_service(extract_service())
    env.deploy_workflow("Etl", ETL_WORKFLOW, spawn_limit=6)

    partitions = [0, 1, 2]
    expected_records = [p * 10 + i for p in partitions for i in range(5)]
    print(f"Starting ETL over partitions {partitions} "
          f"({len(expected_records)} records) on 5 nodes.\n")
    task_id = env.start("Etl", partitions)

    # let the transform stage get going, then start killing nodes
    env.cluster.run_until(
        lambda: sum(1 for e in env.cluster.tracer.events
                    if e.kind == "fiber-fork") >= 4)
    for victim in ["node-1", "node-2"]:
        requeued = env.fail_node(victim)
        print(f"!! killed {victim} mid-run "
              f"({requeued} in-flight requests re-queued)")

    task = env.wait_for_task(task_id)
    result = {task.result[i].name: task.result[i + 1]
              for i in range(0, len(task.result), 2)}
    print(f"\nTask {task_id} finished with status: {task.status}")
    print(f"  records processed: {result['records']}")
    print(f"  checksum:          {result['checksum']}")
    assert result["checksum"] == sum(r * r for r in expected_records)
    print("  checksum verified against a direct computation.")

    redelivered = env.cluster.queue.redelivered
    print(f"\nThe queue re-delivered {redelivered} message(s) after the "
          "failures; no state was lost (checkpoints + redelivery).")

    print("\n-- lifetime trace (Figure 1 style), first 25 events --")
    events = env.cluster.tracer.for_task(task_id)
    for event in events[:25]:
        print("  " + repr(event))
    print(f"  ... {max(0, len(events) - 25)} more events")


if __name__ == "__main__":
    main()
