"""Regenerate the answer tables in ``reference.json``, cross-checked.

Usage (from the repository root)::

    python3 perfbench/reference.py

For every TPC-H template and variant the answer is computed twice, on
the benchmark's Custom (remote memory) topology and on the local-only
HDD+SSD design, and must agree; for every distributed plan and variant
it is computed on single-node ``DbSetup.execute_plan`` and under query
shipping on the 4-server cluster, and must agree.  Only then are the
digests written.  The benchmark compares each concurrent, seeded run's
answers with these tables, so a timing-dependent answer fails there.

Per-seed virtual metrics and exact counts are recorded separately, one
run at a time, with ``run.py --record``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.dist import Strategy, execute_plan  # noqa: E402
from repro.harness import Design, build_database  # noqa: E402
from repro.workloads import TPCH_QUERIES, TpchScale, build_tpch_database  # noqa: E402
from workloads import DIST_PLANS, VARIANTS, WORKLOADS, digest_rows  # noqa: E402

REFERENCE = HERE / "reference.json"


def tpch_answers() -> dict[str, str]:
    workload = WORKLOADS["tpch_remote"]
    remote = workload.setup(Design.CUSTOM)
    local = workload.setup(Design.HDD_SSD)
    answers = {}
    for template in range(len(TPCH_QUERIES)):
        for variant in range(VARIANTS):
            key = workload.op_key(template, variant)
            digest = digest_rows(workload.run_one(remote, template, variant), ordered=False)
            check = digest_rows(workload.run_one(local, template, variant), ordered=False)
            if digest != check:
                raise SystemExit(f"{key}: Custom and HDD+SSD disagree ({digest} vs {check})")
            answers[key] = digest
    return answers


def dist_answers() -> dict[str, str]:
    workload = WORKLOADS["dist_shipping"]
    single = build_database(Design.HDD_SSD, bp_pages=4096, tempdb_pages=8192)
    tables = build_tpch_database(single.database, TpchScale(), seed=workload.DATA_SEED)
    cluster = workload.build(Strategy.QUERY)
    answers = {}
    for kind, make in DIST_PLANS.items():
        for variant in range(VARIANTS):
            key = f"{kind}/{variant}"
            plan = make(variant)
            expected = single.execute_plan(plan, tables, cost_model=None).rows
            got = execute_plan(cluster, plan, name=kind).rows
            if got != expected:
                raise SystemExit(f"{key}: query shipping disagrees with single-node rows")
            answers[key] = digest_rows(got, ordered=True)
    return answers


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference["answers"] = {
        "tpch_remote": tpch_answers(),
        "dist_shipping": dist_answers(),
    }
    reference.setdefault("runs", {})
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(a) for a in reference['answers'].values())} answers to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
