"""Regenerate perfbench/reference.json from serial runs of this tree.

    python3 perfbench/make_reference.py

The reference holds, per app, the findings projection and execution
count of a serial default campaign and the verdict map of a wiring
audit.  Regenerate it only in a change that means to alter findings.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro.core.audit import audit_app  # noqa: E402
from repro.core.orchestrator import CampaignConfig  # noqa: E402
from repro.core.report import findings_projection  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference = {"campaign": {}, "executions": {}, "audit": {}}
    for app in workloads.APPS:
        record = workloads._campaign(app, CampaignConfig())
        reference["campaign"][app] = findings_projection(record)
        reference["executions"][app] = record["executions"]
        reference["audit"][app] = audit_app(app).to_dict()["verdicts"]
        print(app, record["executions"], file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
