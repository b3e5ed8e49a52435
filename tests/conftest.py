"""Record each test session's wall time in ``.perfbench/tier1.json``.

The file holds the session's wall time from configuration to finish, its
pass, fail and skip counts (a failure in set-up or teardown counts as a
fail), the arguments it ran with, and the set-up time of the first test
that requests the acceptance suite's shared ``transfer_runs`` fixture,
which trains every transfer system and dominates a full run.  Each
session that runs tests overwrites the file; ``.perfbench/`` is
git-ignored.
"""

import json
import time
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench" / "tier1.json"


class _SessionRecord:
    def __init__(self):
        self.start = time.perf_counter()
        self.counts = {"passed": 0, "failed": 0, "skipped": 0}
        self.transfer_runs_setup_s = None

    def pytest_runtest_makereport(self, item, call):
        if (call.when == "setup" and self.transfer_runs_setup_s is None
                and "transfer_runs" in item.fixturenames):
            self.transfer_runs_setup_s = round(call.duration, 3)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.counts["failed"] += 1
        elif report.skipped:
            self.counts["skipped"] += 1
        elif report.when == "call":
            self.counts["passed"] += 1

    def pytest_sessionfinish(self, session, exitstatus):
        if session.config.option.collectonly:
            return
        record = {
            "wall_s": round(time.perf_counter() - self.start, 3),
            **self.counts,
            "transfer_runs_setup_s": self.transfer_runs_setup_s,
            "exit_status": int(exitstatus),
            "args": list(session.config.invocation_params.args),
        }
        RESULTS.parent.mkdir(exist_ok=True)
        RESULTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def pytest_configure(config):
    config.pluginmanager.register(_SessionRecord(), "tier1-session-record")
