"""Short self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs every workload end to end at a tiny size, untraced and traced, and
checks the shape of the result.  Then feeds the output checks a corrupted
tag sequence, a corrupted decode file and a score that does not match its
predictions, each of which must be reported.

At the tiny size the transfer models learn nothing, so the one check that
needs trained models (each transfer system beats JS_T) fails there and
is the only problem allowed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # puts the package's src/ on the import path
import oracle
import workloads
from atomslot import evaluation

SEED = 1
CLAIM = "does not beat JS_T"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_runs() -> None:
    for name, sizes in workloads.TINY.items():
        for trace in (False, True):
            record = run.run(name, SEED, 0.0, trace, sizes)
            unexpected = [p for p in record["problems"] if CLAIM not in p]
            expect(not unexpected, f"{name} trace={trace}: {unexpected}")
            expect(record["attempted"] > 0 and record["failed"] == 0,
                   f"{name}: {record['failed']} of {record['attempted']} failed")
            line = json.loads(run.result_line(record))
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(line)}")
            wanted = (set(run.PER_LAYER) | {run.OVERHEAD}) if trace else set(run.END_TO_END)
            expect(set(line["metrics"]) == wanted,
                   f"{name}: metrics {sorted(set(line['metrics']) ^ wanted)}")
            if not trace:
                expect(all(m["value"] > 0 for m in line["metrics"].values()),
                       f"{name}: a zero end-to-end metric")
            print(f"selftest: {name} trace={int(trace)} ran "
                  f"{record['rounds']} round(s), {record['attempted']} operations")


def check_corruption_is_caught() -> None:
    workdir = os.path.join(run.ROOT, ".perfbench", "work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.Decode(SEED, workloads.TINY["decode"], workdir)
        wl.setup()
        rnd = wl.round()
        expect(not rnd.run_checks(), f"clean decode output fails: {rnd.problems}")

        u = wl.test[0]
        bad = list(u.tags)
        bad[0] = "B-no_such_slot"
        expect(oracle.tag_problems(u.tokens, bad, wl.slots), "an unknown slot passes")
        expect(oracle.tag_problems(u.tokens, bad[:-1], wl.slots), "a missing tag passes")
        expect(oracle.tag_problems(u.tokens, ["X-" + t for t in u.tags], wl.slots),
               "a non-IOB tag passes")

        path = os.path.join(workdir, "decoded_js", "decoded.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        token, _ = lines[0].split("\t")
        lines[0] = f"{token}\tI-no_such_slot"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        expect(wl._check_output("js", *workloads._read_tagged(path)),
               "a corrupted decode file passes")

        predicted = [u.tags for u in wl.test]
        report = evaluation.evaluate(wl.test, predicted)
        shifted = [("O",) * len(u) for u in wl.test]
        expect(wl._check_scored(wl.test, shifted, report, "shifted"),
               "a score that does not match its predictions passes")
        print("selftest: corrupted tags, files and scores are all caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_benchmark_file() -> None:
    """BENCHMARK.json names exactly the metrics the harness prints."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(end_to_end == run.END_TO_END, f"end-to-end metrics {end_to_end}")
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    wanted = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    wanted[run.OVERHEAD] = "%"
    expect(per_layer == wanted, "per-layer metrics differ from run.PER_LAYER")
    expect({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS),
           "workloads differ from workloads.WORKLOADS")


def main() -> int:
    check_benchmark_file()
    check_runs()
    check_corruption_is_caught()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
