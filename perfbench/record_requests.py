"""Record the expected stdout digest of every request the `requests`
workload can draw.

    python3 perfbench/record_requests.py

Runs each well-formed request of the pool, and each malformed request that
reports on stdout, once through `pi1curves.cli.main`, and writes
{request key: stdout digest} to perfbench/requests_expected.json.  The file
pins the outputs of the commit it was recorded at; re-record it only in a
change that means to alter those outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import worker
import workloads


def main() -> int:
    catalog = workloads.load_catalog()
    pool = workloads.request_pool(catalog)
    items = [workloads._request(entry)
             for kind in pool for entry in pool[kind]]
    items += [workloads._request((f"malformed {name}", argv,
                                  {"file": content}, code))
              for name, argv, content, code in workloads.MALFORMED
              if code == ""]
    workdir = worker.OUT / "record"
    ctx = {"argv": workloads.requests_prepare(items, workdir)}
    expected = {}
    try:
        for index, item in enumerate(items):
            ctx["index"] = index
            exit_code, error_code, digest = workloads.requests_run(item, ctx)
            want = 0 if "code" not in item else 1
            if exit_code != want or error_code != item.get("code", ""):
                print(f"unexpected result for {item['key']}: "
                      f"exit {exit_code} {error_code}", file=sys.stderr)
                return 1
            expected[item["key"]] = digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    worker.EXPECTED_REQUESTS.write_text(
        json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
