"""The realizability verdict table in tests/data/verdicts.tsv.

A change that alters a verdict, a rule or its evidence shows here as the
lines that changed; one that means to alter them re-records the table with
`tests/data/record_verdicts.py` and says so.
"""

import difflib
import importlib.util
from pathlib import Path

DATA = Path(__file__).with_name("data")


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "record_verdicts", DATA / "record_verdicts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_table_is_unchanged():
    recorded = (DATA / "verdicts.tsv").read_text().splitlines()
    computed = _recorder().table()
    changed = list(difflib.unified_diff(recorded, computed, "recorded",
                                        "computed", n=0, lineterm=""))
    assert not changed, "\n".join(changed)
    assert len(computed) == 6750
