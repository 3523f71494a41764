"""The realizability verdict table in tests/data/verdicts.tsv.

A change that alters a verdict, a rule or its evidence shows here as the
lines that changed; one that means to alter them re-records the table with
`tests/data/record_verdicts.py` and says so.
"""

import difflib
import importlib.util
import json
from pathlib import Path

from pi1curves.cli import main
from pi1curves.curves import CurveConfiguration

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


def test_cli_agrees_with_the_table(capsys, tmp_path):
    """`realizable` on the first line of each (mode, rule) pair gives that
    line's verdict, rule and evidence."""
    recorder = _recorder()
    shapes = {**recorder._projective(), **recorder._affine()}
    firsts = {}
    for line in (DATA / "verdicts.tsv").read_text().splitlines():
        fields = line.split("\t")
        firsts.setdefault((fields[2], fields[5]), fields)
    assert len(firsts) == 8
    for p, name, mode, group, verdict, rule, evidence in firsts.values():
        path = tmp_path / f"{name}.json"
        config = CurveConfiguration.build(int(p), *shapes[name])
        path.write_text(json.dumps(config.to_json()))
        assert main(["realizable", str(path), "--group", group,
                     "--char", p, "--mode", mode]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["verdict"], out["rule"], out["evidence"]) \
            == (verdict, rule, json.loads(evidence)), (p, name, mode, group)
