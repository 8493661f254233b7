"""The committed mutants of mutants/table.py cannot rot silently: every
row's old text still occurs in its file exactly once, and every test
named to kill it still exists.  mutants/run.py runs the mutants
themselves, outside this suite."""

import pathlib
import re
import runpy

ROOT = pathlib.Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]


def test_every_mutant_targets_one_place_and_named_tests():
    assert len({row["name"] for row in MUTANTS}) == len(MUTANTS)
    for row in MUTANTS:
        text = (ROOT / row["file"]).read_text(encoding="utf-8")
        assert text.count(row["old"]) == 1, row["name"]
        assert row["new"] != row["old"] and row["kills"], row["name"]
        for test_id in row["kills"]:
            path, _, func = test_id.partition("::")
            func = func.partition("[")[0]
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(r"^def %s\(" % re.escape(func), source, re.M), test_id
