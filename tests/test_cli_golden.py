"""Golden CLI transcripts: a fixed set of in-process invocations whose stdout
and exit codes must stay byte-identical across refactors.

`cli_golden.json` holds one {"argv", "code", "stdout"} record per invocation.
After a deliberate output change, rewrite it from the current code with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff line by line before committing it.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from eccspec.cli import main
from helpers import compensated_sum

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _capture(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_the_golden_transcript(case):
    code, stdout = _capture(case["argv"])
    assert stdout == case["stdout"]
    assert code == case["code"]


def test_golden_transcripts_do_not_depend_on_how_sum_rounds(monkeypatch):
    # Python 3.12 made the builtin float sum() compensated; swapping that rule
    # into every eccspec module must leave each transcript as it is
    for name, module in list(sys.modules.items()):
        if name == "eccspec" or name.startswith("eccspec."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    changed = [" ".join(case["argv"]) for case in _load()
               if _capture(case["argv"]) != (case["code"], case["stdout"])]
    assert changed == []


if __name__ == "__main__":
    records = []
    for case in _load():
        code, stdout = _capture(case["argv"])
        records.append({"argv": case["argv"], "code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
