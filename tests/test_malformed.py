"""Malformed jobs exit with code 1 and name their line; no job, however
mangled, ends in a traceback.

Each file of tests/malformed holds one malformed input and says, in a
comment `# refused on line N`, the line its error must name; a comment
`# refused with: TEXT`, where present, gives words the message must hold.
"""

import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.cli import TASKS, main
from braidcalc.spaces import KINDS

HERE = pathlib.Path(__file__).resolve().parent
MALFORMED = sorted((HERE / "malformed").glob("*.job"))


def refused_line(text: str) -> int:
    return int(re.search(r"^# refused on line (\d+)$", text, re.M).group(1))


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_malformed_job_is_refused_on_its_line(path, capsys):
    text = path.read_text(encoding="utf-8")
    assert main(["--input", str(path), "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "line %d: " % refused_line(text) in captured.err
    for words in re.findall(r"^# refused with: (.*)$", text, re.M):
        assert words in captured.err
    assert "Traceback" not in captured.err and not captured.out


BASES = [p.read_text(encoding="utf-8")
         for p in sorted((HERE.parent / "jobs").glob("*.job")) + MALFORMED]
KEYS = sorted({key for entry in KINDS.values() for key in entry.params} |
              {"m", "kind", "name", "budget", "preset", "degree", "values"} |
              set(TASKS))
VALUES = ["5", "x", "0", "[1]", "[[1, 2], [3]]"]
# every line is parsed and checked, but only these tasks run, at degree 3,
# so an example takes milliseconds
CHEAP = ["--degree", "3", "--task", "ybe", "--task", "min_poly",
         "--task", "bracket", "--task", "nichols", "--task", "quadratic"]


def mutate(text: str, edits) -> str:
    """Drop a line, put a key in place of a line's key (or of a whole line
    without '='), or give a line one of VALUES."""
    lines = text.splitlines()
    for op, at, pick in edits:
        if not lines:
            break
        i = at % len(lines)
        key, eq, value = lines[i].partition("=")
        if op == "drop":
            del lines[i]
        elif op == "key":
            lines[i] = KEYS[pick % len(KEYS)] + (" =" + value if eq else "")
        else:
            lines[i] = "%s = %s" % (key.strip(), VALUES[pick % len(VALUES)])
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(BASES),
       st.lists(st.tuples(st.sampled_from(("drop", "key", "value")),
                          st.integers(0, 60), st.integers(0, 200)),
                max_size=3))
def test_mutated_jobs_exit_cleanly(base, edits):
    with tempfile.TemporaryDirectory() as tmp:
        job = pathlib.Path(tmp) / "job.job"
        job.write_text(mutate(base, edits), encoding="utf-8")
        code = main(["--input", str(job), "--no-cache",
                     "--output", str(pathlib.Path(tmp) / "report.json"),
                     *CHEAP])
    assert code in (0, 1, 2)
