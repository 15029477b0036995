"""Line census: which lines of src/redqsim the Tier-1 tests run.

Runs Tier-1 without tests/test_mutants.py in this process, under a
sys.settrace line collector limited to src/redqsim, then prints each
module's executed over executable lines and every line that did not run,
with its function and, where one is known, the reason it cannot run
here.  The executable lines of a module are the line numbers above 0
that co_lines() gives for every code object compiled from its source;
a line that several code objects share is named by the outermost.  The
collector is installed before redqsim is imported, so module-level lines
count as run when the import runs them.  Stdlib only; the file name does
not match test_*.py, so Tier-1 does not collect it.  From the
repository root:

    PYTHONPATH=src python tests/line_census.py [extra pytest arguments]

Expect, on two cores, about five minutes against about one untraced,
and two failures, acceptance criteria 8 and 10, which fail untraced too
(ROADMAP item 5).  A collector that keeps a reference to the frames it
sees, or to their locals, makes the TestNoReferenceCycles tests fail as
well: the objects they expect to be freed at once then wait for the
cyclic collector.  This one keeps only line numbers.

Lines that run only in a forked child (parallel.py's child path) read as
unrun: the collector sees this process only.  The exit status is
pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "redqsim"
PREFIX = str(PACKAGE) + "/"

# (module, function, line text or None for every line) -> why it is unrun.
REASONS = {
    ("parallel.py", "_child", None):
        "runs only in a forked child, which the collector does not see",
    ("parallel.py", "start_child", "_child(fn, item, parent_pid, inherited + [reader], writer)"):
        "runs only in a forked child, which the collector does not see",
    ("tcp.py", "TcpSender._retransmit",
     'raise RuntimeError(f"flow {self.flow_id}: empty retransmission at seq {seq}")'):
        "internal invariant; only tests/test_mutants.py reaches it",
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only when cli.py is the __main__ script",
}

executed: defaultdict[str, set[int]] = defaultdict(set)


def _local(frame, event, _arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, _event, _arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        return _local
    return None


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified name of the outermost code object that
    runs it, for every line of path that some code object runs."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _start, _end, line in code.co_lines():
            if line:
                lines.setdefault(line, code.co_qualname)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def reason(module: str, where: str, text: str) -> str:
    return REASONS.get((module, where, text)) or REASONS.get((module, where, None), "")


def report(out=sys.stdout) -> None:
    total_run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        ran = executed[str(path)] & lines.keys()
        total_run, total = total_run + len(ran), total + len(lines)
        out.write(f"{path.name:14} {len(ran):5} / {len(lines):5}\n")
        source = path.read_text().splitlines()
        for line in sorted(lines.keys() - ran):
            text = source[line - 1].strip()
            why = reason(path.name, lines[line], text)
            out.write(f"    {line:4}  {lines[line]}: {text}" + (f"  [{why}]" if why else "") + "\n")
    out.write(f"{'total':14} {total_run:5} / {total:5}\n")


def main(argv: list[str]) -> int:
    import pytest

    args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "--ignore", str(REPO / "tests" / "test_mutants.py"), str(REPO / "tests"), *argv]
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report()
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
