"""Layering rules of the library, checked on the source text of src/hessianlab.

Each rule is a pattern and the package files it applies to; a line of such
a file that matches breaks the rule.  Every rule is also shown to catch a
line planted in a file it applies to.
"""

import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hessianlab"

# rule: (pattern, does the rule apply to this file name, a planted line it catches there)
RULES = {
    # symfunc holds the one pointwise eigen kernel and its eigh oracle
    "eigen calls only in symfunc": (
        r"np.linalg.eig", lambda name: name != "symfunc.py",
        ("solver.py", "    lam = np.linalg.eigvalsh(a)"),
    ),
    # the Newton loop holds Hermitian fields as real planes and runs the
    # real-arithmetic kernel, so the solver builds no complex array
    "real arithmetic in the solver": (
        r"complex_hessian|\.imag|\.real|1j|dtype=complex", lambda name: name == "solver.py",
        ("solver.py", "    x = planes.real"),
    ),
    # the library runs on numpy alone; scipy cost every CLI process 0.2 s
    "no scipy in the library": (
        r"scipy", lambda name: True,
        ("grid.py", "from scipy import sparse"),
    ),
    # no file reads the environment, so a library call or a command gives
    # the same result however its process was started
    "no environment read": (
        r"os\.environ|getenv", lambda name: True,
        ("cli.py", "    workers = os.environ.get('HESSIANLAB_THREADS')"),
    ),
}


def _sources() -> dict:
    return {str(path.relative_to(PACKAGE)): path.read_text()
            for path in sorted(PACKAGE.rglob("*.py"))}


def offending_lines(rule: str, sources: dict) -> list:
    """``file:line: text`` of every line that breaks ``rule``."""
    pattern, applies, _ = RULES[rule]
    return [f"{name}:{number}: {line}"
            for name, text in sources.items() if applies(Path(name).name)
            for number, line in enumerate(text.splitlines(), 1)
            if re.search(pattern, line)]


@pytest.mark.parametrize("rule", RULES)
def test_rule_holds(rule):
    assert offending_lines(rule, _sources()) == []


@pytest.mark.parametrize("rule", RULES)
def test_rule_catches_a_planted_line(rule):
    sources = _sources()
    name, line = RULES[rule][2]
    number = len(sources[name].splitlines()) + 1
    sources[name] += line + "\n"
    assert offending_lines(rule, sources) == [f"{name}:{number}: {line}"]
