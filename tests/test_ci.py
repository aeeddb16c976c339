"""The CI workflow and .github/gates.sh name the same steps.

``gates.sh all`` runs the steps the workflow lists, each by its function in
``gates.sh``; both files are read as text, and nothing is run.
"""

import re
from pathlib import Path

GITHUB = Path(__file__).resolve().parent.parent / ".github"


def test_workflow_steps_are_the_gate_functions():
    workflow = (GITHUB / "workflows" / "tests.yml").read_text()
    gates = (GITHUB / "gates.sh").read_text()
    steps = re.findall(r"^ *run: bash \.github/gates\.sh (\w+)$", workflow, re.M)
    # top level only: a helper nested in a step, such as exited_3, is indented
    functions = re.findall(r"^(\w+)\(\) \{", gates, re.M)
    assert len(set(steps)) == len(steps), steps
    assert sorted(steps) == sorted(functions)
