"""Copy an instance JSON file with every coordinate shifted by 10^30.

    python .github/shift_instance.py IN OUT

Takes either document shape: every integer in it is shifted, which is the
domain and the intervals of a coverage file and the domains and the cross
arms of a piercing file.
"""

import json
import sys

SHIFT = 10**30


def shift(node):
    if isinstance(node, list):
        return [shift(v) for v in node]
    if isinstance(node, dict):
        return {k: shift(v) for k, v in node.items()}
    return node + SHIFT if type(node) is int else node


with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(shift(doc), fh)
