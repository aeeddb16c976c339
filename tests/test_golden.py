"""Byte-level pins of the CLI's outputs and of the envelope construction.

Each case hashes an output with sha256 and compares it with the digest that
was recorded before the family registry, the witness check and the envelope
routine were each folded into one place, and (for the staircase generators)
before their hand-unrolled branches became one rule per family.  A refactor
that keeps instances, verdicts, witnesses, comparison counts and output bytes
leaves every digest as it is.  Seven digests that run ``solve_piercing``
were re-recorded when its two sweeps became one; with the ``"queries"``
values and the CSV ``comparisons`` column masked, their texts did not change.
"""

import hashlib
import itertools

import numpy as np
import pytest

from coverpierce.cli import main
from coverpierce.core import QueryCounter, dumps_instance
from coverpierce.piercing import (
    build_envelopes,
    gen_random_piercing,
    gen_staircase_literal,
    gen_staircase_minimal,
)

GENERATE = {
    "chain": ("6",
        "835e734bc075675c04863b3d100fa82caab7adb250fe7c706d1690bbb7d1efca"),
    "staircase": ("7",
        "9ecb7f9d3c7fc52364c60c65ef8a6b398a00f63ba993d5c97f80a6c349e42cbc"),
    "staircase-literal": ("9",
        "3cff0ba3c50436c7d8836a9e6b24157c9a39caad561bb16680b97f13391d240b"),
    "disjoint": ("5",
        "4f1813482f9cf20e1c347c0aca23d16cb1dbe4af0f942a6c8edc24259f94f351"),
    "random-coverage": ("9",
        "d2a08175fedd43802cb7f952ad6fdfb6a083c89731aadf5cd936983773083741"),
    "random-piercing": ("9",
        "3b61b67709d61baaeb209a89ce1bfa26668fe9e4fb1eb4ce2be64baf69e2a28c"),
}

BENCH = {
    "chain": ("2..9",
        "3cfda9510dfb53f6fc6e8d1d6ffe9ea340c661670c812221c9116e248aaa853c"),
    "staircase": ("3..9",
        "f47206a86f094d5c82300cf272d066970bd97bd905de95b9c7a4444dc5f15247"),
    "staircase-literal": ("8..9",
        "a2a57a3e32d716c61b4989d0363fe1937566c070619c268949a49dc8554ddf6b"),
    "disjoint": ("1..6",
        "307f2358a0f07774c57e336cd1fc501190df8ac123ee0f35df046092c5a482bd"),
    "random": ("2..9",
        "3bf453310db8062c672fa5e20e9aee8600085428750bf19f8a564c849c24d844"),
    "random-coverage": ("0..9",
        "086a920e3165a1658ab4ae134bbdb989f0d46266aa59c7a316f9d2cbdcc13cf3"),
    "random-piercing": ("2..9",
        "9b62776c37aa76b0c88bc102d42377376342127fe6a3caef8552a5165872c905"),
}

BOUND_8 = "98f409a542351e21b597fd65cc9a249c165db3c2cd4cefa14ad14d157ca6d632"
ENVELOPES_50 = "9cf709b59e927d6a006b6c6d73091a2edf466aa97714f0f005b3edfe4d37ac22"
STAIRCASE_3_300 = "34b4e192036cd5716ce315da1c9be64bff85473d2ff6d28b07832625842c4ef5"
STAIRCASE_VERIFIED_3_20 = "cc8508a1c4fabace1974bbbcfa63a7948b8926af7f7ec8a434b72bec665af115"
LITERAL_ALL_PERMS = {
    8: (576, "4e60ee259ad8f7878fc4514bf532c3e2bd4f4b12bed11477d7695002edd17755"),
    9: (2880, "6d3897de30acf37067771d852bd63d46b7f0c98786119c4c79ab194feb491af4"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv, capsys) -> str:
    code = main(argv)
    return f"{code}\n{capsys.readouterr().out}"


@pytest.mark.parametrize("family", sorted(GENERATE))
def test_generate_solve_verify(family, tmp_path, capsys):
    n, expected = GENERATE[family]
    text = run(["generate", "--family", family, "--n", n, "--seed", "11"], capsys)
    path = tmp_path / "inst.json"
    path.write_text(text.split("\n", 1)[1], encoding="utf-8")
    text += run(["solve", "--in", str(path)], capsys)
    text += run(["verify", "--in", str(path)], capsys)
    assert digest(text) == expected


@pytest.mark.parametrize("family", sorted(BENCH))
def test_bench(family, capsys):
    n, expected = BENCH[family]
    text = run(["bench", "--family", family, "--n", n, "--seed", "7",
                "--trials", "2"], capsys)
    assert digest(text) == expected


def test_bound(capsys):
    assert digest(run(["bound", "--n", "8"], capsys)) == BOUND_8


def test_envelopes_on_seeded_random_instances():
    lines = []
    for seed in range(50):
        counter = QueryCounter()
        env = build_envelopes(
            gen_random_piercing(1 + seed, np.random.RandomState(seed)), counter)
        steps = [(fn.breakpoints, fn.values)
                 for fn in (env.f_nw, env.f_ne, env.g_sw, env.g_se)]
        lines.append(repr((steps, (counter.lt, counter.eq, counter.gt))))
    assert digest("\n".join(lines)) == ENVELOPES_50


def test_staircase_minimal_instances():
    text = "".join(dumps_instance(gen_staircase_minimal(n, verify=False))
                   for n in range(3, 301))
    assert digest(text) == STAIRCASE_3_300


def test_staircase_minimal_self_verified_instances():
    text = "".join(dumps_instance(gen_staircase_minimal(n)) for n in range(3, 21))
    assert digest(text) == STAIRCASE_VERIFIED_3_20


def parity_preserving_orders(n):
    """Every permutation of 1..n that maps odd positions to odd values."""
    odd, even = range(1, n + 1, 2), range(2, n + 1, 2)
    for odds in itertools.permutations(odd):
        for evens in itertools.permutations(even):
            order = [0] * n
            order[0::2], order[1::2] = odds, evens
            yield order


@pytest.mark.parametrize("n", sorted(LITERAL_ALL_PERMS))
def test_staircase_literal_every_parity_preserving_permutation(n):
    count, expected = LITERAL_ALL_PERMS[n]
    texts = [dumps_instance(gen_staircase_literal(n, order))
             for order in parity_preserving_orders(n)]
    assert len(texts) == count
    assert digest("".join(texts)) == expected
