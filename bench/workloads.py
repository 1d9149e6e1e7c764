"""Seeded workloads of the tlbraid benchmark, with their output checks.

A workload is an endless sequence of *passes*. Pass k is a fixed stratified
list of items drawn from ``random.Random(f"{name}:{seed}:{k}")``, so a seed
always yields the same inputs however many passes a run gets through, and
every pass has the same mix of sizes. The timed loop stops only at a pass
boundary, which keeps that mix, and therefore items per second, independent
of where the deadline falls.

Items are JSON-ready dicts that ``worker.py`` executes. Replies are checked
here with identities that need no frozen values, so any seed can be checked:

* Jones polynomial at t = 1 equals (-2)^(c-1), c the component count;
* bracket at A = 1 equals (-1)^w * (-2)^(c-1), w the writhe;
* the Fibonacci model passes at delta = +-phi and fails at delta = 1.5.

For the default seed the first passes are also compared against committed
digests of their canonical output, so that output stays byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
DIGEST_PASSES = 2
DIGEST_FILE = Path(__file__).with_name("digests.json")

# Caps of the generators. The TL state grows toward Catalan(n) diagrams
# (429 at n = 7, 35357670 at n = 16), and the smoothing oracle enumerates
# 2^L states and refuses L > 24; no seed may push a run past either.
TL_MAX_STRANDS = 7
ORACLE_MAX_LETTERS = 24
MATRIX_MAX_N = 12

FIB_POINTS = ("+phi", "-phi", "generic")  # generic is delta = 1.5


def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    return [rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(length)]


def word_text(letters: list[int]) -> str:
    return " ".join(str(x) for x in letters)


def jones_item(strands: int, letters: list[int]) -> dict:
    if not 2 <= strands <= TL_MAX_STRANDS:
        raise ValueError(f"TL item on {strands} strands exceeds cap {TL_MAX_STRANDS}")
    return {"kind": "jones", "n": strands, "word": letters}


def cli_item(strands: int, letters: list[int]) -> dict:
    if not 2 <= strands <= TL_MAX_STRANDS:
        raise ValueError(f"TL item on {strands} strands exceeds cap {TL_MAX_STRANDS}")
    if len(letters) > ORACLE_MAX_LETTERS:
        raise ValueError(
            f"oracle item of {len(letters)} letters exceeds cap {ORACLE_MAX_LETTERS}"
        )
    argv = ["bracket", "--both", "--json", "--strands", str(strands)]
    return {"kind": "cli", "n": strands, "word": letters,
            "argv": argv + ["--word", word_text(letters)]}


def verify_item(n: int, point: str) -> dict:
    if not 1 <= n <= MATRIX_MAX_N or point not in FIB_POINTS:
        raise ValueError(f"bad verify item n={n} point={point!r}")
    return {"kind": "verify", "n": n, "point": point}


def sweep_word(rng: random.Random, strands: int, length: int, signed: bool) -> list[int]:
    """A random word whose every block of strands-1 letters uses each
    generator once, in random order; signs are random when `signed`, else
    every letter is positive.

    Positive sweeps keep the TL state at its full width and never cancel, so
    a word's cost depends on (n, L) alone: at n = 7, L = 32 the spread of
    cost between words is about 8%, against about 35% with random signs.
    Random signs grow larger coefficients (16 bits at n = 5, L = 58).
    """
    letters: list[int] = []
    while len(letters) < length:
        block = list(range(1, strands))
        rng.shuffle(block)
        letters += [rng.choice((-1, 1)) * i if signed else i for i in block]
    return letters[:length]


# (n, L range, signed) classes of tl_long, paired so that they cost about
# 0.2, 0.4 and 0.6 s each: the median then falls inside the n = 6 class and
# the tail inside the n = 7 class, whatever the number of passes. Only the
# cheapest class, below the median, carries random signs.
TL_LONG_CLASSES = ((5, 55, 60, True), (6, 42, 48, False), (7, 30, 34, False))


def tl_long_pass(rng: random.Random) -> list[dict]:
    return [
        jones_item(n, sweep_word(rng, n, rng.randint(lo, hi), signed))
        for n, lo, hi, signed in TL_LONG_CLASSES
    ]


def dual_short_pass(rng: random.Random) -> list[dict]:
    # The oracle's 2^L states set the cost, so every (n, L) appears once per
    # pass: the median falls in the L = 14 class and the tail in L = 16.
    return [
        cli_item(n, random_word(rng, n, length))
        for n in (3, 4, 5)
        for length in range(12, 17)
    ]


def fib_verify_pass(rng: random.Random) -> list[dict]:
    # Items of one n cost the same, so shuffling within n keeps the mix.
    items = []
    for n in (10, 11, 12):
        items += [verify_item(n, p) for p in rng.sample(FIB_POINTS, len(FIB_POINTS))]
    return items


# ---------------------------------------------------------------- checks


def braid_word(item: dict):
    from tlbraid.braid import BraidWord  # the caller puts the sources on sys.path

    return BraidWord(item["n"], tuple(item["word"]))


def jones_value_at_one(text: str) -> int:
    """Sum of the coefficients of a format_jones string (its value at t = 1)."""
    if text == "0":
        return 0
    return sum(int(term.split("*", 1)[0]) for term in text.split(" + "))


def check_jones(item: dict, out) -> str | None:
    if not isinstance(out, str):
        return f"expected a string, got {type(out).__name__}"
    c = braid_word(item).component_count()
    try:
        got = jones_value_at_one(out)
    except ValueError:
        return f"unparseable Jones polynomial {out!r}"
    want = (-2) ** (c - 1)
    return None if got == want else f"V(1) = {got}, want (-2)^({c}-1) = {want}"


def check_cli(item: dict, out) -> str | None:
    if out.get("code") != 0:
        return f"exit code {out.get('code')}: {out.get('stderr', '').strip()}"
    try:
        payload = json.loads(out["stdout"])
        value = sum(int(c) for _, c in payload["terms"])
    except (ValueError, KeyError, TypeError):
        return f"unparseable bracket output {out['stdout']!r}"
    if payload.get("strands") != item["n"] or payload.get("word") != item["word"]:
        return "output echoes another word"
    word = braid_word(item)
    want = (-1) ** (word.writhe() % 2) * (-2) ** (word.component_count() - 1)
    return None if value == want else f"<L>(A=1) = {value}, want {want}"


def check_verify(item: dict, out) -> str | None:
    flags = [ok for _, ok in out["checks"]]
    if out["passed"] != all(flags):
        return "passed flag disagrees with the relation rows"
    want = item["point"] != "generic"
    return None if out["passed"] == want else f"passed = {out['passed']}, want {want}"


# ------------------------------------------------- checker's negative controls


def corrupt_jones(out: str) -> str:
    return "1 + " + out  # an extra constant term moves V(1) by one


def corrupt_cli(out: dict) -> dict:
    payload = json.loads(out["stdout"])
    exp, coeff = payload["terms"][0]
    payload["terms"][0] = [exp, str(int(coeff) + 1)]
    return dict(out, stdout=json.dumps(payload) + "\n")


def flip_passed(out: dict) -> dict:
    return dict(out, passed=not out["passed"])


# --------------------------------------------------------- canonical output


def canonical(item: dict, out) -> str:
    """The byte string a digest covers: what the user sees, minus floats that
    depend on the BLAS build (residuals), which the checks bound instead."""
    if item["kind"] == "jones":
        return out
    if item["kind"] == "cli":
        return f"{out['code']}\n{out['stdout']}"
    return json.dumps(
        {"n": item["n"], "point": item["point"], "delta": out["delta"],
         "passed": out["passed"], "checks": out["checks"]},
        sort_keys=True,
    )


def digest(item: dict, out) -> str:
    return hashlib.sha256(canonical(item, out).encode()).hexdigest()[:16]


def load_digests() -> dict[str, list[str]]:
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random], list[dict]]
    warmup: dict
    check: Callable[[dict, object], str | None]
    corrupt: Callable[[object], object]
    costliest_per_pass: int  # items of the costliest class in one pass

    def pass_items(self, seed: int, k: int) -> list[dict]:
        return self.make(random.Random(f"{self.name}:{seed}:{k}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="tl_long", make=tl_long_pass, warmup=jones_item(3, [1, -2, 1, -2]),
                 check=check_jones, corrupt=corrupt_jones, costliest_per_pass=1),
        Workload(name="dual_short", make=dual_short_pass, warmup=cli_item(3, [1, -2, 1, -2]),
                 check=check_cli, corrupt=corrupt_cli, costliest_per_pass=3),
        Workload(name="fib_verify", make=fib_verify_pass, warmup=verify_item(4, "+phi"),
                 check=check_verify, corrupt=flip_passed, costliest_per_pass=3),
    )
}
