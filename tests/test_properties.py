"""Property tests: invariances of the bracket that the mathematics guarantees,
JSON round trips of the exact types, and fuzzed command lines."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tlbraid import (
    BraidWord,
    LaurentPoly,
    PlanarPairing,
    bracket_via_tl,
    enumerate_pairings,
    normalized_bracket,
)
from tlbraid.braid import BRAID_MAX_STRANDS
from tlbraid.cli import main

# Small words keep the whole module within a few seconds; derandomized so
# every run checks the same examples.
small = settings(max_examples=40, deadline=None, derandomize=True, database=None)

MAX_STRANDS = 5
MAX_LETTERS = 20


@st.composite
def braid_words(draw, min_strands=1):
    n = draw(st.integers(min_strands, MAX_STRANDS))
    if n == 1:
        return BraidWord(1, ())
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=MAX_LETTERS))))


def _splice(word: BraidWord, pos: int, inserted: tuple) -> BraidWord:
    letters = word.letters
    pos %= len(letters) + 1
    return BraidWord(word.strands, letters[:pos] + inserted + letters[pos:])


@small
@given(braid_words(min_strands=2), st.data())
def test_conjugation_invariance(word, data):
    i = data.draw(st.integers(1, word.strands - 1))
    s = data.draw(st.sampled_from((1, -1)))
    conjugated = BraidWord(word.strands, (s * i,) + word.letters + (-s * i,))
    assert normalized_bracket(conjugated) == normalized_bracket(word)


@small
@given(braid_words(), st.sampled_from((1, -1)))
def test_stabilization_invariance(word, s):
    n = word.strands
    stabilized = BraidWord(n + 1, word.letters + (s * n,))
    assert normalized_bracket(stabilized) == normalized_bracket(word)


@small
@given(braid_words(min_strands=2), st.data())
def test_cancelling_pair_insertion(word, data):
    i = data.draw(st.integers(1, word.strands - 1))
    s = data.draw(st.sampled_from((1, -1)))
    pos = data.draw(st.integers(0, MAX_LETTERS))
    assert bracket_via_tl(_splice(word, pos, (s * i, -s * i))) == bracket_via_tl(word)


@small
@given(braid_words(min_strands=3), st.data())
def test_braid_relation(word, data):
    i = data.draw(st.integers(1, word.strands - 2))
    pos = data.draw(st.integers(0, MAX_LETTERS))
    lhs = _splice(word, pos, (i, i + 1, i))
    rhs = _splice(word, pos, (i + 1, i, i + 1))
    assert bracket_via_tl(lhs) == bracket_via_tl(rhs)


@small
@given(braid_words())
def test_mirror_inverts_variable(word):
    mirror = BraidWord(word.strands, tuple(-x for x in word.letters))
    assert bracket_via_tl(mirror) == bracket_via_tl(word).invert_variable()


def _through_json(value):
    return json.loads(json.dumps(value.to_json()))


@small
@given(st.dictionaries(st.integers(-60, 60), st.integers(-(2**80), 2**80)))
def test_laurent_poly_json_round_trip(terms):
    poly = LaurentPoly(terms)
    assert LaurentPoly.from_json(_through_json(poly)) == poly


@small
@given(braid_words())
def test_braid_word_json_round_trip(word):
    assert BraidWord.from_json(_through_json(word)) == word


@small
@given(st.integers(1, 5).flatmap(lambda n: st.sampled_from(enumerate_pairings(n))))
def test_planar_pairing_json_round_trip(pairing):
    assert PlanarPairing.from_json(_through_json(pairing)) == pairing


# Fuzzed command lines. Sizes stay where every command answers in well under
# a second: words have at most 14 letters (the state sum enumerates 2^14
# states), in-range strand counts stay small, and out-of-range ones go past
# the strand cap, which refuses them before any work.
FUZZ_MAX_LETTERS = 14

_reals = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1.5", "-1.5", "0", "2", "1e400", "x", "", "--"]),
)
_letters = st.one_of(
    st.sampled_from(["1", "-1", "2", "-2"]),
    st.one_of(st.integers(-7, 7).map(str), st.sampled_from(["x", "1.5", "+", "--"])),
)
_VALUES = {
    "--strands": st.one_of(
        st.integers(1, 6), st.integers(-2, 0), st.integers(BRAID_MAX_STRANDS + 1, 10**12)
    ).map(str),
    "--word": st.lists(_letters, max_size=FUZZ_MAX_LETTERS).flatmap(
        lambda tokens: st.sampled_from((" ".join(tokens), ",".join(tokens)))
    ),
    "--phase": st.one_of(
        _reals,
        st.sampled_from(["3pi/5", "-pi/2", "pi/0", "2*pi", ".pi", "9" * 400 + "pi"]),
    ),
    "--max": st.one_of(st.integers(-2, 40), st.integers(10**3, 10**12)).map(str)
    | st.just("--"),
    "--n": st.integers(-2, 13).map(str) | st.just("--"),
    "--gen": st.integers(-2, 15).map(str) | st.just("--"),
    "--delta": _reals,
    "--tol": _reals,
    "--delta-sign": st.sampled_from(["+", "-", "*", "--"]),
    # no command takes --right-end or --module: each must exit 2, not raise
    "--right-end": st.sampled_from(["uniform", "literal", "sideways"]),
    "--module": st.sampled_from(["tl", "fib", "other"]),
}
_UNKNOWN = ("--right-end", "--module")
_BRAID = ("--strands", "--word")
_PARAMS = ("--delta-sign", "--delta", "--phase", "--right-end")
# command -> (options it requires, options it takes besides)
_COMMANDS = {
    "bracket": (_BRAID, ("--normalized", "--oracle", "--both", "--json")),
    "jones": (_BRAID, ("--json",)),
    "eval": (_BRAID + ("--phase",), ("--normalized", "--json")),
    "dims": (("--max",), ()),
    "fib-matrix": (("--n", "--gen"), ("--braid", "--json") + _PARAMS),
    "fib-verify": (("--n",), ("--tol", "--json") + _PARAMS),
    "verify": (("--n",), ("--json", "--module")),
    "no-such-command": ((), ("--json",)),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    options = list(required)
    if optional:
        options += draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [command]
    for option in draw(st.permutations(options)):
        if option in _VALUES:
            argv.append(f"{option}={draw(_VALUES[option])}")
        else:
            argv.append(option)
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if any(arg.startswith(_UNKNOWN) for arg in argv):
        assert code == 2, argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1) and "--json" in argv:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)
