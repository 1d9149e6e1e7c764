"""Braid words in the Artin generators, with closure bookkeeping."""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index

# Both bracket routes do work superlinear in the strand count before the
# first letter: the TL route builds its n-1 generator diagrams, O(n^3) in
# all, and the state sum raises delta to the power n-1. At 200 strands a
# one-letter word takes about 0.45 s on the TL route and 0.03 s on the
# state sum (2-vCPU x86-64 VM, CPython 3.11); at 300 the TL route passes 1 s.
BRAID_MAX_STRANDS = 200


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers with 1 <= |letter| <= strands - 1: letter
    k crosses strands k and k+1 (positive crossing), and -k is its inverse.
    The empty word is the identity braid. Strand counts past
    BRAID_MAX_STRANDS raise ValueError; a strand count or letter that is
    not an int (operator.index), such as a float or a string, raises
    TypeError.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "strands", index(self.strands))
        if not 1 <= self.strands <= BRAID_MAX_STRANDS:
            raise ValueError(
                f"strand count must be in 1..{BRAID_MAX_STRANDS}, got {self.strands}"
            )
        object.__setattr__(self, "letters", tuple(map(index, self.letters)))
        for ell in self.letters:
            if ell == 0 or abs(ell) > self.strands - 1:
                raise ValueError(
                    f"letter {ell} out of range for {self.strands} strands"
                )

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.strands != self.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def writhe(self) -> int:
        """Sum of letter signs (the writhe of the closed diagram)."""
        return sum(1 if ell > 0 else -1 for ell in self.letters)

    def inverse(self) -> "BraidWord":
        """The group inverse: letters reversed and negated."""
        return BraidWord(self.strands, tuple(-ell for ell in reversed(self.letters)))

    def closure_permutation(self) -> tuple[int, ...]:
        """perm[s] = bottom position reached by the strand starting at top s."""
        at_position = list(range(self.strands))
        for ell in self.letters:
            i = abs(ell) - 1
            at_position[i], at_position[i + 1] = at_position[i + 1], at_position[i]
        perm = [0] * self.strands
        for pos, strand in enumerate(at_position):
            perm[strand] = pos
        return tuple(perm)

    def component_count(self) -> int:
        """Number of link components of the closure (permutation cycles)."""
        perm = self.closure_permutation()
        seen = [False] * self.strands
        cycles = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            cycles += 1
            s = start
            while not seen[s]:
                seen[s] = True
                s = perm[s]
        return cycles

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": list(self.letters)}

    @classmethod
    def from_json(cls, data: dict) -> "BraidWord":
        return cls(int(data["strands"]), tuple(int(x) for x in data["word"]))


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a whitespace- or comma-separated list of signed letters.

    An empty (or all-whitespace) string is the identity braid. Raises
    ValueError naming the offending token for anything non-integer, zero,
    or out of range.
    """
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    letters = []
    for tok in tokens:
        try:
            value = int(tok)
        except ValueError:
            raise ValueError(f"bad braid letter {tok!r}: not an integer") from None
        if value == 0:
            raise ValueError("bad braid letter '0': letters are nonzero")
        if abs(value) > strands - 1:
            raise ValueError(
                f"bad braid letter {tok!r}: out of range for {strands} strands"
            )
        letters.append(value)
    return BraidWord(strands, tuple(letters))
