"""Boson words and their exact normally ordered forms.

A boson word is a finite product of the annihilator ``a`` and the creator
``a†`` subject to the commutation relation ``a a† = a† a + 1``.  Every word
(and every product of words) expands uniquely over the basis
``{(a†)^j a^l}``; that expansion is the normally ordered form.  All
coefficients are arbitrary-precision integers: they grow factorially fast,
so fixed-width arithmetic is never safe here.
"""

from __future__ import annotations

import re
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from math import comb, perm
from types import MappingProxyType

from .errors import ParseError, ValidationError, json_list, json_value, require_int, require_items
from .series import INTEGER_PATTERN, parse_integer

ANNIHILATOR = "a"
CREATOR = "d"

# The word grammar.  Letter text is whitespace and the tokens a, a+ and d in
# either case.  A token of the rs: form follows optional whitespace and is an
# INTEGER_PATTERN integer, any other single character, or the end of the text.
_WS = r"[ \t\r\n]"
_LETTER_TEXT = re.compile(rf"(?:{_WS}|[aA]\+?|[dD])*")
_RS_PREFIX = re.compile(rf"{_WS}*[rR][sS]:")
_RS_TOKEN = re.compile(rf"{_WS}*(?P<token>(?P<int>{INTEGER_PATTERN})|.|\Z)", re.DOTALL)
_RS_EXPECTED = {
    "[": "expected '[' after rs:",
    ",": "expected ',' between r and s",
    ";]": "expected ';' or ']'",
}


@dataclass(frozen=True)
class BosonWord:
    """A finite word over the two-letter alphabet {annihilator, creator}.

    The word ``(a†)^{r_1} a^{s_1} ··· (a†)^{r_M} a^{s_M}`` is stored as its
    maximal runs ``((r_1, s_1), ..., (r_M, s_M))``: no pair is (0, 0), only
    the first may have r = 0 and only the last s = 0.  The constructor merges
    any sequence of (r, s) tuples of non-negative ``int`` into that form, so
    equal words compare equal however their runs were given; anything else
    raises ValidationError.  The empty word (no runs) is valid and denotes
    the identity operator.  ``text``, the letters ``"a"`` (annihilator) and
    ``"d"`` (creator, a†), is derived from the runs.
    """

    runs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        runs: list[tuple[int, int]] = []
        for run in require_items(self.runs, "runs"):
            if not (type(run) is tuple and len(run) == 2):
                raise ValidationError(f"run {run!r} is not a pair (r, s)")
            r, s = (require_int(x, "run exponent", 0) for x in run)
            if runs and (runs[-1][1] == 0 or r == 0):
                r0, s0 = runs.pop()
                r, s = r0 + r, s0 + s
            if r or s:
                runs.append((r, s))
        object.__setattr__(self, "runs", tuple(runs))

    @classmethod
    def from_letters(cls, letters) -> BosonWord:
        """Build a word from a sequence of ``"a"`` and ``"d"`` letters."""
        runs = []
        for x, group in groupby(letters):
            if x not in (ANNIHILATOR, CREATOR):
                raise ValidationError(f"invalid letter {x!r}; expected 'a' or 'd'")
            n = sum(1 for _ in group)
            runs.append((n, 0) if x == CREATOR else (0, n))
        return cls(runs)

    def __len__(self) -> int:
        return self.creator_count + self.annihilator_count

    @property
    def annihilator_count(self) -> int:
        return sum(s for _, s in self.runs)

    @property
    def creator_count(self) -> int:
        return sum(r for r, _ in self.runs)

    @property
    def text(self) -> str:
        """Canonical parseable form, e.g. ``"da"`` for a†a."""
        return "".join(CREATOR * r + ANNIHILATOR * s for r, s in self.runs)


@dataclass(frozen=True)
class NormalForm:
    """A finite integer combination of basis monomials (a†)^j a^l.

    ``terms`` is a read-only mapping from pairs ``(j, l)`` of non-negative
    ``int`` to nonzero ``int``; a float or a boolean, a key that is not a
    pair, or ``terms`` that is not a mapping raises ValidationError.
    Zero coefficients are never stored.
    """

    terms: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if not isinstance(self.terms, Mapping):
            raise ValidationError(f"terms {self.terms!r} is not a mapping of (j, l) pairs")
        cleaned: dict[tuple[int, int], int] = {}
        for key, c in self.terms.items():
            if not (type(key) is tuple and len(key) == 2):
                raise ValidationError(f"key {key!r} is not a pair (j, l) of exponents")
            j, l = key
            if type(j) is not int or type(l) is not int or j < 0 or l < 0:
                raise ValidationError(f"exponents ({j!r}, {l!r}) are not non-negative integers")
            if type(c) is not int:
                raise ValidationError(f"coefficient {c!r} is not an exact integer")
            if c != 0:
                cleaned[(j, l)] = c
        object.__setattr__(self, "terms", MappingProxyType(cleaned))

    def __reduce__(self):
        # A mappingproxy does not pickle; the dict behind it does.
        return NormalForm, (dict(self.terms),)

    @classmethod
    def identity(cls) -> NormalForm:
        return cls({(0, 0): 1})

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        """Terms in canonical order: ascending in j, then l."""
        return sorted(self.terms.items())

    def to_json_obj(self) -> list:
        return [
            {"j": j, "l": l, "coeff": str(c)} for (j, l), c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj) -> NormalForm:
        terms = {
            (json_value(t, "j", int), json_value(t, "l", int)):
                parse_integer(json_value(t, "coeff"))
            for t in json_list(obj, "a normal form", of=dict)
        }
        if len(terms) != len(obj):
            raise ValidationError("duplicate (j, l) pair in serialized normal form")
        return cls(terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (j, l), c in self.sorted_terms():
            if (j, l) == (0, 0):
                parts.append(str(c))
            else:
                parts.append(f"{c} (a†)^{j} a^{l}")
        return " + ".join(parts)


def parse_word(text: str) -> BosonWord:
    """Parse word text into a BosonWord.

    Two syntaxes are accepted:

    * letter tokens, each ``a`` or ``d`` (case-insensitive), with ``a+`` as a
      synonym for ``d``; whitespace is ignored: ``"a a+ a a a+ a"``;
    * the vector form ``rs:[r1,s1;r2,s2;...]`` for
      ``(a†)^{r1} a^{s1} (a†)^{r2} a^{s2} ···``, stored as these runs
      without expanding them into letters.

    Whitespace is space, tab, CR and LF, and ``rs:`` exponents are integers
    in ASCII digits.  Unknown tokens raise :class:`ParseError` carrying the
    character offset; a negative exponent raises :class:`ValidationError`.
    """
    rs = _RS_PREFIX.match(text)
    if rs:
        return _parse_rs(text, rs.end())
    valid = _LETTER_TEXT.match(text).end()
    if valid < len(text):
        raise ParseError(f"unknown token {text[valid]!r}", offset=valid)
    return BosonWord.from_letters("".join(text.lower().replace("a+", CREATOR).split()))


def _parse_rs(text: str, offset: int) -> BosonWord:
    """Parse the ``rs:[r1,s1;...]`` vector syntax; `offset` points past ``rs:``.

    ``expect`` names the next token allowed: "[", "int", ",", ";]" or "end".
    """
    exponents: list[int] = []
    expect = "["
    for m in _RS_TOKEN.finditer(text, offset):
        token, at = m["token"], m.start("token")
        if expect == "end":
            if token:
                raise ParseError(f"trailing input {token[0]!r}", offset=at)
            break
        if expect == "int":
            if m["int"] is None:
                raise ParseError("expected integer", offset=at)
            value = parse_integer(token)
            if value < 0:
                raise ValidationError(f"negative exponent {value} in rs: form")
            exponents.append(value)
            expect = "," if len(exponents) % 2 else ";]"
        elif not token or token not in expect:
            raise ParseError(_RS_EXPECTED[expect], offset=at)
        else:
            expect = "end" if token == "]" else "int"
    return BosonWord(tuple(zip(exponents[::2], exponents[1::2])))


def excess(w: BosonWord) -> int:
    """Creator count minus annihilator count; constant across the normal form."""
    return w.creator_count - w.annihilator_count


def word_power(w: BosonWord, n: int) -> BosonWord:
    """Concatenation of n copies of w; n = 0 gives the empty word."""
    return BosonWord(w.runs * require_int(n, "word power", 0))


def multiply_normal_forms(p: NormalForm, q: NormalForm) -> NormalForm:
    """Normally ordered product of two normal forms.

    Reduces each cross term with the Weyl-algebra identity

        a^l (a†)^r = Σ_k C(l,k) C(r,k) k! (a†)^{r−k} a^{l−k}

    which collapses the exponential blowup of letter-by-letter rewriting
    into a polynomial-size sum.  The weight C(l,k)·C(r,k)·k! is computed as
    perm(l,k)·C(r,k).  Bilinear and associative.
    """
    acc: defaultdict[tuple[int, int], int] = defaultdict(int)
    for (j1, l1), c1 in p.terms.items():
        for (j2, l2), c2 in q.terms.items():
            c = c1 * c2
            for k in range(min(l1, j2) + 1):
                weight = perm(l1, k) * comb(j2, k)
                acc[(j1 + j2 - k, l1 + l2 - k)] += c * weight
    return NormalForm(acc)


def normal_order(w: BosonWord) -> NormalForm:
    """Expand w over the basis (a†)^j a^l by moving annihilators right.

    The empty word yields the identity ``{(0,0): 1}``.  All coefficients of
    a word's normal form are strictly positive, and j − l equals the word's
    excess in every term.
    """
    result = NormalForm.identity()
    for r, s in w.runs:
        result = multiply_normal_forms(result, NormalForm({(r, s): 1}))
    return result


def double_dot(w: BosonWord) -> NormalForm:
    """Reorder w as if a and a† commuted: a single term with coefficient 1."""
    return NormalForm({(w.creator_count, w.annihilator_count): 1})
