""".pwl tokens and map checks in integers, against the Fraction code that
they replaced, kept here as the reference: `rat`, the validating `PLMap`
constructor, `parse_map_text` and the straightness test."""

import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

from icm import (DomainError, PLMap, ParseError, dump_map_text,
                 parse_map_text, rat, read_map, tent, write_map)
from icm.core import _quad, _straight
from conftest import fraction_straight

F = Fraction

# Python 3.11+ refuses to convert longer digit strings to int; 0 is no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# -- the references -------------------------------------------------------------

_REFERENCE_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def reference_rat(value):
    """`rat`: a fullmatch of the grammar, then `Fraction(str)`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _REFERENCE_RATIONAL.fullmatch(value):
            raise DomainError(f"not an integer or a/b rational: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DomainError(f"zero denominator: {value!r}") from None
        except ValueError:
            raise DomainError(
                f"too many digits: a {len(value)}-character rational") from None
    raise DomainError(f"not an exact rational: {value!r}")


def reference_points(points):
    """The points of `PLMap(points)`, checked and merged in Fractions."""
    pts = [(reference_rat(x), reference_rat(y)) for x, y in points]
    if len(pts) < 2:
        raise DomainError("a map needs at least the two endpoint breakpoints")
    if pts[0][0] != 0 or pts[-1][0] != 1:
        raise DomainError("breakpoint abscissas must span exactly [0, 1]")
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0:
            raise DomainError("breakpoint abscissas must strictly increase")
        if y0 == y1:
            raise DomainError(f"constant piece on [{x0}, {x1}] is not allowed")
    for _, y in pts:
        if not (0 <= y <= 1):
            raise DomainError(f"value {y} outside [0, 1]")
    merged = [pts[0], pts[1]]
    for p in pts[2:]:
        if fraction_straight(merged[-2], merged[-1], p):
            merged[-1] = p
        else:
            merged.append(p)
    return tuple(merged)


def reference_parse(text):
    """The points of `parse_map_text(text)`: every token a Fraction, then
    the constructor's checks."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'X Y', got {line!r}", lineno)
        try:
            points.append((reference_rat(tokens[0]), reference_rat(tokens[1])))
        except DomainError as exc:
            raise ParseError(str(exc), lineno) from None
    if not points:
        raise ParseError("no data lines")
    return reference_points(points)


def outcome(call, arg):
    """What a call gives: ("ok", value), or the exception's type, message
    and line number."""
    try:
        return "ok", call(arg)
    except DomainError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def all_fractions(points):
    return all(type(c) is Fraction for p in points for c in p)


# -- seeded texts ---------------------------------------------------------------

def _token(rng, v):
    """v written as a .pwl token: reduced, scaled by a factor, or with
    leading zeros."""
    n, d = v.numerator, v.denominator
    form = rng.random()
    if form < 0.2:
        k = rng.randint(2, 9)
        n, d = n * k, d * k
    elif form < 0.3:
        return f"{'-' if n < 0 else ''}00{abs(n)}" + ("" if d == 1 else f"/0{d}")
    return str(n) if d == 1 and rng.random() < 0.7 else f"{n}/{d}"


def _valid_points(rng):
    """The points of a random map with straight points inserted, on a
    small grid or over a large denominator."""
    denom = rng.choice([12, 60, 10**30 + 57, 2**89 - 1])
    while True:
        k = rng.randint(0, 6)
        xs = sorted({rng.randint(1, denom - 1) for _ in range(k)})
        ys = [rng.randint(0, denom) for _ in range(len(xs) + 2)]
        if all(a != b for a, b in zip(ys, ys[1:])):
            break
    pts = list(zip([F(x, denom) for x in (0, *xs, denom)],
                   [F(y, denom) for y in ys]))
    out = [pts[0]]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        for _ in range(rng.choice([0, 0, 1, 2])):
            t = F(rng.randint(1, 9), 10)
            x = out[-1][0] + (x1 - out[-1][0]) * t
            out.append((x, y0 + (y1 - y0) * (x - x0) / (x1 - x0)))
        out.append((x1, y1))
    return out


def _text(rng, points):
    lines = []
    for x, y in points:
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# a comment", "  #x y z"]))
        sep = rng.choice([" ", "  ", "\t"])
        lines.append(rng.choice(["", " ", "\t"]) + _token(rng, x) + sep
                     + _token(rng, y) + rng.choice(["", " "]))
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n"])


BAD_TOKENS = ["0.5", "1e-1", "+1", "1/-2", "a", "1//2", "1/2/3", "½", "", "-",
              "1/", "/2", "--1", "1_000", "0x1"]
UNICODE_TOKENS = ["١/٢", "１/３", "१", "-٠"]


def _malformed(rng, points):
    """A text that breaks one rule: a bad or Unicode token, 1/0, too many
    digits, a wrong token count, unsorted or non-spanning abscissas, a
    constant piece or a value out of range."""
    tokens = [[_token(rng, x), _token(rng, y)] for x, y in points]
    i = rng.randrange(len(tokens))
    kind = rng.randrange(10)
    if kind == 0:
        tokens[i][rng.randrange(2)] = rng.choice(BAD_TOKENS)
    elif kind == 1:
        tokens[i][rng.randrange(2)] = rng.choice(UNICODE_TOKENS)
    elif kind == 2:
        tokens[i][rng.randrange(2)] = rng.choice(["1/0", "0/0", "-3/00"])
    elif kind == 3:
        digits = "7" * (max(DIGIT_LIMIT, 4300) + rng.choice([0, 1]))
        tokens[i][rng.randrange(2)] = rng.choice(
            [digits, "-" + digits, "1/" + digits, digits + "/3"])
    elif kind == 4:
        tokens[i] = rng.choice([tokens[i][:1], tokens[i] + ["1"]])
    elif kind == 5 and len(tokens) > 2:
        j = rng.randrange(len(tokens) - 1)
        tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    elif kind == 6:
        del tokens[rng.choice([0, -1])]
    elif kind == 7 and i:
        tokens[i][1] = tokens[i - 1][1]
    elif kind == 8:
        tokens[i][1] = rng.choice(["5/4", "-1/3", "2", "-0", "7/7"])
    else:
        tokens[i][0] = tokens[rng.randrange(len(tokens))][0]
    return "\n".join(" ".join(t) for t in tokens) + "\n"


class TestTokens:
    def test_rat_matches_reference(self):
        limit = max(DIGIT_LIMIT, 4300)
        values = ["2/3", "-4", "0", "6/4", "-0", "007/010", "3/3", *BAD_TOKENS,
                  *UNICODE_TOKENS, "1/0", "0/0", " 1/2", "1/2\n", "1 / 2",
                  "7" * limit, "7" * (limit + 1), "-" + "7" * limit,
                  "-" + "7" * (limit + 1), "1/" + "0" * (limit + 1),
                  "7" * (limit + 1) + "/0", 5, -3, F(2, 6), 0.5, Decimal(1),
                  None, b"1/2"]
        for v in values:
            got, expected = outcome(rat, v), outcome(reference_rat, v)
            assert got == expected, v
            if got[0] == "ok":
                assert type(got[1]) is Fraction

    def test_straight_matches_fraction_reference(self):
        """On triples of points in any order: collinear ones running the same
        way and folding back, bends, turns and level pieces, small and
        large denominators, with the integers scaled by a common factor."""
        rng = random.Random(2201)
        seen = {True: 0, False: 0}
        folds = 0
        for _ in range(6000):
            d = rng.choice([7, 12, 2**70 + 1])
            p, q = [(F(rng.randint(-d, d), d), F(rng.randint(-d, d), d))
                    for _ in range(2)]
            t = F(rng.randint(-20, 20), 10)
            if rng.random() < 0.5:  # on the line through p and q
                r = (q[0] + t * (q[0] - p[0]), q[1] + t * (q[1] - p[1]))
                folds += t < 0
            else:
                r = (F(rng.randint(-d, d), d), F(rng.randint(-d, d), d))
            expected = fraction_straight(p, q, r)
            quads = [_quad(v) for v in (p, q, r)]
            assert _straight(*quads) == expected, (p, q, r)
            k = rng.randint(2, 5)
            assert _straight(*[(a * k, b * k, c * k, e * k)
                               for a, b, c, e in quads]) == expected
            seen[expected] += 1
        assert seen[True] > 1000 and seen[False] > 1000 and folds > 1000


class TestParser:
    def test_valid_texts_match_reference(self):
        rng = random.Random(2202)
        merged = large = 0
        for _ in range(1500):
            points = _valid_points(rng)
            text = _text(rng, points)
            got = parse_map_text(text).points
            assert got == reference_parse(text), text
            assert all_fractions(got)
            merged += len(got) < len(points)
            large += any(c.denominator > 2**64 for p in got for c in p)
        assert merged > 500 and large > 500

    def test_malformed_texts_match_reference(self):
        rng = random.Random(2203)
        kinds = {}
        for _ in range(3000):
            text = _malformed(rng, _valid_points(rng))
            got = outcome(lambda t: parse_map_text(t).points, text)
            assert got == outcome(reference_parse, text), text[:200]
            if got[0] != "ok":
                message = re.sub(r"^line \d+: ", "", got[1])
                key = re.sub(r"[^a-z ].*", "", message)
                kinds[key] = kinds.get(key, 0) + 1
        # every message of the reader and of the checks occurs
        assert set(kinds) >= {
            "not an integer or a", "zero denominator", "too many digits",
            "expected ", "breakpoint abscissas must span exactly ",
            "breakpoint abscissas must strictly increase",
            "constant piece on ", "value "}, kinds

    def test_texts_without_a_map_match_reference(self):
        for text in ("", "\n\n", "# only a comment\n", "0 0\n", "1/2 1\n",
                     "0 0 0\n1 1\n", "0\n1 1\n", "0 0\n1 1 # no\n",
                     "0 0\n 1 1 \n", "0 0\n1 1\n"):
            assert (outcome(lambda t: parse_map_text(t).points, text)
                    == outcome(reference_parse, text)), text

    def test_constructor_matches_reference(self):
        """`PLMap(points)` on the same draws, as Fractions, ints and strings,
        and with one rule broken."""
        rng = random.Random(2204)
        failed = 0
        for _ in range(1500):
            points = _valid_points(rng)
            if rng.random() < 0.5:
                i = rng.randrange(len(points))
                x, y = points[i]
                points[i] = rng.choice([(x, F(5, 4)), (x, points[i - 1][1]),
                                        (points[i - 1][0], y), (str(x), y),
                                        (x, "1/0"), (x, 0.5), (1, y)])
            got = outcome(lambda p: PLMap(p).points, points)
            assert got == outcome(reference_points, points)
            failed += got[0] != "ok"
        assert failed > 300


class TestWriter:
    def test_write_then_read_gives_an_equal_map(self, tmp_path):
        rng = random.Random(2205)
        maps = [tent(n) for n in (2, 3, 7)]
        maps += [PLMap(_valid_points(rng)) for _ in range(60)]
        for i, f in enumerate(maps):
            path = tmp_path / f"{i}.pwl"
            write_map(f, path)
            assert path.read_text(encoding="utf-8") == dump_map_text(f)
            g = read_map(path)
            assert g == f and g.points == f.points, f

    def test_str_of_a_tent(self):
        assert str(tent(3)) == "(0,0) (1/3,1) (2/3,0) (1,1)"
