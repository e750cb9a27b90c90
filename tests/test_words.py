import random
import re

import pytest

import oracles
from conicline.words import (Word, _inverse, commutator, eq, gen, invert, multiply,
                             sq, substitute, word_text)
from oracles import composed_shapes, parse_word, word


def table(images: dict[str, Word]) -> dict:
    """The kernel's image table of Word images: label -> (image letters,
    inverse-image letters)."""
    return {lab: (img.letters, _inverse(img.letters)) for lab, img in images.items()}


def _random_word(rng, labels, max_len):
    return Word(tuple((rng.choice(labels), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, max_len))))


def test_reduce_cancellation():
    assert multiply(gen("x1"), invert(gen("x1"))) == Word()
    assert word("x1", "x2", ("x2", -1), "x1") == word("x1", "x1")
    already = word("x1", "x2", ("x1", -1))
    assert Word(already.letters) == already


def test_reduce_idempotent_and_confluent():
    rng = random.Random(7)
    labels = ["a", "b", "c"]
    for _ in range(300):
        letters = [(rng.choice(labels), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 12))]
        w = Word(tuple(letters))
        assert Word(w.letters) == w
        # inserting a cancelling pair anywhere must not change the value
        pos = rng.randint(0, len(letters))
        lab = rng.choice(labels)
        noisy = letters[:pos] + [(lab, 1), (lab, -1)] + letters[pos:]
        assert Word(tuple(noisy)) == w


@pytest.mark.parametrize("sign", [0, 2, -2, 1.5, "1"])
def test_word_rejects_other_signs(sign):
    with pytest.raises(ValueError, match="letter sign must be"):
        Word((("x1", 1), ("x2", sign)))


def test_substitute_keeps_generators_without_image():
    images = table({"a": word("b", "c")})
    assert substitute(word("a", "d", ("a", -1)).letters, images) == \
        word("b", "c", "d", ("c", -1), ("b", -1)).letters
    assert substitute(word("d", ("e", -1)).letters, images) == word("d", ("e", -1)).letters


def test_substitute_cancels_across_image_boundaries():
    images = table({"a": word("b", "c")})
    assert substitute(word("a", ("c", -1), ("b", -1)).letters, images) == ()
    # x1 x2 -> x1 x2 x1^-1 x1 = x1 x2: the seam between two images cancels
    images = table({"x1": word("x1", "x2", ("x1", -1)), "x2": gen("x1")})
    assert substitute(word("x1", "x2").letters, images) == word("x1", "x2").letters


def test_multiply_invert():
    assert invert(word("x1", "x2")) == word(("x2", -1), ("x1", -1))
    assert multiply(word("x1", "x2"), word(("x2", -1), "x3")) == word("x1", "x3")


def _seam_pair(rng, labels):
    """Two random freely reduced words; half the time a ends in the inverse
    of b's first letter, b is a^-1, or b is a, so the shapes cancel at
    their seams."""
    def random_word():
        return Word(tuple((rng.choice(labels), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 7))))
    a, b = random_word(), random_word()
    kind = rng.randrange(6)
    if kind == 0 and b:
        a = multiply(a, invert(Word(b.letters[:rng.randint(1, len(b))])))
    elif kind == 1:
        b = invert(a)
    elif kind == 2:
        b = a
    return a, b


def test_shapes_equal_their_composed_forms():
    """One Word per relator, from Words or from letter tuples, equals the
    shape composed of reduced products, also where letters cancel across
    the seams."""
    rng = random.Random(2112)
    shapes = {1: eq, 2: commutator, 4: sq}
    seams = 0
    for _ in range(600):
        a, b = _seam_pair(rng, ["x1", "x2", "x3"])
        seams += bool(a and b and a.letters[-1] == invert(b).letters[-1])
        for power, want in composed_shapes(a, b).items():
            assert shapes[power](a, b) == want, (power, a, b)
            assert shapes[power](a.letters, b.letters) == want, (power, a, b)
    assert seams > 100


def test_substitute_examples():
    images = table({"x1": word("x1", "x2", ("x1", -1)), "x2": gen("x1")})
    assert substitute(invert(gen("x2")).letters, images) == invert(gen("x1")).letters
    ident = table({"x1": gen("x1"), "x2": gen("x2")})
    assert substitute(word("x1", "x2").letters, ident) == word("x1", "x2").letters


def test_map_is_homomorphism_random():
    rng = random.Random(13)
    labels = ["a", "b", "c"]
    for _ in range(100):
        images = table({lab: _random_word(rng, labels, 5)
                        for lab in rng.sample(labels, rng.randint(1, 3))})
        u, v = _random_word(rng, labels, 6), _random_word(rng, labels, 6)

        def m(w):
            return Word(substitute(w.letters, images))
        assert m(multiply(u, v)) == multiply(m(u), m(v))
        assert m(invert(u)) == invert(m(u))


def test_substitute_equals_the_word_level_oracle():
    """On random words and random partial image maps, the kernel returns the
    letters of the oracle's Word-level substitution: freely reduced, even
    where the input letters are not."""
    rng = random.Random(1729)
    labels = ["a", "b", "c", "d"]
    for _ in range(500):
        images = {lab: _random_word(rng, labels, 6)
                  for lab in rng.sample(labels, rng.randint(0, 4))}
        letters = tuple((rng.choice(labels), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 10)))
        assert substitute(letters, table(images)) == \
            oracles.substitute(Word(letters), images).letters


def test_text_roundtrip():
    w = word("x3", ("x3", -1), "x1", ("x2", -1))
    assert word_text(w) == "x1 x2^-1"
    assert parse_word(word_text(w)) == w
    assert word_text(Word()) == "1"
    assert parse_word("1") == Word()
    assert parse_word("x1^1 x2^-1") == word("x1", ("x2", -1))


@pytest.mark.parametrize("token", ["x1^2", "x^-2", "x^0", "x^", "^-1",
                                   "x^-1^-1"])
def test_parse_word_rejects_other_powers(token):
    with pytest.raises(ValueError, match=f"bad letter {re.escape(repr(token))}"):
        parse_word(f"x1 {token} x2")
