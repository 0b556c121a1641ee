import json
import sys

import pytest

from groupoids import (
    alternating_groupoid,
    cyclic_group,
    disjoint_union,
    from_group,
    klein_four_group,
    pair_groupoid,
    quasiperm_document,
    symmetric_groupoid,
)
from groupoids.constructions import GroupTable


@pytest.fixture
def gp2():
    return pair_groupoid(2)


@pytest.fixture
def gp3():
    return pair_groupoid(3)


@pytest.fixture
def z2():
    return from_group(cyclic_group(2))


@pytest.fixture
def z4():
    return from_group(cyclic_group(4))


@pytest.fixture
def s2():
    return symmetric_groupoid(2)


@pytest.fixture
def a3():
    return alternating_groupoid(3)


@pytest.fixture(scope="session")
def s5():
    """The degree-5 quasipermutation groupoid (1,545 elements, 126,525
    products), built once; tests must not mutate it."""
    return symmetric_groupoid(5)


# a JSON integer longer than Python's int() accepts from text (4,300 digits
# unless the interpreter is told otherwise)
LONG_INTEGER = "1" * 5000


@pytest.fixture
def long_integer_texts():
    """The text of the S(2) quasiperm document with a 5,000-digit integer
    as its format_version, as its degree and as a mul cell, by place; and
    the message the decoder refuses it with.  Skipped where int() takes
    5,000 digits."""
    try:
        int(LONG_INTEGER)
    except ValueError as exc:
        message = str(exc)
    else:
        limit = getattr(sys, "get_int_max_str_digits", lambda: "none")()
        pytest.skip(f"int() takes 5,000 digits here (limit {limit})")
    doc = quasiperm_document(symmetric_groupoid(2), 2)
    mul = [list(t) for t in doc["mul"]]
    mul[1][2] = "@"
    places = {"format_version": "@", "degree": "@", "mul": mul}
    texts = {field: json.dumps({**doc, field: value}).replace('"@"', LONG_INTEGER)
             for field, value in places.items()}
    return texts, message


@pytest.fixture
def golden():
    """The 14-element reference groupoid: a pair groupoid on two points,
    the degree-2 quasipermutations, and a cyclic group of order 4 side by
    side."""
    return disjoint_union(
        pair_groupoid(2), symmetric_groupoid(2), from_group(cyclic_group(4)))


@pytest.fixture
def corpus(gp2, gp3, s2, z4, golden, a3):
    return {"gp2": gp2, "gp3": gp3, "s2": s2, "z4": z4, "golden": golden, "a3": a3}


def symmetric_group_3() -> GroupTable:
    """S3 as a table, elements numbered as one-line permutation words."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(q[p[i]] for i in range(3))
    return GroupTable.build(
        labels=["".join(str(i + 1) for i in p) for p in perms],
        table=[[index[compose(p, q)] for q in perms] for p in perms],
        identity=0,
        inv=[index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms],
    )
