"""The two-argument branches of ``+ - * = < <= > >=`` against the
variadic definitions they shortcut.

The references below are the builtins as they were before the
branches existed: a fold from the identity element for ``+``/``*``, a
left fold for ``-``, and Common Lisp's chain ("every adjacent pair
satisfies the relation") for the comparisons.
"""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lang import stdlib

numbers = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, -1, 2**70, float("inf")]))
argument_lists = st.lists(numbers, min_size=0, max_size=4)


def fold(op, identity):
    def reference(*args):
        total = identity
        for a in args:
            total = op(total, a)
        return total
    return reference


def subtract(first, *rest):
    if not rest:
        return -first
    for r in rest:
        first = first - r
    return first


def chain(relation):
    return lambda *args: all(relation(a, b) for a, b in zip(args, args[1:]))


REFERENCES = {
    "+": fold(operator.add, 0),
    "*": fold(operator.mul, 1),
    "-": subtract,
    "=": chain(operator.eq),
    "<": chain(operator.lt),
    "<=": chain(operator.le),
    ">": chain(operator.gt),
    ">=": chain(operator.ge),
}


def outcome(fn, args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared like a value
        return type(exc)
    # the type and the sign of zero are part of the answer; nan == nan
    return type(value), repr(value)


@pytest.mark.parametrize("name", sorted(REFERENCES))
@given(args=argument_lists)
def test_builtin_equals_its_variadic_definition(name, args):
    assert outcome(stdlib._REGISTRY[name], args) \
        == outcome(REFERENCES[name], args)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_two_argument_calls_reject_what_the_fold_rejects(name):
    for args in (("a", "b"), (1, "b"), ([1], [2]), (None, 1)):
        assert outcome(stdlib._REGISTRY[name], args) \
            == outcome(REFERENCES[name], args)
