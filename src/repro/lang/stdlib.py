"""The Gozer standard library.

Built-in functions installed into every runtime's global environment.
Gozer's flavour is Common Lisp with Clojure/Groovy touches (paper
Section 1): list primitives operate on Python lists, ``nil`` is
``None``, and host interop is one ``.`` away.

Two kinds of builtins:

* plain Python callables — the VM forces any future arguments before
  the call (the determination rule of paper Section 4.1);
* VM builtins (marked by :func:`~repro.gvm.frames.vm_function`) —
  receive the running VM first, for operations that call back into
  Gozer code (``mapcar``, ``sort``) or touch VM state (``signal``,
  ``invoke-restart``).
"""

from __future__ import annotations

import logging
import math
import operator
import random as _host_random
import sys
import time
from types import FunctionType
from typing import Any, Callable, Dict, List

from ..gvm.conditions import (
    GozerCondition,
    coerce_condition,
    define_condition_type,
    make_condition,
)
from ..gvm.frames import GozerFunction, vm_function
from ..gvm.futures import GozerFuture, force
from ..gvm.vm import YieldFromNestedContext
from .errors import GozerRuntimeError
from .macros import macroexpand
from .printer import int_text, princ_form, print_form
from .reader import Char
from .symbols import Keyword, Symbol, gensym
from .templates import binary_primitive, host_function

_S = Symbol

_REGISTRY: Dict[str, Callable] = {}
_VM_REGISTRY: Dict[str, Callable] = {}


def builtin(*names: str):
    """Register a plain builtin under one or more Gozer names."""

    def register(fn):
        for name in names:
            _REGISTRY[name] = fn
        return fn

    return register


def vm_builtin(*names: str):
    """Register a builtin that receives the running VM as first arg."""

    def register(fn):
        vm_function(fn)
        for name in names:
            _VM_REGISTRY[name] = fn
        return fn

    return register


def install(runtime) -> None:
    """Install the standard library into ``runtime``'s global env."""
    env = runtime.global_env
    for name, fn in _REGISTRY.items():
        env.define(_S(name), fn)
    for name, fn in _VM_REGISTRY.items():
        env.define(_S(name), fn)
    _install_intrinsics(runtime)


# ===========================================================================
# arithmetic
# ===========================================================================

# The two-argument branches below are the variadic loops unrolled (same
# operations in the same order): nearly every call site passes two.
# The eight marked ``binary_primitive`` are also computed inline, by
# the code generated for the GVM's fused blocks and loop regions, when
# both arguments are an ``int`` or a ``float``
# (``repro.lang.templates.BINARY_PRIMITIVES``); for those the function
# and ``op(a, b)`` agree.

@builtin("+")
@binary_primitive("+", operator.add)
def _add(*args):
    # ``+a`` is the numeric check: the identity on a number, -0.0
    # included (``0 + a`` made it 0.0), and a type-error otherwise
    if len(args) == 2:
        return +args[0] + args[1]
    if not args:
        return 0
    total = +args[0]
    for a in args[1:]:
        total = total + a
    return total


@builtin("-")
@binary_primitive("-", operator.sub)
def _sub(first, *rest):
    if len(rest) == 1:
        return first - rest[0]
    if not rest:
        return -first
    for r in rest:
        first = first - r
    return first


@builtin("*")
@binary_primitive("*", operator.mul)
def _mul(*args):
    if len(args) == 2:
        return 1 * args[0] * args[1]
    total = 1
    for a in args:
        total = total * a
    return total


@builtin("/")
def _div(first, *rest):
    if not rest:
        return 1 / first
    for r in rest:
        if isinstance(first, int) and isinstance(r, int) and first % r == 0:
            first = first // r
        else:
            first = first / r
    return first


@builtin("1+")
def _incr(x):
    return x + 1


@builtin("1-")
def _decr(x):
    return x - 1


@builtin("mod")
def _mod(a, b):
    return a % b


@builtin("rem")
def _rem(a, b):
    return math.remainder(a, b) if isinstance(a, float) or isinstance(b, float) \
        else int(math.fmod(a, b))


def _chain_compare(op, args):
    """CL's ``(< a b c)``: every adjacent pair satisfies ``op``."""
    for i in range(len(args) - 1):
        if not op(args[i], args[i + 1]):
            return False
    return True


@builtin("=")
@binary_primitive("=", operator.eq)
def _num_eq(*args):
    if len(args) == 2:
        return True if args[0] == args[1] else False
    return _chain_compare(operator.eq, args)


@builtin("/=")
def _num_neq(*args):
    # all pairwise distinct (CL semantics)
    return len(set(args)) == len(args)


@builtin("<")
@binary_primitive("<", operator.lt)
def _lt(*args):
    if len(args) == 2:
        return True if args[0] < args[1] else False
    return _chain_compare(operator.lt, args)


@builtin("<=")
@binary_primitive("<=", operator.le)
def _le(*args):
    if len(args) == 2:
        return True if args[0] <= args[1] else False
    return _chain_compare(operator.le, args)


@builtin(">")
@binary_primitive(">", operator.gt)
def _gt(*args):
    if len(args) == 2:
        return True if args[0] > args[1] else False
    return _chain_compare(operator.gt, args)


@builtin(">=")
@binary_primitive(">=", operator.ge)
def _ge(*args):
    if len(args) == 2:
        return True if args[0] >= args[1] else False
    return _chain_compare(operator.ge, args)


@builtin("abs")
def _abs(x):
    return abs(x)


@builtin("min")
def _min(*args):
    return min(args)


@builtin("max")
def _max(*args):
    return max(args)


@builtin("clamp")
def _clamp(x, low, high):
    """Bound x to [low, high] (handy for workflow-side spawn-limit
    arithmetic around the adaptive governor)."""
    if low > high:
        raise ValueError(f"clamp: empty range [{low}, {high}]")
    return min(max(x, low), high)


@builtin("expt")
def _expt(base, power):
    return base ** power


@builtin("sqrt")
def _sqrt(x):
    return math.sqrt(x)


@builtin("floor")
def _floor(x, divisor=1):
    return math.floor(x / divisor)


@builtin("ceiling")
def _ceiling(x, divisor=1):
    return math.ceil(x / divisor)


@builtin("round")
def _round(x, divisor=1):
    return round(x / divisor)


@builtin("truncate")
def _truncate(x, divisor=1):
    return math.trunc(x / divisor)


@builtin("gcd")
def _gcd(*args):
    return math.gcd(*args) if args else 0


@builtin("zerop")
def _zerop(x):
    return x == 0


@builtin("plusp")
def _plusp(x):
    return x > 0


@builtin("minusp")
def _minusp(x):
    return x < 0


@builtin("evenp")
def _evenp(x):
    return x % 2 == 0


@builtin("oddp")
def _oddp(x):
    return x % 2 != 0


@builtin("numberp")
def _numberp(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@builtin("integerp")
def _integerp(x):
    return isinstance(x, int) and not isinstance(x, bool)


@builtin("floatp")
def _floatp(x):
    return isinstance(x, float)


# ===========================================================================
# equality and logic
# ===========================================================================

@builtin("not", "null")
def _not(x):
    return x is None or x is False


@builtin("eq")
def _eq(a, b):
    return a is b or (isinstance(a, (int, Symbol, Keyword)) and a == b
                      and type(a) is type(b))


@builtin("eql")
def _eql(a, b):
    if a is b:
        return True
    if isinstance(a, (int, float, str, Symbol, Keyword, Char)) and type(a) is type(b):
        return a == b
    return False


@builtin("equal", "equalp")
def _equal(a, b):
    return a == b


@builtin("identity")
def _identity(x):
    return x


class _Constantly:
    """Picklable ``constantly`` result.

    A plain ``lambda`` here breaks continuation persistence: a fiber
    suspended while a ``constantly`` closure sits in a frame could not
    be pickled for migration (surfaced by the conformance fuzzer's
    stepwise capture oracle).
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, *args):
        return self.value


@builtin("constantly")
def _constantly(x):
    return _Constantly(x)


# ===========================================================================
# lists
# ===========================================================================

# The functions marked ``host_function`` are also called in place by the
# GVM's fused entries and loop regions
# (``repro.lang.templates.HOST_FUNCTIONS``): each is VM-free and
# failure-atomic (it completes, or raises before any effect), and only
# ``append!`` has an effect.

@builtin("list")
@host_function("list")
def _list(*args):
    return list(args)


@builtin("list*")
def _list_star(*args):
    if not args:
        return []
    *front, last = args
    return list(front) + _to_list(last)


@builtin("cons")
@host_function("cons")
def _cons(head, tail):
    return [head] + _to_list(tail)


@builtin("car", "first")
@host_function("car", "first")
def _car(lst):
    if lst is None or len(lst) == 0:
        return None
    return lst[0]


@builtin("cdr", "rest")
@host_function("cdr", "rest")
def _cdr(lst):
    if lst is None or len(lst) <= 1:
        return []
    return lst[1:]


@builtin("second")
@host_function("second")
def _second(lst):
    return lst[1] if lst is not None and len(lst) > 1 else None


@builtin("third")
@host_function("third")
def _third(lst):
    return lst[2] if lst is not None and len(lst) > 2 else None


@builtin("nth")
@host_function("nth")
def _nth(n, lst):
    if lst is None or n >= len(lst):
        return None
    return lst[n]


@builtin("nthcdr")
def _nthcdr(n, lst):
    if lst is None:
        return []
    return lst[n:]


@builtin("elt")
def _elt(seq, n):
    return seq[n]


@builtin("last")
def _last(lst, n=1):
    if lst is None or not lst:
        return []
    return lst[-n:]


@builtin("butlast")
def _butlast(lst, n=1):
    if lst is None:
        return []
    return lst[:-n] if n else list(lst)


@builtin("length")
@host_function("length")
def _length(seq):
    if seq is None:
        return 0
    return len(seq)


@builtin("append")
def _append(*lists):
    out: List[Any] = []
    for lst in lists:
        out.extend(_to_list(lst))
    return out


@builtin("append!")
@host_function("append!", effect=True)
def _append_bang(lst, item):
    """Destructively append ``item`` to ``lst`` (paper Listing 3)."""
    if lst is None:
        return [item]
    lst.append(item)
    return lst


@builtin("reverse")
def _reverse(seq):
    if seq is None:
        return []
    if isinstance(seq, str):
        return seq[::-1]
    return list(reversed(seq))


@builtin("copy-list")
def _copy_list(lst):
    return list(_to_list(lst))


@builtin("to-list")
def _to_list(value):
    if value is None:
        return []
    if isinstance(value, list):
        return value
    if isinstance(value, (tuple, set, frozenset, range)):
        return list(value)
    if isinstance(value, dict):
        return [[k, v] for k, v in value.items()]
    if isinstance(value, str):
        return [Char(c) for c in value]
    if isinstance(value, GozerFuture):
        return _to_list(value.touch())
    try:
        return list(value)
    except TypeError:
        raise GozerRuntimeError(f"cannot convert {value!r} to a list")


@builtin("vector")
def _vector(*args):
    return list(args)


@builtin("set-car!")
def _set_car(lst, value):
    lst[0] = value
    return value


@builtin("set-cdr!")
def _set_cdr(lst, tail):
    lst[1:] = _to_list(tail)
    return tail


@builtin("set-nth!")
def _set_nth(n, lst, value):
    lst[n] = value
    return value


@builtin("member")
def _member(item, lst):
    lst = _to_list(lst)
    for i, x in enumerate(lst):
        if x == item:
            return lst[i:]
    return None


@builtin("assoc")
def _assoc(key, alist):
    for entry in _to_list(alist):
        if isinstance(entry, list) and entry and entry[0] == key:
            return entry
    return None


@builtin("getf")
@host_function("getf")
def _getf(plist, key, default=None):
    # a list is walked as it is; an odd last key has no value
    if type(plist) is not list:
        plist = _to_list(plist)
    i, last = 0, len(plist) - 1
    while i < last:
        if plist[i] == key:
            return plist[i + 1]
        i += 2
    return default


@builtin("subseq")
def _subseq(seq, start, end=None):
    return seq[start:end] if end is not None else seq[start:]


@builtin("position")
def _position(item, seq):
    seq = _to_list(seq) if not isinstance(seq, str) else seq
    try:
        if isinstance(seq, str):
            idx = seq.index(item.value if isinstance(item, Char) else item)
        else:
            idx = seq.index(item)
        return idx
    except ValueError:
        return None
    except AttributeError:
        return None


@builtin("count")
def _count(item, seq):
    return _to_list(seq).count(item)


@builtin("remove")
def _remove(item, seq):
    return [x for x in _to_list(seq) if x != item]


@builtin("remove-duplicates")
def _remove_duplicates(seq):
    out = []
    for x in _to_list(seq):
        if x not in out:
            out.append(x)
    return out


@builtin("range")
def _range(start, stop=None, step=1):
    if stop is None:
        start, stop = 0, start
    return list(range(start, stop, step))


# -- higher-order list functions (need the VM to call Gozer closures) ------

def _callf(vm, fn, args):
    """``fn`` called on ``args``: a host function straight through the
    VM's one host-call rule (``VM._call_host``), anything else (a Gozer
    function, a future, another callable) through ``VM.call``."""
    if type(fn) is FunctionType:
        return vm._call_host(fn, list(args))
    return vm.call(fn, list(args))


@vm_builtin("mapcar", "map")
def _mapcar(vm, fn, *lists):
    lists = [_to_list(l) for l in lists]
    return [_callf(vm, fn, group) for group in zip(*lists)]


@vm_builtin("mapc")
def _mapc(vm, fn, *lists):
    pylists = [_to_list(l) for l in lists]
    for group in zip(*pylists):
        _callf(vm, fn, group)
    return lists[0]


@vm_builtin("mapcan")
def _mapcan(vm, fn, *lists):
    lists = [_to_list(l) for l in lists]
    out: List[Any] = []
    for group in zip(*lists):
        out.extend(_to_list(_callf(vm, fn, group)))
    return out


@vm_builtin("filter", "remove-if-not")
def _filter(vm, fn, seq):
    from ..gvm.vm import truthy

    return [x for x in _to_list(seq) if truthy(_callf(vm, fn, [x]))]


@vm_builtin("remove-if")
def _remove_if(vm, fn, seq):
    from ..gvm.vm import truthy

    return [x for x in _to_list(seq) if not truthy(_callf(vm, fn, [x]))]


@vm_builtin("reduce")
def _reduce(vm, fn, seq, *initial):
    items = _to_list(seq)
    if initial:
        acc = initial[0]
    elif items:
        acc, items = items[0], items[1:]
    else:
        return _callf(vm, fn, [])
    for item in items:
        acc = _callf(vm, fn, [acc, item])
    return acc


@vm_builtin("find-if")
def _find_if(vm, fn, seq):
    from ..gvm.vm import truthy

    for x in _to_list(seq):
        if truthy(_callf(vm, fn, [x])):
            return x
    return None


@builtin("find")
def _find(item, seq):
    for x in _to_list(seq):
        if x == item:
            return x
    return None


@vm_builtin("position-if")
def _position_if(vm, fn, seq):
    from ..gvm.vm import truthy

    for i, x in enumerate(_to_list(seq)):
        if truthy(_callf(vm, fn, [x])):
            return i
    return None


@vm_builtin("count-if")
def _count_if(vm, fn, seq):
    from ..gvm.vm import truthy

    return sum(1 for x in _to_list(seq) if truthy(_callf(vm, fn, [x])))


@vm_builtin("every")
def _every(vm, fn, seq):
    from ..gvm.vm import truthy

    return all(truthy(_callf(vm, fn, [x])) for x in _to_list(seq))


@vm_builtin("some")
def _some(vm, fn, seq):
    from ..gvm.vm import truthy

    for x in _to_list(seq):
        value = _callf(vm, fn, [x])
        if truthy(value):
            return value
    return None


@vm_builtin("sort")
def _sort(vm, seq, predicate=None, key=None):
    import functools

    items = list(_to_list(seq))
    if key is not None:
        keyfn = lambda x: _callf(vm, key, [x])  # noqa: E731
    else:
        keyfn = None
    if predicate is None:
        return sorted(items, key=keyfn)
    from ..gvm.vm import truthy

    def cmp(a, b):
        if truthy(_callf(vm, predicate, [a, b])):
            return -1
        if truthy(_callf(vm, predicate, [b, a])):
            return 1
        return 0

    if keyfn is not None:
        items = sorted(items, key=keyfn)
        return items
    return sorted(items, key=functools.cmp_to_key(cmp))


@vm_builtin("funcall")
def _funcall(vm, fn, *args):
    return _callf(vm, fn, args)


@vm_builtin("apply")
def _apply(vm, fn, *args):
    if not args:
        return _callf(vm, fn, [])
    *front, last = args
    return _callf(vm, fn, list(front) + _to_list(last))


# ===========================================================================
# futures (paper Section 2)
# ===========================================================================

@builtin("touch")
def _touch(value):
    """Await determination of ``value`` (paper's ``touch`` operator)."""
    return force(value)


@vm_builtin("pcall")
def _pcall(vm, fn, *args):
    """Apply ``fn`` only after all its arguments are determined."""
    return _callf(vm, fn, [force(a) for a in args])


# futurep / determined-p are vm_builtins so that the VM's "force futures
# before host calls" rule does not determine their argument first —
# they need to observe the raw (possibly undetermined) future.

@vm_builtin("future-p", "futurep")
def _futurep(vm, value):
    return isinstance(value, GozerFuture)


@vm_builtin("determined-p")
def _determined_p(vm, value):
    """Any non-future value is always determined (paper Section 2)."""
    if isinstance(value, GozerFuture):
        return value.determined
    return True


# ===========================================================================
# hash tables
# ===========================================================================

@builtin("make-hash-table")
def _make_hash_table(*_options):
    return {}


@builtin("gethash")
def _gethash(key, table, default=None):
    return table.get(_hash_key(key), default)


@builtin("remhash")
def _remhash(key, table):
    return table.pop(_hash_key(key), None)


@builtin("hash-keys")
def _hash_keys(table):
    return list(table.keys())


@builtin("hash-values")
def _hash_values(table):
    return list(table.values())


@builtin("hash-count")
def _hash_count(table):
    return len(table)


@builtin("hash-contains-p")
def _hash_contains(key, table):
    return _hash_key(key) in table


def _hash_key(key):
    if isinstance(key, list):
        return tuple(key)
    return key


# ===========================================================================
# strings, symbols, characters
# ===========================================================================

@builtin("string-upcase")
def _string_upcase(s):
    return _designator(s).upper()


@builtin("string-downcase")
def _string_downcase(s):
    return _designator(s).lower()


@builtin("string-trim")
def _string_trim(chars, s):
    return _designator(s).strip(_designator(chars))


@builtin("string=")
def _string_eq(a, b):
    return _stringify(a) == _stringify(b)


@builtin("string<")
def _string_lt(a, b):
    return _stringify(a) < _stringify(b)


@builtin("concat", "concatenate-strings")
def _concat(*parts):
    return "".join(princ_form(p) if not isinstance(p, str) else p for p in parts)


@builtin("string-split")
def _string_split(s, sep=None):
    return _designator(s).split(None if sep is None else _designator(sep))


@builtin("string-join")
def _string_join(parts, sep=""):
    return sep.join(princ_form(p) if not isinstance(p, str) else p
                    for p in _to_list(parts))


@builtin("starts-with-p")
def _starts_with(s, prefix):
    return _designator(s).startswith(_designator(prefix))


@builtin("ends-with-p")
def _ends_with(s, suffix):
    return _designator(s).endswith(_designator(suffix))


@builtin("string-contains-p")
def _string_contains(s, needle):
    return _designator(needle) in _designator(s)


@builtin("parse-integer")
def _parse_integer(s, radix=10):
    return int(s, radix)


@builtin("parse-float")
def _parse_float(s):
    return float(s)


def _stringify(x):
    if isinstance(x, str):
        return x
    if isinstance(x, Symbol):
        return x.name
    if isinstance(x, Keyword):
        return x.name
    if isinstance(x, Char):
        return x.value
    return princ_form(x)


def _designator(x):
    """A string designator's text: strings, symbols, keywords and
    characters, as ``string=`` reads them.  Anything else is a Gozer
    ``type-error``."""
    if isinstance(x, (str, Symbol, Keyword, Char)):
        return _stringify(x)
    raise TypeError(f"not a string designator: {print_form(x)}")


@builtin("string")
def _string(x):
    return _stringify(x)


@builtin("symbol-name")
def _symbol_name(sym):
    return _designator(sym)


@builtin("intern")
def _intern(name):
    return _S(name)


@builtin("make-keyword", "keyword")
def _make_keyword(name):
    return Keyword(_stringify(name))


@vm_builtin("gensym")
def _gensym(vm, prefix="g"):
    execution = getattr(vm, "vinz", None)
    if execution is not None:
        # the gensym counter's state at replay time differs from what
        # the live run saw: record the drawn symbol as nondeterminism
        return execution.nondet(
            "gensym", lambda: gensym(_stringify(prefix)))
    return gensym(_stringify(prefix))


@builtin("char-code")
def _char_code(c):
    return ord(c.value if isinstance(c, Char) else c)


@builtin("code-char")
def _code_char(n):
    return Char(chr(n))


@builtin("number-to-string")
def _number_to_string(n):
    return str(n)


@builtin("princ-to-string")
def _princ_to_string(x):
    return princ_form(x)


@builtin("prin1-to-string")
def _prin1_to_string(x):
    return print_form(x)


# ===========================================================================
# type predicates
# ===========================================================================

@builtin("consp")
def _consp(x):
    return isinstance(x, list) and len(x) > 0


@builtin("listp")
def _listp(x):
    return x is None or isinstance(x, list)


@builtin("atom")
def _atom(x):
    return not (isinstance(x, list) and len(x) > 0)


@builtin("stringp")
def _stringp(x):
    return isinstance(x, str)


@builtin("symbolp")
def _symbolp(x):
    return isinstance(x, Symbol)


@builtin("keywordp")
def _keywordp(x):
    return isinstance(x, Keyword)


@builtin("characterp")
def _characterp(x):
    return isinstance(x, Char)


@builtin("functionp")
def _functionp(x):
    return isinstance(x, GozerFunction) or callable(x)


@builtin("hash-table-p")
def _hash_table_p(x):
    return isinstance(x, dict)


@builtin("booleanp")
def _booleanp(x):
    return isinstance(x, bool)


# ===========================================================================
# formatted output
# ===========================================================================

def format_string(control: str, args: List[Any]) -> str:
    """A practical subset of CL FORMAT: ~a ~s ~d ~f ~% ~& ~~."""
    out: List[str] = []
    arg_iter = iter(args)
    i = 0
    while i < len(control):
        ch = control[i]
        if ch != "~":
            out.append(ch)
            i += 1
            continue
        i += 1
        if i >= len(control):
            out.append("~")
            break
        directive = control[i]
        i += 1
        lower = directive.lower()
        if lower == "a":
            out.append(princ_form(next(arg_iter)))
        elif lower == "s":
            out.append(print_form(next(arg_iter)))
        elif lower == "d":
            out.append(int_text(int(force(next(arg_iter)))))
        elif lower == "f":
            out.append(f"{float(force(next(arg_iter)))}")
        elif lower == "%" or lower == "&":
            out.append("\n")
        elif directive == "~":
            out.append("~")
        else:
            raise GozerRuntimeError(f"format: unsupported directive ~{directive}")
    return "".join(out)


@builtin("format")
def _format(destination, control, *args):
    text = format_string(control, [force(a) for a in args])
    if destination is True:
        sys.stdout.write(text)
        return None
    return text


@builtin("print")
def _print(x):
    sys.stdout.write("\n" + print_form(x) + " ")
    return x


@builtin("princ")
def _princ(x):
    sys.stdout.write(princ_form(x))
    return x


@builtin("prin1")
def _prin1(x):
    sys.stdout.write(print_form(x))
    return x


@builtin("terpri")
def _terpri():
    sys.stdout.write("\n")
    return None


@builtin("log")
def _log(*args):
    """Lightweight logging (Listing 2's ``(log "...")``)."""
    logging.getLogger("gozer").info(" ".join(princ_form(a) for a in args))
    return None


# ===========================================================================
# time and randomness
# ===========================================================================

#: host-side fallback RNG for ``(random n)`` outside any platform —
#: inside a fiber the draw comes from the cluster's seeded RNG and is
#: recorded as history nondeterminism
_FALLBACK_RNG = _host_random.Random()


@vm_builtin("get-universal-time")
def _get_universal_time(vm):
    execution = getattr(vm, "vinz", None)
    if execution is not None:
        # a clock read is nondeterminism the fiber observes: draw it
        # from the platform's virtual clock and record it for replay
        return execution.nondet("clock", execution.clock_now)
    clock = getattr(vm.runtime, "clock", None)
    if clock is not None:
        return clock.now()
    return time.time()  # bare VM with no runtime clock


@vm_builtin("sleep", "%clock-sleep")
def _sleep(vm, seconds):
    # Inside a fiber this builtin is shadowed by the Vinz prelude's
    # (defun sleep ...), which yields to the platform timer; here the
    # runtime clock decides — a VirtualClock makes (sleep 3600) free
    # and deterministic instead of blocking the host for an hour.
    if vm.vinz is not None:
        # a fiber waits only by suspending, which a future's or an
        # eval's flow of control cannot do for it
        raise YieldFromNestedContext(
            "a fiber sleeps only on its own flow of control")
    clock = getattr(vm.runtime, "clock", None)
    if clock is not None:
        clock.sleep(seconds)
        return None
    time.sleep(seconds)  # bare VM with no runtime clock
    return None


@vm_builtin("random")
def _random(vm, n):
    """(random n): int in [0, n) for an integer bound, uniform float
    in [0, n) otherwise — Common Lisp semantics."""
    execution = getattr(vm, "vinz", None)
    if execution is not None:
        return execution.nondet("random",
                                lambda: execution.random_draw(n))
    if isinstance(n, int) and not isinstance(n, bool):
        return _FALLBACK_RNG.randrange(n) if n > 0 else 0
    return _FALLBACK_RNG.uniform(0.0, float(n))


# ===========================================================================
# condition system entry points (paper Section 3.7)
# ===========================================================================

@vm_builtin("signal")
def _signal(vm, condition, *args):
    cond = _build_condition(condition, args)
    return vm.signal(cond, error_p=False)


@vm_builtin("error")
def _error(vm, condition, *args):
    cond = _build_condition(condition, args)
    vm.signal(cond, error_p=True)


@vm_builtin("warn")
def _warn(vm, condition, *args):
    cond = _build_condition(condition, args, default_type="warning")
    vm.signal(cond, error_p=False)
    logger = logging.getLogger("gozer")
    logger.warning("%s", cond.message)
    if not logger.hasHandlers():
        # nothing is listening (no logging configured): keep the
        # historical stderr echo so warnings stay visible
        sys.stderr.write(f"WARNING: {cond.message}\n")
    return None


def _build_condition(designator, args, default_type="simple-error") -> GozerCondition:
    if isinstance(designator, GozerCondition):
        return designator
    if isinstance(designator, str):
        message = format_string(designator, list(args)) if args else designator
        return make_condition(default_type, message)
    if isinstance(designator, Symbol):
        message = format_string(args[0], list(args[1:])) if args else designator.name
        return make_condition(designator.name, message)
    return coerce_condition(designator, default_type)


@builtin("make-condition")
def _make_condition(condition_type, message="", *rest):
    qname = None
    data = None
    i = 0
    rest = list(rest)
    while i + 1 < len(rest) + 1 and i < len(rest):
        key = rest[i]
        if isinstance(key, Keyword) and i + 1 < len(rest):
            if key.name == "qname":
                qname = rest[i + 1]
            elif key.name == "data":
                data = rest[i + 1]
            i += 2
        else:
            i += 1
    return make_condition(_stringify(condition_type), message,
                          qname=qname, data=data)


@builtin("define-condition")
def _define_condition(name, parents=None):
    parent_names = [_stringify(p) for p in _to_list(parents)] or ["error"]
    define_condition_type(_stringify(name), parent_names)
    return name


@builtin("condition-message")
def _condition_message(c):
    return getattr(c, "message", str(c))


@builtin("condition-type")
def _condition_type(c):
    return _S(getattr(c, "condition_type", "error"))


@builtin("condition-qname")
def _condition_qname(c):
    return getattr(c, "qname", None)


@vm_builtin("invoke-restart")
def _invoke_restart(vm, name, *args):
    vm.invoke_restart(name, list(args))


@vm_builtin("find-restart")
def _find_restart(vm, name):
    record = vm.find_restart(name)
    return record.name if record is not None else None


@vm_builtin("compute-restarts")
def _compute_restarts(vm):
    return [r.name for r in reversed(vm.restarts)]


# ===========================================================================
# intrinsics — reachable as (% name ...) and as %name
# ===========================================================================

def _install_intrinsics(runtime) -> None:
    env = runtime.global_env

    # every intrinsic lives at module level (not as a closure) so a
    # continuation that holds one — e.g. a fiber suspended inside
    # ``(eval (yield))`` or a ``defvar``'s value form — stays picklable
    # for migration; those that need the runtime reach it via the VM
    env.define_intrinsic("defvar", _defvar_intrinsic)
    env.define_intrinsic("dot", _dot_intrinsic)
    env.define_intrinsic("dot-field", _dot_field_intrinsic)
    env.define_intrinsic("dot-setf", _dot_setf_intrinsic)
    env.define_intrinsic("sethash", _sethash_intrinsic)
    env.define(_S("sethash"), _sethash_intrinsic)
    env.define_intrinsic("is-fiber-thread", _may_yield)
    # Vinz overrides these two when it prepares a fiber's environment.
    env.define_intrinsic("get-task-var", _task_var_outside_vinz)
    env.define_intrinsic("set-task-var", _task_var_outside_vinz)


@vm_function
def _may_yield(vm):
    """``(% is-fiber-thread)``: may this flow of control yield -- a
    fiber's own VM, not a future's or an ``eval``'s (which run for the
    same fiber, through ``vm.vinz``, but cannot suspend it)."""
    return vm.allow_yield


def _task_var_outside_vinz(name, *value):
    raise GozerRuntimeError(f"task variable {name} "
                            f"{'mutated' if value else 'accessed'} "
                            "outside of a Vinz workflow")


@vm_builtin("set-macro-character")
def _set_macro_character(vm, char, fn, non_terminating=None):
    runtime = vm.runtime
    ch = char.value if isinstance(char, Char) else str(char)

    def adapter(reader, stream, c):
        return runtime.apply(fn, [stream, Char(c)])

    runtime.readtable.set_macro_character(
        ch, adapter, non_terminating=bool(non_terminating))
    return True


@vm_builtin("read")
def _read(vm, stream, *_ignored):
    return vm.runtime.reader().read(stream)


@vm_builtin("read-from-string")
def _read_from_string(vm, text):
    return vm.runtime.reader().read_string(text)


@vm_builtin("eval")
def _eval(vm, form):
    return vm.runtime.eval_form(form, vm)


@vm_builtin("load-file")
def _load_file(vm, path):
    return vm.runtime.eval_file(str(path), vm)


@vm_builtin("macroexpand")
def _macroexpand(vm, form):
    return macroexpand(form, vm.global_env,
                       lambda fn, args: vm.runtime.apply(fn, args, vm))


@vm_function
def _defvar_intrinsic(vm, name, value, keep_existing):
    if vm.vinz is not None:
        vm.vinz.refuse_global_write(name)  # as VM._define_global does
    env = vm.global_env
    env.declare_special(name)
    if keep_existing and env.is_bound(name):
        return name
    env.define(name, value)
    return name


def _dot_intrinsic(obj, member, *args):
    obj = force(obj)
    attr = getattr(obj, _method_name(member))
    return attr(*[force(a) for a in args])


def _dot_field_intrinsic(obj, member):
    return getattr(force(obj), _method_name(member))


def _dot_setf_intrinsic(obj, member, value):
    setattr(force(obj), _method_name(member), value)
    return value


def _sethash_intrinsic(key, table, value):
    table[_hash_key(key)] = value
    return value


def _method_name(member) -> str:
    if isinstance(member, Symbol):
        return member.name
    if isinstance(member, str):
        return member
    raise GozerRuntimeError(f"bad member designator {member!r}")
