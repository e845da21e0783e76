"""Printer and symbol-interning tests."""

import pickle
import subprocess
import sys

from repro.lang.printer import princ_form, print_form
from repro.lang.reader import Char, read_string
from repro.lang.symbols import Keyword, Symbol, gensym


class TestSymbolInterning:
    def test_same_name_same_object(self):
        assert Symbol("abc") is Symbol("abc")

    def test_different_names_differ(self):
        assert Symbol("a") is not Symbol("b")

    def test_keyword_interning(self):
        assert Keyword("k") is Keyword("k")

    def test_symbol_keyword_not_equal(self):
        assert Symbol("x") != Keyword("x")

    def test_symbol_pickle_reinterns(self):
        sym = Symbol("pickle-me")
        clone = pickle.loads(pickle.dumps(sym))
        assert clone is sym

    def test_keyword_pickle_reinterns(self):
        kw = Keyword("pickle-me")
        assert pickle.loads(pickle.dumps(kw)) is kw

    def test_gensym_unique(self):
        assert gensym("x") is not gensym("x")

    def test_gensym_prefix(self):
        assert gensym("loop").name.startswith("#:loop")

    def test_task_variable_detection(self):
        assert Symbol("^flag^").is_task_variable
        assert not Symbol("flag").is_task_variable
        assert not Symbol("^flag").is_task_variable

    def test_symbol_hashable_as_dict_key(self):
        d = {Symbol("a"): 1}
        assert d[Symbol("a")] == 1


class TestPrintForm:
    def test_nil(self):
        assert print_form(None) == "nil"

    def test_t(self):
        assert print_form(True) == "t"

    def test_false(self):
        assert print_form(False) == "false"

    def test_integer(self):
        assert print_form(42) == "42"

    def test_float(self):
        assert print_form(2.5) == "2.5"

    def test_string_quoted_and_escaped(self):
        assert print_form('a"b\nc') == '"a\\"b\\nc"'

    def test_symbol_bare(self):
        assert print_form(Symbol("foo")) == "foo"

    def test_keyword_colon(self):
        assert print_form(Keyword("k")) == ":k"

    def test_list(self):
        assert print_form([1, Symbol("x"), "s"]) == '(1 x "s")'

    def test_char(self):
        assert print_form(Char("a")) == "#\\a"

    def test_char_space(self):
        assert print_form(Char(" ")) == "#\\Space"


class TestHugeIntegers:
    """An int longer than Python's int-to-str digit limit (4,300 by
    default) prints in full, and the process-wide limit is untouched."""

    SOURCE = "(let ((x 10)) (dotimes (i 13) (setq x (* x x))) x)"

    def test_print_and_format_every_digit(self, rt):
        limit = sys.get_int_max_str_digits()
        expected = "1" + "0" * 2 ** 13
        assert print_form(rt.eval_string(self.SOURCE)) == expected
        assert rt.eval_string(f'(format nil "~a" {self.SOURCE})') == expected
        assert rt.eval_string(f'(format nil "~d" (- {self.SOURCE}))') \
            == "-" + expected
        assert sys.get_int_max_str_digits() == limit

    def test_digits_across_the_split(self):
        for value in (3 ** 20000, -(7 ** 9000), 10 ** 9000 - 1,
                      10 ** 4300, 2 ** 40000 + 1):
            text = print_form(value)
            assert text.lstrip("-")[0] != "0"
            assert _read_digits(text) == value

    def test_the_cli_prints_it(self, tmp_path):
        program = tmp_path / "huge.gozer"
        program.write_text(self.SOURCE)
        proc = subprocess.run([sys.executable, "-m", "repro", "run",
                               str(program)], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1" + "0" * 2 ** 13


def _read_digits(text):
    """The int ``text`` spells, read in chunks small enough for
    ``int``."""
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class TestPrincForm:
    def test_string_unquoted(self):
        assert princ_form("hi") == "hi"

    def test_char_bare(self):
        assert princ_form(Char("z")) == "z"

    def test_list_recurses_princ(self):
        assert princ_form(["a", 1]) == "(a 1)"


class TestRoundTrip:
    CASES = [
        "42", "-1", "2.5", "foo", ":kw", '"str"', "(1 2 3)",
        "(a (b c) d)", "nil", "t", "#\\x", '("nested" (1.5 :k))',
    ]

    def test_print_read_round_trip(self):
        for case in self.CASES:
            value = read_string(case)
            assert read_string(print_form(value)) == value, case
