"""Reader tests: tokens, literals, reader macros, error handling."""

import pytest

from repro.lang.errors import IncompleteFormError, ReaderError
from repro.lang.reader import (
    Char,
    NO_VALUE,
    CharStream,
    ReadTable,
    Reader,
    read_all,
    read_string,
)
from repro.lang.symbols import Keyword, Symbol

S = Symbol
K = Keyword


class TestAtoms:
    def test_integer(self):
        assert read_string("42") == 42

    def test_negative_integer(self):
        assert read_string("-7") == -7

    def test_positive_sign(self):
        assert read_string("+7") == 7

    def test_float(self):
        assert read_string("3.25") == 3.25

    def test_float_exponent(self):
        assert read_string("1e3") == 1000.0

    def test_symbol(self):
        assert read_string("foo") is S("foo")

    def test_symbol_with_dashes_and_stars(self):
        assert read_string("*global-var*") is S("*global-var*")

    def test_symbol_plus_alone(self):
        assert read_string("+") is S("+")

    def test_symbol_minus_alone(self):
        assert read_string("-") is S("-")

    def test_symbol_1plus(self):
        assert read_string("1+") is S("1+")

    def test_keyword(self):
        assert read_string(":key") == K("key")

    def test_t_reads_as_true(self):
        assert read_string("t") is True

    def test_nil_reads_as_none(self):
        assert read_string("nil") is None

    def test_false(self):
        assert read_string("false") is False

    def test_string(self):
        assert read_string('"hello"') == "hello"

    def test_string_escapes(self):
        assert read_string(r'"a\nb\tc\"d\\e"') == 'a\nb\tc"d\\e'

    def test_empty_string(self):
        assert read_string('""') == ""

    def test_char_literal(self):
        assert read_string("#\\a") == Char("a")

    def test_named_char_space(self):
        assert read_string("#\\Space") == Char(" ")

    def test_named_char_newline(self):
        assert read_string("#\\Newline") == Char("\n")

    def test_unknown_named_char_errors(self):
        with pytest.raises(ReaderError):
            read_string("#\\bogus")

    def test_ratio(self):
        from fractions import Fraction

        assert read_string("1/3") == Fraction(1, 3)

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", "(list 1/0)"])
    def test_a_zero_denominator_is_a_reader_error(self, text):
        with pytest.raises(ReaderError, match="zero denominator"):
            read_string(text)


class TestHugeNumbers:
    """A literal longer than Python's int-from-str digit limit (4,300
    by default) reads as the number it spells, and the process-wide
    limit is untouched."""

    def test_what_print_form_printed_reads_back(self):
        import sys
        from fractions import Fraction

        from repro.lang.printer import print_form

        limit = sys.get_int_max_str_digits()
        huge = (10 ** 5000 - 1) // 9 * 7  # 5,000 sevens
        for value in (huge, -huge, Fraction(huge, 3 ** 4000),
                      Fraction(-3, huge + 1)):
            text = print_form(value)
            assert len(text) >= 5000
            read = read_string(text)
            assert read == value and type(read) is type(value), text[:20]
        assert read_string("+" + "1" * 5000) == (10 ** 5000 - 1) // 9
        assert sys.get_int_max_str_digits() == limit

    def test_a_huge_literal_is_an_integer_in_arithmetic(self, rt):
        result = rt.eval_string("(+ 1 " + "1" * 5000 + ")")
        assert type(result) is int and result == (10 ** 5000 - 1) // 9 + 1

    def test_a_huge_literal_with_underscores_is_the_integer(self):
        # int() reads "1_000"; past the digit limit the same digits
        # still read as that integer, not as float("1_0...0") = inf
        assert read_string("1_000") == 1000
        for sign in ("", "-", "+"):
            text = sign + "1_" + "0" * 5000
            read = read_string(text)
            assert type(read) is int and read == read_string(
                text.replace("_", "")), sign
        # where int() refuses an underscore, so does a huge literal
        for text in ("1__" + "0" * 5000, "1" + "0" * 5000 + "_"):
            assert read_string(text) is S(text)

    def test_a_long_token_that_is_no_integer(self):
        assert read_string("1" * 5000 + "x") is S("1" * 5000 + "x")
        assert read_string("1" * 3000 + "/" + "x" * 3000) \
            is S("1" * 3000 + "/" + "x" * 3000)


class TestLists:
    def test_empty_list(self):
        assert read_string("()") == []

    def test_flat_list(self):
        assert read_string("(a b c)") == [S("a"), S("b"), S("c")]

    def test_nested_list(self):
        assert read_string("(a (b c) d)") == [S("a"), [S("b"), S("c")], S("d")]

    def test_mixed_literals(self):
        assert read_string('(1 2.5 "x" :k sym)') == [1, 2.5, "x", K("k"), S("sym")]

    def test_commas_are_whitespace(self):
        assert read_string("(1, 2, 3)") == [1, 2, 3]

    def test_unbalanced_close_errors(self):
        with pytest.raises(ReaderError):
            read_string(")")

    def test_unterminated_list_is_incomplete(self):
        with pytest.raises(IncompleteFormError):
            read_string("(a b")

    def test_unterminated_string_is_incomplete(self):
        with pytest.raises(IncompleteFormError):
            read_string('"abc')


class TestQuoting:
    def test_quote(self):
        assert read_string("'x") == [S("quote"), S("x")]

    def test_quote_list(self):
        assert read_string("'(1 2)") == [S("quote"), [1, 2]]

    def test_function_quote(self):
        assert read_string("#'car") == [S("function"), S("car")]

    def test_quasiquote(self):
        assert read_string("`x") == [S("quasiquote"), S("x")]

    def test_unquote_tilde(self):
        assert read_string("`(a ~b)") == \
            [S("quasiquote"), [S("a"), [S("unquote"), S("b")]]]

    def test_unquote_splicing(self):
        assert read_string("`(a ~@b)") == \
            [S("quasiquote"), [S("a"), [S("unquote-splicing"), S("b")]]]


class TestComments:
    def test_line_comment(self):
        assert read_string("; a comment\n42") == 42

    def test_comment_inside_list(self):
        assert read_string("(1 ; two\n 3)") == [1, 3]

    def test_block_comment(self):
        assert read_string("#| block |# 7") == 7

    def test_nested_block_comment(self):
        assert read_string("#| outer #| inner |# still |# 9") == 9

    def test_unterminated_block_comment(self):
        with pytest.raises(IncompleteFormError):
            read_string("#| never ends")


class TestReadAll:
    def test_multiple_forms(self):
        assert read_all("1 2 3") == [1, 2, 3]

    def test_empty_input(self):
        assert read_all("") == []

    def test_whitespace_only(self):
        assert read_all("  \n\t ") == []

    def test_defun_then_call(self):
        forms = read_all("(defun f (x) x) (f 1)")
        assert len(forms) == 2
        assert forms[0][0] is S("defun")


class TestReaderMacros:
    def test_custom_terminating_macro(self):
        table = ReadTable()
        table.set_macro_character("!", lambda rdr, stream, ch: 99)
        assert Reader(table).read_string("!") == 99

    def test_custom_macro_reads_ahead(self):
        table = ReadTable()

        def bracket(reader, stream, ch):
            value = reader.read(stream)
            return [Symbol("wrapped"), value]

        table.set_macro_character("!", bracket)
        assert Reader(table).read_string("!42") == [S("wrapped"), 42]

    def test_non_terminating_macro_mid_token(self):
        """A non-terminating macro char reads as a constituent inside a
        token — the property Vinz's ^var^ macro requires (Listing 5)."""
        table = ReadTable()
        table.set_macro_character("^", lambda rdr, s, c: S("caret"),
                                  non_terminating=True)
        reader = Reader(table)
        # at token start: macro fires
        assert reader.read_string("^") is S("caret")
        # mid-token: plain constituent
        assert reader.read_string("foo^bar") is S("foo^bar")

    def test_terminating_macro_ends_token(self):
        table = ReadTable()
        table.set_macro_character("!", lambda rdr, s, c: S("bang"))
        assert Reader(table).read_all("ab!cd") == [S("ab"), S("bang"), S("cd")]

    def test_readtable_copy_isolation(self):
        table = ReadTable()
        reader1 = Reader(table)
        reader1.readtable.set_macro_character("!", lambda r, s, c: 1)
        reader2 = Reader(table)
        # reader2 copied the original table, before the ! macro
        assert reader2.read_string("!x") is S("!x")


class TestCharStream:
    def test_read_peek_unread(self):
        stream = CharStream("ab")
        assert stream.peek_char() == "a"
        assert stream.read_char() == "a"
        stream.unread_char()
        assert stream.read_char() == "a"
        assert stream.read_char() == "b"
        assert stream.read_char() is None
        assert stream.at_eof()

    def test_line_column_tracking(self):
        stream = CharStream("a\nbc")
        stream.read_char()
        assert stream.line == 1
        stream.read_char()  # newline
        assert stream.line == 2
        stream.read_char()
        assert stream.column == 1

    def test_unread_at_start_errors(self):
        with pytest.raises(ReaderError):
            CharStream("x").unread_char()


class TestDispatch:
    def test_vector_literal(self):
        assert read_string("#(1 2 3)") == [S("vector"), 1, 2, 3]

    def test_uninterned_symbol(self):
        sym = read_string("#:temp")
        assert isinstance(sym, Symbol)
        assert sym.name == "#:temp"

    def test_unknown_dispatch_errors(self):
        with pytest.raises(ReaderError):
            read_string("#zoo")
