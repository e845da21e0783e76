"""Standard library tests, exercised through the full pipeline."""

import pytest

from repro.gvm.conditions import UnhandledConditionError
from repro.lang.symbols import Keyword, Symbol

S = Symbol
K = Keyword


class TestArithmetic:
    def test_add_varargs(self, rt):
        assert rt.eval_string("(+ 1 2 3 4)") == 10

    def test_add_empty(self, rt):
        assert rt.eval_string("(+)") == 0

    def test_sub_unary_negates(self, rt):
        assert rt.eval_string("(- 5)") == -5

    def test_sub_chain(self, rt):
        assert rt.eval_string("(- 10 3 2)") == 5

    def test_mul(self, rt):
        assert rt.eval_string("(* 2 3 4)") == 24

    def test_div_exact_integers(self, rt):
        assert rt.eval_string("(/ 10 2)") == 5

    def test_div_inexact(self, rt):
        assert rt.eval_string("(/ 7 2)") == 3.5

    def test_div_reciprocal(self, rt):
        assert rt.eval_string("(/ 4)") == 0.25

    def test_comparison_chains(self, rt):
        assert rt.eval_string("(< 1 2 3)") is True
        assert rt.eval_string("(< 1 3 2)") is False
        assert rt.eval_string("(<= 1 1 2)") is True
        assert rt.eval_string("(> 3 2 1)") is True
        assert rt.eval_string("(>= 3 3 1)") is True

    def test_num_eq(self, rt):
        assert rt.eval_string("(= 2 2 2)") is True
        assert rt.eval_string("(= 2 3)") is False

    def test_num_neq_pairwise(self, rt):
        assert rt.eval_string("(/= 1 2 3)") is True
        assert rt.eval_string("(/= 1 2 1)") is False

    def test_incr_decr(self, rt):
        assert rt.eval_string("(1+ 5)") == 6
        assert rt.eval_string("(1- 5)") == 4

    def test_mod(self, rt):
        assert rt.eval_string("(mod 7 3)") == 1

    def test_expt(self, rt):
        assert rt.eval_string("(expt 2 10)") == 1024

    def test_sqrt(self, rt):
        assert rt.eval_string("(sqrt 9)") == 3.0

    def test_floor_ceiling_round(self, rt):
        assert rt.eval_string("(floor 7 2)") == 3
        assert rt.eval_string("(ceiling 7 2)") == 4
        assert rt.eval_string("(round 7 2)") == 4  # banker's: 3.5 -> 4

    def test_min_max_abs(self, rt):
        assert rt.eval_string("(min 3 1 2)") == 1
        assert rt.eval_string("(max 3 1 2)") == 3
        assert rt.eval_string("(abs -4)") == 4

    def test_predicates(self, rt):
        assert rt.eval_string("(zerop 0)") is True
        assert rt.eval_string("(evenp 4)") is True
        assert rt.eval_string("(oddp 3)") is True
        assert rt.eval_string("(plusp 1)") is True
        assert rt.eval_string("(minusp -1)") is True
        assert rt.eval_string("(numberp 1.5)") is True
        assert rt.eval_string('(numberp "x")') is False
        assert rt.eval_string("(integerp 3)") is True
        assert rt.eval_string("(floatp 3.0)") is True

    def test_division_by_zero_signals(self, rt):
        with pytest.raises(UnhandledConditionError):
            rt.eval_string("(/ 1 0)")


class TestEquality:
    def test_eq_symbols(self, rt):
        assert rt.eval_string("(eq 'a 'a)") is True

    def test_eql_numbers(self, rt):
        assert rt.eval_string("(eql 2 2)") is True
        assert rt.eval_string("(eql 2 2.0)") is False

    def test_equal_lists(self, rt):
        assert rt.eval_string("(equal (list 1 2) (list 1 2))") is True

    def test_not_and_null(self, rt):
        assert rt.eval_string("(not nil)") is True
        assert rt.eval_string("(not 0)") is False  # 0 is truthy
        assert rt.eval_string("(null (list))") is False  # empty list truthy!
        assert rt.eval_string("(null nil)") is True


class TestLists:
    def test_list_and_length(self, rt):
        assert rt.eval_string("(length (list 1 2 3))") == 3

    def test_cons(self, rt):
        assert rt.eval_string("(cons 1 (list 2 3))") == [1, 2, 3]

    def test_car_cdr(self, rt):
        assert rt.eval_string("(car (list 1 2))") == 1
        assert rt.eval_string("(cdr (list 1 2 3))") == [2, 3]
        assert rt.eval_string("(car (list))") is None
        assert rt.eval_string("(cdr (list))") == []

    def test_first_second_third(self, rt):
        assert rt.eval_string("(second (list 1 2 3))") == 2
        assert rt.eval_string("(third (list 1 2 3))") == 3

    def test_nth_and_out_of_range(self, rt):
        assert rt.eval_string("(nth 1 (list 4 5 6))") == 5
        assert rt.eval_string("(nth 9 (list 4))") is None

    def test_last_butlast(self, rt):
        assert rt.eval_string("(last (list 1 2 3))") == [3]
        assert rt.eval_string("(butlast (list 1 2 3))") == [1, 2]

    def test_append(self, rt):
        assert rt.eval_string("(append (list 1) (list 2 3) (list))") == [1, 2, 3]

    def test_append_bang_mutates(self, rt):
        assert rt.eval_string("""
            (let ((xs (list 1 2)))
              (append! xs 3)
              xs)""") == [1, 2, 3]

    def test_reverse(self, rt):
        assert rt.eval_string("(reverse (list 1 2 3))") == [3, 2, 1]

    def test_member(self, rt):
        assert rt.eval_string("(member 2 (list 1 2 3))") == [2, 3]
        assert rt.eval_string("(member 9 (list 1 2 3))") is None

    def test_assoc(self, rt):
        assert rt.eval_string("(assoc :b (list (list :a 1) (list :b 2)))") == \
            [K("b"), 2]

    def test_getf(self, rt):
        assert rt.eval_string("(getf (list :a 1 :b 2) :b)") == 2
        assert rt.eval_string("(getf (list :a 1) :z 99)") == 99

    def test_subseq(self, rt):
        assert rt.eval_string("(subseq (list 1 2 3 4) 1 3)") == [2, 3]

    def test_position_count_remove(self, rt):
        assert rt.eval_string("(position 3 (list 1 3 5))") == 1
        assert rt.eval_string("(count 1 (list 1 2 1))") == 2
        assert rt.eval_string("(remove 1 (list 1 2 1 3))") == [2, 3]

    def test_remove_duplicates(self, rt):
        assert rt.eval_string("(remove-duplicates (list 1 2 1 3 2))") == [1, 2, 3]

    def test_range(self, rt):
        assert rt.eval_string("(range 3)") == [0, 1, 2]
        assert rt.eval_string("(range 1 7 2)") == [1, 3, 5]

    def test_set_car_bang(self, rt):
        assert rt.eval_string("""
            (let ((xs (list 1 2))) (setf (car xs) 9) xs)""") == [9, 2]

    def test_set_nth_bang(self, rt):
        assert rt.eval_string("""
            (let ((xs (list 1 2 3))) (setf (nth 1 xs) 9) xs)""") == [1, 9, 3]


class TestHigherOrder:
    def test_mapcar(self, rt):
        assert rt.eval_string("(mapcar #'1+ (list 1 2 3))") == [2, 3, 4]

    def test_mapcar_two_lists(self, rt):
        assert rt.eval_string("(mapcar #'+ (list 1 2) (list 10 20))") == [11, 22]

    def test_mapcan(self, rt):
        assert rt.eval_string(
            "(mapcan (lambda (x) (list x x)) (list 1 2))") == [1, 1, 2, 2]

    def test_filter(self, rt):
        assert rt.eval_string("(filter #'evenp (list 1 2 3 4))") == [2, 4]

    def test_remove_if(self, rt):
        assert rt.eval_string("(remove-if #'evenp (list 1 2 3 4))") == [1, 3]

    def test_reduce(self, rt):
        assert rt.eval_string("(reduce #'+ (list 1 2 3))") == 6

    def test_reduce_initial(self, rt):
        assert rt.eval_string("(reduce #'+ (list 1 2) 10)") == 13

    def test_find_if(self, rt):
        assert rt.eval_string("(find-if #'evenp (list 1 3 4 5))") == 4

    def test_every_some(self, rt):
        assert rt.eval_string("(every #'evenp (list 2 4))") is True
        assert rt.eval_string("(some #'evenp (list 1 3 4))") is True
        assert rt.eval_string("(some #'evenp (list 1 3))") is None

    def test_sort_default(self, rt):
        assert rt.eval_string("(sort (list 3 1 2))") == [1, 2, 3]

    def test_sort_predicate(self, rt):
        assert rt.eval_string("(sort (list 1 3 2) #'>)") == [3, 2, 1]

    def test_funcall(self, rt):
        assert rt.eval_string("(funcall #'+ 1 2)") == 3

    def test_apply_spread(self, rt):
        assert rt.eval_string("(apply #'+ 1 (list 2 3))") == 6

    def test_apply_lambda(self, rt):
        assert rt.eval_string("(apply (lambda (a b) (* a b)) (list 3 4))") == 12


class TestStrings:
    def test_case(self, rt):
        assert rt.eval_string('(string-upcase "abc")') == "ABC"
        assert rt.eval_string('(string-downcase "ABC")') == "abc"

    def test_string_eq(self, rt):
        assert rt.eval_string('(string= "a" "a")') is True

    def test_concat(self, rt):
        assert rt.eval_string('(concat "a" "b" 1)') == "ab1"

    def test_split_join(self, rt):
        assert rt.eval_string('(string-split "a,b" ",")') == ["a", "b"]
        assert rt.eval_string('(string-join (list "a" "b") "-")') == "a-b"

    def test_starts_ends_with(self, rt):
        assert rt.eval_string('(starts-with-p "foobar" "foo")') is True
        assert rt.eval_string('(ends-with-p "foobar" "bar")') is True

    @pytest.mark.parametrize("source,expected", [
        ('(starts-with-p :foobar "foo")', True),
        ("(ends-with-p 'foobar #\\r)", True),
        ("(string-contains-p \"a-b\" '-)", True),
        ("(string-upcase 'abc)", "ABC"),
        ("(string-downcase #\\A)", "a"),
        ('(string-trim "*" :*a*)', "a"),
        ("(string-split 'a-b '-)", ["a", "b"]),
        ("(symbol-name :key)", "key"),
    ])
    def test_string_designators(self, rt, source, expected):
        assert rt.eval_string(source) == expected

    @pytest.mark.parametrize("source", [
        "(starts-with-p 0 0)", "(ends-with-p \"a\" 1)",
        "(string-contains-p (list 1) \"a\")", "(string-upcase 1.5)",
        "(string-downcase nil)", "(string-trim 0 \"a\")",
        "(string-split 3)", "(symbol-name 7)",
    ])
    def test_non_designator_is_a_type_error(self, rt, source):
        with pytest.raises(UnhandledConditionError) as exc:
            rt.eval_string(source)
        assert exc.value.condition.condition_type == "type-error"

    def test_parse_numbers(self, rt):
        assert rt.eval_string('(parse-integer "42")') == 42
        assert rt.eval_string('(parse-float "2.5")') == 2.5

    def test_symbol_name_and_intern(self, rt):
        assert rt.eval_string("(symbol-name 'abc)") == "abc"
        assert rt.eval_string('(intern "xyz")') is S("xyz")

    def test_subseq_on_strings(self, rt):
        assert rt.eval_string('(subseq "hello" 1 3)') == "el"

    def test_char_code_round_trip(self, rt):
        assert rt.eval_string("(code-char (char-code #\\A))").value == "A"


class TestHashTables:
    def test_make_set_get(self, rt):
        assert rt.eval_string("""
            (let ((h (make-hash-table)))
              (setf (gethash :k h) 5)
              (gethash :k h))""") == 5

    def test_gethash_default(self, rt):
        assert rt.eval_string(
            "(gethash :missing (make-hash-table) :dflt)") == K("dflt")

    def test_remhash(self, rt):
        assert rt.eval_string("""
            (let ((h (make-hash-table)))
              (setf (gethash :k h) 5)
              (remhash :k h)
              (gethash :k h))""") is None

    def test_hash_count_keys(self, rt):
        assert rt.eval_string("""
            (let ((h (make-hash-table)))
              (setf (gethash :a h) 1)
              (setf (gethash :b h) 2)
              (list (hash-count h) (length (hash-keys h))))""") == [2, 2]

    def test_list_key_hashable(self, rt):
        assert rt.eval_string("""
            (let ((h (make-hash-table)))
              (setf (gethash (list 1 2) h) :v)
              (gethash (list 1 2) h))""") == K("v")


class TestFormat:
    def test_format_nil_returns_string(self, rt):
        assert rt.eval_string('(format nil "x=~a" 5)') == "x=5"

    def test_format_s_readable(self, rt):
        assert rt.eval_string('(format nil "~s" "str")') == '"str"'

    def test_format_d(self, rt):
        assert rt.eval_string('(format nil "~d items" 3)') == "3 items"

    def test_format_percent_newline(self, rt):
        assert rt.eval_string('(format nil "a~%b")') == "a\nb"

    def test_format_tilde_tilde(self, rt):
        assert rt.eval_string('(format nil "~~")') == "~"

    def test_princ_prin1_to_string(self, rt):
        assert rt.eval_string('(princ-to-string "x")') == "x"
        assert rt.eval_string('(prin1-to-string "x")') == '"x"'


class TestTypePredicates:
    def test_consp_listp_atom(self, rt):
        assert rt.eval_string("(consp (list 1))") is True
        assert rt.eval_string("(consp (list))") is False
        assert rt.eval_string("(listp (list))") is True
        assert rt.eval_string("(listp nil)") is True
        assert rt.eval_string("(atom 5)") is True
        assert rt.eval_string("(atom (list 1))") is False

    def test_stringp_symbolp_keywordp(self, rt):
        assert rt.eval_string('(stringp "s")') is True
        assert rt.eval_string("(symbolp 'a)") is True
        assert rt.eval_string("(keywordp :a)") is True
        assert rt.eval_string("(keywordp 'a)") is False

    def test_functionp(self, rt):
        assert rt.eval_string("(functionp #'car)") is True
        assert rt.eval_string("(functionp (lambda (x) x))") is True
        assert rt.eval_string("(functionp 5)") is False


class TestInterop:
    def test_dot_method_call(self, rt):
        assert rt.eval_string('(. "hello" (upper))') == "HELLO"

    def test_dot_method_with_args(self, rt):
        assert rt.eval_string('(. "a-b-c" (split "-"))') == ["a", "b", "c"]

    def test_percent_intrinsic(self, rt):
        # outside a fiber this is false
        assert rt.eval_string("(% is-fiber-thread)") in (False, True)

    def test_eval(self, rt):
        assert rt.eval_string("(eval '(+ 1 2))") == 3

    def test_read_from_string(self, rt):
        assert rt.eval_string('(read-from-string "(+ 1 2)")') == \
            [S("+"), 1, 2]

    def test_macroexpand(self, rt):
        expansion = rt.eval_string("(macroexpand '(when a b))")
        assert expansion[0] is S("if")
