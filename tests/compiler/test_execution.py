"""Differential execution tests: C programs compiled at O0-O3 and simulated,
results compared against Python oracles with C semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.bits import to_int32
from tests.conftest import run_c

ALL_LEVELS = [0, 1, 2, 3]


def result_at(source: str, level: int) -> int:
    return run_c(source, level).register_value("a0")


def all_levels_agree(source: str, expected: int):
    for level in ALL_LEVELS:
        assert result_at(source, level) == expected, f"O{level} diverged"


class TestExpressions:
    def test_integer_arith(self):
        all_levels_agree(
            "int main(void){ return (7 * 6 - 2) / 4 + 100 % 7; }",
            (7 * 6 - 2) // 4 + 100 % 7)

    def test_negative_division_truncates(self):
        all_levels_agree("int main(void){ int a = -7; return a / 2; }", -3)

    def test_bitwise_and_shifts(self):
        all_levels_agree(
            "int main(void){ return ((0xF0 | 0x0C) ^ 0xFF) + (1 << 6) + (256 >> 3); }",
            ((0xF0 | 0x0C) ^ 0xFF) + (1 << 6) + (256 >> 3))

    def test_arithmetic_right_shift(self):
        all_levels_agree("int main(void){ int a = -64; return a >> 3; }", -8)

    def test_unsigned_right_shift(self):
        all_levels_agree(
            "int main(void){ unsigned a = 0x80000000; return (int)(a >> 28); }",
            8)

    def test_comparisons_and_logic(self):
        all_levels_agree(
            "int main(void){ return (3 < 4) + (4 <= 4) * 10 + (5 > 9) * 100 "
            "+ (1 && 2) * 1000 + (0 || 7) * 10000; }", 11011)

    def test_short_circuit_side_effects(self):
        all_levels_agree("""
int count;
int bump(void) { count++; return 1; }
int main(void) {
    count = 0;
    int r = 0 && bump();
    int s = 1 || bump();
    return count * 10 + r + s;
}
""", 1)

    def test_ternary(self):
        all_levels_agree(
            "int main(void){ int a = 5; return a > 3 ? a * 2 : a - 1; }", 10)

    def test_increments(self):
        all_levels_agree("""
int main(void) {
    int i = 5;
    int a = i++;
    int b = ++i;
    int c = i--;
    return a * 100 + b * 10 + c - i;
}
""", 5 * 100 + 7 * 10 + 7 - 6)

    def test_compound_assignments(self):
        all_levels_agree("""
int main(void) {
    int x = 10;
    x += 5; x -= 2; x *= 3; x /= 2; x %= 11;
    x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5;
    return x;
}
""", ((((((10 + 5 - 2) * 3 // 2) % 11) << 2) >> 1 | 8) & 14) ^ 5)

    def test_char_arithmetic(self):
        all_levels_agree(
            "int main(void){ char c = 'A'; c = c + 2; return c; }", 67)

    def test_char_wraps_at_8_bits(self):
        all_levels_agree(
            "int main(void){ char c = 250; c = c + 10; return c; }", 4)

    def test_unsigned_comparison(self):
        all_levels_agree("""
int main(void) {
    unsigned big = 0x80000000u + 0u;
    unsigned one = 1;
    return (big > one) ? 1 : 0;
}
""".replace("0x80000000u + 0u", "(unsigned)0x80000000"), 1)

    def test_sizeof(self):
        all_levels_agree(
            "int main(void){ return sizeof(int) + sizeof(char) "
            "+ sizeof(float) + sizeof(int*); }", 13)

    def test_integer_overflow_wraps(self):
        all_levels_agree(
            "int main(void){ int a = 2147483647; return a + 1 < 0; }", 1)


class TestFloats:
    def test_float_arith(self):
        sim = run_c("""
float main_f(void) { return 1.5f * 4.0f - 0.5f; }
int main(void) { return (int)main_f(); }
""", 2)
        assert sim.register_value("a0") == 5

    def test_float_compare_and_convert(self):
        all_levels_agree("""
int main(void) {
    float a = 2.5f;
    float b = 2.5f;
    int eq = a == b;
    int lt = a < 3.0f;
    int trunc = (int)(a * 2.0f);
    return eq + lt * 10 + trunc * 100;
}
""", 1 + 10 + 500)

    def test_int_float_mixing(self):
        all_levels_agree("""
int main(void) {
    int n = 7;
    float avg = n / 2;        /* integer division first */
    float favg = (float)n / 2;
    return (int)avg * 10 + (int)(favg * 2.0f);
}
""", 30 + 7)

    def test_float_function_args_and_return(self):
        all_levels_agree("""
float scale(float x, float k) { return x * k; }
int main(void) { return (int)scale(3.0f, 2.5f); }
""", 7)


class TestControlFlow:
    def test_nested_loops(self):
        all_levels_agree("""
int main(void) {
    int s = 0;
    for (int i = 0; i < 5; i++)
        for (int j = 0; j <= i; j++)
            s += i * j;
    return s;
}
""", sum(i * j for i in range(5) for j in range(i + 1)))

    def test_while_with_break_continue(self):
        all_levels_agree("""
int main(void) {
    int s = 0;
    int i = 0;
    while (1) {
        i++;
        if (i > 20) break;
        if (i % 3 == 0) continue;
        s += i;
    }
    return s;
}
""", sum(i for i in range(1, 21) if i % 3 != 0))

    def test_do_while_runs_once(self):
        all_levels_agree("""
int main(void) {
    int n = 0;
    do { n++; } while (0);
    return n;
}
""", 1)

    def test_early_return(self):
        all_levels_agree("""
int classify(int x) {
    if (x < 0) return -1;
    if (x == 0) return 0;
    return 1;
}
int main(void) { return classify(-5) + classify(0) * 10 + classify(9) * 100; }
""", -1 + 0 + 100)

    def test_goto_free_state_machine(self):
        all_levels_agree("""
int main(void) {
    int state = 0;
    int steps = 0;
    for (int i = 0; i < 12; i++) {
        if (state == 0) state = 1;
        else if (state == 1) state = 2;
        else state = 0;
        steps += state;
    }
    return steps;
}
""", sum([1, 2, 0] * 4))


class TestFunctionsAndRecursion:
    def test_factorial(self):
        all_levels_agree("""
int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
int main(void) { return fact(7); }
""", 5040)

    def test_mutual_recursion(self):
        all_levels_agree("""
int is_odd(int n);
int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
int main(void) { return is_even(10) + is_odd(7) * 10; }
""", 11)

    def test_many_arguments(self):
        all_levels_agree("""
int acc(int a, int b, int c, int d, int e, int f) {
    return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}
int main(void) { return acc(1, 2, 3, 4, 5, 6); }
""", 1 + 4 + 9 + 16 + 25 + 36)

    def test_ackermann_small(self):
        all_levels_agree("""
int ack(int m, int n) {
    if (m == 0) return n + 1;
    if (n == 0) return ack(m - 1, 1);
    return ack(m - 1, ack(m, n - 1));
}
int main(void) { return ack(2, 3); }
""", 9)


class TestPointersAndArrays:
    def test_array_sum_via_pointer(self):
        all_levels_agree("""
int main(void) {
    int a[5] = {1, 2, 3, 4, 5};
    int *p = a;
    int s = 0;
    for (int i = 0; i < 5; i++) s += *(p + i);
    return s;
}
""", 15)

    def test_pointer_write_through(self):
        all_levels_agree("""
void set(int *p, int v) { *p = v; }
int main(void) {
    int x = 1;
    set(&x, 99);
    return x;
}
""", 99)

    def test_pointer_difference(self):
        all_levels_agree("""
int main(void) {
    int a[10];
    int *p = &a[2];
    int *q = &a[7];
    return q - p;
}
""", 5)

    def test_swap_via_pointers(self):
        all_levels_agree("""
void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
int main(void) {
    int x = 3, y = 7;
    swap(&x, &y);
    return x * 10 + y;
}
""", 73)

    def test_global_array_init_and_update(self):
        all_levels_agree("""
int table[4] = {10, 20, 30, 40};
int main(void) {
    table[1] = table[0] + table[3];
    return table[1];
}
""", 50)

    def test_char_array_string(self):
        all_levels_agree("""
int main(void) {
    char *s = "hello";
    int n = 0;
    while (s[n]) n++;
    return n + s[0];
}
""", 5 + ord("h"))

    def test_string_literal_keeps_comment_markers(self):
        # the literal reaches the assembler as .asciiz "x/*y*/z"; its
        # /* ... */ must not be stripped as a block comment
        all_levels_agree("""
int main(void) {
    char *s = "x/*y*/z";
    int n = 0;
    while (s[n]) n++;
    return n;
}
""", 7)

    def test_matrix_flattened(self):
        all_levels_agree("""
int main(void) {
    int m[3][1 * 9];   /* not supported: use flat */
    return 0;
}
""".replace("int m[3][1 * 9];   /* not supported: use flat */\n    return 0;",
            """int m[9];
    for (int i = 0; i < 3; i++)
        for (int j = 0; j < 3; j++)
            m[i * 3 + j] = i * j;
    int tr = 0;
    for (int k = 0; k < 3; k++) tr += m[k * 3 + k];
    return tr;"""), 0 + 1 + 4)


class TestOptimizationEffect:
    def test_higher_levels_never_slower_on_loop_kernel(self):
        src = """
int main(void) {
    int s = 0;
    for (int i = 0; i < 50; i++) s += i * i;
    return s;
}
"""
        expected = sum(i * i for i in range(50))
        cycles = []
        for level in ALL_LEVELS:
            sim = run_c(src, level)
            assert sim.register_value("a0") == to_int32(expected)
            cycles.append(sim.stats.cycles)
        assert cycles[1] < cycles[0]          # regalloc is a big win
        assert cycles[2] <= cycles[1]
        assert cycles[3] <= cycles[2] * 1.05  # O3 never meaningfully worse


_BIN_OPS = ["+", "-", "*", "/", "%", "&", "|", "^"]


@st.composite
def _expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return str(draw(st.integers(-100, 100)))
    op = draw(st.sampled_from(_BIN_OPS))
    left = draw(_expr(depth + 1))
    right = draw(_expr(depth + 1))
    if op in ("/", "%"):
        right = str(draw(st.integers(1, 50)))  # avoid div-by-zero paths
    return f"({left} {op} {right})"


class TestDifferentialFuzz:
    @settings(max_examples=25, deadline=None)
    @given(_expr(), st.sampled_from([0, 2]))
    def test_random_expressions_match_python(self, expr, level):
        # Python oracle with C 32-bit semantics
        def c_div(a, b):
            return to_int32(int(a / b)) if b else 0

        def c_rem(a, b):
            return to_int32(a - int(a / b) * b) if b else 0
        oracle = eval(expr.replace("/", "//").replace("%", "%%%"), {}) \
            if False else None
        # evaluate with explicit C semantics instead of eval tricks
        import ast

        def ev(node):
            if isinstance(node, ast.Expression):
                return ev(node.body)
            if isinstance(node, ast.Constant):
                return node.value
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                return to_int32(-ev(node.operand))
            ops = {ast.Add: lambda a, b: to_int32(a + b),
                   ast.Sub: lambda a, b: to_int32(a - b),
                   ast.Mult: lambda a, b: to_int32(a * b),
                   ast.Div: c_div, ast.Mod: c_rem,
                   ast.BitAnd: lambda a, b: to_int32(a & b),
                   ast.BitOr: lambda a, b: to_int32(a | b),
                   ast.BitXor: lambda a, b: to_int32(a ^ b)}
            return ops[type(node.op)](ev(node.left), ev(node.right))
        oracle = ev(ast.parse(expr.replace("/", "/").replace("%", "%"),
                              mode="eval"))
        got = result_at(f"int main(void) {{ return {expr}; }}", level)
        assert got == oracle, f"{expr} at O{level}: {got} != {oracle}"
