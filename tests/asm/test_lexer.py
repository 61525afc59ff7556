"""Assembly tokenizer tests."""

import pytest

from repro.asm.lexer import (
    Token, TokenKind, strip_block_comments, tokenize_line, unescape_string,
)
from repro.errors import AsmSyntaxError


class TestTokenKinds:
    def test_instruction_line(self):
        tokens = tokenize_line("add x1, x2, x3", 1)
        kinds = [t.kind for t in tokens]
        assert kinds == [TokenKind.SYMBOL, TokenKind.SYMBOL, TokenKind.COMMA,
                         TokenKind.SYMBOL, TokenKind.COMMA, TokenKind.SYMBOL]

    def test_label_definition(self):
        tokens = tokenize_line("loop: addi x1, x1, -1", 1)
        assert tokens[0].kind is TokenKind.LABEL_DEF
        assert tokens[0].value == "loop"

    def test_dot_label_definition(self):
        tokens = tokenize_line(".L42:", 1)
        assert tokens[0].kind is TokenKind.LABEL_DEF
        assert tokens[0].value == ".L42"

    def test_directive(self):
        tokens = tokenize_line(".word 1, 2, 3", 1)
        assert tokens[0].kind is TokenKind.DIRECTIVE
        assert tokens[0].value == ".word"

    def test_memory_operand(self):
        tokens = tokenize_line("lw a0, 8(sp)", 1)
        kinds = [t.kind for t in tokens]
        assert TokenKind.LPAREN in kinds and TokenKind.RPAREN in kinds

    def test_integers(self):
        # signs are separate operator tokens (evaluated as unary minus)
        tokens = tokenize_line(".word 10, -10, 0x1F, 0b101", 1)
        values = [t.value for t in tokens if t.kind is TokenKind.INTEGER]
        assert values == [10, 10, 31, 5]
        assert any(t.kind is TokenKind.OPERATOR and t.text == "-"
                   for t in tokens)

    def test_floats(self):
        tokens = tokenize_line(".float 1.5, 2.75", 1)
        values = [t.value for t in tokens if t.kind is TokenKind.FLOAT]
        assert values == [1.5, 2.75]

    def test_char_literal_becomes_integer(self):
        tokens = tokenize_line(".byte 'A'", 1)
        assert tokens[1].kind is TokenKind.INTEGER
        assert tokens[1].value == ord("A")

    def test_string_literal(self):
        tokens = tokenize_line('.asciiz "hi\\n"', 1)
        assert tokens[1].kind is TokenKind.STRING
        assert tokens[1].value == "hi\n"

    def test_percent_functions(self):
        tokens = tokenize_line("lui a0, %hi(symbol)", 1)
        pct = [t for t in tokens if t.kind is TokenKind.PERCENT_FUNC]
        assert len(pct) == 1 and pct[0].value == "hi"

    def test_comments_stripped(self):
        assert tokenize_line("# whole line comment", 1) == []
        tokens = tokenize_line("nop # trailing", 1)
        assert len(tokens) == 1

    def test_double_slash_comment(self):
        assert tokenize_line("// c-style", 1) == []

    def test_positions_are_one_based(self):
        tokens = tokenize_line("  add x1, x2, x3", 3)
        assert tokens[0].line == 3
        assert tokens[0].column == 3

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(AsmSyntaxError) as info:
            tokenize_line("add x1, @", 7)
        assert info.value.line == 7
        assert info.value.column == 9


class TestStrings:
    def test_escapes(self):
        assert unescape_string(r"a\tb\nc\0") == "a\tb\nc\0"
        assert unescape_string(r"\x41\x42") == "AB"
        assert unescape_string(r"\\") == "\\"

    def test_dangling_escape_raises(self):
        with pytest.raises(AsmSyntaxError):
            unescape_string("abc\\")

    def test_bad_hex_escape(self):
        with pytest.raises(AsmSyntaxError):
            unescape_string(r"\xZZ")


class TestBlockComments:
    def test_strip_preserves_line_numbers(self):
        source = "a /* x\ny */ b"
        stripped = strip_block_comments(source)
        assert stripped.count("\n") == source.count("\n")
        assert "a" in stripped and "b" in stripped and "y" not in stripped

    def test_unterminated_comment_swallows_rest(self):
        assert strip_block_comments("a /* b").startswith("a ")

    def test_block_open_inside_string_is_text(self):
        source = '.string "a/*b"\nli a0, 1 /* real */\n'
        assert strip_block_comments(source) == \
            '.string "a/*b"\nli a0, 1 ' + ' ' * len(' real ') + '\n'

    def test_block_open_after_line_comment_is_text(self):
        source = "li a0, 1 # see /* here\nli a1, 2\n// and /* here\nli a2, 3"
        assert strip_block_comments(source) == source

    def test_char_literal_slash_is_not_an_opener(self):
        assert strip_block_comments("li a0, '/'*2") == "li a0, '/'*2"


class TestBlockCommentsInPrograms:
    def test_string_with_comment_markers_assembles_verbatim(self):
        from repro.asm.parser import assemble
        program = assemble('.data\nmsg: .asciiz "x/*y*/z"\n.text\nebreak\n')
        symbol = program.find_symbol("msg")
        start = symbol.address - program.data_base
        assert bytes(program.data[start:start + 8]) == b"x/*y*/z\0"

    def test_line_comment_does_not_swallow_following_code(self):
        from repro.asm.parser import assemble
        program = assemble("li a0, 1 # see /* here\nli a1, 2\nli a2, 3\n")
        assert [i.operands["rd"] for i in program.instructions] == \
            ["x10", "x11", "x12"]

    def test_string_directive_with_opener_is_no_error(self):
        from repro.asm.parser import assemble
        program = assemble('.data\ns: .string "a/*b"\n.text\nebreak\n')
        assert program.find_symbol("s").size == 5
