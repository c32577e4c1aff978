"""Unit tests for the textual IR renderer."""

from repro.ir import format_function, format_program


class TestTextual:
    def test_function_text_mentions_all_blocks(self, diamond_program):
        program, _ = diamond_program
        text = format_function(program.function("main"))
        for bid in range(1, 8):
            assert f"B{bid}:" in text
        assert "func main()" in text

    def test_program_puts_main_first(self, caller_program):
        text = format_program(caller_program)
        assert text.index("func main") < text.index("func leaf")
