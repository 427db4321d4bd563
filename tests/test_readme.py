"""README's "Library example" runs as written: every expression statement in
its python blocks ends in a comment holding the value it evaluates to."""

import ast
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _run_block(source: str) -> list[tuple[str, object]]:
    """Run ``source`` statement by statement; return ``(expression, value)`` for
    each expression statement, after checking the value against its comment."""
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        text = ast.get_source_segment(source, node)
        assert node.end_lineno in comments, f"no value comment on {text}"
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(comments[node.end_lineno]), text
        checked.append((text, value))
    return checked


def test_readme_library_example_values_hold():
    blocks = _library_blocks()
    assert len(blocks) == 2
    for block in blocks:
        assert _run_block(block), block
