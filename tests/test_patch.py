"""Tests for lexical function location and replacement."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from perfagent import llm_gateway
from perfagent.patch import (
    AmbiguousFunction,
    FunctionNotFound,
    UnbalancedBraces,
    UnbalancedReplacement,
    _braces_balance,
    _scan,
    active_text,
    extract_function,
    list_functions,
    locate_function,
    replace_function,
)

import reference_impl
from c_source_gen import gen_replacement, gen_translation_unit

SIMPLE = """\
#include <stdio.h>

static int helper(int a) {
    return a * 2;
}

int main(void)
{
    printf("%d\\n", helper(21));
    return 0;
}
"""


def test_lists_definitions_in_order():
    spans = [s.name for s in list_functions(SIMPLE)]
    assert spans == ["helper", "main"]


def test_span_covers_prefix_through_closing_brace():
    span = locate_function(SIMPLE, "helper")
    data = SIMPLE.encode()
    text = data[span.byte_start : span.byte_end].decode()
    assert text.startswith("static int helper")
    assert text.endswith("}")


def test_prototypes_are_not_definitions():
    src = "int work(int a);\n\nint work(int a) { return a; }\n"
    spans = list_functions(src)
    assert len(spans) == 1
    assert src.encode()[spans[0].byte_start :].decode().startswith("int work(int a) {")


def test_braces_inside_strings_and_chars_ignored():
    src = (
        'const char *s = "{{{";\n'
        "char open = '{';\n"
        "int f(void) {\n"
        '    const char *t = "} } }";\n'
        "    char close = '}';\n"
        "    return 0;\n"
        "}\n"
    )
    assert [s.name for s in list_functions(src)] == ["f"]


def test_braces_inside_comments_ignored():
    src = (
        "// { { {\n"
        "/* } }\n   more } */\n"
        "int f(void) {\n"
        "    // inner }\n"
        "    /* { */\n"
        "    return 0;\n"
        "}\n"
    )
    assert [s.name for s in list_functions(src)] == ["f"]


def test_macro_with_unbalanced_brace_ignored():
    src = "#define BEGIN {\n#define END }\nint f(void) { return 0; }\n"
    assert [s.name for s in list_functions(src)] == ["f"]


def test_macro_line_continuation():
    src = "#define LOOP(n) \\\n    for (int i = 0; i < (n); ++i) {\nint f(void) { return 0; }\n"
    assert [s.name for s in list_functions(src)] == ["f"]


def test_escaped_quote_in_string():
    src = 'int f(void) { const char *s = "a\\"{"; return 0; }\n'
    assert [s.name for s in list_functions(src)] == ["f"]


def test_qualified_definition_not_matched():
    src = "void Foo::bar() { }\n"
    with pytest.raises(FunctionNotFound):
        locate_function(src, "bar")


def test_attribute_after_params():
    src = "void f(void) __attribute__((noinline)) { }\n"
    assert [s.name for s in list_functions(src)] == ["f"]


def test_function_pointer_parameter():
    src = "void g(int (*cb)(int, void *), int n) { cb(n, 0); }\n"
    assert [s.name for s in list_functions(src)] == ["g"]


def test_function_returning_function_pointer_is_skipped():
    # A documented limit: the declarator form is not recognized, but it
    # must not derail scanning of what follows.
    src = "int (*mk(void))(int) { return 0; }\n\nint after(void) { return 1; }\n"
    assert [s.name for s in list_functions(src)] == ["after"]


def test_initializer_braces_do_not_confuse():
    src = "static int t[] = {1, 2, 3};\nstruct p { int x; };\nint f(void) { return t[0]; }\n"
    assert [s.name for s in list_functions(src)] == ["f"]


def test_multiline_prefix_included_in_span():
    src = "int done;\nstatic inline\ndouble\nslow_path(int a)\n{\n    return a;\n}\n"
    span = locate_function(src, "slow_path")
    assert src.encode()[span.byte_start :].decode().startswith("static inline\ndouble")


def test_crlf_source():
    src = "int f(void)\r\n{\r\n    return 0;\r\n}\r\n"
    span = locate_function(src, "f")
    assert src.encode()[span.byte_start : span.byte_end].decode().endswith("}")


def test_unicode_comment_offsets():
    src = "/* café à {} */\nint f(void) { return 0; }\n"
    assert extract_function(src, "f") == "int f(void) { return 0; }"


def test_not_found():
    with pytest.raises(FunctionNotFound):
        locate_function(SIMPLE, "missing")


def test_ambiguous_reports_count():
    src = "int f(void) { return 0; }\nint f(int a) { return a; }\n"
    with pytest.raises(AmbiguousFunction) as exc:
        locate_function(src, "f")
    assert exc.value.count == 2


def test_unbalanced_body_raises():
    src = "int f(void) {\n    if (1) {\n    return 0;\n"
    with pytest.raises(UnbalancedBraces):
        list_functions(src)


def test_unbalanced_source_raises_on_every_call():
    src = '#include "a.h"\nint f(void) { puts("x");\n'
    for _ in range(2):
        with pytest.raises(UnbalancedBraces) as exc:
            list_functions(src)
        assert exc.value.name == "f"
    # Only the definition lookup fails; the other scans still answer.
    assert active_text(src) == " " * 14 + "\nint f(void) { puts(   );\n"
    assert llm_gateway.include_names(src) == {"a.h"}


def test_returned_list_is_the_callers_own():
    first = list_functions(SIMPLE)
    first.clear()
    assert [s.name for s in list_functions(SIMPLE)] == ["helper", "main"]


# Every byte the comment, literal and directive rules react to, plus
# identifiers and blanks.
_SCANNER_ATOMS = (
    "/", "*", '"', "'", "\\", "\n", "\r", "#", "{", "}", "(", ")", ";",
    "f", "int", "x1", " ", "\t",
)


def _live(zeroed: bytes) -> bytearray:
    """The 0/1 activity mask a zeroed copy stands for."""
    return bytearray(1 if b else 0 for b in zeroed)


def _functions_or_unbalanced(list_fn, source):
    try:
        return list_fn(source)
    except UnbalancedBraces as exc:
        return ("unbalanced", exc.name)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_SCANNER_ATOMS), max_size=40).map("".join))
@example("#define A 1 \\\r\nint f() { }\n")
@example('x = "ab\\')
@example("/*/ x */ y /* z")
@example('#if 0 /* a\n# b */ c\nint f() { }\n')
@example("/* a\n# b */ int f() { }\n")
@example('s = "a\\\n#b"; int f() { }\n')
@example("f\x00() { }\nint g(void) { }\x00\n")
@example("#define A \\\n#include <x.h>\n")
@example("{ ( } int f() { } ) int g() { }\n")
@example("( { ) int f() { } } int g() { }\n")
@example("} int f() { } { int g() { }\n")
@example("/* a **\nint f() { }")
@example("/* a **/ int f() { }\n")
def test_masks_match_byte_loop(text):
    data = text.encode("utf-8")
    scan = _scan(text)
    expected = reference_impl.active_mask(data)
    assert _live(scan.literal) == expected
    reference_impl.mask_directives(data, expected)
    assert _live(scan.code) == expected
    for keep in (False, True):
        assert active_text(text, keep) == reference_impl.active_text(text, keep)
    assert _functions_or_unbalanced(list_functions, text) == _functions_or_unbalanced(
        reference_impl.list_functions, text
    )
    assert _braces_balance(scan.code) == reference_impl.braces_balance(text)


# Lexical noise spliced into generated sources at random offsets: braces
# and parentheses in strings, char literals, comments and directives;
# member and scope calls, some shaped like definitions; stray delimiters;
# and bodies that never close.
_NOISE = (
    '"{"', '"}"', '"("', '")"', '"\\"{"', "'{'", "'}'", "'('", "')'", "'\\''",
    "/* { ( */", "/* } ) */", "// { (\n", "// } )\n",
    "\n#define OPEN_NOISE {\n", "\n#define CLOSE_NOISE )\n",
    "\n#if 0 /* { */\n", "\n#define M(x) \\\n    { (x);\n",
    " obj.run(1); ", " ptr->go(2); ", " ns::call(3); ",
    " a.b(c) { } ", " p->q(void) { } ", " A::b() { } ",
    "{", "}", "(", ")", ";",
    "\nint never_closes(void) {\n", "\nstatic void open_body(int a) { if (a) {\n",
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    noise=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(_NOISE)), max_size=6),
)
def test_list_functions_matches_byte_loop_on_noisy_sources(seed, noise):
    source, _ = gen_translation_unit(random.Random(seed))
    for where, fragment in noise:
        at = int(where * len(source))
        source = source[:at] + fragment + source[at:]
    assert _functions_or_unbalanced(list_functions, source) == _functions_or_unbalanced(
        reference_impl.list_functions, source
    )


def test_replace_preserves_surroundings():
    out = replace_function(SIMPLE, "helper", "static int helper(int a) { return a; }")
    assert "return a * 2" not in out
    assert "int main(void)" in out
    assert out.startswith("#include <stdio.h>")
    assert extract_function(out, "helper") == "static int helper(int a) { return a; }"


def test_replace_then_restore_is_identity():
    original = extract_function(SIMPLE, "helper")
    swapped = replace_function(SIMPLE, "helper", "static int helper(int a) { return a; }")
    restored = replace_function(swapped, "helper", original)
    assert restored == SIMPLE


def test_replacement_with_extra_close_rejected():
    with pytest.raises(UnbalancedReplacement):
        replace_function(SIMPLE, "helper", "int helper(int a) { return a; } }")


def test_replacement_without_braces_rejected():
    with pytest.raises(UnbalancedReplacement):
        replace_function(SIMPLE, "helper", "int helper(int a);")


def test_replacement_brace_in_comment_is_fine():
    text = "int helper(int a) { /* } */ return a; }"
    out = replace_function(SIMPLE, "helper", text)
    assert extract_function(out, "helper") == text


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_generated_sources_roundtrip(seed):
    rng = random.Random(seed)
    source, names = gen_translation_unit(rng)
    found = [s.name for s in list_functions(source)]
    assert found == names

    target = rng.choice(names)
    replacement = gen_replacement(rng, target)
    patched = replace_function(source, target, replacement)
    assert extract_function(patched, target) == replacement
    assert [s.name for s in list_functions(patched)] == names

    restored = replace_function(patched, target, extract_function(source, target))
    assert restored == source
