"""Prompt building, providers, extraction, constraint checks, labeling."""

import http.server
import json
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfagent import llm_gateway as gw

import reference_impl
from c_source_gen import gen_translation_unit
from conftest import write_transcript
import random

ENV = {
    "os": "Rocky Linux 8.5 Green Obsidian",
    "cpu": "AMD EPYC 7543 32-Core CPU",
    "compilers": "GCC/G++ v14.2.0 and CLANG/CLANG++ v19.1.5",
}

CODE = "#include <stdio.h>\nint main(void) { puts(\"hi\"); return 0; }\n"


def make_response(text, provider_id="test", latency=0.01):
    return gw.ModelResponse(raw_text=text, provider_id=provider_id, latency_s=latency)


class TestPromptRendering:
    def test_system_text_substitutes_environment(self):
        bundle = gw.render_prompt(gw.Experiment.EX1, None, CODE, ENV)
        assert "Rocky Linux 8.5 Green Obsidian" in bundle.system_text
        assert "AMD EPYC 7543 32-Core CPU" in bundle.system_text
        assert "GCC/G++ v14.2.0 and CLANG/CLANG++ v19.1.5" in bundle.system_text
        assert bundle.system_text.startswith(
            "You are a code generation/optimization assistant."
        )

    def test_ex1_instruction_then_code(self):
        bundle = gw.render_prompt(gw.Experiment.EX1, None, CODE, ENV)
        assert bundle.user_text.startswith(
            "Provide the C/C++ code with a single serial optimization"
        )
        assert bundle.user_text.endswith(CODE)
        assert bundle.user_text.count(CODE) == 1
        assert bundle.experiment is gw.Experiment.EX1
        assert bundle.attached_code == CODE

    def test_ex2_instruction_wording(self):
        bundle = gw.render_prompt(gw.Experiment.EX2, None, CODE, ENV)
        assert bundle.user_text.startswith(
            "Propose an additional serial optimization that can be applied"
        )

    def test_ex3_instruction_wording(self):
        bundle = gw.render_prompt(gw.Experiment.EX3, None, CODE, ENV)
        assert bundle.user_text.startswith(
            "Based on the original code, provide optimized parallel C/C++ code"
        )
        # single spaces throughout
        assert "  " not in gw.EX3_INSTRUCTION

    def test_instructions_share_constraint_clause(self):
        tail = (
            "without removing any of the existing functions or header files "
            "and without adding any new functions or print statements."
        )
        for text in (gw.EX1_INSTRUCTION, gw.EX2_INSTRUCTION, gw.EX3_INSTRUCTION):
            assert text.endswith(tail)

    def test_agent_experiment_has_no_fixed_template(self):
        with pytest.raises(gw.UnknownExperiment):
            gw.render_prompt(gw.Experiment.AGENT, None, CODE, ENV)

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError):
            gw.render_prompt(gw.Experiment.EX1, None, "", ENV)

    def test_agent_prompt_sections(self):
        bundle = gw.render_agent_prompt(
            hotspot_code="void kernel(void) { }",
            profile_summary="kernel at main.c:10 (88.0%)",
            memory_digest="iter 1: Correct, 1.20x",
            env=ENV,
        )
        assert bundle.experiment is gw.Experiment.AGENT
        assert "NO FURTHER OPTIMIZATIONS" in bundle.user_text
        assert "kernel at main.c:10 (88.0%)" in bundle.user_text
        assert "iter 1: Correct, 1.20x" in bundle.user_text
        assert bundle.user_text.count("void kernel(void) { }") == 1

    def test_agent_prompt_without_memory_omits_section(self):
        bundle = gw.render_agent_prompt("int f;", "summary", "", ENV)
        assert "Prior iterations" not in bundle.user_text
        assert "Profiling summary" in bundle.user_text

    def test_agent_prompt_custom_sentinel(self):
        bundle = gw.render_agent_prompt("int f;", "s", "", ENV, decline_sentinel="DONE NOW")
        assert "DONE NOW" in bundle.user_text
        assert "NO FURTHER OPTIMIZATIONS" not in bundle.user_text


class TestMessageBuilding:
    def test_single_turn_is_system_plus_user(self):
        bundle = gw.render_prompt(gw.Experiment.EX1, None, CODE, ENV)
        messages = gw.build_messages(bundle)
        assert [m["role"] for m in messages] == ["system", "user"]
        assert messages[0]["content"] == bundle.system_text
        assert messages[1]["content"] == bundle.user_text

    def test_third_turn_carries_both_exchanges(self):
        bundle = gw.render_prompt(gw.Experiment.EX2, None, CODE, ENV)
        history = [("ask one", "reply one"), ("ask two", "reply two")]
        messages = gw.build_messages(bundle, history)
        assert [m["role"] for m in messages] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        assert len(messages) == 6
        assert messages[1]["content"] == "ask one"
        assert messages[2]["content"] == "reply one"
        assert messages[4]["content"] == "reply two"
        assert messages[5]["content"] == bundle.user_text

    def test_digest_insensitive_to_key_order(self):
        a = [{"role": "user", "content": "hello"}]
        b = [{"content": "hello", "role": "user"}]
        assert gw.canonical_digest(a) == gw.canonical_digest(b)
        c = [{"role": "user", "content": "other"}]
        assert gw.canonical_digest(a) != gw.canonical_digest(c)


class TestReplayProvider:
    def test_replays_in_order(self, tmp_path):
        path = tmp_path / "t.json"
        write_transcript(path, ["first", "second"])
        provider = gw.ReplayProvider(path)
        r1 = provider.complete([{"role": "user", "content": "x"}])
        r2 = provider.complete([{"role": "user", "content": "y"}])
        assert (r1.raw_text, r2.raw_text) == ("first", "second")
        assert len(provider.received) == 2
        assert provider.received[0][0]["content"] == "x"

    def test_exhausted_transcript(self, tmp_path):
        path = tmp_path / "t.json"
        write_transcript(path, ["only"])
        provider = gw.ReplayProvider(path)
        provider.complete([{"role": "user", "content": "x"}])
        with pytest.raises(gw.TranscriptExhausted):
            provider.complete([{"role": "user", "content": "x"}])

    def test_exhausted_is_a_timeout_kind(self):
        assert issubclass(gw.TranscriptExhausted, gw.ProviderTimeout)

    def test_digest_checked_when_recorded(self):
        messages = [{"role": "user", "content": "known"}]
        good = gw.ReplayProvider(
            [{"request_digest": gw.canonical_digest(messages), "response_text": "ok",
              "latency_s": 0.5}]
        )
        resp = good.complete(messages)
        assert resp.raw_text == "ok"
        assert resp.latency_s == 0.5

        bad = gw.ReplayProvider(
            [{"request_digest": gw.canonical_digest(messages), "response_text": "ok",
              "latency_s": 0.5}]
        )
        with pytest.raises(gw.TranscriptMismatch):
            bad.complete([{"role": "user", "content": "different"}])

    def test_empty_digest_skips_check(self):
        provider = gw.ReplayProvider([{"request_digest": "", "response_text": "r",
                                       "latency_s": 0.0}])
        assert provider.complete([{"role": "user", "content": "any"}]).raw_text == "r"


class _ScriptedProvider(gw.Provider):
    provider_id = "scripted"

    def __init__(self, texts):
        self.texts = list(texts)
        self.calls = 0

    def complete(self, messages):
        text = self.texts[self.calls]
        self.calls += 1
        return gw.ModelResponse(text, self.provider_id, latency_s=0.25)


class TestRecordProvider:
    def test_record_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "rec.json"
        recorder = gw.RecordProvider(_ScriptedProvider(["alpha", "beta"]), path)
        m1 = [{"role": "user", "content": "one"}]
        m2 = [{"role": "user", "content": "two"}]
        assert recorder.complete(m1).raw_text == "alpha"
        assert recorder.complete(m2).raw_text == "beta"

        entries = json.loads(path.read_text())
        assert [e["response_text"] for e in entries] == ["alpha", "beta"]
        assert all(e["latency_s"] == 0.25 for e in entries)

        replay = gw.ReplayProvider(path)
        assert replay.complete(m1).raw_text == "alpha"
        assert replay.complete(m2).raw_text == "beta"

    def test_replay_of_recording_rejects_other_request(self, tmp_path):
        path = tmp_path / "rec.json"
        recorder = gw.RecordProvider(_ScriptedProvider(["alpha"]), path)
        recorder.complete([{"role": "user", "content": "one"}])
        replay = gw.ReplayProvider(path)
        with pytest.raises(gw.TranscriptMismatch):
            replay.complete([{"role": "user", "content": "not one"}])


class _StubHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests.append(
            {"path": self.path, "body": body,
             "auth": self.headers.get("Authorization")}
        )
        status, payload = self.server.script[min(len(self.server.requests) - 1,
                                                 len(self.server.script) - 1)]
        blob = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.script = [(200, {"choices": [{"message": {"content": "stub"}}]})]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _http_config(server, **overrides):
    base = dict(
        provider_id="stub-model",
        kind="http",
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="stub-1",
        api_key_env="STUB_API_KEY",
        max_output_tokens=4096,
        temperature=0.0,
    )
    base.update(overrides)
    return gw.ProviderConfig(**base)


class TestHttpChatProvider:
    def test_success_parses_content_and_usage(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_API_KEY", "sk-test-123")
        stub_server.script = [
            (200, {"choices": [{"message": {"content": "the code"}}],
                   "usage": {"prompt_tokens": 10, "completion_tokens": 3}})
        ]
        provider = gw.HttpChatProvider(_http_config(stub_server))
        resp = provider.complete([{"role": "user", "content": "q"}])
        assert resp.raw_text == "the code"
        assert resp.provider_id == "stub-model"
        assert resp.token_counts == {"input": 10, "output": 3}
        assert resp.latency_s > 0

        sent = stub_server.requests[0]
        assert sent["path"] == "/v1/chat/completions"
        assert sent["auth"] == "Bearer sk-test-123"
        assert sent["body"]["model"] == "stub-1"
        assert sent["body"]["max_tokens"] == 4096
        assert sent["body"]["messages"] == [{"role": "user", "content": "q"}]

    def test_missing_key_env_sends_no_auth_header(self, stub_server, monkeypatch):
        monkeypatch.delenv("STUB_API_KEY", raising=False)
        provider = gw.HttpChatProvider(_http_config(stub_server))
        provider.complete([{"role": "user", "content": "q"}])
        assert stub_server.requests[0]["auth"] is None

    def test_http_429_maps_to_quota(self, stub_server):
        stub_server.script = [(429, {"error": "slow down"})]
        provider = gw.HttpChatProvider(_http_config(stub_server))
        with pytest.raises(gw.QuotaExceeded):
            provider.complete([{"role": "user", "content": "q"}])

    def test_http_500_maps_to_unreachable(self, stub_server):
        stub_server.script = [(500, {"error": "boom"})]
        provider = gw.HttpChatProvider(_http_config(stub_server))
        with pytest.raises(gw.ProviderUnreachable):
            provider.complete([{"role": "user", "content": "q"}])

    def test_malformed_payload_maps_to_unreachable(self, stub_server):
        stub_server.script = [(200, {"nope": True})]
        provider = gw.HttpChatProvider(_http_config(stub_server))
        with pytest.raises(gw.ProviderUnreachable):
            provider.complete([{"role": "user", "content": "q"}])

    def test_connection_refused_maps_to_unreachable(self):
        config = gw.ProviderConfig(
            provider_id="dead", kind="http",
            base_url="http://127.0.0.1:9/v1", model="m", api_key_env="",
        )
        with pytest.raises(gw.ProviderUnreachable):
            gw.HttpChatProvider(config).complete([{"role": "user", "content": "q"}])


class TestProviderConfig:
    def test_load_and_build_replay(self, tmp_path):
        write_transcript(tmp_path / "replies.json", ["hello"])
        config_path = tmp_path / "provider.json"
        config_path.write_text(json.dumps({
            "provider_id": "canned",
            "kind": "replay",
            "transcript_path": "replies.json",
        }))
        config = gw.load_provider_config(config_path)
        assert config.provider_id == "canned"
        provider = gw.build_provider(config, base_dir=config_path.parent)
        assert provider.complete([{"role": "user", "content": "x"}]).raw_text == "hello"

    def test_unknown_kind_rejected(self):
        config = gw.ProviderConfig(provider_id="x", kind="carrier-pigeon")
        with pytest.raises(gw.GatewayError):
            gw.build_provider(config)

    def test_replay_requires_transcript(self):
        config = gw.ProviderConfig(provider_id="x", kind="replay")
        with pytest.raises(gw.GatewayError):
            gw.build_provider(config)

    def test_request_routes_history(self, tmp_path):
        write_transcript(tmp_path / "t.json", ["r1"])
        provider = gw.ReplayProvider(tmp_path / "t.json")
        bundle = gw.render_prompt(gw.Experiment.EX2, None, CODE, ENV)
        gw.request(provider, bundle, history=[("u1", "a1")])
        roles = [m["role"] for m in provider.received[0]]
        assert roles == ["system", "user", "assistant", "user"]


FENCED = """Here is an optimized version:

```c
#include <stdio.h>
int main(void) { return 0; }
```

The loop order was changed."""


class TestExtractCode:
    def test_fenced_block_with_prose(self):
        result = gw.extract_code(make_response(FENCED))
        assert result.extraction_rule_fired is gw.ExtractionRule.FENCED_BLOCK
        assert result.code == "#include <stdio.h>\nint main(void) { return 0; }\n"
        assert "Here is an optimized version:" in result.explanation
        assert "The loop order was changed." in result.explanation
        assert "#include" not in result.explanation

    def test_largest_of_several_blocks_wins(self):
        text = "```c\nshort\n```\nmiddle\n```c\nmuch longer content here\nline two\n```\n"
        result = gw.extract_code(make_response(text))
        assert result.code == "much longer content here\nline two\n"
        assert "short" in result.explanation

    def test_unclosed_fence_means_truncated(self):
        text = "```c\nint main(void) {\n    return 0;\n"
        result = gw.extract_code(make_response(text))
        assert result.code is None
        assert result.extraction_rule_fired is gw.ExtractionRule.NONE

    def test_trailing_unclosed_fence_poisons_earlier_block(self):
        text = "```c\nint x;\n```\nand then\n```c\nint truncated_here..."
        result = gw.extract_code(make_response(text))
        assert result.code is None

    def test_whole_message_preprocessor_start(self):
        text = "#include <stdio.h>\nint main(void) { return 0; }\n"
        result = gw.extract_code(make_response(text))
        assert result.extraction_rule_fired is gw.ExtractionRule.WHOLE_MESSAGE
        assert result.code == text.strip()
        assert result.explanation is None

    def test_whole_message_comment_start(self):
        text = "// optimized kernel\nint f(void) { return 1; }"
        result = gw.extract_code(make_response(text))
        assert result.extraction_rule_fired is gw.ExtractionRule.WHOLE_MESSAGE

    def test_whole_message_type_keyword_start(self):
        text = "static double scale = 2.0;\ndouble f(double x) { return x * scale; }"
        result = gw.extract_code(make_response(text))
        assert result.extraction_rule_fired is gw.ExtractionRule.WHOLE_MESSAGE

    def test_prose_only_yields_nothing(self):
        result = gw.extract_code(make_response("I am unable to help with that."))
        assert result.code is None
        assert result.extraction_rule_fired is gw.ExtractionRule.NONE

    def test_empty_response_yields_nothing(self):
        assert gw.extract_code(make_response("")).code is None

    def test_blank_fenced_block_yields_nothing(self):
        result = gw.extract_code(make_response("```c\n\n```\n"))
        assert result.code is None

    def test_code_is_contiguous_substring(self):
        for text in (FENCED, "#include <x.h>\nint main(void){return 0;}"):
            result = gw.extract_code(make_response(text))
            assert result.code in text

    @given(
        prose=st.text(
            alphabet=st.characters(blacklist_characters="`", blacklist_categories=("Cs",)),
            max_size=80,
        ),
        body=st.text(
            alphabet=st.characters(blacklist_characters="`", blacklist_categories=("Cs",)),
            max_size=80,
        ),
        close_fence=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_extraction_invariants(self, prose, body, close_fence):
        text = prose + "\n```c\n" + body + "\n" + ("```\n" if close_fence else "")
        result = gw.extract_code(make_response(text))
        if result.code is not None:
            assert result.code in text
            assert result.code.strip()
            assert result.extraction_rule_fired is not gw.ExtractionRule.NONE
        else:
            assert result.extraction_rule_fired is gw.ExtractionRule.NONE
        if not close_fence:
            assert result.code is None


ORIGINAL = """\
#include <stdio.h>
#include <math.h>

double square(double x) { return x * x; }

int main(void) {
    double s = 0.0;
    for (int i = 0; i < 100; i++) s += square(i * 0.5);
    printf("sum %.6f\\n", s);
    return 0;
}
"""


class TestCheckConstraints:
    def test_identity_is_clean(self):
        assert gw.check_constraints(ORIGINAL, ORIGINAL, gw.Experiment.EX1) == set()

    def test_removed_function_flagged(self):
        candidate = ORIGINAL.replace(
            "double square(double x) { return x * x; }\n", ""
        ).replace("square(i * 0.5)", "(i * 0.5) * (i * 0.5)")
        flags = gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1)
        assert gw.ConstraintFlag.REMOVED_FUNCTION in flags

    def test_added_function_flagged(self):
        candidate = ORIGINAL.replace(
            "int main(void)",
            "static double cube(double x) { return x * x * x; }\n\nint main(void)",
        )
        flags = gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1)
        assert flags == {gw.ConstraintFlag.ADDED_FUNCTION}

    def test_removed_header_flagged(self):
        candidate = ORIGINAL.replace("#include <math.h>\n", "")
        flags = gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1)
        assert flags == {gw.ConstraintFlag.REMOVED_HEADER}

    def test_added_header_is_allowed(self):
        candidate = ORIGINAL.replace(
            "#include <math.h>", "#include <math.h>\n#include <string.h>"
        )
        assert gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1) == set()

    def test_commented_include_does_not_count(self):
        original = ORIGINAL.replace(
            "#include <math.h>", "// #include <legacy.h>\n#include <math.h>"
        )
        candidate = ORIGINAL
        assert gw.check_constraints(original, candidate, gw.Experiment.EX1) == set()

    def test_new_print_kind_flagged(self):
        candidate = ORIGINAL.replace(
            'printf("sum %.6f\\n", s);',
            'printf("sum %.6f\\n", s);\n    puts("done");',
        )
        flags = gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1)
        assert flags == {gw.ConstraintFlag.ADDED_PRINT_STATEMENT}

    def test_more_calls_of_existing_print_kind_allowed(self):
        candidate = ORIGINAL.replace(
            'printf("sum %.6f\\n", s);',
            'printf("sum %.6f\\n", s);\n    printf("%d\\n", 100);',
        )
        assert gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1) == set()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                (*gw._PRINT_TOKENS, "_", "x", "2", "::", "std", " ", "\n", "(", "\u00e9", "//", '"')
            ),
            max_size=20,
        ).map("".join)
    )
    @example('fprintf(stderr, "a");\nprintf("b");\n')
    @example("fprintf(stderr, x);\n")
    @example("putc(c, f);\nputchar(c);\n")
    @example("putchar(c);\n")
    @example("std::cout << x << std::endl;\nstd::cerr << y;\n")
    @example('const char *s = "printf puts";\n/* fputs putc */\n// perror cout\nx = 1;\n')
    @example("char c = 'putc';\n#define LOG puts\nclog(x);\n")
    @example("\u00e9printf(1); puts\u00e9(2); _putchar(3); perror_(4);\n")
    def test_print_kinds_match_word_boundary_search(self, text):
        active = gw.patch.active_text(text)
        assert gw._print_kinds(text) == reference_impl.print_kinds(active, gw._PRINT_TOKENS)

    def test_print_token_in_comment_or_string_ignored(self):
        candidate = ORIGINAL.replace(
            "double s = 0.0;",
            'double s = 0.0; // puts would be slower\n    const char *note = "puts";',
        )
        assert gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX1) == set()

    def test_ex3_serial_candidate_missing_parallel(self):
        flags = gw.check_constraints(ORIGINAL, ORIGINAL, gw.Experiment.EX3)
        assert flags == {gw.ConstraintFlag.MISSING_PARALLEL_CONSTRUCT}

    def test_ex3_omp_pragma_satisfies(self):
        candidate = ORIGINAL.replace(
            "for (int i = 0;",
            "#pragma omp parallel for reduction(+:s)\n    for (int i = 0;",
        )
        assert gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX3) == set()

    def test_ex3_commented_pragma_does_not_satisfy(self):
        candidate = ORIGINAL.replace(
            "for (int i = 0;",
            "// #pragma omp parallel for\n    for (int i = 0;",
        )
        flags = gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX3)
        assert gw.ConstraintFlag.MISSING_PARALLEL_CONSTRUCT in flags

    def test_ex3_thread_library_satisfies(self):
        candidate = ORIGINAL.replace(
            "double s = 0.0;",
            "double s = 0.0;\n    pthread_create(0, 0, 0, 0);",
        )
        assert (
            gw.ConstraintFlag.MISSING_PARALLEL_CONSTRUCT
            not in gw.check_constraints(ORIGINAL, candidate, gw.Experiment.EX3)
        )

    def test_ex1_never_demands_parallelism(self):
        for experiment in (gw.Experiment.EX1, gw.Experiment.EX2):
            flags = gw.check_constraints(ORIGINAL, ORIGINAL, experiment)
            assert gw.ConstraintFlag.MISSING_PARALLEL_CONSTRUCT not in flags

    def test_unbalanced_candidate_rejected(self):
        with pytest.raises(gw.UnparseableCandidate):
            gw.check_constraints(ORIGINAL, "int f(void) {", gw.Experiment.EX1)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_flags_same_with_warm_and_cleared_scan_cache(self, seed):
        rng = random.Random(seed)
        original, _ = gen_translation_unit(rng)
        original = "#include <stdio.h>\n#include <math.h>\n" + original
        candidates = [
            original,
            original.replace("#include <math.h>\n", ""),
            original + 'int extra(void) { puts("x"); return 0; }\n',
            original.replace("{\n", '{\n    fprintf(stderr, "{");\n', 1),
        ]
        for candidate in candidates:
            for experiment in (gw.Experiment.EX1, gw.Experiment.EX3):
                warm = gw.check_constraints(original, candidate, experiment)
                assert gw.check_constraints(original, candidate, experiment) == warm
                gw.patch._scan.cache_clear()
                assert gw.check_constraints(original, candidate, experiment) == warm

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_identity_clean_on_generated_sources(self, seed):
        source, _ = gen_translation_unit(random.Random(seed))
        assert gw.check_constraints(source, source, gw.Experiment.EX1) == set()


K = gw.OptimizationLabelKind


class TestClassifyExplanation:
    def test_interchange_with_locality_wording(self):
        labels = gw.classify_explanation(
            "applied loop interchange to improve locality"
        )
        assert [l.label for l in labels] == [K.LOOP_INTERCHANGE]

    def test_fma_plus_omp(self):
        labels = gw.classify_explanation(
            "we fuse multiply and add, and parallelize with omp for"
        )
        assert [l.label for l in labels] == [K.FUSED_MULTIPLY_ADD, K.OMP_PARALLEL_FOR]

    def test_no_match_is_other_with_empty_evidence(self):
        labels = gw.classify_explanation("made it better somehow")
        assert labels == [gw.OptimizationLabel(K.OTHER, "")]

    def test_none_text_is_other(self):
        assert gw.classify_explanation(None) == [gw.OptimizationLabel(K.OTHER, "")]

    def test_case_insensitive(self):
        labels = gw.classify_explanation("APPLIED LOOP TILING")
        assert [l.label for l in labels] == [K.LOOP_TILING]

    def test_each_kind_reported_once(self):
        labels = gw.classify_explanation("unroll, unroll again, fully unrolled")
        assert [l.label for l in labels] == [K.LOOP_UNROLLING]

    def test_multiple_distinct_kinds(self):
        labels = gw.classify_explanation(
            "hoisted the loop-invariant bound, then vectorized with omp simd"
        )
        kinds = [l.label for l in labels]
        assert K.OMP_SIMD in kinds
        assert K.PRECOMPUTE_CONSTANTS in kinds
        assert K.OTHER not in kinds

    def test_evidence_is_matched_phrase(self):
        labels = gw.classify_explanation("we applied cache blocking here")
        assert labels[0].evidence == "cache blocking"

    @given(
        kind=st.sampled_from([k for k in K if k is not K.OTHER]),
        prefix=st.text(alphabet="xyz .,", max_size=20),
        suffix=st.text(alphabet="xyz .,", max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_table_phrase_maps_home(self, kind, prefix, suffix):
        phrase = gw._PHRASES[kind][0]
        labels = gw.classify_explanation(prefix + " " + phrase + " " + suffix)
        kinds = [l.label for l in labels]
        assert kind in kinds
        assert K.OTHER not in kinds

    @given(text=st.text(max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_other_is_exclusive_and_empty(self, text):
        labels = gw.classify_explanation(text)
        assert labels
        kinds = [l.label for l in labels]
        assert len(kinds) == len(set(kinds))
        if K.OTHER in kinds:
            assert labels == [gw.OptimizationLabel(K.OTHER, "")]
        else:
            assert all(l.evidence for l in labels)
