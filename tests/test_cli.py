""".pwl round trips and the command-line surface, including exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

import icm
from icm import (ParseError, dump_map_text, make_plmap, parse_map_text,
                 pullback_graph, tent)
from icm.cli import main
from conftest import alternating_map, block_swap_pair, invariant_chain_pair

F = Fraction


class TestPwlFormat:
    def test_parse_tent2(self):
        assert parse_map_text("0 0\n1/2 1\n1 0\n") == tent(2)

    def test_comments_and_blanks_ignored(self):
        text = "# a tent map\n\n0 0\n# middle\n1/2 1\n1 0\n"
        assert parse_map_text(text) == tent(2)

    def test_round_trip_is_canonical(self):
        f = make_plmap([(0, 0), ("1/4", "1/4"), ("1/2", "1/2"), (1, 1)])
        text = dump_map_text(f)
        assert text == "0 0\n1 1\n"
        assert dump_map_text(parse_map_text(text)) == text

    def test_round_trip_random(self):
        f, g = invariant_chain_pair()
        for m in (f, g, tent(7)):
            assert parse_map_text(dump_map_text(m)) == m

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_map_text("0 0\nnot-a-pair\n1 1\n")
        assert err.value.line == 2

    def test_decimal_literals_rejected(self):
        with pytest.raises(ParseError):
            parse_map_text("0 0\n0.5 1\n1 0\n")

    def test_domain_error_from_bad_values(self):
        with pytest.raises(Exception):
            parse_map_text("0 0\n1 2\n")


@pytest.fixture
def maps_dir(tmp_path):
    for n in (2, 3, 4, 6):
        (tmp_path / f"T{n}.pwl").write_text(dump_map_text(tent(n)))
    f9, g9 = invariant_chain_pair()
    (tmp_path / "chain_f.pwl").write_text(dump_map_text(f9))
    (tmp_path / "chain_g.pwl").write_text(dump_map_text(g9))
    f10, g10 = block_swap_pair()
    (tmp_path / "swap_f.pwl").write_text(dump_map_text(f10))
    (tmp_path / "swap_g.pwl").write_text(dump_map_text(g10))
    return tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_tent_writes_pwl(self, maps_dir, capsys):
        out_path = maps_dir / "T5.pwl"
        code, _, _ = run_cli(["tent", "5", "--out", out_path], capsys)
        assert code == 0
        assert parse_map_text(out_path.read_text()) == tent(5)

    def test_eval(self, maps_dir, capsys):
        code, out, _ = run_cli(["eval", maps_dir / "T4.pwl", "1/3"], capsys)
        assert code == 0 and out.strip() == "2/3"

    def test_compose(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["compose", maps_dir / "T2.pwl", maps_dir / "T3.pwl"], capsys)
        assert code == 0
        assert parse_map_text(out) == tent(6)

    def test_iterate(self, maps_dir, capsys):
        code, out, _ = run_cli(["iterate", maps_dir / "T2.pwl", "3"], capsys)
        assert code == 0
        assert parse_map_text(out) == tent(8)

    def test_boolean_verbs_and_exit_codes(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["strong-commute", maps_dir / "T3.pwl", maps_dir / "T4.pwl"],
            capsys)
        assert (code, out) == (0, "true\n")
        code, out, _ = run_cli(
            ["strong-commute", maps_dir / "T4.pwl", maps_dir / "T6.pwl"],
            capsys)
        assert (code, out) == (1, "false\n")
        code, out, _ = run_cli(
            ["commute", maps_dir / "T4.pwl", maps_dir / "T6.pwl"], capsys)
        assert (code, out) == (0, "true\n")

    def test_empty_graph_csv_is_header_only(self):
        from icm import SegmentSet
        from icm.cli import emit_graph
        assert emit_graph(SegmentSet(()), "csv") == "x1,y1,x2,y2\n"

    def test_isolated_point_graph(self, tmp_path, capsys):
        # f <= 1/2 <= g, and both equal 1/2 only at 1/2: the pullback graph
        # is the single point (1/2, 1/2)
        from icm import DomainError, SegmentSet
        from icm.cli import emit_graph
        f, g = tmp_path / "peak.pwl", tmp_path / "valley.pwl"
        f.write_text("0 0\n1/2 1/2\n1 0\n")
        g.write_text("0 1\n1/2 1/2\n1 1\n")
        code, out, _ = run_cli(["graph", f, g, "--kind", "pullback"], capsys)
        assert (code, out) == (0, "x1,y1,x2,y2\n1/2,1/2,1/2,1/2\n")
        code, out, _ = run_cli(
            ["graph", f, g, "--kind", "pullback", "--format", "svg"], capsys)
        assert code == 0 and out.count("<circle") == 1
        ET.fromstring(out)
        code, out, _ = run_cli(["strong-commute", f, g], capsys)
        assert (code, out) == (1, "false\n")
        with pytest.raises(DomainError):
            emit_graph(SegmentSet(()), "png")

    def test_graph_csv_row_count(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["graph", maps_dir / "T3.pwl", maps_dir / "T4.pwl"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,y1,x2,y2"
        assert len(lines) == 7  # six data rows

    def test_graph_svg_valid_and_larger_pullback(self, maps_dir, capsys):
        code, fwd_svg, _ = run_cli(
            ["graph", maps_dir / "T4.pwl", maps_dir / "T6.pwl",
             "--format", "svg"], capsys)
        assert code == 0
        code, pull_svg, _ = run_cli(
            ["graph", maps_dir / "T4.pwl", maps_dir / "T6.pwl",
             "--kind", "pullback", "--format", "svg"], capsys)
        assert code == 0
        for doc in (fwd_svg, pull_svg):
            ET.fromstring(doc)
        count = '{http://www.w3.org/2000/svg}line'
        fwd_lines = len(ET.fromstring(fwd_svg).findall(count))
        pull_lines = len(ET.fromstring(pull_svg).findall(count))
        assert pull_lines > fwd_lines

    # SHA-256 digests of `graph` CSV output, as the rows came out before
    # `segment_set` ordered them on integer keys: a change in the canonical
    # order, or in any row, fails here. The first is also checked in CI.
    T3_T4_PULLBACK_SHA256 = (
        "9010df71394483b871f1f71fa8ff79b11180641558aaa3ddd5309b1c437e6049")
    GRAPH_CSV_SHA256 = {
        "forward":
        "5e7ce5dd0a4929eaa05c4ffe3134c005ee02fcfdb295cf552e29a34aa65ce568",
        "pullback":
        "a8f1df31a2c584aa6d0eaebd5b4d521f53d6cd7720f57368f753e7603dfabd57"}

    def test_graph_csv_golden_t3_t4(self, maps_dir, capsys):
        code, out, _ = run_cli(["graph", maps_dir / "T3.pwl",
                                maps_dir / "T4.pwl", "--kind", "pullback"],
                               capsys)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (0, self.T3_T4_PULLBACK_SHA256), digest

    @pytest.mark.parametrize("kind", ["forward", "pullback"])
    def test_graph_csv_golden(self, tmp_path, capsys, commuting_corpus, kind):
        """All 169 tent pairs T2..T14 squared, then the commuting corpus
        pairs whose pullback graph has isolated points, in that order."""
        pairs = [(tent(n), tent(m)) for n in range(2, 15)
                 for m in range(2, 15)]
        pairs += [(f, g) for _, f, g in commuting_corpus
                  if pullback_graph(f, g).isolated_points()]
        assert len(pairs) > 169
        digest = hashlib.sha256()
        for i, pair in enumerate(pairs):
            paths = [tmp_path / f"{i}{side}.pwl" for side in "fg"]
            for path, m in zip(paths, pair):
                path.write_text(dump_map_text(m))
            code, out, _ = run_cli(["graph", *paths, "--kind", kind], capsys)
            assert code == 0, pair
            digest.update(out.encode())
        digest = digest.hexdigest()
        assert digest == self.GRAPH_CSV_SHA256[kind], digest

    def test_hats_endpoints_profile(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["hats", maps_dir / "T3.pwl", maps_dir / "T4.pwl"], capsys)
        assert code == 0 and "2/3 0 hat" in out and "2/3 1 hat" in out
        code, out, _ = run_cli(
            ["endpoints", maps_dir / "T3.pwl", maps_dir / "T4.pwl"], capsys)
        assert code == 0 and "0 0 endpoint-a" in out
        code, out, _ = run_cli(
            ["profile", maps_dir / "T3.pwl", maps_dir / "T4.pwl"], capsys)
        assert code == 0 and "total endpoints: 2" in out

    def test_verify(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["verify", maps_dir / "chain_f.pwl", maps_dir / "chain_g.pwl",
             "--oracle", "60"], capsys)
        assert code == 0
        assert "ok" in out and "FAIL" not in out

    def test_decompose_json(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["decompose", maps_dir / "swap_f.pwl", maps_dir / "swap_g.pwl"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "b"
        assert payload["points"] == ["0", "1/2", "3/4", "1"]

    def test_fixed_and_common_fixed(self, maps_dir, capsys):
        code, out, _ = run_cli(["fixed-points", maps_dir / "T2.pwl"], capsys)
        assert code == 0 and "isolated: 0 2/3" in out
        code, out, _ = run_cli(
            ["common-fixed-point", maps_dir / "chain_f.pwl",
             maps_dir / "chain_g.pwl"], capsys)
        assert code == 0 and out.strip() == "1/3"

    def test_entropy_outputs(self, maps_dir, capsys):
        code, out, _ = run_cli(["entropy", maps_dir / "T3.pwl"], capsys)
        assert code == 0 and out.startswith("log 3")
        code, out, _ = run_cli(
            ["entropy", maps_dir / "T3.pwl", "--method", "lap",
             "--iters", "5"], capsys)
        assert code == 0 and out.startswith("log(243)/5")
        code, out, _ = run_cli(
            ["entropy", maps_dir / "T3.pwl", maps_dir / "T4.pwl"], capsys)
        assert code == 0
        assert abs(float(out.strip()) - 1.3862943611198906) < 1e-9

    def test_decompose_text(self, maps_dir, capsys):
        code, out, _ = run_cli(
            ["decompose", maps_dir / "swap_f.pwl", maps_dir / "swap_g.pwl",
             "--format", "text"], capsys)
        assert code == 0
        assert out == (
            "case: b\n"
            "points: 0 1/2 3/4 1\n"
            "reverser: f\n"
            "[0, 1/2]: f: open-non-monotone -> [3/4, 1], "
            "g: open-non-monotone -> [0, 1/2], "
            "f2: open-non-monotone -> [0, 1/2]\n"
            "[1/2, 3/4]: f: monotone -> [1/2, 3/4], "
            "g: non-open-non-monotone -> [1/2, 3/4], "
            "f2: monotone -> [1/2, 3/4]\n"
            "[3/4, 1]: f: open-non-monotone -> [0, 1/2], "
            "g: open-non-monotone -> [3/4, 1], "
            "f2: open-non-monotone -> [3/4, 1]\n")

    def test_decompose_text_with_a_fixed_segment(self, tmp_path, capsys):
        # the identity on [0, 1/2] glued to T3 and to T5 on [1/2, 1]
        (tmp_path / "f.pwl").write_text("0 0\n1/2 1/2\n2/3 1\n5/6 1/2\n1 1\n")
        (tmp_path / "g.pwl").write_text(
            "0 0\n1/2 1/2\n3/5 1\n7/10 1/2\n4/5 1\n9/10 1/2\n1 1\n")
        maps = [tmp_path / "f.pwl", tmp_path / "g.pwl"]
        assert run_cli(["strong-commute", *maps], capsys) == (0, "true\n", "")
        assert run_cli(["decompose", *maps, "--format", "text"], capsys) == (
            0,
            "case: a\n"
            "points: 0 1/2 1\n"
            "[0, 1/2]: f: monotone -> [0, 1/2], g: monotone -> [0, 1/2]\n"
            "[1/2, 1]: f: open-non-monotone -> [1/2, 1], "
            "g: open-non-monotone -> [1/2, 1]\n",
            "")

    def test_markov_entropy_of_a_non_integer_perron_root(self, tmp_path,
                                                        capsys):
        # cover matrix [[0, 1], [1, 1]]: the golden mean
        path = tmp_path / "golden.pwl"
        path.write_text("0 1/2\n1/2 1\n1 0\n")
        code, out, _ = run_cli(["entropy", path], capsys)
        assert (code, out) == (0, "log 1.61803398875 ~= 0.48121182506\n")

    def test_markov_entropy_label_is_the_root_as_printed(
            self, maps_dir, capsys, monkeypatch):
        # a certified root of 2 + 10^-10 is no integer, and prints as itself
        from icm import entropy
        mid, half = 2 + F(1, 10**10), F(1, 10**13)
        data = entropy.MarkovData((F(0), F(1)), ((0, 1),), mid - half,
                                  mid + half)
        monkeypatch.setattr(entropy, "markov_partition", lambda f: data)
        code, out, _ = run_cli(["entropy", maps_dir / "T2.pwl"], capsys)
        assert (code, out) == (0, "log 2.0000000001 ~= 0.69314718061\n")

    @pytest.mark.parametrize("method", ["lap", "markov"])
    def test_method_on_a_pair_exit_2(self, maps_dir, capsys, method):
        # each map of a pair takes its own route; --method picks none
        maps = [maps_dir / "T3.pwl", maps_dir / "T4.pwl"]
        code, out, err = run_cli(["entropy", *maps, "--method", method],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --method {method} takes one map, not two\n"
        code, out, _ = run_cli(["entropy", *maps, "--method", "auto"], capsys)
        assert (code, out) == (0, "1.38629436112\n")

    def test_markov_method_on_a_non_markov_map_exit_3(self, tmp_path, capsys):
        path = tmp_path / "nm.pwl"
        path.write_text("0 0\n1/2 1\n1 1/3\n")
        code, out, err = run_cli(["entropy", path, "--method", "markov"],
                                 capsys)
        assert (code, out) == (3, "")
        assert err == "error: map is not Markov within the configured bound\n"

    def test_primary_values(self, maps_dir, capsys):
        code, out, _ = run_cli(["primary-values", maps_dir / "T3.pwl"], capsys)
        assert code == 0
        assert "values: 0 1" in out and "orientation: preserving" in out

    def test_parse_error_exit_2(self, maps_dir, capsys):
        bad = maps_dir / "bad.pwl"
        bad.write_text("0 0\n1 2\n")
        code, _, err = run_cli(["eval", bad, "0"], capsys)
        assert code == 2 and "error" in err
        missing = maps_dir / "missing.pwl"
        code, _, _ = run_cli(["eval", missing, "0"], capsys)
        assert code == 2
        not_utf8 = maps_dir / "utf16.pwl"
        not_utf8.write_bytes(b"\xff\xfe0\x00 \x000\x00\n\x00")
        code, _, err = run_cli(["eval", not_utf8, "0"], capsys)
        assert code == 2 and err.startswith("error: cannot read")
        code, _, err = run_cli(
            ["tent", "3", "--out", maps_dir / "no-such-dir" / "T3.pwl"], capsys)
        assert code == 2 and err.startswith("error: cannot write")
        # Python 3.11+ refuses to convert longer digit strings to int.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            digits = "1" * (limit + 1)
            long_token = maps_dir / "long.pwl"
            long_token.write_text(f"0 0\n1/{digits} 1\n1 0\n")
            for argv in (["eval", maps_dir / "T3.pwl", digits],
                         ["eval", long_token, "0"]):
                code, out, err = run_cli(argv, capsys)
                assert (code, out) == (2, "")
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "too many digits" in err
            assert "line 2: " in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="Python prints integers of any length")
    def test_output_past_the_digit_limit_exit_4(self, tmp_path, capsys):
        # An accepted input of `limit` digits maps to a value whose
        # denominator, 7 * (10^limit - 1), has one digit more.
        path = tmp_path / "seventh.pwl"
        path.write_text("0 0\n1 1/7\n")
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(["eval", path, "1/" + "9" * limit], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {limit} digits" in err

    def test_other_value_errors_propagate(self, maps_dir, capsys,
                                          monkeypatch):
        def broken(f, g):
            raise ValueError("not a digit-limit error")

        monkeypatch.setattr(icm.setvalued, "strongly_commute", broken)
        with pytest.raises(ValueError, match="not a digit-limit error"):
            main(["strong-commute", str(maps_dir / "T3.pwl"),
                  str(maps_dir / "T4.pwl")])

    def test_library_functions_looked_up_at_call_time(self, maps_dir, capsys,
                                                      monkeypatch):
        # The parser is built once; a wrapper installed on `icm.setvalued`
        # after that must still be the function the verb calls.
        run_cli(["tent", "2"], capsys)
        calls = {}
        for name in ("strongly_commute", "commute", "hats", "endpoints"):
            original = getattr(icm.setvalued, name)

            def counting(f, g, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(f, g)

            monkeypatch.setattr(icm.setvalued, name, counting)
        t3, t4 = maps_dir / "T3.pwl", maps_dir / "T4.pwl"
        for verb in ("strong-commute", "commute", "hats", "endpoints"):
            run_cli([verb, t3, t4], capsys)
        assert calls == {"strongly_commute": 1, "commute": 1, "hats": 1,
                         "endpoints": 1}

    def test_precondition_exit_3(self, maps_dir, capsys):
        code, _, err = run_cli(
            ["common-fixed-point", maps_dir / "T4.pwl", maps_dir / "T6.pwl"],
            capsys)
        assert code == 3 and "error" in err

    def test_resource_cap_exit_4(self, maps_dir, capsys, monkeypatch):
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "50")
        code, _, err = run_cli(["iterate", maps_dir / "T3.pwl", "8"], capsys)
        assert code == 4 and "error" in err

    # On the identity every step is cheap, but 10^11 of them run for days;
    # the step count alone exceeds the default cap, before any step.
    @pytest.mark.parametrize("argv", [
        ["iterate", "ID.pwl", "100000000000"],
        ["entropy", "ID.pwl", "--method", "lap", "--iters", "100000000000"],
        ["verify", "ID.pwl", "ID.pwl", "--oracle", "100000000000"]],
        ids=lambda argv: argv[0])
    def test_step_counts_bounded_by_cap(self, tmp_path, capsys, monkeypatch,
                                        argv):
        (tmp_path / "ID.pwl").write_text("0 0\n1 1\n")
        calls = []
        compose = icm.core.compose
        monkeypatch.setattr(icm.core, "compose",
                            lambda f, g: calls.append(1) or compose(f, g))
        code, out, err = run_cli(
            [tmp_path / a if a.endswith(".pwl") else a for a in argv], capsys)
        assert (code, out, calls) == (4, "", [])
        assert err.startswith("error: ") and "above the cap 3000000" in err

    def test_compose_bounded_by_cap(self, maps_dir, capsys, monkeypatch):
        # T4 ∘ T6 needs 25 breakpoints
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "20")
        code, out, err = run_cli(
            ["compose", maps_dir / "T4.pwl", maps_dir / "T6.pwl"], capsys)
        assert (code, out) == (4, "") and "cap 20" in err

    def test_lap_entropy_bounded_by_cap(self, maps_dir, capsys, monkeypatch):
        # 8 rounds of T3 keep up to 153 lap images
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "50")
        code, out, err = run_cli(["entropy", maps_dir / "T3.pwl", "--method",
                                  "lap", "--iters", "8"], capsys)
        assert (code, out) == (4, "") and "cap 50" in err

    def test_lap_entropy_counts_laps_past_the_cap(self, maps_dir, capsys):
        # 3^14 laps, counted from at most 435 images, build no iterate
        code, out, _ = run_cli(["entropy", maps_dir / "T3.pwl", "--method",
                                "lap", "--iters", "14"], capsys)
        assert (code, out) == (0, "log(4782969)/14 ~= 1.09861228867\n")

    def test_lap_entropy_of_non_markov_map(self, tmp_path, capsys):
        path = tmp_path / "nm.pwl"
        path.write_text("0 0\n5/12 1\n1 1/12\n")
        code, out, _ = run_cli(["entropy", path], capsys)
        assert (code, out) == (0, "log(1903)/12 ~= 0.629265572275\n")

    def test_markov_entropy_of_tent_300(self, tmp_path, capsys):
        # 301 breakpoints, closed under the map, above the 256-point bound
        # on orbit growth
        path = tmp_path / "T300.pwl"
        path.write_text(dump_map_text(tent(300)))
        code, out, _ = run_cli(["entropy", path], capsys)
        assert (code, out) == (0, "log 300 ~= 5.70378247466\n")

    def test_markov_matrix_bounded_by_cap(self, tmp_path, capsys,
                                          monkeypatch):
        # T12's breakpoints are closed under it: no orbit round checks a
        # bound, but its 12 cells need 144 matrix entries
        path = tmp_path / "T12.pwl"
        path.write_text(dump_map_text(tent(12)))
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "143")
        code, out, err = run_cli(["entropy", path], capsys)
        assert (code, out) == (4, "")
        assert err == ("error: Markov matrix needs 144 entries, "
                       "above the cap 143\n")
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "144")
        assert run_cli(["entropy", path], capsys)[:2] == (
            0, "log 12 ~= 2.48490664979\n")

    @pytest.mark.parametrize("cap", ["0", "-3", "many"])
    def test_non_positive_cap_exit_2(self, maps_dir, capsys, monkeypatch, cap):
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", cap)
        t3, t4 = maps_dir / "T3.pwl", maps_dir / "T4.pwl"
        for argv in (["iterate", t3, "2"], ["strong-commute", t3, t4]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert ("integer" if cap == "many" else "positive") in err

    def test_tent_bounded_by_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "50")
        code, out, err = run_cli(["tent", "100"], capsys)
        assert (code, out) == (4, "") and "cap 50" in err
        code, out, _ = run_cli(["tent", "49"], capsys)
        assert code == 0 and parse_map_text(out) == tent(49)

    # Uncapped, these verbs peak at 2.1-4.4 MiB on T100, T101 under
    # tracemalloc: the pullback graph has 10,100 cells, T100∘T101 10,101
    # breakpoints.
    @pytest.mark.parametrize("verb", [
        ["commute"], ["strong-commute"], ["graph", "--kind", "pullback"],
        ["decompose"], ["verify"], ["common-fixed-point"], ["entropy"]],
        ids=lambda verb: verb[0])
    def test_bounded_by_cap_before_building(self, tmp_path, capsys,
                                            monkeypatch, verb):
        for n in (100, 101):
            (tmp_path / f"T{n}.pwl").write_text(dump_map_text(tent(n)))
        run_cli(["tent", "2"], capsys)  # the cached parser, built untraced
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                [verb[0], tmp_path / "T100.pwl", tmp_path / "T101.pwl",
                 *verb[1:]], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "") and "cap 1000" in err
        assert peak < 256 << 10

    # f has 100 critical values, each with 101 non-critical T101-preimages:
    # 10,100 hats, 2.4 MiB uncapped.
    @pytest.mark.parametrize("verb", ["hats", "profile"])
    def test_hats_bounded_by_cap(self, tmp_path, capsys, monkeypatch, verb):
        (tmp_path / "f.pwl").write_text(dump_map_text(alternating_map(100)))
        (tmp_path / "T101.pwl").write_text(dump_map_text(tent(101)))
        run_cli(["tent", "2"], capsys)  # the cached parser, built untraced
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                [verb, tmp_path / "f.pwl", tmp_path / "T101.pwl"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "") and "cap 1000" in err
        assert peak < 256 << 10

    def test_verify_coincidences_bounded_by_cap(self, tmp_path, capsys,
                                                monkeypatch):
        # T30, T31: 930 pullback cells and at most 899 hats fit, but the
        # forward polyline has 60 pieces, so 1770 pairs to intersect
        for n in (30, 31):
            (tmp_path / f"T{n}.pwl").write_text(dump_map_text(tent(n)))
        argv = ["verify", tmp_path / "T30.pwl", tmp_path / "T31.pwl"]
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1769")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert "1770 segment pairs, above the cap 1769" in err
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1770")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and "FAIL" not in out

    def test_verify_oracle_zero_exit_2(self, maps_dir, capsys):
        code, out, err = run_cli(
            ["verify", maps_dir / "T3.pwl", maps_dir / "T4.pwl",
             "--oracle", "0"], capsys)
        assert (code, out) == (2, "") and ">= 2" in err

    @pytest.mark.parametrize("args", [
        ["T3.pwl", "--iters", "0"], ["T3.pwl", "--iters", "-1"],
        ["T3.pwl", "T4.pwl", "--iters", "0"]])
    def test_entropy_iters_must_be_positive(self, maps_dir, capsys, args):
        code, out, err = run_cli(
            ["entropy", *(maps_dir / a if a.endswith(".pwl") else a
                          for a in args)], capsys)
        assert (code, out) == (2, "")
        assert "k_max must be a positive integer" in err

    @pytest.mark.parametrize("x", ["0.5", "1e-1", "+1/2"])
    def test_eval_takes_the_pwl_grammar(self, maps_dir, capsys, x):
        code, out, err = run_cli(["eval", maps_dir / "T3.pwl", x], capsys)
        assert (code, out) == (2, "") and "a/b rational" in err

    @staticmethod
    def _child_env() -> dict:
        # the child imports the same `icm` as this process
        src = os.path.dirname(os.path.dirname(icm.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path}

    def test_module_entry_point(self, maps_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "icm", "strong-commute",
             str(maps_dir / "T3.pwl"), str(maps_dir / "T4.pwl")],
            capture_output=True, text=True, env=self._child_env())
        assert proc.returncode == 0
        assert proc.stdout == "true\n"

    def test_closed_stdout_exit_2(self, maps_dir):
        # the reader closes the pipe before the child writes its report, as
        # `icm verify ... | head -1` may
        proc = subprocess.Popen(
            [sys.executable, "-m", "icm", "verify",
             str(maps_dir / "T2.pwl"), str(maps_dir / "T3.pwl")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self._child_env())
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 2
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: cannot write stdout: [Errno 32] Broken pipe"]
