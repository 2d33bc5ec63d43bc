"""The CLI contract: every argv, however malformed, ends in one documented
exit code (0-4), with no traceback, and an error prints one `error:` line.

argv is drawn from the 16 verbs, from map files of every kind (valid,
malformed, BOM-prefixed, empty, a directory, missing) and from argument
values that are zero, negative, decimal, too long for `int`, or either side
of a low breakpoint cap. The cap keeps every accepted input cheap; inputs
whose step count alone exceeds it must exit 4 before the first step.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from icm import dump_map_text, tent
from icm.cli import main
from conftest import block_swap_pair, invariant_chain_pair

CAP = 1000

VALID = ["T2", "T3", "ID", "chain_f", "chain_g", "swap_f", "swap_g",
         "seventh"]
BROKEN = ["malformed", "bom", "long", "empty", "a_directory", "missing"]
LONG = "1" * 5000  # past Python's limit on integer string digits
# At the limit: accepted, but seventh.pwl maps it to a denominator of one
# digit more, which Python refuses to print.
NINES = "1/" + "9" * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
VALUES = ["0", "-1", "-7", "2", "3", "1/2", "0.5", "1.5", LONG, NINES,
          # the sides of the cap: n + 1 grid points, k rounds, 2(k - 1)
          # breakpoints for k steps
          str(CAP - 1), str(CAP), str(CAP + 1), "500", "501", "502",
          # steps that would run for days if they were not counted first
          str(10**11)]

# verb -> positional slots ("map" or "value") and optional flags
VERBS = {
    "tent": (["value"], []),
    "eval": (["map", "value"], []),
    "compose": (["map", "map"], []),
    "iterate": (["map", "value"], []),
    "commute": (["map", "map"], []),
    "strong-commute": (["map", "map"], []),
    "graph": (["map", "map"], [["--kind", "pullback"], ["--format", "svg"]]),
    "hats": (["map", "map"], []),
    "endpoints": (["map", "map"], []),
    "profile": (["map", "map"], []),
    "verify": (["map", "map"], [["--oracle"], ["--oracle", "value"]]),
    "decompose": (["map", "map"], [["--format", "text"]]),
    "fixed-points": (["map"], []),
    "common-fixed-point": (["map", "map"], []),
    "entropy": (["map"], [["map"], ["--method", "lap"],
                          ["--method", "markov"], ["--iters", "value"]]),
    "primary-values": (["map"], []),
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    texts = {"T2": dump_map_text(tent(2)), "T3": dump_map_text(tent(3)),
             "ID": "0 0\n1 1\n", "malformed": "0 0\n1 2\n",
             "bom": "\ufeff0 0\n1 1\n", "long": f"0 0\n1/{LONG} 1\n1 1\n",
             "empty": "", "seventh": "0 0\n1 1/7\n"}
    for name, pair in (("chain", invariant_chain_pair()),
                       ("swap", block_swap_pair())):
        texts[f"{name}_f"] = dump_map_text(pair[0])
        texts[f"{name}_g"] = dump_map_text(pair[1])
    for name, text in texts.items():
        (root / f"{name}.pwl").write_text(text, encoding="utf-8")
    (root / "a_directory.pwl").mkdir()
    return root


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERBS)))
    slots, flags = VERBS[verb]
    words = [verb, *slots]
    for flag in flags:
        if draw(st.booleans()):
            words += flag
    maps = st.sampled_from(VALID + BROKEN)
    values = st.sampled_from(VALUES)
    return [draw(maps) + ".pwl" if w == "map" else
            draw(values) if w == "value" else w for w in words]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
# Each of these once ended in a traceback or ran for days.
@example(argv=["eval", "T3.pwl", LONG])
@example(argv=["eval", "long.pwl", "0"])
@example(argv=["eval", "seventh.pwl", NINES])
@example(argv=["iterate", "ID.pwl", str(10**11)])
@example(argv=["entropy", "ID.pwl", "--method", "lap", "--iters", str(10**11)])
@example(argv=["verify", "ID.pwl", "ID.pwl", "--oracle", str(10**11)])
def test_every_argv_ends_in_a_documented_exit_code(contract_dir, monkeypatch,
                                                   argv):
    monkeypatch.setenv("ICM_BREAKPOINT_CAP", str(CAP))
    argv = [str(contract_dir / w) if w.endswith(".pwl") else w for w in argv]
    code, _, err = run_in_process(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if code >= 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, \
            (argv, err)
