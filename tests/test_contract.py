"""Pinned outputs of the command line: digests and values that a refactor or
an optimisation must leave byte for byte as they are."""

import contextlib
import hashlib
import io

import pytest

from thompson_holo.cli import main


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


APPROXIMATION_SPECS = [
    "identity",
    "rotation:1/2^1",
    "rotation:3/2^3",
    "rotation:-5/2^4",
    "mobius:0.3,0.1",
    "mobius:-0.45,0.2",
    "mobius:0,0.9",
    "mobius:0.99999999,0",
    "mobius:nan,0",
    "mobius:1,0",
]


def test_approximate_digest():
    """Every spec at levels 0-13, plain and --json: exit code, standard
    output and standard error, one repr line each."""
    h = hashlib.sha256()
    for spec in APPROXIMATION_SPECS:
        for n in range(14):
            for extra in ([], ["--json"]):
                code, out, err = cli("approximate", spec, "--level", str(n), *extra)
                h.update((repr((spec, n, extra, code, out, err)) + "\n").encode())
    assert h.hexdigest() == "2c221cb84ab442ed2e7ac5e7d52206719e863ceb2412d079b807e2ad4b5b235c"


@pytest.mark.parametrize(
    "spec, level, pins",
    [
        (
            "mobius:0.3,0.1",
            10,
            ['"ties": 956', '"marker_interval": 998', '"sup_error": 0.0018527807774210772'],
        ),
        ("identity", 12, ['"ties": 4083', '"marker_interval": 0,', '"sup_error": 0.0,']),
        (
            "mobius:0.3,0.1",
            12,
            ['"ties": 3958', '"marker_interval": 3995,', '"sup_error": 0.00046239747733253095,'],
        ),
    ],
    ids=["mobius-10", "identity-12", "mobius-12"],
)
def test_approximate_json_pins(spec, level, pins):
    code, out, _ = cli("approximate", spec, "--level", str(level), "--json")
    assert code == 0
    for pin in pins:
        assert pin in out, pin
