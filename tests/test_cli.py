"""End-to-end checks of the thompson-holo command line."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thompson_holo import approximation, cli, errors
from thompson_holo.cli import main
from thompson_holo.dyadic import HALF, DyadicPartition, DyadicRational, StdDyadicInterval
from thompson_holo.errors import ResourceLimit
from thompson_holo.tessellation import (
    apply_flips,
    chord,
    farey_labels,
    render_svg,
    standard_tessellation,
)
from thompson_holo.thompson import random_element


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "A", "1/2^1")
        assert code == 0
        assert out.strip() == "1/2^2"

    def test_compose_then_reduce(self, capsys):
        code, out, _ = run(capsys, "compose", "C", "CC")
        assert code == 0
        composed = out.strip()
        code, out, _ = run(capsys, "reduce", composed)
        assert code == 0
        assert out.strip() == ".|.@0"

    def test_eval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "B", "3/2^2", "--json")
        assert code == 0
        assert json.loads(out) == {"value": "5/2^3"}

    def test_explicit_diagram_argument(self, capsys):
        code, out, _ = run(capsys, "eval", "(..)|(..)@1", "0")
        assert code == 0
        assert out.strip() == "1/2^1"


class TestVerifyTensor:
    def test_four_colour(self, capsys):
        code, out, _ = run(capsys, "verify-tensor", "four-colour")
        assert code == 0
        assert "perfect: yes" in out
        assert "rotation-invariant: yes" in out
        assert "constant: 2" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify-tensor", "qutrit-code", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["perfect"] is True
        assert "split_constants" in data

    def test_missing_tensor_file(self, capsys):
        code, _, err = run(capsys, "verify-tensor", "/no/such/file")
        assert code == 1
        assert err

    def test_one_leg_tensor(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("dims: 1\n0 1.0 0.0\n")
        code, out, err = run(capsys, "verify-tensor", str(path))
        assert code == 1
        assert out == ""
        assert err == "DimensionMismatch: a perfect tensor needs at least two legs, got 1\n"

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_overflowing_norm_is_not_perfect(self, capsys, tmp_path, extra):
        path = tmp_path / "t.txt"
        path.write_text("dims: 2 2\n0 0 1e200 0\n0 1 1e200 0\n")
        code, out, err = run(capsys, "verify-tensor", str(path), *extra)
        assert code == 1
        assert out == ""
        assert err == "NotPerfect: the squared norm inf is not finite\n"

    @pytest.mark.parametrize("entry", ["nan 0.0", "1.0 inf"])
    def test_non_finite_entry_names_its_line(self, capsys, tmp_path, entry):
        path = tmp_path / "t.txt"
        path.write_text(f"dims: 3 3 3\n0 1 2  {entry}\n")
        code, out, err = run(capsys, "verify-tensor", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: tensor text line 2: entry {entry} at (0, 1, 2) is not finite\n"


class TestMatrixElement:
    def test_b_both_routes(self, capsys):
        code, out, _ = run(capsys, "matrix-element", "B")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["0.5", "0"]
        assert lines[1].split() == ["0.5", "0"]
        assert lines[2] == "routes agree"

    def test_a_single_route(self, capsys):
        code, out, _ = run(capsys, "matrix-element", "A", "--route", "action")
        assert code == 0
        assert out.strip() == "1 0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "matrix-element", "C", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["agree"] is True
        assert data["action"] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_ten_leaf_element_both_routes(self, capsys):
        element = random_element(30, 5)
        assert element.num_leaves == 10
        code, out, err = run(capsys, "matrix-element", str(element), "--route", "both")
        assert code == 0, err
        assert out.strip().splitlines()[-1] == "routes agree"

    def test_action_route_over_cap_is_a_domain_error(self, capsys):
        element = random_element(45, 2)
        assert 3**element.num_leaves > 2**24
        code, out, err = run(capsys, "matrix-element", str(element), "--route", "action")
        assert code == 1
        assert out == ""
        assert err.startswith("ResourceLimit:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_both_routes_over_cap_run_the_diagram_route(self, capsys, monkeypatch, json_flag):
        monkeypatch.delenv("THOMPSON_HOLO_MAX_AMPLITUDES", raising=False)
        element = str(random_element(45, 2))
        code, out, err = run(capsys, "matrix-element", element, *json_flag)
        assert code == 0
        assert err == "note: 3^16 amplitudes exceed the cap of 16777216; ran the diagram route only\n"
        _, diagram, _ = run(capsys, "matrix-element", element, "--route", "diagram", *json_flag)
        assert out == diagram

    def test_both_routes_over_cap_keep_the_leg_check(self, capsys):
        code, out, err = run(
            capsys, "matrix-element", str(random_element(45, 2)), "--tensor", "qutrit-code"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DimensionMismatch:")
        assert len(err.splitlines()) == 1

    def test_both_routes_over_cap_print_no_note_when_the_diagram_route_fails(
        self, capsys, monkeypatch
    ):
        """The note follows the diagram route's answer: under a cap of 64 the
        action route trips at 3^4 amplitudes, then the diagram route trips
        too, and only its error is printed."""
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "64")
        code, out, err = run(capsys, "matrix-element", "B")
        assert (code, out) == (1, "")
        assert err == "ResourceLimit: a contraction intermediate of 81 entries exceeds the cap of 64\n"

    @pytest.mark.parametrize("route", ["action", "diagram", "both"])
    def test_four_leg_tensor_is_a_typed_error(self, capsys, route):
        code, out, err = run(
            capsys, "matrix-element", "B", "--tensor", "qutrit-code", "--route", route
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DimensionMismatch:")
        assert "4 legs" in err

    def test_four_leg_tensor_identity(self, capsys):
        code, out, _ = run(capsys, "matrix-element", "", "--tensor", "qutrit-code")
        assert code == 0
        assert out.splitlines()[:2] == ["1 0", "1 0"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_routes_that_disagree_exit_1(self, capsys, monkeypatch, json_flag):
        """Both values are printed, then the disagreement, with exit code 1."""
        exact = cli.semicontinuous.vacuum_matrix_element
        monkeypatch.setattr(
            cli.semicontinuous,
            "vacuum_matrix_element",
            lambda f, V, route: exact(f, V, route) + (1e-9 if route == "diagram" else 0),
        )
        code, out, err = run(capsys, "matrix-element", "B", *json_flag)
        assert (code, err) == (1, "")
        if json_flag:
            data = json.loads(out)
            assert data["agree"] is False
            assert data["diagram"][0] - data["action"][0] == pytest.approx(1e-9)
        else:
            assert out.splitlines() == ["0.5 0", "0.500000001 0", "routes disagree"]


class TestOtherCommands:
    def test_flips(self, capsys):
        code, out, _ = run(capsys, "flips", "B", "--depth", "4")
        assert code == 0
        assert out.strip() == "1/2^1~3/2^2"

    def test_flips_that_miss_the_element(self, capsys, monkeypatch):
        """flips_realizing replays its sequence as an oracle; a replay that
        does not reach the element is a SearchExhausted error."""
        monkeypatch.setattr(cli.tessellation, "apply_flips", lambda t, seq: t)
        code, out, err = run(capsys, "flips", "B", "--depth", "4")
        assert (code, out) == (1, "")
        assert err == "SearchExhausted: flip sequence does not reproduce apply_element\n"

    def test_flips_identity(self, capsys):
        code, out, _ = run(capsys, "flips", "", "--depth", "3")
        assert code == 0
        assert out.strip() == "(empty sequence)"

    def test_approximate(self, capsys):
        code, out, _ = run(
            capsys, "approximate", "rotation:1/2^2", "--level", "3"
        )
        assert code == 0
        assert "sup_error: 0" in out

    @pytest.mark.parametrize("spec", ["mobius:0.3,0.1", "rotation:1/2^2"])
    @pytest.mark.parametrize("level", [3, 5])
    def test_approximate_json_fields(self, capsys, spec, level):
        code, out, _ = run(capsys, "approximate", spec, "--level", str(level), "--json")
        assert code == 0
        data = json.loads(out)
        res = approximation.approximate(approximation.parse_map(spec), level)
        assert data["range_partition"] == str(res.range_partition)
        assert data["element"] == str(res.element)

    def test_btz_entropy(self, capsys):
        code, out, _ = run(capsys, "btz-entropy", "--halfwidth", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["entropy_a"] == pytest.approx(data["entropy_b"], abs=1e-10)
        assert 0 < data["entropy_a"] <= data["rank_bound"]

    def test_btz_entropy_zero_tensor(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("dims: 3 3 3\n")
        code, out, err = run(capsys, "btz-entropy", "--halfwidth", "1", "--tensor", str(path))
        assert (code, out) == (1, "")
        assert err == "error: BTZ network contracted to zero\n"

    def test_btz_entropy_four_leg_tensor(self, capsys):
        code, out, err = run(
            capsys, "btz-entropy", "--halfwidth", "1", "--tensor", "qutrit-code"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("DimensionMismatch:")
        assert "4 legs" in err

    def test_render_deep_cutoff(self, capsys, tmp_path):
        """A staircase of 1200 intervals, nested deeper than the recursion
        limit, renders as the partition of its intervals listed directly."""
        count = 1200
        text = ", ".join(["0"] + [f"{2**k - 1}/2^{k}" for k in range(1, count)] + ["1"])
        out = tmp_path / "stair.svg"
        code, _, err = run(capsys, "render", "cutoff:" + text, "--out", str(out))
        assert code == 0, err
        intervals = [StdDyadicInterval(2**k - 2, k) for k in range(1, count)]
        intervals.append(StdDyadicInterval(2 ** (count - 1) - 1, count - 1))
        cutoff = DyadicPartition.parse(text)
        assert cutoff.intervals == intervals
        assert out.read_text() == render_svg(cutoff)
        assert out.read_text().count("<path") == count + 1

    def test_render_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for p in (p1, p2):
            code, _, _ = run(capsys, "render", "tessellation:2", "--out", str(p))
            assert code == 0
        assert p1.read_text() == p2.read_text()
        assert p1.read_text().startswith("<svg")

    def test_render_cutoff(self, capsys, tmp_path):
        out = tmp_path / "cut.svg"
        code, _, _ = run(
            capsys, "render", "cutoff:0, 1/2^1, 3/2^2, 1", "--out", str(out)
        )
        assert code == 0
        assert "<svg" in out.read_text()

    def test_render_one_interval_cutoff(self, capsys, tmp_path):
        """[0, 1] has no chord, both of its ends being the circle point 0,
        so the drawing is the header and the disc."""
        out = tmp_path / "cut.svg"
        code, stdout, err = run(capsys, "render", "cutoff:0, 1", "--out", str(out))
        assert (code, stdout, err) == (0, f"{out}\n", "")
        header, disc, end = out.read_text().split("\n")
        assert header.startswith("<svg") and disc.startswith("<circle") and end == "</svg>"


class TestBadFiles:
    @pytest.mark.parametrize("line", ["0 1 2", "0 1 5  1.0 0.0", "0 -1 2  1.0 0.0"])
    @pytest.mark.parametrize("argv", [["verify-tensor"], ["matrix-element", "B", "--tensor"]])
    def test_tensor_file_line(self, capsys, tmp_path, argv, line):
        path = tmp_path / "t.txt"
        path.write_text("dims: 3 3 3\n0 1 2  1.0 0.0\n" + line + "\n")
        code, out, err = run(capsys, *argv, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: tensor text line 3: ")

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"doe": ["0", "1/2^1"], "flips": []}, "'depth'"),
            ({"depth": 3, "doe": ["0", "1/2^1"], "flips": [["1/2^1"]]}, "flip 0"),
            ([3, ["0", "1/2^1"], []], "object"),
        ],
    )
    def test_tessellation_file(self, capsys, tmp_path, data, field):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "render", str(path), "--out", str(tmp_path / "t.svg"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: tessellation ")
        assert field in err.splitlines()[0]

    def test_tensor_dims_over_the_cap(self, capsys, tmp_path):
        """The dims are checked against the cap before anything is allocated."""
        path = tmp_path / "t.txt"
        path.write_text("dims: 100000 100000 100000\n0 1 2  1.0 0.0\n")
        code, out, err = run(capsys, "verify-tensor", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ResourceLimit: tensor dims (100000, 100000, 100000): ")
        assert err.endswith(" exceed the cap of 16777216\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("mobius:0.3", "error: map spec 'mobius:0.3': expected two numbers a,b, got 1"),
            ("mobius:0.3,0.1,5", "error: map spec 'mobius:0.3,0.1,5': expected two numbers a,b, got 3"),
            ("mobius:0.3,x", "error: map spec 'mobius:0.3,x': could not convert string to float: 'x'"),
            ("mobius:nan,0", "NotMonotone: map 'mobius:nan,0.0' is not finite at x=0.0"),
        ],
    )
    def test_map_spec(self, capsys, spec, message):
        code, out, err = run(capsys, "approximate", spec, "--level", "3")
        assert code == 1
        assert out == ""
        assert err == message + "\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0.5", "expected two fields x y, got 1"),
            ("0.5 0.75 1", "expected two fields x y, got 3"),
            ("0.5 half", "could not convert string to float: 'half'"),
            ("0.5 nan", "sample (0.5, nan) is not finite"),
        ],
    )
    def test_tabulated_map_file_line(self, capsys, tmp_path, line, message):
        path = tmp_path / "map.txt"
        path.write_text("# x y\n0 0.25\n\n" + line + "\n0.75 0.9\n")
        code, out, err = run(capsys, "approximate", str(path), "--level", "3")
        assert code == 1
        assert out == ""
        assert err == f"error: tabulated map line 4: {message}\n"

    def test_tessellation_file_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        svg = tmp_path / "n.svg"
        code, out, err = run(capsys, "render", str(path), "--out", str(svg))
        assert (code, out) == (1, "")
        assert err == "error: tessellation JSON nests too deeply\n"
        assert not svg.exists()

    def test_tessellation_file_round_trip(self, capsys, tmp_path):
        t = apply_flips(standard_tessellation(3), [chord(HALF, DyadicRational(3, 2))])
        path = tmp_path / "t.json"
        path.write_text(t.to_json())
        code, _, err = run(capsys, "render", str(path), "--out", str(tmp_path / "t.svg"))
        assert code == 0, err
        assert (tmp_path / "t.svg").read_text() == render_svg(t)


class TestSizeChecks:
    """Inputs whose size the cap rules out fail before any work."""

    def test_over_the_cap(self, capsys, monkeypatch, tmp_path):
        monkeypatch.delenv("THOMPSON_HOLO_MAX_AMPLITUDES", raising=False)
        for argv, message in [
            (["approximate", "identity", "--level", "27"], "level 27: 2^27 image points"),
            (["render", "tessellation:26", "--out", str(tmp_path / "t.svg")], "depth 26: 2^29 window chords"),
        ]:
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == f"ResourceLimit: {message} exceed the cap of 16777216\n"

    def test_the_cap_is_the_amplitude_cap(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "64")
        assert run(capsys, "approximate", "identity", "--level", "6")[0] == 0
        assert run(capsys, "approximate", "identity", "--level", "7")[0] == 1
        out = str(tmp_path / "t.svg")
        assert run(capsys, "render", "tessellation:3", "--out", out)[0] == 0
        assert run(capsys, "render", "tessellation:4", "--out", out)[0] == 1

    def test_cap_override_is_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "abc")
        code, out, err = run(capsys, "approximate", "identity", "--level", "3")
        assert code == 1
        assert out == ""
        assert err == "error: THOMPSON_HOLO_MAX_AMPLITUDES='abc' is not a positive integer\n"

    @pytest.mark.parametrize("route", ["action", "diagram", "both"])
    @pytest.mark.parametrize("word", ["", "B"])
    def test_cap_override_is_validated_on_every_route(self, capsys, monkeypatch, route, word):
        """matrix-element reads the cap before the four-leg check, and even
        for the identity, which the diagram route answers without a
        contraction."""
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "abc")
        for tensor in ["four-colour", "qutrit-code"]:
            code, out, err = run(
                capsys, "matrix-element", word, "--route", route, "--tensor", tensor
            )
            assert (code, out) == (1, "")
            assert err == "error: THOMPSON_HOLO_MAX_AMPLITUDES='abc' is not a positive integer\n"

    def test_farey_labels_window(self, monkeypatch):
        monkeypatch.setenv("THOMPSON_HOLO_MAX_AMPLITUDES", "64")
        t = standard_tessellation(2)
        assert farey_labels(t, 6).label_of(HALF) == (1, 0)
        with pytest.raises(ResourceLimit, match="^max exponent 7: 2\\^7 window points"):
            farey_labels(t, 7)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "eval", "A")[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "ZZZ", "0")
        assert code == 1
        assert err

    def test_tree_text_ending_inside_a_caret(self, capsys):
        code, out, err = run(capsys, "reduce", "((..)|(..)")
        assert (code, out) == (1, "")
        assert err == "error: unbalanced parentheses in tree text\n"

    def test_out_of_memory(self, capsys, monkeypatch, tmp_path):
        def exhausted(obj, labels=False):
            raise MemoryError

        monkeypatch.setattr(cli.tessellation, "render_svg", exhausted)
        out = tmp_path / "t.svg"
        code, stdout, err = run(capsys, "render", "tessellation:3", "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: out of memory\n")
        assert not out.exists()


class TestParserReuse:
    """main parses with one parser per process; no call sees another's
    options, so each output is what a freshly built parser gives."""

    @staticmethod
    def sequence(tmp_path):
        svg = str(tmp_path / "t.svg")
        return [
            ["approximate", "mobius:0.3,0.1", "--level", "4", "--json"],
            ["approximate", "identity", "--level", "three"],
            ["approximate", "mobius:1,0", "--level", "3"],
            ["approximate", "mobius:0.3,0.1", "--level", "4"],
            ["verify-tensor", "four-colour"],
            ["compose", "C", "CC"],
            ["reduce", "CCC"],
            ["eval", "A", "1/2^1"],
            ["matrix-element", "B"],
            ["flips", "B", "--depth", "4"],
            ["btz-entropy", "--halfwidth", "1"],
            ["render", "tessellation:2", "--out", svg],
        ]

    def test_outputs_match_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        argvs = self.sequence(tmp_path)
        reused = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in argvs]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 1] + [0] * 9
        assert json.loads(reused[0][1])["level"] == 4
        assert reused[3][1].startswith("element: ")


class TestDeepDiagram:
    """A diagram of two 1100-deep trees, beyond the interpreter's recursion
    limit, still reduces and composes to the identity."""

    DEEP = "(." * 1100 + "." + ")" * 1100

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", f"{self.DEEP}|{self.DEEP}@0")
        assert code == 0
        assert out.strip() == ".|.@0"

    def test_compose(self, capsys):
        diagram = f"{self.DEEP}|{self.DEEP}@0"
        code, out, _ = run(capsys, "compose", diagram, diagram)
        assert code == 0
        assert out.strip() == ".|.@0"

    LEFT_COMB = "(" * 1100 + "." + ".)" * 1100

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", f"{self.DEEP}|{self.LEFT_COMB}@0", "3/2^2")
        assert code == 0
        assert out.strip() == "1/2^1099"

    def test_render(self, capsys, tmp_path):
        out = tmp_path / "deep.svg"
        code, _, err = run(
            capsys, "render", f"{self.DEEP}|{self.LEFT_COMB}@0", "--out", str(out)
        )
        assert code == 0, err
        assert out.read_text().startswith("<svg")

    def test_matrix_element_diagram_route(self, capsys):
        """The diagram route contracts the 2200 tensors of the comb diagram
        (1101 leaves) to the identity's matrix element."""
        diagram = f"{self.DEEP}|{self.LEFT_COMB}@0"
        code, out, err = run(capsys, "matrix-element", diagram, "--route", "diagram")
        assert code == 0, err
        assert out == "1 0\n"
        code, both, err = run(capsys, "matrix-element", diagram)
        assert code == 0
        assert both == out
        assert err.startswith("note: 3^1101 amplitudes exceed the cap of ")


# ---------------------------------------------------------------------------
# Generated command lines for every subcommand: each ends in exit code 0, 1
# or 2, never in an escaped exception, and each exit-1 message starts with an
# error class name or "error:".


class File(str):
    """An argument that names a file written with this text, under `suffix`."""

    def __new__(cls, text, suffix):
        self = super().__new__(cls, text)
        self.suffix = suffix
        return self


class Out(str):
    """An output path, taken relative to the temporary directory."""

ERROR_PREFIXES = {"error"} | {
    name
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.ThompsonHoloError)
}

junk = st.text(alphabet="()./|@^:,-0123456789ABCabcxe ", max_size=12)
ints = st.integers(-3, 12).map(str)
dyadic_text = st.one_of(st.builds("{}/2^{}".format, st.integers(-9, 40), st.integers(0, 12)), ints, junk)
trees = st.recursive(st.just("."), lambda t: st.builds("({}{})".format, t, t), max_leaves=8)
elements = st.one_of(
    st.text(alphabet="ABCabc", max_size=10),
    st.builds("{}|{}@{}".format, trees, trees, st.integers(-1, 8)),
    junk,
)
floats = st.floats(width=32).map(repr)
lines = st.one_of(junk, st.lists(st.one_of(ints, floats), max_size=6).map(" ".join))
tensor_text = st.one_of(
    st.just("dims: 1\n0 1.0 0.0"),
    st.builds(
        lambda dims, body: "dims: " + " ".join(map(str, dims)) + "\n" + "\n".join(body),
        st.lists(st.integers(0, 4), max_size=4),
        st.lists(lines, max_size=6),
    ),
    st.lists(lines, max_size=4).map("\n".join),
)
tensors = st.one_of(
    st.sampled_from(["four-colour", "singlet", "qutrit-code", "no-such-tensor"]),
    tensor_text.map(lambda text: File(text, ".txt")),
)
tabulated = st.lists(st.one_of(lines, st.builds("{} {}".format, floats, floats)), max_size=8)
maps = st.one_of(
    st.just("identity"),
    dyadic_text.map("rotation:{}".format),
    st.builds("mobius:{},{}".format, floats, floats),
    tabulated.map(lambda rows: File("\n".join(rows), ".txt")),
    junk,
)
pair = st.one_of(st.lists(dyadic_text, min_size=2, max_size=2), st.lists(ints, max_size=3), junk)
tessellation_json = st.one_of(
    st.fixed_dictionaries(
        {"depth": st.one_of(st.integers(-2, 8), junk), "doe": pair, "flips": st.lists(pair, max_size=4)}
    ).map(json.dumps),
    junk,
)
renderables = st.one_of(
    elements,
    st.integers(-2, 8).map("tessellation:{}".format),
    st.lists(dyadic_text, max_size=5).map(lambda pts: "cutoff:" + ",".join(pts)),
    tessellation_json.map(lambda text: File(text, ".json")),
)


def command(name, *positional, **options):
    """argv for `name`: its positional arguments, then its options; an
    option whose value is drawn as None is left out."""
    return st.builds(
        lambda pos, values, as_json: [name, *pos]
        + [arg for flag, v in zip(options, values) if v is not None for arg in (flag, v)]
        + ["--json"] * as_json,
        st.tuples(*positional),
        st.tuples(*options.values()),
        st.booleans(),
    )


argvs = st.one_of(
    command("verify-tensor", tensors),
    command("compose", elements, elements),
    command("reduce", elements),
    command("eval", elements, dyadic_text),
    command(
        "matrix-element",
        elements,
        **{
            "--tensor": st.none() | tensors,
            "--route": st.none() | st.sampled_from(["action", "diagram", "both", "x"]),
        },
    ),
    command("approximate", maps, **{"--level": st.integers(-1, 10).map(str) | junk}),
    command("flips", elements, **{"--depth": st.none() | st.integers(-2, 8).map(str) | junk}),
    command("btz-entropy", **{"--halfwidth": st.integers(-1, 2).map(str), "--tensor": st.none() | tensors}),
    command("render", renderables, **{"--out": st.sampled_from([Out("out.svg"), Out("no-dir/out.svg")])}),
    st.lists(st.one_of(junk, st.sampled_from(["--json", "--level", "render", "eval"])), max_size=4),
)


class TestFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(argvs)
    def test_generated_command_lines(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            args = []
            for k, arg in enumerate(argv):
                if isinstance(arg, Out):
                    arg = os.path.join(tmp, arg)
                elif isinstance(arg, File):
                    path = os.path.join(tmp, f"{k}{arg.suffix}")
                    with open(path, "w") as fh:
                        fh.write(arg)
                    arg = path
                args.append(arg)
            out, err = io.StringIO(), io.StringIO()
            with (
                mock.patch.dict(os.environ, {"THOMPSON_HOLO_MAX_AMPLITUDES": "512"}),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
            ):
                code = main(args)
        err = err.getvalue()
        out = out.getvalue()
        assert code in (0, 1, 2), (args, err)
        if code == 1:
            assert err.split(": ", 1)[0] in ERROR_PREFIXES, (args, err)
            assert out == "", (args, out)
        if code == 0 and "--json" in args:
            assert out.endswith("\n") and out.count("\n") == 1, (args, out)
            assert isinstance(json.loads(out), dict), (args, out)
