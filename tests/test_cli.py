"""End-to-end checks of the thompson-holo command line."""

import json

import pytest

from thompson_holo.cli import main
from thompson_holo.dyadic import StdDyadicInterval
from thompson_holo.tessellation import Cutoff, interval_chord, render_svg
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


class TestOtherCommands:
    def test_flips(self, capsys):
        code, out, _ = run(capsys, "flips", "B", "--depth", "4")
        assert code == 0
        assert out.strip() == "1/2^1~3/2^2"

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

    def test_btz_entropy(self, capsys):
        code, out, _ = run(capsys, "btz-entropy", "--halfwidth", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["entropy_a"] == pytest.approx(data["entropy_b"], abs=1e-10)
        assert 0 < data["entropy_a"] <= data["rank_bound"]

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
        limit, renders the same chords as its intervals listed directly."""
        count = 1200
        points = ["0"] + [f"{2**k - 1}/2^{k}" for k in range(1, count)] + ["1"]
        out = tmp_path / "stair.svg"
        code, _, err = run(capsys, "render", "cutoff:" + ", ".join(points), "--out", str(out))
        assert code == 0, err
        intervals = [StdDyadicInterval(2**k - 2, k) for k in range(1, count)]
        intervals.append(StdDyadicInterval(2 ** (count - 1) - 1, count - 1))
        cutoff = Cutoff(tuple(interval_chord(iv) for iv in intervals))
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


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "eval", "A")[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "ZZZ", "0")
        assert code == 1
        assert err


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
