"""Command-line interface.

Exit codes: 0 success, 1 domain error, 2 usage error.  Words are strings
over {A,B,C,a,b,c} with lowercase meaning inverse, applied right to left;
arguments containing '|' are parsed as explicit tree-diagram text instead.

Each subcommand returns (exit code, JSON payload, text lines), and `main`
alone writes stdout: the payload under --json, the lines otherwise.  An
error raised by a subcommand is one line on stderr, exit code 1 and an
empty stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import approximation, semicontinuous, tensor, tessellation, thompson
from .dyadic import DyadicPartition, DyadicRational
from .errors import ResourceLimit, ThompsonHoloError


_Result = tuple[int, dict, list[str]]


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _parse_element(text: str) -> thompson.TreeDiagram:
    if "|" in text:
        return thompson.TreeDiagram.parse(text)
    return thompson.parse_word(text)


def _load_tensor(name: str) -> tensor.DenseTensor:
    try:
        return tensor.builtin_tensor(name)
    except ValueError:
        with open(name) as fh:
            return tensor.DenseTensor.from_text(fh.read())


def _cmd_verify_tensor(args) -> _Result:
    t = _load_tensor(args.tensor)
    cert = tensor.verify_perfect(t)
    payload = {
        "perfect": True,
        "rotation_invariant": cert.rotation_invariant,
        "split_constants": {
            ",".join(map(str, sorted(k))): v
            for k, v in cert.normalization.items()
            if k
        },
    }
    line = (
        "perfect: yes; rotation-invariant: "
        + ("yes" if cert.rotation_invariant else "no")
        + f"; 1→2 constant: {_fmt(cert.constant([0]))}"
    )
    return 0, payload, [line]


def _cmd_compose(args) -> _Result:
    out = str(thompson.compose(_parse_element(args.f), _parse_element(args.g)))
    return 0, {"element": out}, [out]


def _cmd_reduce(args) -> _Result:
    out = str(thompson.reduce_diagram(_parse_element(args.f)))
    return 0, {"element": out}, [out]


def _cmd_eval(args) -> _Result:
    f = _parse_element(args.f)
    y = str(thompson.evaluate(f, DyadicRational.parse(args.x)))
    return 0, {"value": y}, [y]


def _cmd_matrix_element(args) -> _Result:
    f = _parse_element(args.word)
    V = tensor.normalize_isometry(_load_tensor(args.tensor), [0])
    values, note = {}, None
    for r in ["action", "diagram"] if args.route == "both" else [args.route]:
        try:
            values[r] = semicontinuous.vacuum_matrix_element(f, V, r)
        except ResourceLimit as exc:
            # the action route checks d^n amplitudes against the cap before
            # it allocates; over the cap, "both" runs the diagram route alone
            if r == "diagram" or args.route == "action":
                raise
            note = f"note: {exc}; ran the diagram route only"
    if note:
        print(note, file=sys.stderr)
    payload = {r: [v.real, v.imag] for r, v in values.items()}
    lines = [f"{_fmt(v.real)} {_fmt(v.imag)}" for v in values.values()]
    if len(values) < 2:
        return 0, payload, lines
    agree = abs(values["action"] - values["diagram"]) <= 1e-12
    payload["agree"] = agree
    lines.append("routes agree" if agree else "routes disagree")
    return (0 if agree else 1), payload, lines


def _cmd_approximate(args) -> _Result:
    res = approximation.approximate(approximation.parse_map(args.map), args.level)
    element, partition = str(res.element), str(res.range_partition)
    payload = {
        "element": element,
        "level": res.n,
        "sup_error": res.sup_error,
        "marker_interval": res.marker_interval,
        "range_partition": partition,
        "ties": len(res.ties),
    }
    lines = [
        f"element: {element}",
        f"sup_error: {_fmt(res.sup_error)}",
        f"marker interval: {res.marker_interval}",
        f"range partition: {partition}",
        f"tie events: {len(res.ties)}",
    ]
    return 0, payload, lines


def _cmd_flips(args) -> _Result:
    seq = tessellation.flips_realizing(_parse_element(args.word), args.depth)
    payload = {"flips": [[str(c.a), str(c.b)] for c in seq]}
    return 0, payload, [str(c) for c in seq] or ["(empty sequence)"]


def _cmd_btz_entropy(args) -> _Result:
    state = semicontinuous.btz_state(args.halfwidth, _load_tensor(args.tensor))
    na, nb = state.num_a, state.num_b
    sa = semicontinuous.entanglement_entropy(state, range(na))
    sb = semicontinuous.entanglement_entropy(state, range(na, na + nb))
    bound = state.cut_bonds * float(np.log(state.tensor.leg_dims[0]))
    payload = {"entropy_a": sa, "entropy_b": sb, "rank_bound": bound}
    return 0, payload, [f"S(A): {_fmt(sa)}", f"S(B): {_fmt(sb)}", f"bound: {_fmt(bound)}"]


def _parse_renderable(text: str):
    if text.startswith("tessellation:"):
        return tessellation.standard_tessellation(int(text.split(":", 1)[1]))
    if text.startswith("cutoff:"):
        return DyadicPartition.parse(text.split(":", 1)[1])
    if text.endswith(".json"):
        with open(text) as fh:
            return tessellation.Tessellation.from_json(fh.read())
    return _parse_element(text)


def _cmd_render(args) -> _Result:
    svg = tessellation.render_svg(_parse_renderable(args.object))
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0, {"out": args.out}, [args.out]


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call makes a
    fresh Namespace, so no call sees another's options."""
    parser = argparse.ArgumentParser(
        prog="thompson-holo",
        description="Thompson-group dynamics for holographic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **arguments):
        p = sub.add_parser(name)
        for arg, kwargs in arguments.items():
            p.add_argument(arg.replace("_", "-"), **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    add("verify-tensor", _cmd_verify_tensor, tensor={})
    add("compose", _cmd_compose, f={}, g={})
    add("reduce", _cmd_reduce, f={})
    add("eval", _cmd_eval, f={}, x={})
    p = add("matrix-element", _cmd_matrix_element, word={})
    p.add_argument("--tensor", default="four-colour")
    p.add_argument("--route", choices=["action", "diagram", "both"], default="both")
    p = add("approximate", _cmd_approximate, map={})
    p.add_argument("--level", type=int, required=True)
    p = add("flips", _cmd_flips, word={})
    p.add_argument("--depth", type=int, default=6)
    p = add("btz-entropy", _cmd_btz_entropy)
    p.add_argument("--halfwidth", type=int, required=True)
    p.add_argument("--tensor", default="four-colour")
    p = add("render", _cmd_render, object={})
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.func(args)
        print(json.dumps(payload) if args.json else "\n".join(lines))
        return code
    except ThompsonHoloError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
