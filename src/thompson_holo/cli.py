"""Command-line interface.

Exit codes: 0 success, 1 domain error, 2 usage error.  Words are strings
over {A,B,C,a,b,c} with lowercase meaning inverse, applied right to left;
arguments containing '|' are parsed as explicit tree-diagram text instead.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import approximation, semicontinuous, tensor, tessellation, thompson
from .dyadic import DyadicPartition, DyadicRational
from .errors import ThompsonHoloError


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


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_verify_tensor(args) -> int:
    t = _load_tensor(args.tensor)
    cert = tensor.verify_perfect(t)
    c12 = cert.constant([0])
    payload = {
        "perfect": True,
        "rotation_invariant": cert.rotation_invariant,
        "split_constants": {
            ",".join(map(str, sorted(k))): v
            for k, v in cert.normalization.items()
            if k
        },
    }
    _emit(
        args,
        payload,
        [
            "perfect: yes; rotation-invariant: "
            + ("yes" if cert.rotation_invariant else "no")
            + f"; 1→2 constant: {_fmt(c12)}"
        ],
    )
    return 0


def _cmd_compose(args) -> int:
    out = thompson.compose(_parse_element(args.f), _parse_element(args.g))
    _emit(args, {"element": str(out)}, [str(out)])
    return 0


def _cmd_reduce(args) -> int:
    out = thompson.reduce_diagram(_parse_element(args.f))
    _emit(args, {"element": str(out)}, [str(out)])
    return 0


def _cmd_eval(args) -> int:
    f = _parse_element(args.f)
    x = DyadicRational.parse(args.x)
    y = thompson.evaluate(f, x)
    _emit(args, {"value": str(y)}, [str(y)])
    return 0


def _cmd_matrix_element(args) -> int:
    f = _parse_element(args.word)
    V = tensor.normalize_isometry(_load_tensor(args.tensor), [0])
    routes = ["action", "diagram"] if args.route == "both" else [args.route]
    # The action route holds d^n amplitudes for the n leaves of the reduced
    # element, so above the cap "both" runs the diagram route alone.
    d, n = V.leg_dims[0], max(thompson.reduce_diagram(f).num_leaves, 2)
    cap = tensor.amplitude_cap()
    over_cap = args.route == "both" and d**n > cap
    if over_cap:
        routes = ["diagram"]
    values = {
        r: semicontinuous.vacuum_matrix_element(f, V, r) for r in routes
    }
    if over_cap:
        note = f"note: {d}^{n} amplitudes exceed the cap of {cap}; ran the diagram route only"
        print(note, file=sys.stderr)
    payload = {r: [v.real, v.imag] for r, v in values.items()}
    lines = [f"{_fmt(v.real)} {_fmt(v.imag)}" for v in values.values()]
    if len(values) == 2:
        a, d = values["action"], values["diagram"]
        agree = abs(a - d) <= 1e-12
        payload["agree"] = agree
        lines.append("routes agree" if agree else "routes disagree")
        if not agree:
            _emit(args, payload, lines)
            return 1
    _emit(args, payload, lines)
    return 0


def _cmd_approximate(args) -> int:
    f = approximation.parse_map(args.map)
    res = approximation.approximate(f, args.level)
    payload = {
        "element": str(res.element),
        "level": res.n,
        "sup_error": res.sup_error,
        "marker_interval": res.marker_interval,
        "range_partition": str(res.range_partition),
        "ties": len(res.ties),
    }
    _emit(
        args,
        payload,
        [
            f"element: {res.element}",
            f"sup_error: {_fmt(res.sup_error)}",
            f"marker interval: {res.marker_interval}",
            f"range partition: {res.range_partition}",
            f"tie events: {len(res.ties)}",
        ],
    )
    return 0


def _cmd_flips(args) -> int:
    f = _parse_element(args.word)
    seq = tessellation.flips_realizing(f, args.depth)
    payload = {"flips": [[str(c.a), str(c.b)] for c in seq]}
    _emit(args, payload, [str(c) for c in seq] or ["(empty sequence)"])
    return 0


def _cmd_btz_entropy(args) -> int:
    V = _load_tensor(args.tensor)
    state = semicontinuous.btz_state(args.halfwidth, V)
    na, nb = state.num_a, state.num_b
    sa = semicontinuous.entanglement_entropy(state, range(na))
    sb = semicontinuous.entanglement_entropy(state, range(na, na + nb))
    bound = state.cut_bonds * float(np.log(state.tensor.leg_dims[0]))
    payload = {"entropy_a": sa, "entropy_b": sb, "rank_bound": bound}
    _emit(
        args,
        payload,
        [f"S(A): {_fmt(sa)}", f"S(B): {_fmt(sb)}", f"bound: {_fmt(bound)}"],
    )
    return 0


def _parse_renderable(text: str):
    if text.startswith("tessellation:"):
        return tessellation.standard_tessellation(int(text.split(":", 1)[1]))
    if text.startswith("cutoff:"):
        return DyadicPartition.parse(text.split(":", 1)[1])
    if text.endswith(".json"):
        with open(text) as fh:
            return tessellation.Tessellation.from_json(fh.read())
    return _parse_element(text)


def _cmd_render(args) -> int:
    svg = tessellation.render_svg(_parse_renderable(args.object))
    with open(args.out, "w") as fh:
        fh.write(svg)
    _emit(args, {"out": args.out}, [args.out])
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except ThompsonHoloError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
