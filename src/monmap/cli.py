"""Command-line interface: enumeration, map queries, and batch verification.

Everything prints JSON to stdout (or writes to --out); diagnostics and
timings go to stderr so reports stay byte-stable.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from fractions import Fraction
from itertools import chain

from .algebra import Sqrt2
from .bijection import phi, phi_inverse
from .diagrams import DiagramError, MultiRect, top_map_sums
from .enumeration import (FORCE_HINT, MAX_ONE_FACE_N, GuardExceeded, all_maps,
                          all_pairs, check_guard, conservative_one_face,
                          involutions, liberal_one_face)
from .jack import JackGuardError, alpha_of, ch, ch_stanley, jack_in_p
from .maps import (MapError, bicolored_graph, checked_pairs, load_fixture,
                   map_from_json_obj, map_to_json_obj, structure, graph_class,
                   is_orientable, faces)
from .mon import MonTopMismatch, is_top_degree_pair, mon, mon_top
from .oriented import oriented_to_json_obj
from .verify import SUITES, SUITE_ALIASES, report_render, run_suite

DOMAIN_ERRORS = (MapError, DiagramError, GuardExceeded, JackGuardError,
                 MonTopMismatch, ZeroDivisionError, OSError)

FIXTURES = ("klein", "projective")
# From cold caches, `mon` with `mon_top_detail` grows about 2.3x per edge,
# to 0.30-0.44 s of process time on six random 12-edge maps (2-vCPU Xeon,
# Python 3.11).
MAX_MON_EDGES = 12


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}") \
            from exc


def _parse_scalar(text: str):
    """A rational, or one of the Q[sqrt2] values +-sqrt2 and +-1/sqrt2."""
    text = text.strip()
    if "sqrt2" in text:
        sign = -1 if text.startswith("-") else 1
        body = text.lstrip("+-")
        if body == "sqrt2":
            return Sqrt2(0, sign)
        if body == "1/sqrt2":
            return Sqrt2(0, Fraction(sign, 2))
        raise argparse.ArgumentTypeError(
            f"cannot parse {text!r}; sqrt2 values are sqrt2 or 1/sqrt2")
    return _parse_rational(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_rational_list(text: str):
    if not text.strip():
        return ()
    return tuple(_parse_rational(x) for x in text.split(","))


def _load_map(source: str):
    if source.lower() in FIXTURES:
        return load_fixture(source.lower())
    with open(source) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise MapError(f"{source} is not a JSON file: {exc}") from None
    return map_from_json_obj(obj)


def _parse_history(text: str) -> list[tuple[int, int]]:
    try:
        obj = json.loads(text)
        if isinstance(obj, list):
            return checked_pairs(obj, "--history")
    except ValueError:  # not JSON, or a MapError for a bad pair
        pass
    raise MapError(f"--history must be a JSON list of [label, label] "
                   f"pairs, got {text!r}")


def _emit(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac_obj(x):
    if isinstance(x, Sqrt2):
        return {"rational": _frac_obj(x.a), "sqrt2_coeff": _frac_obj(x.b)}
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def cmd_enumerate(args) -> int:
    n = args.n
    if args.family == "involutions":
        check_guard("n", n, MAX_ONE_FACE_N, args.force)
        items = ({"pairs": [[i + 1, j + 1] for i, j in enumerate(p) if i < j]}
                 for p in involutions(range(2 * n)))
    elif args.family == "one-face-conservative":
        items = (map_to_json_obj(m)
                 for m in conservative_one_face(n, args.force))
    elif args.family == "one-face-liberal":
        items = (map_to_json_obj(m) for m in liberal_one_face(n, args.force))
    elif args.family == "all":
        items = (map_to_json_obj(m) for m in all_maps(n, args.force))
    elif args.family == "oriented-pairs":
        items = (oriented_to_json_obj(om) for om in all_pairs(n, args.force))
    else:
        raise AssertionError(args.family)
    # the first item runs the family's lazy guard before --out is opened
    first = next(items, None)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        count = 0
        for item in chain(() if first is None else (first,), items):
            out.write(json.dumps(item, sort_keys=True) + "\n")
            count += 1
    finally:
        if args.out:
            out.close()
    print(f"{count} items", file=sys.stderr)
    return 0


def cmd_structure(args) -> int:
    m = _load_map(args.map)
    st = structure(m)
    face_sets, face_type = faces(m)
    _emit({
        "black_vertices": st.blacks,
        "white_vertices": st.whites,
        "edges": st.edges,
        "faces": st.faces,
        "face_type": list(face_type),
        "components": st.components,
        "euler_characteristic": st.euler,
        "genus": _frac_obj(st.genus),
        "orientable": is_orientable(m),
        "graph_class": graph_class(m).key.decode(),
    }, args.out)
    return 0


def cmd_mon(args) -> int:
    m = _load_map(args.map)
    if m.n > MAX_MON_EDGES:
        raise MapError(f"mon of a map with {m.n} edges exceeds the guard of "
                       f"{MAX_MON_EDGES} (it canonicalises up to 2^n "
                       f"residual maps)")
    _emit({
        "mon": [_frac_obj(c) for c in mon(m).coeffs],
        "mon_top": _frac_obj(mon_top(m)),
    }, args.out)
    return 0


def cmd_bijection(args) -> int:
    m = _load_map(args.map)
    history = _parse_history(args.history)
    fn = phi if args.direction == "apply" else phi_inverse
    res = fn(m, history)
    _emit({
        "map": map_to_json_obj(res.map),
        "twists": [list(e) for e in res.twists],
        "checks": {
            "output_orientable": is_orientable(res.map),
            "output_top_degree_pair": is_top_degree_pair(res.map, history),
            "graph_preserved": bicolored_graph(res.map) == bicolored_graph(m),
            "graph_class_preserved": graph_class(res.map) == graph_class(m),
        },
    }, args.out)
    return 0


def cmd_chtop(args) -> int:
    if isinstance(args.A, Sqrt2):
        raise DiagramError(
            "chtop needs rational A (multirectangular coordinates must "
            "realize an integer diagram)")
    mr = MultiRect(args.P, args.Q, args.A)
    [(oriented_sum, one_face)] = top_map_sums(args.n, [mr], force=args.force)
    payload = {
        "n": args.n,
        "gamma": _frac_obj(mr.gamma),
        "diagram": list(mr.diagram().parts),
        "oriented_sum": _frac_obj(oriented_sum),
        "one_face_sum_displayed": _frac_obj(one_face),
        "one_face_sum_reconciled": _frac_obj(-one_face),
    }
    if args.n in (1, 2, 3):
        full, top = ch_stanley(args.n, mr.gamma, mr.P, mr.Q)
        payload["closed_form_full"] = _frac_obj(full)
        payload["closed_form_top"] = _frac_obj(top)
    _emit(payload, args.out)
    return 0


def cmd_jack(args) -> int:
    theta = jack_in_p(args.lam, args.alpha, force=args.force)
    _emit({
        "lambda": list(args.lam),
        "alpha": _frac_obj(args.alpha),
        "theta": {",".join(map(str, mu)): _frac_obj(c)
                  for mu, c in sorted(theta.items())},
    }, args.out)
    return 0


def cmd_ch(args) -> int:
    value = ch(args.pi, args.lam, args.A, force=args.force)
    _emit({
        "pi": list(args.pi),
        "lambda": list(args.lam),
        "A": str(args.A),
        "alpha": _frac_obj(alpha_of(args.A)),
        "value": _frac_obj(value),
    }, args.out)
    return 0


def _suite_params(name: str, args) -> dict:
    """Keyword arguments for one suite, from the options its signature takes."""
    name = SUITE_ALIASES.get(name, name)
    accepted = inspect.signature(SUITES[name]).parameters
    params: dict = {}
    if args.force and "force" in accepted:
        params["force"] = True
        print(f"warning: guards raised for suite {name}", file=sys.stderr)
    if args.n is not None:
        for key, value in (("n", args.n), ("n_exhaustive", args.n),
                           ("ns", tuple(range(1, args.n + 1)))):
            if key in accepted:
                params[key] = value
    if args.seed is not None and "seed" in accepted:
        params["seed"] = args.seed
    if args.suite != "all":  # verify all runs every suite, taker or not
        for option, value, keys in (
                ("--n", args.n, ("n", "n_exhaustive", "ns")),
                ("--seed", args.seed, ("seed",))):
            if value is not None and accepted.keys().isdisjoint(keys):
                print(f"warning: suite {name} ignores {option}",
                      file=sys.stderr)
    return params


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    blobs = []
    for name in names:
        report = run_suite(name, **_suite_params(name, args))
        blobs.append(report_render(report, args.format))
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({report.runtime:.2f}s)", file=sys.stderr)
        if not report.passed:
            failed = True
            first = report.first_failure
            print("first counterexample: "
                  + json.dumps({"name": first.name, "values": first.values},
                               sort_keys=True), file=sys.stderr)
    data = b"".join(blobs)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monmap",
        description="Exact verification toolkit for bicolored maps, the "
                    "measure of non-orientability, and Jack character "
                    "map sums.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream a map family as JSONL")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--family", required=True,
                   choices=["involutions", "one-face-conservative",
                            "one-face-liberal", "all", "oriented-pairs"])
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("structure", help="structural counts of a map")
    p.add_argument("--map", required=True,
                   help="path to a map JSON file, or a fixture name "
                        f"({'/'.join(FIXTURES)})")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("mon", help="measure of non-orientability of a map")
    p.add_argument("--map", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mon)

    p = sub.add_parser("bijection", help="apply the twist bijection")
    p.add_argument("direction", choices=["apply", "invert"])
    p.add_argument("--map", required=True)
    p.add_argument("--history", required=True,
                   help='JSON list of edges, e.g. "[[1,5],[2,4],[3,6]]"')
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("chtop", help="top-degree character map sums at a point")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--P", type=_parse_rational_list, required=True)
    p.add_argument("--Q", type=_parse_rational_list, required=True)
    p.add_argument("--A", type=_parse_scalar, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_chtop)

    p = sub.add_parser("jack", help="theta table of one Jack function")
    p.add_argument("--lambda", dest="lam", type=_parse_int_list, required=True)
    p.add_argument("--alpha", type=_parse_rational, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_jack)

    p = sub.add_parser("ch", help="normalized Jack character at a parameter")
    p.add_argument("--pi", type=_parse_int_list, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_int_list, required=True)
    p.add_argument("--A", type=_parse_scalar, required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ch)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite",
                   choices=sorted(SUITES) + sorted(SUITE_ALIASES) + ["all"])
    p.add_argument("--n", type=_positive_int, default=None,
                   help="override the suite's n range (with --force beyond "
                        "the default guards)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", default="text",
                   choices=["json", "csv", "text"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        message = str(exc).replace(FORCE_HINT, "pass --force to override")
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
