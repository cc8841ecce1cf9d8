"""Command-line front end.

Exit codes: 0 success / property holds, 1 property fails or a replayed
witness no longer reproduces, 2 invalid input, 3 asserted-tier violation.
Every error path prints one machine-parsable line: "error: <category>: <msg>".
Output is buffered and emitted once, so identical inputs give identical
bytes (modulo the version banner, suppressible with --no-banner).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .analysis import AXIOM_NAMES, axiom_report
from .claims import BUILTIN_SPACES
from .core import SoftSet, parse_set_literal
from .errors import (
    BitCapExceeded,
    CorpusError,
    InternalAssertionError,
    InvalidTopology,
    LiteralError,
    SignatureMismatch,
    SoftTopoError,
)
from .explorer import (
    Corpus,
    CorpusSpec,
    build_corpus,
    export_corpus,
    export_witnesses,
    format_suite,
    import_corpus,
    load_witness_dir,
    run_claim_suite,
)
from . import claims as claims_mod
from .maps import classify_map, parse_function
from .semi import classify_set, sscl, ssint
from .topology import SoftTopology, check_topology, load_space, parse_space, parse_space_fields
from .version import TOOL

_CATEGORY = (
    (InternalAssertionError, "internal"),
    (CorpusError, "corpus"),
    (InvalidTopology, "topology"),
    (BitCapExceeded, "bitcap"),
    (SignatureMismatch, "signature"),
    (LiteralError, "literal"),
    (SoftTopoError, "error"),
)


class _Parser(argparse.ArgumentParser):
    # single-line machine-parsable usage errors, exit 2
    def error(self, message):
        raise LiteralError(f"usage: {message}")


def _builtin_by_name(name: str) -> Optional[SoftTopology]:
    for label, build in BUILTIN_SPACES:
        if name == label or name == label.removeprefix("builtin:"):
            return build()
    return None


def _read_json_arg(text: str, what: str):
    """Inline JSON literal or @file, interchangeable everywhere."""
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise LiteralError(f"cannot read {what} file {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise LiteralError(f"{what} file {path} is not valid JSON: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise LiteralError(f"inline {what} is not valid JSON: {exc}")


def _load_space_arg(text: str) -> SoftTopology:
    t = _builtin_by_name(text)
    if t is not None:
        return t
    if text.startswith("{") or text.startswith("@"):
        return parse_space(_read_json_arg(text, "space"))
    if os.path.isdir(text):
        raise LiteralError(f"{text} is a directory; this command needs a single space")
    return load_space(text)


def _load_set_arg(t: SoftTopology, text: str) -> SoftSet:
    return parse_set_literal(t.signature, _read_json_arg(text, "set"))


def _jbool(v: bool) -> str:
    return "true" if v else "false"


# --- subcommand bodies -------------------------------------------------------


def _cmd_validate(args, out: list[str]) -> int:
    if args.space.startswith("{") or args.space.startswith("@"):
        obj = _read_json_arg(args.space, "space")
    else:
        builtin = _builtin_by_name(args.space)
        if builtin is not None:
            obj = builtin.to_obj()
        else:
            obj = _read_json_arg("@" + args.space, "space")
    sig, opens = parse_space_fields(obj)
    violation = check_topology(sig, opens)
    if args.format == "json":
        rec = {
            "signature": sig.to_obj(),
            "opens": len(opens),
            "valid": violation is None,
            "violation": None if violation is None else violation.to_obj(),
        }
        out.append(json.dumps(rec, indent=1))
    else:
        out.append(f"signature={sig.key()}")
        out.append(f"bits={sig.bits}")
        out.append(f"opens={len(opens)}")
        out.append(f"valid={_jbool(violation is None)}")
        if violation is not None:
            out.append(f"violation: {violation}")
    if violation is not None:
        raise InvalidTopology(violation)
    return 0


def _cmd_classify(args, out: list[str]) -> int:
    t = _load_space_arg(args.space)
    g = _load_set_arg(t, args.set)
    c = classify_set(t, g)
    if args.format == "json":
        rec = {
            "set": g.to_literal(),
            "open": c.is_open,
            "closed": c.is_closed,
            "semiopen": c.is_semiopen,
            "semiclosed": c.is_semiclosed,
            "semiopen_witness": None if c.semiopen_witness is None else c.semiopen_witness.to_literal(),
            "semiclosed_witness": None if c.semiclosed_witness is None else c.semiclosed_witness.to_literal(),
        }
        out.append(json.dumps(rec, indent=1))
        return 0
    out.append(f"open={_jbool(c.is_open)}")
    out.append(f"closed={_jbool(c.is_closed)}")
    out.append(f"semiopen={_jbool(c.is_semiopen)}")
    if c.semiopen_witness is not None:
        out.append(f"semiopen-witness={json.dumps(c.semiopen_witness.to_literal())}")
    out.append(f"semiclosed={_jbool(c.is_semiclosed)}")
    if c.semiclosed_witness is not None:
        out.append(f"semiclosed-witness={json.dumps(c.semiclosed_witness.to_literal())}")
    return 0


def _cmd_setop(args, out: list[str]) -> int:
    t = _load_space_arg(args.space)
    g = _load_set_arg(t, args.set)
    if args.op == "closure":
        r = t.closure(g)
    elif args.op == "interior":
        r = t.interior(g)
    elif args.op == "sscl":
        r = sscl(t, g)
    else:
        r = ssint(t, g)
    lit = r.to_literal()
    if args.format == "json":
        out.append(json.dumps({args.op: lit}, indent=1))
    else:
        out.append(f"{args.op}={json.dumps(lit)}")
    return 0


def _cmd_axioms(args, out: list[str]) -> int:
    t = _load_space_arg(args.space)
    report = axiom_report(t, all_witnesses=args.witnesses)
    if args.format == "json":
        out.append(json.dumps(report.to_obj(), indent=1))
        return 0
    for name in AXIOM_NAMES:
        chk = report.get(name)
        out.append(f"{name}={_jbool(chk.holds)}")
        if not chk.holds:
            for w in chk.witnesses[: None if args.witnesses else 1]:
                out.append(f"  witness: {json.dumps(w, sort_keys=True)}")
        if chk.note:
            out.append(f"  note: {chk.note}")
    return 0


def _cmd_map_check(args, out: list[str]) -> int:
    obj = _read_json_arg(args.function, "function")
    base = "."
    if args.function.startswith("@"):
        base = os.path.dirname(args.function[1:]) or "."
    f, t_src, t_tgt = parse_function(obj, base_dir=base)
    cls = classify_map(f, t_src, t_tgt)
    if args.format == "json":
        rec = {
            "source": t_src.signature.key(),
            "target": t_tgt.signature.key(),
            "point_surjective": f.is_point_surjective,
            "param_surjective": f.is_param_surjective,
        }
        for name in cls.FLAGS:
            rec[name] = getattr(cls, name)
            w = cls.counterwitnesses.get(name)
            rec[f"{name}_counterwitness"] = None if w is None else w.to_literal()
        out.append(json.dumps(rec, indent=1))
        return 0
    out.append(f"source={t_src.signature.key()}")
    out.append(f"target={t_tgt.signature.key()}")
    out.append(f"surjective={_jbool(f.is_surjective)}")
    for name in cls.FLAGS:
        out.append(f"{name}={_jbool(getattr(cls, name))}")
        w = cls.counterwitnesses.get(name)
        if w is not None:
            out.append(f"  counterwitness: {json.dumps(w.to_literal())}")
    return 0


def _cmd_suite(args, out: list[str]) -> int:
    is_corpus_dir = os.path.isdir(args.target)
    if is_corpus_dir:
        corpus = import_corpus(args.target)
    else:
        corpus = Corpus([_load_space_arg(args.target)])
    ids = None
    if args.claims:
        ids = [c.strip() for c in args.claims.split(",") if c.strip()]
    result = run_claim_suite(
        corpus, claim_ids=ids, jobs=args.jobs, cross_triples=args.cross_triples,
        raise_on_asserted=False,
    )
    witness_root = args.witness_dir or (args.target if is_corpus_dir else None)
    if witness_root is not None:
        export_witnesses(result, witness_root)
    if args.format == "json":
        out.append(json.dumps(result.to_obj(), indent=1))
    else:
        out.append(format_suite(result).rstrip("\n"))
    if result.asserted_failures:
        names = ", ".join(d["claim"] for d in result.asserted_failures)
        raise InternalAssertionError(f"asserted-tier claims failed: {names}")
    return 0


def _cmd_gen(args, out: list[str]) -> int:
    if args.exhaustive:
        if args.count is not None or args.seed is not None or args.density is not None:
            raise LiteralError("--exhaustive does not take --count/--seed/--density")
        spec = CorpusSpec(mode="exhaustive", universe=args.universe, parameters=args.params)
    else:
        if args.count is None:
            raise LiteralError("random mode needs --count (or pass --exhaustive)")
        spec = CorpusSpec(
            mode="random",
            universe=args.universe,
            parameters=args.params,
            count=args.count,
            seed=args.seed if args.seed is not None else 0,
            density=args.density if args.density is not None else 0.3,
        )
    corpus = build_corpus(spec)
    fp = export_corpus(corpus, args.output)
    if args.format == "json":
        out.append(json.dumps(
            {"path": args.output, "instances": len(corpus), "fingerprint": fp}, indent=1
        ))
    else:
        out.append(f"path={args.output}")
        out.append(f"instances={len(corpus)}")
        out.append(f"fingerprint={fp}")
    return 0


def _cmd_replay(args, out: list[str]) -> int:
    bundle = load_witness_dir(args.witness_dir)
    reproduced = claims_mod.replay_witness(bundle)
    if args.format == "json":
        out.append(json.dumps(
            {"claim": bundle["claim"], "label": bundle["label"], "reproduced": reproduced},
            indent=1,
        ))
    else:
        out.append(f"claim={bundle['claim']}")
        out.append(f"label={bundle['label']}")
        out.append(f"reproduced={_jbool(reproduced)}")
    return 0 if reproduced else 1


# --- argument wiring ---------------------------------------------------------


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--no-banner", action="store_true")

    p = _Parser(prog="softtopo", description="Finite soft topological spaces: "
                "semiopen/semiclosed structure, maps, axioms, and a claim suite.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common], help="check the axioms of a space file")
    sp.add_argument("space")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("classify", parents=[common], help="open/closed/semiopen/semiclosed verdicts")
    sp.add_argument("space")
    sp.add_argument("--set", required=True)
    sp.set_defaults(fn=_cmd_classify)

    for op in ("closure", "interior", "sscl", "ssint"):
        sp = sub.add_parser(op, parents=[common], help=f"compute the {op} of a set")
        sp.add_argument("space")
        sp.add_argument("--set", required=True)
        sp.set_defaults(fn=_cmd_setop, op=op)

    sp = sub.add_parser("axioms", parents=[common], help="separation/connectedness/compactness flags")
    sp.add_argument("space")
    sp.add_argument("--witnesses", action="store_true", help="list every witness, not just the first")
    sp.set_defaults(fn=_cmd_axioms)

    sp = sub.add_parser("map-check", parents=[common], help="classify a soft function between two spaces")
    sp.add_argument("function")
    sp.set_defaults(fn=_cmd_map_check)

    sp = sub.add_parser("suite", parents=[common], help="run the claim suite over a corpus or space")
    sp.add_argument("target")
    sp.add_argument("--claims", default=None, help="comma-separated claim ids (default: all)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (at least 1, capped at the CPU count)")
    sp.add_argument("--cross-triples", type=int, default=48)
    sp.add_argument("--witness-dir", default=None)
    sp.set_defaults(fn=_cmd_suite)

    sp = sub.add_parser("gen", parents=[common], help="generate a corpus directory")
    sp.add_argument("--universe", type=int, required=True)
    sp.add_argument("--params", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--density", type=float, default=None)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("replay", parents=[common], help="re-run one witness bundle directory")
    sp.add_argument("witness_dir")
    sp.set_defaults(fn=_cmd_replay)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    out: list[str] = []
    code = 0
    try:
        args = _build_parser().parse_args(argv)
        if not args.no_banner:
            out.append(TOOL)
        code = args.fn(args, out)
    except SoftTopoError as exc:
        if out:
            sys.stdout.write("\n".join(out) + "\n")
        for cls, cat in _CATEGORY:
            if isinstance(exc, cls):
                sys.stderr.write(f"error: {cat}: {exc}\n")
                break
        return 3 if isinstance(exc, InternalAssertionError) else 2
    sys.stdout.write("\n".join(out) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
