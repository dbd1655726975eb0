"""Command-line interface.

Exit codes: 0 success / property holds, 1 counterexample or negative
answer, 2 usage error, 3 budget exceeded.  `malcev` prints, for a member,
the mu congruence that witnesses it and its quotient.
"""

import argparse
import json
import sys

from . import dk
from . import factorization as fz
from . import languages as lg
from . import malcev as mv
from . import semigroups as sg
from . import suites
from . import terms as tm
from .corpus import all_semigroups_upto, write_jsonl
from .errors import BudgetExceeded, FinsemiError
from .pseudovarieties import get_pseudovariety, load_pseudovariety, member


def _load_semigroup(path):
    with open(path) as fh:
        return sg.FiniteSemigroup.from_json_dict(json.load(fh))


def _load_word_or_term(spec):
    """An @file argument holds a term in the ASCII grammar; anything else
    is taken as a plain word."""
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return tm.parse_term(fh.read().strip())
    if any(c in spec for c in "^() "):
        return tm.parse_term(spec)
    return spec


def cmd_green(args):
    S = _load_semigroup(args.input)
    g = S.green()
    out = {
        "order": S.order,
        "r_classes": [sorted(c) for c in g.r_classes],
        "l_classes": [sorted(c) for c in g.l_classes],
        "j_classes": [sorted(c) for c in g.j_classes],
        "h_classes": [sorted(c) for c in g.h_classes],
        "regular_j": sorted(g.regular_j),
        "idempotents": sorted(S.idempotents()),
    }
    print(json.dumps(out, indent=2))
    return 0


def cmd_ident_check(args):
    S = _load_semigroup(args.input)
    pi = tm.parse_identity(args.id)
    ok, asg = tm.satisfies(S, pi, witness=True)
    print(json.dumps({"satisfies": ok, "witness": asg}))
    return 0 if ok else 1


def _load_pseudovariety(spec):
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            return load_pseudovariety(json.load(fh))
    return get_pseudovariety(spec)


def cmd_member(args):
    S = _load_semigroup(args.input)
    V = _load_pseudovariety(args.v)
    ok = member(S, V)
    print(json.dumps({"member": ok, "pseudovariety": V.name}))
    return 0 if ok else 1


def cmd_malcev(args):
    S = _load_semigroup(args.input)
    V = _load_pseudovariety(args.v)
    ok = mv.malcev_member(S, args.z, V)
    out = {"member": ok}
    if args.z not in mv.MEETS:
        out["mu_quotient_order"] = mv.mu_quotient(S, args.z).order
    witness = mv.mu_witness(S, args.z, V) if ok else None
    if witness is not None:
        c, Q = witness
        out["witness"] = {"classes": [sorted(x) for x in c.classes],
                          "quotient": Q.to_json_dict()}
    print(json.dumps(out))
    return 0 if ok else 1


def cmd_phi(args):
    u = _load_word_or_term(args.input)
    if isinstance(u, tm.Term):
        img = dk.phi_k_term(u, args.k)
        print(json.dumps({"kind": "term",
                          "image": tm.term_to_text(img) if img else None}))
    else:
        ww = dk.phi_k(u, args.k)
        print(json.dumps({"kind": "word", "blocks": ww.spelled()}))
    return 0


def cmd_ilbf(args):
    u = _load_word_or_term(args.input)
    if args.k is not None:
        u = fz.window_image(u if isinstance(u, tm.Term) else tm.word_term(u), args.k)
        if u is None:
            print(json.dumps({"error": "input not longer than k"}))
            return 2
    if isinstance(u, tm.Term):
        res = fz.ilbf_term(u, cap=args.cap)
        out = {"outcome": res.outcome,
               "factors": [[tm.term_to_text(x) if x else "", tm._sym_text(a)]
                           for x, a in res.factors],
               "remainder": tm.term_to_text(res.remainder) if res.remainder else ""}
    else:
        res = fz.ilbf(u)
        out = {"outcome": res.outcome,
               "factors": [["".join(x), a] for x, a in res.factors],
               "remainder": "".join(res.remainder)}
    print(json.dumps(out))
    return 0


def cmd_syn(args):
    d = lg.parse_regex(args.regex, alphabet=args.alphabet)
    syn = lg.syntactic_semigroup(d)
    print(json.dumps(syn.semigroup.to_json_dict()))
    return 0


def cmd_enumerate(args):
    corpus = all_semigroups_upto(args.max_order)
    if args.out:
        write_jsonl(corpus, args.out)
    counts = {}
    for S in corpus:
        counts[S.order] = counts.get(S.order, 0) + 1
    print(json.dumps({"counts": counts, "total": len(corpus)}))
    return 0


def cmd_verify_paper(args):
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    config = {"seed": args.seed, "max_order": args.max_order}
    reports = suites.run_all(config, names)
    for line in suites.report_lines(reports):
        print(line, file=sys.stderr)
    print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    p = argparse.ArgumentParser(prog="finsemi")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("green", help="Green's relation data of a semigroup")
    s.add_argument("--input", required=True)
    s.set_defaults(fn=cmd_green)

    s = sub.add_parser("ident-check", help="check one pseudoidentity")
    s.add_argument("--input", required=True)
    s.add_argument("--id", required=True)
    s.set_defaults(fn=cmd_ident_check)

    s = sub.add_parser("member", help="pseudovariety membership")
    s.add_argument("--v", required=True,
                   help="catalog name, or @file with a basis in JSON")
    s.add_argument("--input", required=True)
    s.set_defaults(fn=cmd_member)

    s = sub.add_parser("malcev", help="Mal'cev product membership Z m V")
    s.add_argument("--z", required=True, choices=list(mv.V_SET))
    s.add_argument("--v", required=True)
    s.add_argument("--input", required=True)
    s.set_defaults(fn=cmd_malcev)

    s = sub.add_parser("phi", help="window image of a word or term")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--input", required=True,
                   help="a word, a term, or @file with a term")
    s.set_defaults(fn=cmd_phi)

    s = sub.add_parser("ilbf", help="iterated left basic factorization")
    s.add_argument("--input", required=True)
    s.add_argument("--k", type=int, default=None,
                   help="factorize the window image at this k instead")
    s.add_argument("--cap", type=int, default=60)
    s.set_defaults(fn=cmd_ilbf)

    s = sub.add_parser("syn", help="syntactic semigroup of a regex")
    s.add_argument("--regex", required=True)
    s.add_argument("--alphabet", default=None)
    s.set_defaults(fn=cmd_syn)

    s = sub.add_parser("enumerate", help="enumerate small semigroups")
    s.add_argument("--max-order", type=int, default=4)
    s.add_argument("--out", default=None, help="write JSONL corpus here")
    s.set_defaults(fn=cmd_enumerate)

    s = sub.add_parser("verify-paper", help="run the verification suites")
    s.add_argument("--suite", default="all")
    s.add_argument("--max-order", type=int, default=4)
    s.set_defaults(fn=cmd_verify_paper)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # a corpus of no semigroups would pass every check vacuously
    if getattr(args, "max_order", 1) < 1:
        parser.error(f"--max-order must be at least 1, got {args.max_order}")
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (FinsemiError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
