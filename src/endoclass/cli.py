"""Command-line interface.

One binary, subcommand style:

  fields     describe a field and list its elements
  enumerate  list endo-commutative S-forms of one type bucket
  iso        decide isomorphism of two S-forms, printing a witness
  equiv      decide a relation on K*, print a representative system,
             or run the bounded refutation search over F2(X)
  classes    isomorphism partition of the type-II1 algebras
  verify     match the predicted families against the partition
  table      render the 2x2 multiplication table of an S-form

JSON is the canonical machine format (schema documented in README.md);
every JSON document carries a "version" field.  Exit codes: 0 for
success or a positive decision, 1 for a negative decision (not
isomorphic, not related, no witness, failed verdict), 2 for usage
errors, 141 when the reader of stdout goes away (a closed pipe).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from types import GeneratorType

from . import __version__
from .algebra import (SParams, is_endo_commutative_straight, multiplication_table_text,
                      pattern_type, rank)
from .classify import (_TYPE_ALIASES, enumerate_type, enumerate_type_ii1, iso_classes,
                       verify_classification)
from .equiv import (MAX_DEGREE_BOUND, RelationId, UnsupportedRelation,
                    bounded_refutation_search, related, rep_system)
from .fields import Field, FieldError, RationalFunctionField2, _echo, field_from_spec
from .iso import are_isomorphic


_PIECE = 1 << 16  # characters per write: a pipe holds 64 KiB


def _emit_json(obj: dict) -> None:
    """Write obj and a "version" key as `json.dumps(obj, sort_keys=True,
    indent=2)` does, then a newline, through `_write`.

    A top-level value may be a generator that yields its own text,
    already indented as a top-level value (see `_classes_json`); then
    each top-level value is written on its own, the others encoded and
    indented one level."""
    obj = {**obj, "version": __version__}
    if not any(isinstance(value, GeneratorType) for value in obj.values()):
        _write([json.dumps(obj, sort_keys=True, indent=2), "\n"])
        return

    def pieces():
        sep = "{\n"
        for key in sorted(obj):
            value = obj[key]
            yield f"{sep}  {json.dumps(key)}: "
            if isinstance(value, GeneratorType):
                yield from value
            else:
                yield json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
            sep = ",\n"
        yield "\n}\n"

    _write(pieces())


def _write(pieces) -> None:
    """Write the text of `pieces` to stdout in whole pieces of _PIECE
    characters, and the rest at the end.

    A stdout with a binary buffer gets the bytes, and a short write is
    followed by another from where it stopped: under PYTHONUNBUFFERED
    the buffer is the raw file, whose short write the text layer would
    drop, exiting 0 with the output cut."""
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        write = sys.stdout.write
    else:
        sys.stdout.flush()

        def write(text):
            data = memoryview(text.encode())
            while data:
                data = data[binary.write(data):]
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _PIECE:
            text = "".join(held)
            whole = len(text) - len(text) % _PIECE
            for start in range(0, whole, _PIECE):
                write(text[start:start + _PIECE])
            held, size = [text[whole:]], len(text) - whole
    write("".join(held))


def _classes_json(field: Field, classes) -> Iterator[str]:
    """The text of `[c.to_json(i) for i, c in enumerate(classes)]` as a
    top-level value of `_emit_json`, formatted from the codes of the
    classes and the JSON strings of the field's elements, a few hundred
    members at a time."""
    if not classes:
        yield "[]"
        return
    quoted = [json.dumps(s) for s in field.element_strings()]

    def sform(indent):
        # %-format of SParams.to_json() at `indent`, sorted keys a, b, c, d, p, q
        keys = ",\n".join(f'{indent}  "{k}": %s' for k in "abcdpq")
        return f"{{\n{keys}\n{indent}}}"

    member, representative = " " * 8 + sform(" " * 8), sform(" " * 6)
    sep = "[\n"
    for i, cls in enumerate(classes):
        codes = cls.member_codes
        yield f'{sep}    {{\n      "index": {i},\n      "members": [\n'
        for start in range(0, len(codes), 256):
            yield (",\n" if start else "") + ",\n".join(
                member % (quoted[a], quoted[b], quoted[c], quoted[d], quoted[p], quoted[q])
                for p, q, a, b, c, d in codes[start:start + 256])
        p, q, a, b, c, d = codes[0]
        rep = representative % (quoted[a], quoted[b], quoted[c], quoted[d], quoted[p], quoted[q])
        yield f'\n      ],\n      "representative": {rep},\n      "size": {len(codes)}\n    }}'
        sep = ",\n"
    yield "\n  ]"


def _parse_sparams(field: Field, text: str) -> SParams:
    text = text.strip()
    if text.startswith(("{", "[")):
        obj = json.loads(text)
        if not (isinstance(obj, dict) and all(isinstance(obj.get(k), str) for k in "pqabcd")):
            raise FieldError("a JSON S-tuple must be an object with string values "
                             f"for p, q, a, b, c and d, got {_echo(text)}")
        return SParams.from_json(field, obj)
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 6:
        raise FieldError(f"expected 6 comma-separated values or a JSON object, got {_echo(text)}")
    return SParams(*(field.parse(p) for p in parts))


def cmd_fields(args) -> int:
    field = field_from_spec(args.field)
    desc = field.descriptor
    obj: dict = {"spec": field.spec_string(), "kind": desc.kind,
                 "characteristic": field.characteristic(),
                 "order": field.order()}
    if desc.p is not None:
        obj["p"] = desc.p
    if desc.k is not None:
        obj["k"] = desc.k
    if field.is_finite:
        obj["elements"] = field.element_strings()
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "tsv":
        if field.is_finite:
            for code, text in enumerate(obj["elements"]):
                print(f"{code}\t{text}")
        else:
            print(f"{obj['spec']}\tinfinite")
    else:
        print(f"{obj['spec']}: characteristic {obj['characteristic']}, "
              f"order {obj['order'] if obj['order'] else 'infinite'}")
        if field.is_finite:
            print("elements:", ", ".join(obj["elements"]))
    return 0


def cmd_enumerate(args) -> int:
    field = field_from_spec(args.field)
    tuples = enumerate_type(field, args.type, args.subclass)
    if args.format == "json":
        _emit_json({"field": field.spec_string(), "type": args.type,
                    "subclass": args.subclass,
                    "algebras": [sp.to_json() for sp in tuples]})
    else:  # tsv is the natural default here; text matches it
        print("p\tq\ta\tb\tc\td")
        for sp in tuples:
            print("\t".join(map(str, sp)))
    return 0


def cmd_iso(args) -> int:
    field = field_from_spec(args.field)
    lhs = _parse_sparams(field, args.lhs)
    rhs = _parse_sparams(field, args.rhs)
    witness = are_isomorphic(lhs.to_structure_matrix(), rhs.to_structure_matrix())
    if args.format == "json":
        _emit_json({"field": field.spec_string(), "lhs": lhs.to_json(),
                    "rhs": rhs.to_json(), "isomorphic": witness is not None,
                    "witness": witness.to_json() if witness else None})
    else:
        print(str(witness) if witness else "not isomorphic")
    return 0 if witness else 1


def cmd_equiv(args) -> int:
    if args.degree_bound is not None and args.test is None:
        raise FieldError("--degree-bound only applies to --test T T2")
    field = field_from_spec(args.field)
    rel = RelationId(args.relation)
    if args.reps:
        system = rep_system(rel, field)
        if args.format == "json":
            _emit_json(system.to_json())
        else:
            for rep in system.representatives:
                print(field.format(rep))
        return 0
    if args.test is None:
        raise FieldError("equiv needs either --reps or --test T T'")
    t = field.parse(args.test[0])
    t2 = field.parse(args.test[1])
    if args.degree_bound is not None:
        witness = bounded_refutation_search(field, rel, t, t2, args.degree_bound)
        if args.format == "json":
            _emit_json({"field": field.spec_string(), "relation": rel.value,
                        "t": str(t), "t2": str(t2),
                        "degree_bound": args.degree_bound,
                        "witness": str(witness) if witness is not None else None})
        else:
            print(f"witness found ({witness})" if witness is not None
                  else f"no witness up to bound {args.degree_bound}")
        return 0 if witness is not None else 1
    if isinstance(field, RationalFunctionField2) and rel in (RelationId.SIM2, RelationId.SIM4):
        # `related` names the library's search; point at the option instead
        raise UnsupportedRelation(
            f"{rel.value} over F2(X) is undecidable here; add --degree-bound N "
            f"(N at most {MAX_DEGREE_BOUND}) for a bounded refutation search")
    ok, witness = related(rel, field, t, t2)
    if args.format == "json":
        if isinstance(witness, tuple):
            wit_json = [str(w) for w in witness]
        else:
            wit_json = str(witness) if witness is not None else None
        _emit_json({"field": field.spec_string(), "relation": rel.value,
                    "t": str(t), "t2": str(t2), "related": ok, "witness": wit_json})
    else:
        if ok and isinstance(witness, tuple):
            print(f"related, witness ({', '.join(str(w) for w in witness)})")
        elif ok:
            print(f"related, witness {witness}")
        else:
            print("not related")
    return 0 if ok else 1


def cmd_classes(args) -> int:
    field = field_from_spec(args.field)
    partition = iso_classes(enumerate_type_ii1(field))
    if args.format == "json":
        _emit_json({"field": field.spec_string(), "classes": _classes_json(field, partition)})
    else:
        print(f"{len(partition)} classes over {field.spec_string()}")
        for i, c in enumerate(partition):
            print(f"[{i}] {c.representative}  size {len(c.member_codes)}")
    return 0


def cmd_verify(args) -> int:
    field = field_from_spec(args.field)
    report = verify_classification(field)
    if args.format == "json":
        _emit_json({**report._json_without_classes(),
                    "classes": _classes_json(field, report.classes)})
        print(report.summary_text(), file=sys.stderr)
    else:
        print(report.summary_text())
    return 0 if report.verdict else 1


def cmd_table(args) -> int:
    field = field_from_spec(args.field)
    sp = _parse_sparams(field, args.algebra)
    matrix = sp.to_structure_matrix()
    ec = is_endo_commutative_straight(sp)
    tp = pattern_type(sp).value if ec else None
    if args.format == "json":
        _emit_json({"field": field.spec_string(), "params": sp.to_json(),
                    "table": multiplication_table_text(matrix),
                    "rank": rank(matrix), "endo_commutative": ec, "type": tp})
    else:
        print(multiplication_table_text(matrix))
        print(f"rank {rank(matrix)}, endo-commutative: {'yes' if ec else 'no'}"
              + (f", type {tp}" if tp else ""))
    return 0


class _UsageError(Exception):
    """argparse refused the command line; the usage text and error line
    are already on stderr."""


class _Parser(argparse.ArgumentParser):
    """Reports a refused command line as argparse does, then lets `main`
    return 2 instead of exiting (subparsers inherit the class).  The
    top-level parser keeps each command's parser in `commands`."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    """The full argument parser, built on the first call and shared after it.

    `main` calls this on every invocation, so in-process callers pay for
    the argparse tree once; `commands` maps each command name to its own
    parser.  Each parse returns a fresh namespace; do not add arguments
    to the returned parser, since every later `main` call sees them.
    """
    parser = _Parser(
        prog="endoclass",
        description="classification toolkit for 2-dimensional endo-commutative straight algebras")
    parser.add_argument("--version", action="version", version=f"endoclass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, fmt_default="json"):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--field", required=True,
                       help='field spec: "F5", "F2^2/x^2+x+1", "F9", "Q", "F2(X)"')
        p.add_argument("--format", choices=("json", "tsv", "text"), default=fmt_default)
        p.set_defaults(func=func)
        return p

    add("fields", cmd_fields, "describe a field and list its elements")

    p = add("enumerate", cmd_enumerate, "list endo-commutative S-forms of one type",
            fmt_default="tsv")
    p.add_argument("--type", default="II1", choices=tuple(_TYPE_ALIASES))
    p.add_argument("--subclass", type=int, choices=(1, 2, 3, 4))

    p = add("iso", cmd_iso, "decide isomorphism of two S-forms")
    p.add_argument("--lhs", required=True, help="SParams as JSON or 6 comma-separated values")
    p.add_argument("--rhs", required=True, help="SParams as JSON or 6 comma-separated values")

    p = add("equiv", cmd_equiv, "relations on K*: decide, or list representatives")
    p.add_argument("--relation", required=True,
                   choices=[r.value for r in RelationId])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--reps", action="store_true", help="print the representative system")
    mode.add_argument("--test", nargs=2, metavar=("T", "T2"), help="decide T ~ T2")
    p.add_argument("--degree-bound", type=int,
                   help="bounded refutation search over F2(X) for sim2/sim4")

    add("classes", cmd_classes, "isomorphism partition of the type-II1 algebras")
    add("verify", cmd_verify, "verify the predicted families against the partition")

    p = add("table", cmd_table, "render the 2x2 multiplication table", fmt_default="text")
    p.add_argument("--algebra", required=True,
                   help="SParams as JSON or 6 comma-separated values")

    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` returns, parsing argv once.

    The top-level parser hands everything after the command name to the
    command's parser and only reports what that leaves over, so a line
    that starts with a command goes straight to the command's parser.
    Every other line (empty, an option first, an unknown command) takes
    the full parser.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` when argv is None) and return
    its exit code; `--help` and `--version` exit through SystemExit."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError:
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (as `| head` does): say nothing, and keep the
        # interpreter's final flush from raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (FieldError, ValueError) as exc:
        print(f"endoclass: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
