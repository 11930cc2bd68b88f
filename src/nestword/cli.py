"""Command-line front end.

Subcommands: build a recognizer from a group spec, check a word against a
serialized automaton, annotate a plain word with its canonical tagging,
enumerate accepted words, compose closure operations, and run the
brute-force group oracle.

Exit codes: 0 accept, identity or success; 1 reject or not identity; 2
any bad input (an unreadable or invalid file, a bad token, a letter
outside the alphabet, a refused option), with one `error:` line and no
traceback.  An unreadable `build --group` file and a failed `--out` write
exit 1.  Commands raise; `main` alone maps a ValueError (each input error
of the library is one) to 2 and an `_Exit` to its own code.  A reader that
closes standard output early (`nestword enum ... | head -1`) ends the
command with exit 1, no further output and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import closures, groups, serialize
from .machines import (
    Fsa,
    Nvpa,
    Vpa,
    fsa_run,
    machine_accepts,
    vpa_run,
)
from .words import (
    Tag,
    all_plain_words,
    all_tagged_words,
    check_letter,
    format_word,
    parse_plain,
    parse_word,
)

ENUM_CAP_DEFAULT = 8


class _Exit(Exception):
    """_Exit(message, code): `main` prints message as one error line and
    returns code."""


def _load(path: str, what: str, parse, io_code: int = 2):
    """parse of the strict JSON value (serialize.parse_json) in the file at
    path.  An unreadable file exits io_code, an invalid one 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(serialize.parse_json(fh.read()))
    except (OSError, ValueError) as exc:
        raise _Exit(f"cannot load {what}: {exc}", io_code if isinstance(exc, OSError) else 2) from None


def _load_runnable(path: str):
    """The FSA, VPA or NVPA in the file at path, for a command to read and
    print words of, refused unless its letters are token letters."""
    machine = _load(path, "automaton", serialize.from_doc)
    for letter in machine.alphabet:
        check_letter(letter)
    return machine


def _word(text: str, machine) -> tuple:
    """The tagged word in text, refused whole if any letter is outside the
    machine's alphabet, so the verdict never depends on where it sits."""
    word = parse_word(text)
    alphabet = set(machine.alphabet)
    for sym in word:
        if sym.base not in alphabet:
            raise ValueError(f"letter {sym.base!r} not in alphabet")
    return word


# ---------------------------------------------------------------------------
# commands


def cmd_build(args) -> int:
    spec = _load(args.group, "group spec", groups.group_spec_from_doc, io_code=1)
    machine = groups.build_recognizer(spec).automaton
    try:
        serialize.save(machine, args.out)
    except OSError as exc:
        raise _Exit(f"cannot write {args.out}: {exc}", 1) from None
    stack_size = len(machine.stack_alphabet) if hasattr(machine, "stack_alphabet") else 0
    print("rho contract: bijection")
    print(f"states: {len(machine.states)}")
    print(f"stack symbols: {stack_size}")
    return 0


def cmd_check(args) -> int:
    machine = _load_runnable(args.automaton)
    word = _word(" ".join(args.tokens), machine)
    if (
        isinstance(machine, (Vpa, Nvpa))
        and word
        and all(s.tag == Tag.INTERNAL for s in word)
        and not args.internal
    ):
        raise ValueError(
            "plain word given to a VPA; run `annotate` to tag it "
            "(or pass --internal to mean internal symbols)"
        )
    if args.trace and not isinstance(machine, Nvpa):
        result = vpa_run(machine, word, record_trace=True)
        for config in result.trace:
            stack = " ".join(str(s) for s in config.stack)
            rest = format_word(config.remaining)
            print(f"state={config.state!r} remaining={rest} stack=[{stack}]")
        if result.reason:
            print(f"note: {result.reason}")
        accepted = result.accepted
    else:
        if args.trace:
            print("note: --trace is not available for nondeterministic machines")
        accepted = machine_accepts(machine, word)
    print("accept" if accepted else "reject")
    return 0 if accepted else 1


def cmd_annotate(args) -> int:
    spec = _load(args.group, "group spec", groups.group_spec_from_doc)
    tagged = groups.annotate_word(spec, parse_plain(" ".join(args.tokens)))
    if tagged is None:
        print("not identity")
        return 1
    print(format_word(tagged))
    return 0


def cmd_enum(args) -> int:
    if args.max_len < 0:
        raise ValueError(f"--max-len {args.max_len} is negative")
    if args.max_len > args.cap:
        raise ValueError(f"--max-len {args.max_len} exceeds cap {args.cap}")
    machine = _load_runnable(args.automaton)
    if isinstance(machine, Fsa):
        for word in all_plain_words(sorted(machine.alphabet), args.max_len):
            if fsa_run(machine, word):
                print(" ".join(word) if word else "ε")
    else:
        for tw in all_tagged_words(machine.alphabet, args.max_len):
            if machine_accepts(machine, tw):
                print(format_word(tw))
    return 0


_UNARY_OPS = {"complement", "star", "reverse", "prefix"}
_BINARY_OPS = {"union", "intersection", "concat", "shuffle", "relabel"}


def _closure_result(op: str, machines: list):
    if op in _BINARY_OPS and len(machines) != 2:
        raise ValueError(f"{op} takes two inputs")
    if op in _UNARY_OPS and len(machines) != 1:
        raise ValueError(f"{op} takes one input")
    kinds = tuple(type(m) for m in machines)
    if op == "shuffle":
        if kinds != (Vpa, Fsa):
            raise ValueError("shuffle takes a VPA and an FSA, in that order")
        return closures.shuffle(machines[0], machines[1])
    if op == "relabel":
        if kinds != (Vpa, Fsa):
            raise ValueError("relabel takes a VPA and a pair FSA, in that order")
        phi = closures.Relabeling(machines[1])
        return closures.relabel_image(machines[0], phi)
    if all(k is Fsa for k in kinds):
        table = {
            "union": closures.reg_union,
            "intersection": closures.reg_intersection,
            "complement": closures.reg_complement,
            "concat": closures.reg_concat,
            "star": closures.reg_star,
            "reverse": closures.reg_reverse,
            "prefix": closures.reg_prefix,
        }
        return table[op](*machines)
    if all(k is Vpa for k in kinds):
        table = {
            "union": closures.vpl_union,
            "intersection": closures.vpl_intersection,
            "complement": closures.vpl_complement,
            "concat": closures.vpl_concat,
            "star": closures.vpl_star,
            "reverse": closures.vpl_reverse,
        }
        if op not in table:
            raise ValueError(f"{op} on a VPA needs --word (membership query)")
        return table[op](*machines)
    raise ValueError(f"{op} does not apply to {[k.__name__ for k in kinds]}")


def cmd_closure(args) -> int:
    machines = [_load(path, "input", serialize.from_doc) for path in args.inputs]
    if args.word is not None:
        if args.op != "prefix" or len(machines) != 1 or not isinstance(machines[0], Vpa):
            raise ValueError("--word needs --op prefix and a single VPA input")
        member = closures.PrefixDecider(machines[0]).member(_word(args.word, machines[0]))
        print("accept" if member else "reject")
        return 0 if member else 1
    result = _closure_result(args.op, machines)
    deterministic = isinstance(result, (Fsa, Vpa))
    text = serialize.dumps(result)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Exit(f"cannot write {args.out}: {exc}", 1) from None
        print(f"deterministic: {'yes' if deterministic else 'no'}")
    else:
        sys.stdout.write(text)
        print(f"deterministic: {'yes' if deterministic else 'no'}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    spec = _load(args.group, "group spec", groups.group_spec_from_doc)
    trivial = groups.is_identity(spec, parse_plain(" ".join(args.tokens)))
    print("identity" if trivial else "not identity")
    return 0 if trivial else 1


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage writes raise.  argparse drops
    an OSError from them, so with unbuffered stdout a closed pipe would end
    `--help` with exit 0 and nothing written; raised, it reaches `main`'s
    broken-pipe exit.  add_subparsers makes every subparser of this class."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nestword",
        description="nested words, visibly pushdown automata, and group word problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="compile a group spec into a recognizer")
    p.add_argument("--group", required=True, help="group spec JSON file")
    p.add_argument("--out", required=True, help="output automaton JSON file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="run a word against a serialized automaton")
    p.add_argument("--automaton", required=True)
    p.add_argument("--trace", action="store_true", help="print the configuration sequence")
    p.add_argument(
        "--internal",
        action="store_true",
        help="treat an untagged word as internal symbols instead of erroring",
    )
    p.add_argument("tokens", nargs="*", help="word tokens (<a call, a> return, a internal)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("annotate", help="canonically tag a plain word")
    p.add_argument("--group", required=True)
    p.add_argument("tokens", nargs="*")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("enum", help="list accepted words up to a length")
    p.add_argument("--automaton", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--cap", type=int, default=ENUM_CAP_DEFAULT)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("closure", help="apply a closure operation to automata")
    p.add_argument(
        "--op",
        required=True,
        choices=sorted(_UNARY_OPS | _BINARY_OPS),
    )
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.add_argument("--word", help="membership query for `prefix` on a VPA")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("oracle", help="brute-force identity check (no automata)")
    p.add_argument("--group", required=True)
    p.add_argument("tokens", nargs="*")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # --help or a usage error: its text is buffered
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe is met here rather than at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again on exit: point it at devnull first, so
        # that flush writes nothing and reports no second broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _Exit as exc:
        message, code = exc.args
    except ValueError as exc:
        message, code = str(exc), 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
