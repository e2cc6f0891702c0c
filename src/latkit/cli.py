"""Command-line surface.

Reads poset, map, and rule files (JSON), runs the analyses, and prints
reports as JSON (machine format), text (human tables), or DOT (Hasse
diagrams of the poset, the closure-system lattice, or the nucleus
lattice).

Exit codes: 0 success; 1 bad input; 2 enumeration cap exceeded (re-run
with --force or a larger --cap); 3 internal invariant violation, which
means a bug in this package and is reported loudly.

Output is byte-deterministic for fixed inputs and flags: element order
is input order everywhere, no timestamps, fixed JSON indentation.

This module reads a request, dispatches it and writes the report; the
commands are declared in latkit.commands and the files read by
latkit.loaders.
"""

import errno
import functools
import os
import stat
import sys
from json.encoder import encode_basestring

from .commands import _BAD, _CLI, _HELP, _Arg, _Group
from .errors import CapExceeded, InputError, ParseError, TheoremBreach
from .loaders import load_map, load_poset, load_rules  # noqa: F401 (re-exported)


# ---------------------------------------------------------------------------
# reports


def _report_json(obj, nl="\n") -> str:
    """json.dumps(obj, indent=2, ensure_ascii=False), byte for byte,
    for the types a payload holds: dicts with str keys, lists, tuples,
    str, int, bool and None.  Any other type raises TypeError.  `nl` is
    a newline and the indent of obj's own line.

    json.dumps with an indent encodes through a generator per level in
    pure Python; here each container is one call, and each string one
    call of json's C string encoder."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(encode_basestring(k) + ": " + (
                encode_basestring(v) if type(v) is str else _report_json(v, inner)
            ))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            encode_basestring(v) if type(v) is str else _report_json(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_report(report: str, output) -> None:
    """Write the report to the --output file, or else to stdout: the
    same UTF-8 bytes either way.  Surrogate escapes, which only a file
    name the file system could not decode puts in a report, go back to
    their bytes."""
    data = report.encode("utf-8", "surrogateescape")
    if output:
        try:
            with open(output, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise InputError(f"{output}: {e.strerror or e}") from e
        return
    try:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        raise
    except OSError as e:
        # a full disk or another write error: stdout goes to the null
        # device, so that the bytes left in its buffer do not fail again
        # in the interpreter's last flush
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise InputError(f"{sys.stdout.name}: {e.strerror or e}") from e


def _check_destination(output) -> None:
    """Raise, before any work, the error that opening a new --output
    file would raise in a directory that is missing or not writable;
    an existing file was checked by _writable_file.  Nothing is
    created, so a command that fails leaves no file behind."""
    if os.path.exists(output):
        return
    parent = os.path.dirname(output) or "."
    try:
        st = os.stat(parent)
    except OSError as e:
        raise InputError(f"{output}: {e.strerror or e}") from e
    if not stat.S_ISDIR(st.st_mode):
        raise InputError(f"{output}: {os.strerror(errno.ENOTDIR)}")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise InputError(f"{output}: {os.strerror(errno.EACCES)}")


def _err(*lines) -> None:
    sys.stderr.write("".join(line + "\n" for line in lines))
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# caps


def _cap_value(cap, force, size):
    """Resolve the effective cap: --force lifts it to the input's size,
    --cap wins otherwise, then LATKIT_CAP, then library defaults."""
    if force:
        return max(size, 1)
    if cap is not None:
        return cap
    env = os.environ.get("LATKIT_CAP")
    if env is not None and env != "":
        try:
            v = int(env)
        except ValueError:
            raise ParseError(f"LATKIT_CAP must be an integer, got {env!r}")
        if v < 1:
            raise ParseError(f"LATKIT_CAP must be at least 1, got {env!r}")
        return v
    return None


# ---------------------------------------------------------------------------
# entry point
#
# latkit reads a request itself, over the declaration table, the way
# click's parser reads it, and writes the report itself.  It runs no
# click code unless the request asks for a help page or holds a usage
# error: then click's command tree is built from the table and click
# writes the page or the message.  A cold process (a shell's request,
# or a forked server's) pays neither click's import nor its parameter
# objects: in a child forked after `import latkit.cli` on a shared
# 2-vCPU VM, `validate` on a 4-element poset took 3.4-4.2 ms and about
# 620 minor page faults with the declarations in click and the report
# written by click.echo, and 2.5-2.7 ms and about 480 faults here.


class _Usage(Exception):
    """A usage error, found without click.  `make(click, ctx)` builds
    click's own exception for it, given the Context of the command it
    names."""

    def __init__(self, make):
        self.make = make


def _read(cmd, args):
    """Read args over cmd's options as click's parser does: `--opt v`,
    `--opt=v`, `-xv`, `-x v`, flags, `--`, and options between
    arguments where cmd allows them (a group stops at its first
    argument).  A repeated option keeps its last value and its first
    place.  Returns the given values by option, in the order first
    given, and the positional tokens.

    The commands declare flags and one-value options only.  The one
    short name, tarski's -x/--start, takes a value, so no token bundles
    short flags (-ab), which this reader does not split; an argument
    that takes many values comes last."""
    given, plain = {}, []
    i = 0
    while i < len(args):
        arg = args[i]
        i += 1
        if arg == "--":
            return given, plain + args[i:]
        if arg[:1] != "-" or len(arg) == 1:
            if not cmd.interspersed:
                return given, args[i - 1:]
            plain.append(arg)
            continue
        name, eq, value = arg.partition("=")
        p = cmd.long.get(name)
        if p is None:
            if arg[1] == "-":
                raise _Usage(
                    lambda click, ctx: click.NoSuchOption(name, possibilities=cmd.long)
                )
            # a short option takes the rest of its token: -x1 is -x 1
            name, eq, value = arg[:2], len(arg) > 2, arg[2:]
            p = cmd.short.get(name)
            if p is None:
                raise _Usage(lambda click, ctx: click.NoSuchOption(name))
        if p is _HELP or p.is_flag:
            if eq:
                raise _Usage(lambda click, ctx: click.BadOptionUsage(
                    name, f"Option {name!r} does not take a value."
                ))
            value = True
        elif not eq:
            if i == len(args):
                raise _Usage(lambda click, ctx: click.BadOptionUsage(
                    name, f"Option {name!r} requires an argument."
                ))
            value = args[i]
            i += 1
        given[p] = value
    return given, plain


def _values(cmd, given, plain):
    """The command's keyword arguments: the given values converted in
    the order given, then the positionals bound in order, then the
    defaults; the first fault raises, as click orders them."""
    params = {}
    for p, value in given.items():
        if p.type is not None:
            read = p.type.read(value)
            if read is _BAD:
                raise _Usage(lambda click, ctx: _refused(click, ctx, p.name, value))
            value = read
        params[p.name] = value
    k = 0
    for a in cmd.args:
        if a.nargs == -1:
            value = tuple(plain[k:])
            k = len(plain)
        elif k < len(plain):
            value = plain[k]
            k += 1
        else:
            value = None
        if a.required and value in (None, ()):
            raise _Usage(
                lambda click, ctx: click.MissingParameter(param=_param(ctx, a.name))
            )
        params[a.name] = value
    extra = plain[k:]
    if extra:
        many = "s" if len(extra) > 1 else ""
        raise _Usage(lambda click, ctx: click.UsageError(
            f"Got unexpected extra argument{many} ({' '.join(extra)})"
        ))
    for p in cmd.opts:
        params.setdefault(p.name, p.default)
    return params


def _run(cmd, poset_file, fmt, output, **kw):
    """Load the poset, run the command's body and write its report."""
    P = load_poset(poset_file)
    if cmd.capped:
        kw["cap"] = _cap_value(kw["cap"], kw.pop("force"), P.n)
    if output:
        _check_destination(output)
    payload, text, dot = cmd.body(P, **kw)
    if fmt == "json":
        report = _report_json(payload) + "\n"
    elif fmt == "text":
        report = text(payload)
    elif dot is None:
        raise InputError(
            f"'{cmd.path}' has no dot view; use --format json or text"
        )
    else:
        report = dot()
    _write_report(report, output)


# ---------------------------------------------------------------------------
# click, for help pages and usage errors


def _click_tree():
    """The click command tree the table declares: the help pages, the
    Contexts a usage error names, and (in the tests) click's own
    parser."""
    import click

    def param(p):
        if isinstance(p, _Arg):
            return click.Argument(
                (p.name,), metavar=p.metavar, nargs=p.nargs, required=p.required
            )
        return click.Option(
            (*p.flags, p.name),
            is_flag=p.is_flag,
            default=p.default,
            type=p.type and p.type.click_type(click),
            help=p.help,
            show_default=p.show_default,
        )

    def group(g):
        commands = {
            sub: group(c) if isinstance(c, _Group) else click.Command(
                sub,
                callback=functools.partial(_run, c),
                params=[param(p) for p in c.params],
                help=c.help,
            )
            for sub, c in g.commands.items()
        }
        return click.Group(g.name, commands=commands, help=g.help)

    return group(_CLI)


def _context(path):
    """The click.Context chain of a command path."""
    import click

    ctx = None
    cmd = _click_tree()
    for name in path:
        if ctx is not None:
            cmd = cmd.commands[name]
        ctx = click.Context(cmd, info_name=name, parent=ctx)
    return ctx


def _param(ctx, name):
    return next(p for p in ctx.command.params if p.name == name)


def _refused(click, ctx, name, value):
    """click's BadParameter for a value latkit's converter refused,
    raised by the click type the table declares."""
    param = _param(ctx, name)
    try:
        param.type.convert(value, param, None)
    except click.BadParameter as e:
        return e
    raise TheoremBreach(
        f"latkit refused {value!r} for {param.opts[0]}, which click accepts"
    )


def _help(path) -> int:
    import click

    ctx = _context(path)
    click.echo(ctx.get_help(), color=ctx.color)
    return 0


def _usage(path, make) -> int:
    """Write a usage error as click writes it, on the Context of the
    command it names.  Exit 1: click's 2 would collide with the
    cap-exceeded code, so bad usage maps to 1 like bad input."""
    import click

    ctx = _context(path)
    e = make(click, ctx)
    if e.ctx is None:
        e.ctx = ctx
    click.echo(f"error: {e.format_message()}", err=True)
    return 1


def _dispatch(args) -> int:
    """Resolve the command path, read its parameters and run it."""
    path = ["latkit"]
    cmd = _CLI
    try:
        while True:
            if not args and isinstance(cmd, _Group):
                raise _Usage(lambda click, ctx: click.exceptions.NoArgsIsHelpError(ctx))
            given, plain = _read(cmd, args)
            if _HELP in given:
                return _help(path)
            if not isinstance(cmd, _Group):
                break
            if not plain:
                raise _Usage(lambda click, ctx: click.UsageError("Missing command."))
            name, args = plain[0], plain[1:]
            sub = cmd.commands.get(name)
            if sub is None:
                # a name that looks like an option is read as the
                # group's own again, as click does: `latkit -- --help`
                if name[:1] == "-" and _HELP in _read(cmd, plain)[0]:
                    return _help(path)
                names = list(cmd.commands)
                raise _Usage(lambda click, ctx: click.exceptions.NoSuchCommand(
                    name, possibilities=names
                ))
            path.append(name)
            cmd = sub
        params = _values(cmd, given, plain)
    except _Usage as e:
        return _usage(path, e.make)
    _run(cmd, **params)
    return 0


def main(argv=None) -> int:
    """Run the CLI, mapping error families to stable exit codes."""
    try:
        return _dispatch(sys.argv[1:] if argv is None else list(argv))
    except (EOFError, KeyboardInterrupt):
        _err("", "aborted")
        return 1
    except BrokenPipeError:
        # the reader of the report went away (`latkit ... | head`); the
        # interpreter's last flush must not fail again
        from click.utils import PacifyFlushWrapper

        sys.stdout = PacifyFlushWrapper(sys.stdout)
        sys.stderr = PacifyFlushWrapper(sys.stderr)
        return 1
    except ParseError as e:
        _err(f"parse error: {e}")
        return 1
    except InputError as e:
        _err(f"input error: {e}")
        return 1
    except CapExceeded as e:
        _err(
            f"cap exceeded: {e}",
            "re-run with --force or a larger --cap to proceed "
            "(may be very slow, never unsound)",
        )
        return 2
    except TheoremBreach as e:
        bar = "=" * 64
        _err(
            bar,
            "THEOREM BREACH: an internal invariant failed.",
            f"  {e}",
            "This is a bug in latkit, not a problem with your input. "
            "Please report it with the command you ran.",
            bar,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
