"""Path-or-stream text I/O shared by the log, schema, ranked, model,
sweep and attack-id readers and writers.

`int_of` reads an integer only as `str` writes it, and `ints_of` a run
of them joined by commas, for the model and ranked-file readers.
`lines_of` splits a stream's text into lines a block at a time, so a
reader that keeps every line does not also hold the whole text.

`open_text` reads a path or a text stream, and names the source in the
error it raises for input that is not UTF-8; `atomic_write`
writes a path through a temp file in the same directory that replaces
the target only once the whole output is written, so a reader racing a
writer (a daytime scorer against a nightly rebuild) sees the old file or
the new one, never a torn one. Streams pass through both unchanged and
are left open.
"""

from __future__ import annotations

import os
import re
import stat
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import IO, Callable, Iterator, Union

from .errors import AlertFpError

_INTS = re.compile(r"(?:(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*)?")

#: characters `lines_of` reads at a time
BLOCK_SIZE = 1 << 16

Source = Union[str, Path, IO[str]]
Target = Union[str, Path, IO[str]]


def int_of(text: str) -> int:
    """The int that text spells as str(int) writes it. A "+", spaces,
    leading zeros, "_" or non-ASCII digits raise ValueError."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not an integer as alertfp writes one: {text!r}")
    return value


def ints_of(text: str) -> tuple[int, ...]:
    """The ints that text spells as ",".join(map(str, ints)) writes them.
    One regex match is cheaper than int_of per int."""
    if not _INTS.fullmatch(text):
        raise ValueError(f"not integers as alertfp writes them: {text!r}")
    return tuple(map(int, text.split(","))) if text else ()


def lines_of(stream: IO[str]) -> Iterator[str]:
    """The pieces of stream's text split on "\n" alone, as
    stream.read().split("\n") gives them, the last one after the final
    "\n", read BLOCK_SIZE characters at a time.

    "\n" is the only line break the writers' escaping covers: a value may
    hold "\r", "\x0c", "\x85" or "\u2028", which splitlines() would also
    break on. A line that spans blocks is joined once, when its end is
    read, so a line longer than a block is not copied once per block.
    """
    parts: list[str] = []
    while block := stream.read(BLOCK_SIZE):
        *done, last = block.split("\n")
        if done:
            parts.append(done[0])
            done[0] = "".join(parts)
            parts = []
            yield from done
        parts.append(last)
    yield "".join(parts)


@contextmanager
def open_text(
    source: Source, error: Callable[[str], Exception] | None = AlertFpError
) -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream over source. A path is opened here and
    closed on exit.

    Input that is not UTF-8 raises `error`, with a message naming the
    source. With `error=None`, each byte of a path that does not decode
    reads as a lone surrogate (errors="surrogateescape"), for a reader
    that rejects such lines one at a time; a text stream decodes as it was
    opened to.
    """
    errors = "strict" if error else "surrogateescape"
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8", errors=errors, newline="") as handle:
                yield handle
        else:
            yield source
    except UnicodeDecodeError as exc:
        if error is None:
            raise
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "input")
        bad = exc.object[exc.start : exc.end]
        raise error(f"{name} is not valid UTF-8 ({exc.reason}: {bad!r})") from None


@contextmanager
def atomic_write(target: Target) -> Iterator[IO[str]]:
    """Yield a UTF-8 text stream that ends up at target.

    For a path, the text goes to a new temp file beside it, created with
    the process umask, and `os.replace` moves it onto the target when the
    block exits cleanly. On any exception the temp file is deleted and
    the target is left as it was. A path whose own entry (not followed)
    is a symlink, a device or a pipe is written in place, through the
    link: replacing it would replace the link or the device itself, and
    `/dev/stdout` is a symlink even when stdout is redirected to a file.
    An OSError from the temp file or the rename names target as given.
    """
    if not isinstance(target, (str, Path)):
        yield target
        return
    path = Path(target)
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out
        return
    for attempt in count():
        temp = path.parent / f"{path.name}.{os.getpid()}.{attempt}.tmp"
        try:
            out = open(temp, "x", encoding="utf-8", newline="")
            break
        except FileExistsError:  # left by a crashed run with the same pid
            continue
        except OSError as exc:
            raise _for_target(exc, target) from None
    try:
        with out:
            yield out
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise _for_target(exc, target) from None
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _for_target(exc: OSError, target: Union[str, Path]) -> OSError:
    """exc as if raised for target as given, not for its temp file."""
    return type(exc)(exc.errno, exc.strerror, os.fspath(target))
