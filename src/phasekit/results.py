"""Result tables and their CSV form.

CSV layout, fixed so golden-file comparisons are byte-exact:

    # key = value            metadata comment lines (config echo, version)
    # timestamp = ...        excluded from any byte comparison
    col_a,col_b,...          mandatory header
    ...                      one line per row, LF endings, UTF-8

Floats are written with repr(), the shortest decimal string that round
trips to the same double, so identical runs produce identical bytes.
"""

import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

TIMESTAMP_KEY = "timestamp"


@dataclass
class ResultTable:
    columns: tuple
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def format_value(v):
    """Shortest round-trip string for CSV cells."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _readable(text, what, forbidden, stripped=False):
    """text, after checking that it holds none of the characters that
    read_csv splits on at that place and, where read_csv strips the text
    (stripped), no leading or trailing blank."""
    if any(ch in text for ch in forbidden):
        raise ValueError("%s %r cannot be read back: it holds one of %r" % (what, text, forbidden))
    if stripped and text != text.strip():
        raise ValueError("%s %r cannot be read back: read_csv strips its outer blanks" % (what, text))
    return text


def _data_line(cells, what):
    line = ",".join(_readable(c, what, ",\r\n") for c in cells)
    if not line or line.startswith("#"):
        raise ValueError("%s line %r cannot be read back: read_csv skips it" % (what, line))
    return line


def write_csv(table, path):
    """Write table to path, replacing any file there.

    Raises ValueError, before writing anything, for text that read_csv
    would parse differently: a line break (CR or LF) anywhere, a comma in a
    column name or cell, '=' in a metadata key, a leading or trailing blank
    in a metadata key or value, or a header or row line that is empty or
    starts with '#'.
    """
    lines = []
    for k, v in table.metadata.items():
        key = _readable(k, "metadata key", "=\r\n", stripped=True)
        value = _readable(format_value(v), "metadata value", "\r\n", stripped=True)
        lines.append("# %s = %s" % (key, value))
    stamp = datetime.now(timezone.utc).isoformat()
    lines.append("# %s = %s" % (TIMESTAMP_KEY, stamp))
    lines.append(_data_line(table.columns, "column"))
    for row in table.rows:
        lines.append(_data_line([format_value(row[c]) for c in table.columns], "cell"))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse a table back: (metadata, columns, rows of raw strings)."""
    metadata = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    metadata[k.strip()] = v.strip()
                continue
            cells = line.split(",")
            if columns is None:
                columns = tuple(cells)
            elif len(cells) != len(columns):
                msg = "row of %d cells under %d columns in %s"
                raise ValueError(msg % (len(cells), len(columns), path))
            else:
                rows.append(dict(zip(columns, cells)))
    if columns is None:
        raise ValueError("no header found in %s" % path)
    return metadata, columns, rows


def csv_fingerprint(path):
    """Canonical bytes for determinism checks: read_csv's parse re-joined.

    Drops the timestamp metadata line and masks every *_seconds column
    (wall-clock fields, which legitimately differ between reruns).
    """
    metadata, columns, rows = read_csv(path)
    lines = ["# %s = %s" % (k, v) for k, v in metadata.items() if k != TIMESTAMP_KEY]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("_" if c.endswith("_seconds") else row[c] for c in columns))
    return "\n".join(lines).encode("utf-8")
