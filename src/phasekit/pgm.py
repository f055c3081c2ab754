"""Plain (ASCII, P2) portable graymap reader/writer for the image demo.

The plain variant is whitespace-separated decimal, trivially diffable and
parseable anywhere, which is all the demo needs.  Comments (# to end of
line) are honored on read and never written.
"""

import numpy as np

from .core import _count

# the format's largest maxval: a pixel is at most two bytes
_MAX_MAXVAL = 65535


def write_pgm(path, image, maxval=255):
    """Write a 2-D image of finite values, rounded to integers in [0,
    maxval], for an integer maxval (not a bool) in [1, 65535]; else
    ValueError."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    maxval = _count(maxval, "maxval", 1)
    if maxval > _MAX_MAXVAL:
        raise ValueError("maxval out of range")
    if not np.isfinite(img).all():
        raise ValueError("pixel values must be finite")
    vals = np.rint(img).astype(np.int64)
    if vals.min() < 0 or vals.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    h, w = img.shape
    lines = ["P2", "%d %d" % (w, h), str(maxval)]
    # plain-format lines are kept short (the format caps them at 70 chars)
    for r in range(h):
        row = vals[r]
        for start in range(0, w, 12):
            lines.append(" ".join(str(v) for v in row[start : start + 12]))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pgm(path):
    """Returns (image array HxW of ints, maxval)."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    tokens = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not a plain PGM (P2) file")
    if len(tokens) < 4:
        raise ValueError("truncated PGM header")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if w < 1 or h < 1 or maxval < 1:
        raise ValueError("bad PGM dimensions")
    if maxval > _MAX_MAXVAL:
        raise ValueError("PGM maxval %d out of range" % maxval)
    data = tokens[4:]
    if len(data) != w * h:
        raise ValueError("PGM pixel count mismatch: got %d, want %d" % (len(data), w * h))
    img = np.array([int(t) for t in data], dtype=np.int64).reshape(h, w)
    if img.min() < 0 or img.max() > maxval:
        raise ValueError("PGM pixel values outside [0, maxval]")
    return img, maxval
