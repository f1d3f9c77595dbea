#!/usr/bin/env python3
"""Name the PCs of a pcsample profile and print where the samples fall.

    tools/pcsample/resolve.py PROFILE [--top N] [--min-named K]
                              [--group LABEL=REGEX ...]

PROFILE is what libpcsample.so writes at exit (tools/pcsample/pcsample.c):
the process's /proc/self/maps, a "--" line, then one hex PC per line. Each
PC is mapped through those maps to an object file and an ELF virtual
address, and named with `addr2line -C -f -i` (one batch per object).

Prints three tables, each as share of all samples:
  object  the mapped file the PC lies in (the binary, libc, libstdc++ ...);
  self    the innermost function at the PC, inlined or not;
  inline  every function on the PC's inline chain, once per sample, so a
          helper inlined into its callers is counted under its own name;
  group   with --group, the samples whose inline chain or object path
          matches each REGEX; a sample may count in several groups.

Exits 1 when fewer than K samples (default 0) resolve to a named function.
"""
import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys


def load_segments(path):
    """PT_LOAD (file offset, vaddr, size) triples of an ELF64 file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def parse(path):
    maps, pcs = [], []
    with open(path) as f:
        lines = iter(f)
        for line in lines:
            if line.startswith("--"):
                break
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(v, 16) for v in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
        pcs = [int(line, 16) for line in lines if line.strip()]
    maps.sort()
    return maps, pcs


def addr2line(obj, addrs):
    """{vaddr: [innermost function, ..., outermost]} for one object."""
    proc = subprocess.run(
        ["addr2line", "-C", "-f", "-i", "-a", "-e", obj],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True, text=True, check=False)
    chains, cur, lines = {}, None, proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            cur = chains.setdefault(int(line, 16), [])
            i += 1
            continue
        if cur is not None and line != "??":
            cur.append(line)
        i += 2  # the function line, then its file:line
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--min-named", type=int, default=0)
    ap.add_argument("--group", action="append", default=[],
                    metavar="LABEL=REGEX")
    args = ap.parse_args()
    groups = []
    for spec in args.group:
        label, sep, regex = spec.partition("=")
        if not sep:
            ap.error("--group takes LABEL=REGEX, got %r" % spec)
        groups.append((label, re.compile(regex)))

    maps, pcs = parse(args.profile)
    starts = [m[0] for m in maps]
    located = []  # (object, vaddr) per sample; vaddr None when unnamed
    segments = {}
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            located.append(("[unmapped]", None))
            continue
        start, _, offset, obj = maps[i]
        if not os.path.isfile(obj):
            located.append((obj, None))
            continue
        if obj not in segments:
            segments[obj] = load_segments(obj)
        file_off = pc - start + offset
        vaddr = next((file_off - o + v for o, v, n in segments[obj]
                      if o <= file_off < o + n), None)
        located.append((obj, vaddr))

    wanted = collections.defaultdict(set)
    for obj, vaddr in located:
        if vaddr is not None:
            wanted[obj].add(vaddr)
    chains = {obj: addr2line(obj, sorted(a)) for obj, a in wanted.items()}

    by_object = collections.Counter()
    by_self = collections.Counter()
    by_inline = collections.Counter()
    by_group = collections.Counter()
    named = 0
    for obj, vaddr in located:
        by_object[os.path.basename(obj)] += 1
        chain = chains.get(obj, {}).get(vaddr, []) if vaddr is not None else []
        for label, regex in groups:
            if any(regex.search(fn) for fn in chain + [obj]):
                by_group[label] += 1
        if not chain:
            by_self["?? (%s)" % os.path.basename(obj)] += 1
            continue
        named += 1
        by_self[chain[0]] += 1
        for fn in set(chain):
            by_inline[fn] += 1

    total = max(len(pcs), 1)
    print("%d samples, %d resolve to named functions" % (len(pcs), named))
    tables = [("object", by_object.most_common(args.top)),
              ("self", by_self.most_common(args.top)),
              ("inline", by_inline.most_common(args.top))]
    if groups:
        tables.append(("group", [(label, by_group[label])
                                 for label, _ in groups]))
    for title, rows in tables:
        print("\n-- %s --" % title)
        for name, n in rows:
            print("%6.1f%% %6d  %s" % (100.0 * n / total, n, name[:160]))
    if named < args.min_named:
        sys.exit("pcsample: only %d samples resolved to named functions "
                 "(need %d)" % (named, args.min_named))


if __name__ == "__main__":
    main()
