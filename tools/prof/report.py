#!/usr/bin/env python3
"""Turns a dmfprof.c sample file into two tables of sample shares.

    report.py <dmfprof.out> [--top N] [--root <repo root>]

Each sampled address is rebased against the load address of the file
it was mapped from and resolved with `addr2line -a -f -i -C`, which
prints the whole inline stack, innermost frame first. The first table
counts samples by that innermost frame (where the instruction is); the
second by the first frame, walking outwards, whose source file lies
under the repository root (which first-party line it was inlined
into) — the standard library and libm fold into the line that called
them. A sample in a file without a line table (libc, libm) counts
under the file's name; the function shown for it is the nearest
exported symbol, which may not be the function it is in.
"""
import argparse
import collections
import os
import subprocess


def parse(path):
    """Sample addresses, and the file-backed executable mappings."""
    with open(path) as f:
        head, _, maps = f.read().partition("maps\n")
    samples = [int(line, 16) for line in head.split()]
    bases, spans = {}, []
    for line in maps.splitlines():
        fields = line.split()
        if len(fields) < 6 or not fields[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        # A position-independent object's addresses count from where
        # its first segment (file offset 0) was mapped.
        if int(fields[2], 16) == 0:
            bases.setdefault(fields[5], start)
        if "x" in fields[1]:
            spans.append((start, end, fields[5]))
    return samples, bases, spans


def resolve(binary, addresses):
    """address -> [(function, file:line), ...], innermost first."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(hex(a) for a in addresses),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    stacks, i = {}, 0
    while i < len(out):
        address = int(out[i], 16)
        i += 1
        frames = []
        while i + 1 < len(out) and not out[i].startswith("0x"):
            frames.append((out[i], out[i + 1].split(" (discriminator")[0]))
            i += 2
        stacks[address] = frames
    return stacks


def table(title, counts, total, top):
    print(f"\n{title}")
    for name, n in counts.most_common(top):
        print(f"  {100 * n / total:5.1f} %  {n:6d}  {name}")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(here)))
    args = ap.parse_args()
    root = os.path.realpath(args.root) + os.sep

    samples, bases, spans = parse(args.samples)
    by_file = collections.defaultdict(list)
    innermost, first_party = collections.Counter(), collections.Counter()
    for address in samples:
        for start, end, path in spans:
            if start <= address < end:
                by_file[path].append(address - bases.get(path, 0))
                break
        else:
            innermost["[unmapped]"] += 1
            first_party["[unmapped]"] += 1
    for path, addresses in by_file.items():
        stacks = resolve(path, sorted(set(addresses)))
        for address in addresses:
            frames = stacks.get(address) or [("??", "??:0")]
            function, where = frames[0]
            if where.startswith("??"):
                # No line table (libc, libm): the name is only the
                # nearest exported symbol below the address.
                where = os.path.basename(path)
                function = where if function == "??" else f"near {function}"
            innermost[f"{function}  ({where.removeprefix(root)})"] += 1
            owned = [w for _, w in frames if w.startswith(root)]
            first_party[owned[0].removeprefix(root) if owned else where] += 1

    print(f"{len(samples)} samples at 250 Hz = {len(samples) / 250:.1f} s of CPU")
    table("by innermost inlined frame", innermost, len(samples), args.top)
    table("by first first-party file:line", first_party, len(samples), args.top)


if __name__ == "__main__":
    main()
