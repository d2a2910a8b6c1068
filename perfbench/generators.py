"""Seeded generators for the synthetic benchmark families.

A case is a list of ontology texts in the repository's text grammar, so
it can be written out with a profile file and replayed through
``ontomerge merge --profile``.

Each case has two random streams.  The *structure* stream depends on the
family, the size and the case index only: it decides which pairs are
constrained, how, and which individuals exist.  The *seed* stream depends
on the benchmark seed as well: it renames the concepts and shuffles the
statements of every source, which changes the variable order, the
lexicographic tie-breaks and every byte of the input.  Scenario counts
and relaxation traces vary over orders of magnitude between structures,
so the structure is not drawn from the seed.  The seed still changes how
hard some cases are: the variable order sets the order of the search and
how deep it recurses, so which sparse_merge cases at n=50 overflow the
stack differs from seed to seed.  Compare runs of the same seeds.

``random.Random`` seeded with a string is stable across processes and
platforms, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable


def _individuals(rng: random.Random, source: int, names: list[str], per_concept: int) -> list[str]:
    """Concept assertions: `per_concept` individuals per concept, some in a second concept."""
    lines = []
    for i, concept in enumerate(names):
        for m in range(per_concept):
            individual = f"x{i}s{source}m{m}"
            lines.append(f"{concept}({individual})")
            if rng.random() < 0.3:
                lines.append(f"{names[rng.randrange(len(names))]}({individual})")
    return lines


def dense_conflict(rng: random.Random, names: list[str]) -> list[list[str]]:
    """Four sources that each assert a subsumption or a disjointness on most pairs.

    Per pair, each source independently says ``A <= B``, ``B <= A`` or
    ``A & B <= bot`` with probability 0.85, so most pairs are contested
    and relaxation leaves wide, overlapping constraints behind.
    """
    n = len(names)
    sources = []
    for s in range(1, 5):
        lines = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() >= 0.85:
                    continue
                a, b = names[i], names[j]
                kind = rng.randrange(3)
                if kind == 0:
                    lines.append(f"{a} <= {b}")
                elif kind == 1:
                    lines.append(f"{b} <= {a}")
                else:
                    lines.append(f"{a} & {b} <= bot")
        lines += _individuals(rng, s, names, 1)
        sources.append(lines)
    return sources


def sparse_merge(rng: random.Random, names: list[str]) -> list[list[str]]:
    """Four sources with about two asserted axioms per concept, on random pairs."""
    n = len(names)
    sources = []
    for s in range(1, 5):
        lines = []
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            subsumption = rng.random() < 0.6
            lines.append(
                f"{names[i]} <= {names[j]}" if subsumption else f"{names[i]} & {names[j]} <= bot"
            )
        lines += [f"{name}(x{i}s{s}m0)" for i, name in enumerate(names)]
        sources.append(lines)
    return sources


def taxonomy(rng: random.Random, names: list[str]) -> list[list[str]]:
    """Two tree-shaped sources with sibling disjointness and two individuals per concept.

    Each source hangs the same concepts into its own random recursive
    tree, so the sources disagree on where every concept sits.
    """
    n = len(names)
    sources = []
    for s in range(1, 3):
        order = list(range(n))
        rng.shuffle(order)
        children: dict[int, list[int]] = {}
        lines = []
        for k in range(1, n):
            parent = order[rng.randrange(k)]
            children.setdefault(parent, []).append(order[k])
            lines.append(f"{names[order[k]]} <= {names[parent]}")
        for kids in children.values():
            for x in range(len(kids)):
                for y in range(x + 1, len(kids)):
                    if rng.random() < 0.7:
                        lines.append(f"{names[kids[x]]} & {names[kids[y]]} <= bot")
        lines += _individuals(rng, s, names, 2)
        sources.append(lines)
    return sources


FAMILIES: dict[str, Callable[[random.Random, list[str]], list[list[str]]]] = {
    "dense_conflict": dense_conflict,
    "sparse_merge": sparse_merge,
    "taxonomy": taxonomy,
}


def make_case(family: str, seed: int, n: int, index: int) -> list[str]:
    """The source texts of one case over `n` concepts."""
    structure = random.Random(f"{family}/{n}/{index}")
    disguise = random.Random(f"{family}/{n}/{index}/seed={seed}")
    names = [f"C{k}" for k in range(n)]
    disguise.shuffle(names)
    texts = []
    for s, lines in enumerate(FAMILIES[family](structure, names), start=1):
        disguise.shuffle(lines)
        header = f"# {family} seed={seed} n={n} case={index} source={s}"
        texts.append("\n".join([header, *lines]) + "\n")
    return texts


def write_case(texts: list[str], directory: Path) -> Path:
    """Write one case as source files plus a profile; return the profile path."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for k, text in enumerate(texts, start=1):
        name = f"source{k}.txt"
        (directory / name).write_text(text, encoding="utf-8")
        names.append(name)
    profile = directory / "profile.txt"
    profile.write_text("\n".join(names) + "\n", encoding="utf-8")
    return profile
