#!/usr/bin/env python3
"""Regenerate the bundled molecule corpora.

Builds random connected molecules under the valence table (spanning tree plus
a few ring closures and bond-order upgrades), keeps the valid ones, dedupes by
canonical string, and writes deterministic, sorted .smi files.  Rerunning this
script must reproduce the committed files bit for bit.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphnvp.chem import DEFAULT_VALENCES, Molecule, check_validity, write_smiles_canonical
from graphnvp.tensor import make_rng

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "graphnvp" / "data"


def random_molecule(
    rng: np.random.Generator,
    size: int,
    symbols: list[str],
    weights: list[float],
    max_rings: int,
) -> Molecule | None:
    atoms = list(rng.choice(symbols, size=size, p=weights))
    limits = [DEFAULT_VALENCES[a] for a in atoms]
    used = [0] * size
    bonds: list[tuple[int, int, int]] = []
    bonded = set()

    # Spanning tree keeps the molecule connected.
    for i in range(1, size):
        candidates = [j for j in range(i) if used[j] < limits[j]]
        if not candidates:
            return None
        j = int(rng.choice(candidates))
        bonds.append((j, i, 1))
        bonded.add((j, i))
        used[j] += 1
        used[i] += 1

    # A few ring closures between non-adjacent atoms with spare valence.
    for _ in range(int(rng.integers(0, max_rings + 1))):
        options = [
            (a, b)
            for a in range(size)
            for b in range(a + 1, size)
            if (a, b) not in bonded and used[a] < limits[a] and used[b] < limits[b]
        ]
        if not options:
            break
        a, b = options[int(rng.integers(len(options)))]
        bonds.append((a, b, 1))
        bonded.add((a, b))
        used[a] += 1
        used[b] += 1

    # Upgrade some bonds to double/triple where both ends have spare valence.
    upgraded = []
    for a, b, order in bonds:
        for _ in range(2):
            if order < 3 and used[a] < limits[a] and used[b] < limits[b] and rng.random() < 0.25:
                order += 1
                used[a] += 1
                used[b] += 1
        upgraded.append((a, b, order))

    return Molecule(atoms, upgraded)


def build_corpus(
    seed: int,
    count: int,
    sizes: list[int],
    size_weights: list[float],
    symbols: list[str],
    symbol_weights: list[float],
    max_rings: int,
) -> list[str]:
    rng = make_rng(seed)
    p_size = np.array(size_weights, dtype=float)
    p_size /= p_size.sum()
    p_sym = np.array(symbol_weights, dtype=float)
    p_sym /= p_sym.sum()
    seen: set[str] = set()
    attempts = 0
    while len(seen) < count:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError("corpus generation did not converge")
        size = int(rng.choice(sizes, p=p_size))
        molecule = random_molecule(rng, size, symbols, list(p_sym), max_rings)
        if molecule is None:
            continue
        if not check_validity(molecule).ok or len(molecule.components()) > 1:
            continue
        seen.add(write_smiles_canonical(molecule))
    ordered = sorted(seen, key=lambda s: (sum(c.isalpha() and c != "l" for c in s), s))
    return ordered


def write_corpus(path: Path, header: str, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write(f"# {len(lines)} molecules, one kekulized restricted-SMILES string per line\n")
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines)} molecules)")


def main() -> None:
    qm9 = build_corpus(
        seed=20240901,
        count=256,
        sizes=list(range(1, 10)),
        size_weights=[1, 1, 2, 3, 5, 7, 9, 12, 16],
        symbols=["C", "N", "O", "F"],
        symbol_weights=[0.62, 0.16, 0.16, 0.06],
        max_rings=2,
    )
    write_corpus(DATA_DIR / "qm9lite.smi", "qm9lite: small molecules over C/N/O/F, up to 9 heavy atoms", qm9)

    zinc = build_corpus(
        seed=20240902,
        count=64,
        sizes=list(range(10, 39)),
        size_weights=[1] * 29,
        symbols=["C", "N", "O", "F", "S", "Cl"],
        symbol_weights=[0.64, 0.12, 0.12, 0.04, 0.04, 0.04],
        max_rings=3,
    )
    write_corpus(DATA_DIR / "zinclite.smi", "zinclite: larger molecules adding S/Cl, up to 38 heavy atoms", zinc)


if __name__ == "__main__":
    main()
