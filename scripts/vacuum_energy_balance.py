#!/usr/bin/env python3
"""Show the sign structure of the regularized vacuum energy.

The fermionic Dirac sea contributes -2 N_F sum_i w_i E_i Z_i; each bosonic
line contributes +sum w E Z per field. Depending on the field content the
total is negative, zero, or positive. The script prints the fermion-only
value, a boson sector tuned to cancel it exactly, and the overshoot when
the boson count is doubled while keeping the tuned sector per field.

The one-mode rest lattice with N_F = 3 and m = 1 reproduces the marquee
value -6 (three species, two spins, two frequency signs, all at E = m).

    python3 scripts/vacuum_energy_balance.py
    python3 scripts/vacuum_energy_balance.py --j-max 6 --n-fermion 3 --n-boson 4

A parameter the lattice or the balance refuses (say --j-max -1, --mass 0 or
--n-boson 0) exits 2 with one line on stderr, as the carfield CLI does.
"""

import argparse

from carfield.errors import CarfieldError, exit_unfinished
from carfield.modes import (
    gaussian_profile,
    rapidity_lattice,
    uniform_profile,
)
from carfield.symmetries import (
    balanced_boson_sector,
    boson_vacuum_energy,
    fermion_vacuum_energy,
    vacuum_energy,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--j-max", type=int, default=0,
                        help="rapidity cutoff J; 0 keeps only the rest mode")
    parser.add_argument("--delta-eta", type=float, default=0.4)
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument("--n-fermion", type=int, default=3)
    parser.add_argument("--n-boson", type=int, default=6)
    parser.add_argument("--profile", choices=("uniform", "gaussian"), default="uniform")
    parser.add_argument("--width", type=float, default=1.0,
                        help="gaussian profile width in rapidity")
    args = parser.parse_args(argv)

    try:
        lattice = rapidity_lattice(args.j_max, args.delta_eta, args.mass)
        if args.profile == "uniform":
            profile = uniform_profile(lattice)
        else:
            profile = gaussian_profile(lattice, args.width)

        fermion = fermion_vacuum_energy(lattice, profile, args.n_fermion)
        sector = balanced_boson_sector(lattice, profile, args.n_fermion, args.n_boson)
        per_boson = boson_vacuum_energy(sector, 1)
        balanced = vacuum_energy(lattice, profile, args.n_fermion, args.n_boson, sector)
        doubled = vacuum_energy(lattice, profile, args.n_fermion, 2 * args.n_boson, sector)
    except CarfieldError as exc:
        return exit_unfinished(exc)

    print(f"lattice: {lattice.size} modes, m={args.mass}, "
          f"N_F={args.n_fermion}, N_B={args.n_boson}, profile={args.profile}")
    print(f"fermion-only vacuum energy : {fermion:+.12f}")
    print(f"per-boson line contribution: {per_boson:+.12f}")
    print(f"balanced total             : {balanced:+.3e}")
    print(f"doubled-boson total        : {doubled:+.12f}")
    sign = "zero" if abs(balanced) < 1e-10 else ("positive" if balanced > 0 else "negative")
    print(f"balanced sign check        : {sign}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
