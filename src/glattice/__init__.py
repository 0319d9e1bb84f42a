"""Exact computation and certification of symmetric ranks of G-lattices.

A G-lattice is Z^n equipped with an action of a finite group of integer
matrices; its symmetric rank is the minimal size of a G-stable generating
set.  This package computes these quantities exactly -- arbitrary
precision everywhere, no floating point on any certified path.  Names are
imported from the modules, not from the package root:

* ``intmat``: integer vectors, matrices and lattice normal forms;
* ``matgroup``: finite matrix groups, orbits and stable spans;
* ``search``: the bounded-exhaustive symmetric-rank search;
* ``rootsys``: root systems, Weyl groups and their lattices;
* ``theta``: theta series of positive definite forms;
* ``gf2cyclo``: GF(2) cyclotomic factorizations and binary sublattices;
* ``monomial``: monomial group reductions in prime dimension;
* ``bounds`` and ``groupdata``: big-integer inequality scans over
  simple-group data;
* ``serialize``, ``errors`` and ``cli``: file formats, error types and
  the command line.
"""

__version__ = "0.1.0"
