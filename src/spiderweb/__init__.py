"""Design-space exploration and verification for the spiderweb sparse
spin-qubit array: wire counts and Rent's exponent, sample-and-hold
electronics constraints, footprints, power budgets, cycle timing, and
numerical verification of the exchange-gate circuit constructions."""

__version__ = "0.1.0"
