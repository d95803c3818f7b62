"""Desk-scale simulation of a remote-attestation root of trust.

A capability microkernel simulator hosts a measured-boot pipeline and an
isolated signing process; a networked verifier drives challenge-response
attestation over a small binary protocol and can bootstrap an
authenticated channel from an accepted attestation.

Import names from their submodules (``attestsim.boot``,
``attestsim.crypto``, ``attestsim.prover``, ``attestsim.verifier``, ...).
The package itself imports nothing, so the prover daemon never loads the
verifier, the attack harness or numpy.
"""

__version__ = "0.1.0"
