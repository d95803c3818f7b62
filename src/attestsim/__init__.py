"""Desk-scale simulation of a remote-attestation root of trust.

A capability microkernel simulator hosts a measured-boot pipeline and an
isolated signing process; a networked verifier drives challenge-response
attestation over a small binary protocol and can bootstrap an
authenticated channel from an accepted attestation.

The names below are imported on first use (PEP 562), so importing one
submodule loads only what it needs: the prover daemon never loads the
verifier, the attack harness or numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "BootedSystem": "boot",
    "bring_up": "boot",
    "image_manifest": "boot",
    "SignKey": "crypto",
    "SignMode": "crypto",
    "VerifyKey": "crypto",
    "Kernel": "kernel",
    "Policy": "verifier",
    "Verifier": "verifier",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
