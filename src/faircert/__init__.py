"""Certified group-fairness testing with private two-party inference.

A regulator measures a model's empirical fairness gap on a hidden test
set inside a dealer-mediated secure computation, signs a certificate
binding the model's digest to the tested fairness claim, and clients
later verify that certificate before accepting predictions.

Each public name is imported from its module (faircert.protocol.Regulator,
faircert.fairness.decide, ...); the package root binds the modules only.
"""

from . import augmentor, crypto, dealer, fairness, model, protocol

__version__ = "0.1.0"

__all__ = ["augmentor", "crypto", "dealer", "fairness", "model", "protocol"]
