"""latentlab: latent variable models, classical and deep, at desk scale.

Flat models (probabilistic PCA, Gaussian mixtures, latent classes, item
response), hierarchical Bayes (latent Dirichlet allocation), sequential
models (hidden Markov models, linear dynamical systems), and deep generative
models (VAE, normalizing flows, diffusion, autoregressive, GAN) behind one
set of numeric conventions and a common command-line front end.

Submodules load on first use: `latentlab.mixture` imports mixture.py the
first time it is read, so a process pays only for the families it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

__all__ = ["arm", "cli", "core", "datasets", "diffusion", "em", "families", "flow",
           "gan", "irt", "lda", "mixture", "nn", "ppca", "sequential", "vae",
           "__version__"]


def __getattr__(name):
    # Importing a submodule binds it on the package, so this runs once per name.
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
