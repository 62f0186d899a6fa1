"""``python -m quasiaffine``: the ``quasiaffine`` command, run from the package."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
