"""Continuation NMPC with preconditioned Krylov solves on an assembled difference Jacobian."""
