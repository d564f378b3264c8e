"""Continuation NMPC with preconditioned matrix-free Krylov solvers."""
