"""End-to-end benchmark of the ``repro`` simulator stack (see README.md)."""
