"""Seams that the tests use to corrupt family members behind the engine's back."""


def corrupt_member(monkeypatch, family_type, n, m):
    """Add 1 to member X(n, m) of every family of this type, at the evaluation seam.

    The seam is ``column``, at an int label for sweeps and ``table()`` and at a decimal
    one for ``seqfam table``; both see the same member.  A ``power:a/b`` table reads
    the ``power:a`` column at label b*m, so there the member of ``power:a`` is hit."""
    real = family_type.column

    def column(self, label, n_lo, n_hi):
        for k, value in enumerate(real(self, label, n_lo, n_hi), n_lo):
            yield value + 1 if (k, label) == (n, m) else value

    monkeypatch.setattr(family_type, "column", column)
