"""Seams that the tests use to corrupt family members behind the engine's back."""


def corrupt_member(monkeypatch, family_type, n, m):
    """Add 1 to member X(n, m) of every family of this type, at the evaluation seam.

    The seam is ``rows``, which every consumer reads: at int labels for sweeps and
    ``table()`` and at decimal ones for a ``seqfam table`` of long members; both see the
    same member.  A numerator over d grows by d."""
    real = family_type.rows

    def rows(self, labels, n_lo, n_hi):
        for k, (d, row) in enumerate(real(self, labels, n_lo, n_hi), n_lo):
            yield d, [v + d if (k, label) == (n, m) else v for label, v in zip(labels, row)]

    monkeypatch.setattr(family_type, "rows", rows)
