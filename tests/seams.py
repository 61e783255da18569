"""Seams that the tests use to corrupt family members behind the engine's back."""


def corrupt_member(monkeypatch, family_type, n, m):
    """Add 1 to member X(n, m) of every family of this type, at the evaluation seam."""
    real = family_type.column

    def column(self, label, n_lo, n_hi):
        values = real(self, label, n_lo, n_hi)
        if label == m and n_lo <= n <= n_hi:
            values[n - n_lo] += 1
        return values

    monkeypatch.setattr(family_type, "column", column)
