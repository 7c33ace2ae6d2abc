"""The surrogate's weighted R², against a fit built by explicit inversion."""

import numpy as np

from phishlens.lime_text import fit_local_model


def test_fit_r2_matches_direct_inversion_oracle():
    x = np.array(
        [[1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 0]],
        dtype=float,
    )
    y = np.array([0.9, 0.7, 0.5, 0.75, 0.35, 0.6, 0.3, 0.1])
    w = np.array([1.0, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])
    alpha = 0.5
    selected, _, _, r2 = fit_local_model(x, y, w, alpha, 2)

    # independent solves by explicit inversion: all columns, then the refit
    # on the two largest |coefficient|, each centred on its own means
    def inverted_fit(cols):
        xm = (w[:, None] * cols).sum(axis=0) / w.sum()
        ym = (w * y).sum() / w.sum()
        xc, yc = cols - xm, y - ym
        a = xc.T @ (xc * w[:, None]) + alpha * np.eye(cols.shape[1])
        beta = np.linalg.inv(a) @ (xc.T @ (w * yc))
        return beta, ym - xm @ beta

    beta_full, _ = inverted_fit(x)
    keep = np.argsort(-np.abs(beta_full))[:2]
    beta, intercept = inverted_fit(x[:, keep])
    y_hat = intercept + x[:, keep] @ beta
    y_mean = (w * y).sum() / w.sum()
    expect_r2 = 1 - (w * (y - y_hat) ** 2).sum() / (w * (y - y_mean) ** 2).sum()

    assert sorted(selected) == sorted(keep.tolist())
    assert 0.5 < expect_r2 < 0.99
    assert abs(r2 - expect_r2) <= 1e-12
