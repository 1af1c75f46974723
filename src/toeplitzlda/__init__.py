"""Linear discriminant analysis with block-Toeplitz spatiotemporal covariance.

Classifies multichannel time-series epochs with Ledoit-Wolf shrinkage,
block-diagonal averaging and tapering, and a dense or block-circulant PCG
solve; ships a seeded synthetic-data generator and a benchmark harness.
Each public name is imported from its module only: ``toeplitzlda.lda.fit``,
``toeplitzlda.covest.ESTIMATORS`` and so on.
"""

__version__ = "0.1.0"
