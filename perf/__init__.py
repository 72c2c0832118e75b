"""The repo's regressable performance benchmark (see README.md here)."""
