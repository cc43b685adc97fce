"""relmp: multi-relational graph construction, gated message passing, and an
instrumented FLOPs cost model, on a small recorded-op numpy tensor core.

Import the submodules (`relmp.graph`, `relmp.tensor`, `relmp.cli`, ...); the
package itself binds no names, so importing it, as the command-line entry
point does to pin BLAS thread counts through environment variables before
numpy first loads, imports nothing else.
"""
