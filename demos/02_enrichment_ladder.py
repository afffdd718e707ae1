"""Adding local eigenmodes node by node: the enrichment ladder.

Runs the convergence study on a small grid and prints how the error and
the spectral indicator (the largest discarded eigenvalue) fall together
as one mode per node is added at each step.
"""

from gmsfem.studies import run_convergence_study

rows = run_convergence_study(fine_n=40, coarse_n=4, eta=1e4, extra_max=3)

print(f"{'step':>5} {'dim':>5} {'lambda*':>12} {'energy %':>10} {'L2 %':>10}")
for variant, step, dim, lam, e, l2, cfg in rows:
    print(f"{step:>5} {dim:>5} {float(lam):>12.3e} {float(e):>10.4f} "
          f"{float(l2):>10.6f}")
print("\nthe error tracks lambda*: once the contrast-unbounded modes are")
print("in the space, each extra mode buys a steady reduction")
