package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** Linearized Belief Propagation (Eq. 1 / Eq. 4), echo cancellation
  * dropped, as the paper does.
  *
  * The update iterated is `F ← X̃ + ε·W·F·H̃`, with H̃ the residual
  * (centered) compatibility matrix and ε = s / (ρ(W)·ρ(H̃)) so that the
  * convergence criterion Eq. (2) holds for s < 1 (paper uses s = 0.5 and
  * 10 iterations in §5.3). Theorem 3.1 guarantees the resulting labels do
  * not depend on the centering, which LinBPSpec verifies.
  */
object LinBP {

  /** Run LinBP and return the final belief matrix F, one (node, v) row
    * per node with v the node's k beliefs.
    *
    * Each iteration applies H row-locally before the hop, so
    * F ← X + W·(F·H) is one edge join and one aggregate that also sums X.
    *
    * @param g          the graph (symmetric adjacency)
    * @param seedLabels (node, cls) seed labels
    * @param h          compatibility matrix (centered or not — Thm. 3.1)
    * @param iterations fixed iteration count (paper: 10)
    * @param s          convergence parameter, ε = s/(ρ(W)·ρ(H̃))
    * @param rhoW       precomputed ρ(W); pass it when labeling the same
    *                   graph repeatedly (Holdout does), else it is
    *                   computed by `GraphOps.spectralRadius` (Lanczos)
    * @param center     propagate residuals (default) or raw frequencies
    * @throws IllegalArgumentException if a seed class id is outside [0, k)
    */
  def run(
      g: SparseGraph,
      seedLabels: DataFrame,
      h: Dense,
      iterations: Int = 10,
      s: Double = 0.5,
      rhoW: Option[Double] = None,
      center: Boolean = true): DataFrame = {
    val k = h.rows
    val hTilde = CompatibilityMatrix.centered(h)
    val rhoH = hTilde.spectralRadius()
    val x = GraphOps.materializeLabeled(seedLabels, k)(l =>
      if (center) GraphOps.centeredOneHot(l, k) else GraphOps.oneHot(l, k))
    if (rhoH < 1e-12) return x // uniform H carries no signal: F = X
    val rho = rhoW.getOrElse(GraphOps.spectralRadius(g))
    val eps = s / (rho * rhoH)
    val hEff = (if (center) hTilde else h).scale(eps)
    var f = x
    for (_ <- 1 to iterations) {
      f = GraphOps.materialize(GraphOps.plus(k)(x, GraphOps.messages(g.edges, GraphOps.applyH(f, hEff))))
    }
    f
  }

  /** LinBP energy E(F) = ‖F − X − W·F·H‖² (Prop. 3.2), for a given
    * effective (already ε-scaled) H. Zero at the fixed point.
    */
  def energy(g: SparseGraph, x: DataFrame, f: DataFrame, hEff: Dense): Double = {
    val resid = GraphOps.plus(hEff.cols)(
      f, GraphOps.scale(x, -1.0), GraphOps.messages(g.edges, GraphOps.applyH(f, hEff.scale(-1.0))))
    val r = resid.agg(sum(aggregate(col("v"), lit(0.0), (acc, e) => acc + e * e))).first()
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }
}
