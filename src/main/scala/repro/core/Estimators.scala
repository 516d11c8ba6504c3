package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.linalg.Dense

/** Compatibility estimation methods of Section 4.
  *
  * All sketch-based methods (MCE, LCE, DCE, DCEr) take a precomputed
  * [[Sketches]] — the O(k²·ℓmax) factorized graph representation — so the
  * optimization itself is independent of the graph size, which is the
  * paper's central scalability claim. Holdout is the textbook baseline
  * that instead runs inference (LinBP) as a subroutine on every
  * candidate H.
  */
object Estimators {

  val DefaultLmax = 5
  val DefaultLambda = 10.0
  val DefaultRestarts = 10

  /** @param h       estimated compatibility matrix
    * @param energy  final objective value
    * @param evals   objective evaluations spent (restarts included)
    */
  final case class EstimationResult(h: Dense, energy: Double, evals: Int)

  /** Distance weights w_ℓ = λ^{ℓ−1}, normalized to sum 1 (normalizing
    * rescales the objective without moving its optimum, and keeps
    * gradients well-scaled for λ = 10, ℓmax = 5 where raw w₅ = 10⁴).
    */
  def weights(lmax: Int, lambda: Double): Array[Double] = {
    val raw = Array.tabulate(lmax)(i => math.pow(lambda, i.toDouble))
    val s = raw.sum
    raw.map(_ / s)
  }

  /** DCE energy and gradient over the free parameters.
    *
    *   E(h) = Σ_ℓ w_ℓ·‖H(h)^ℓ − Z_ℓ‖²
    *   G    = Σ_ℓ 2·w_ℓ·(ℓ·H^{2ℓ−1} − Σ_{r=0}^{ℓ−1} H^r·Z_ℓ·H^{ℓ−r−1})
    *
    * (Prop. 4.7; G is then contracted with the structure matrices to
    * respect symmetry + stochasticity.)
    */
  def dceEnergyGrad(targets: IndexedSeq[Dense], w: Array[Double])(
      hFree: Array[Double]): (Double, Array[Double]) = {
    val lmax = targets.length
    val k = targets.head.rows
    val h = CompatibilityMatrix.fromFree(hFree, k)
    // pows(p) = H^p for p ∈ [0, 2·lmax−1]
    val pows = new Array[Dense](2 * lmax)
    pows(0) = Dense.eye(k)
    for (p <- 1 until 2 * lmax) pows(p) = pows(p - 1) * h
    var energy = 0.0
    var g = Dense.zeros(k, k)
    for (l <- 1 to lmax) {
      val z = targets(l - 1)
      val diff = pows(l) - z
      energy += w(l - 1) * diff.dot(diff)
      var cross = Dense.zeros(k, k)
      for (r <- 0 until l) cross = cross + pows(r) * z * pows(l - 1 - r)
      g = g + (pows(2 * l - 1).scale(l.toDouble) - cross).scale(2.0 * w(l - 1))
    }
    (energy, CompatibilityMatrix.contractGradient(g))
  }

  /** Myopic Compatibility Estimation (§4.3): the closest symmetric
    * doubly-stochastic matrix to the normalized neighbor statistics P̂⁽¹⁾.
    * Equivalent to DCE with ℓmax = 1 (and convex).
    */
  def mce(sk: Sketches, variant: Int = 1): EstimationResult =
    dce(sk, lmax = 1, lambda = 1.0, variant = variant)

  /** Linear Compatibility Estimation (§4.2): minimize ‖X − W·X·H‖².
    *
    * Factorized onto the sketches (see DESIGN §3):
    *   E(H) = n_L − 2·⟨M⁽¹⁾, H⟩ + ⟨H, M⁽²⁾_full·H⟩,
    *   ∂E/∂H = −2·M⁽¹⁾ + 2·M⁽²⁾_full·H
    * with M⁽¹⁾ = XᵀWX and M⁽²⁾_full = XᵀW²X (raw counts, full paths).
    * Convex, so a single descent run suffices.
    */
  def lce(sk: Sketches): EstimationResult = {
    require(sk.lmax >= 2, "LCE needs sketches up to length 2 (M⁽²⁾ = XᵀW²X)")
    val k = sk.k
    val m1 = sk.mFull(0)
    val c = sk.mFull(1)
    def fg(hFree: Array[Double]): (Double, Array[Double]) = {
      val h = CompatibilityMatrix.fromFree(hFree, k)
      val e = sk.nLabeled - 2.0 * m1.dot(h) + h.dot(c * h)
      val g = (c * h).scale(2.0) - m1.scale(2.0)
      (e, CompatibilityMatrix.contractGradient(g))
    }
    val r = GradientDescent.minimize(fg, CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k)))
    EstimationResult(CompatibilityMatrix.fromFree(r.x, k), r.value, r.iters)
  }

  /** Distant Compatibility Estimation (§4.4–4.5): fit H^ℓ against the
    * non-backtracking statistics P̂_NB⁽ℓ⁾ for ℓ ∈ [ℓmax], weighted by λ.
    *
    * @param init optional start (free-parameter vector); defaults to the
    *             uniform 1/k start the paper uses
    * @param nonBacktracking fit against P̂_NB (default) or the biased
    *             full-path P̂ (for the Thm. 4.1 comparison)
    */
  def dce(
      sk: Sketches,
      lmax: Int = DefaultLmax,
      lambda: Double = DefaultLambda,
      variant: Int = 1,
      init: Option[Array[Double]] = None,
      nonBacktracking: Boolean = true): EstimationResult = {
    require(lmax <= sk.lmax, s"sketches only go to ℓ=${sk.lmax}, asked for $lmax")
    val targets = (1 to lmax).map(l => if (nonBacktracking) sk.pNB(l, variant) else sk.pFull(l, variant))
    val w = weights(lmax, lambda)
    val x0 = init.getOrElse(CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(sk.k)))
    val r = GradientDescent.minimize(dceEnergyGrad(targets, w), x0)
    EstimationResult(CompatibilityMatrix.fromFree(r.x, sk.k), r.value, r.iters)
  }

  /** DCE with restarts (§4.8): rerun DCE from points 1/k ± δ in random
    * hyper-quadrants of the k*-dimensional parameter space (δ < 1/k²) and
    * keep the lowest-energy solution. The first start is always the
    * uniform point, so DCEr(r=1) ≡ DCE.
    */
  def dcer(
      sk: Sketches,
      lmax: Int = DefaultLmax,
      lambda: Double = DefaultLambda,
      variant: Int = 1,
      restarts: Int = DefaultRestarts,
      seed: Long = 0,
      nonBacktracking: Boolean = true): EstimationResult = {
    val k = sk.k
    val kStar = CompatibilityMatrix.numFree(k)
    val rnd = new scala.util.Random(seed)
    val delta = 0.5 / (k * k)
    val starts: Seq[Array[Double]] =
      CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k)) +:
        Seq.fill(math.max(0, restarts - 1))(
          Array.fill(kStar)(1.0 / k + (if (rnd.nextBoolean()) delta else -delta)))
    val results = starts.map(s0 =>
      dce(sk, lmax, lambda, variant, init = Some(s0), nonBacktracking = nonBacktracking))
    val best = results.minBy(_.energy)
    best.copy(evals = results.map(_.evals).sum)
  }

  /** Holdout baseline (§4.1): Nelder–Mead over the free parameters, where
    * each energy evaluation runs LinBP from Seedᵢ and scores accuracy on
    * Holdoutᵢ for b random 50/50 splits of the available labels:
    * E(H) = −Σᵢ Acc_{Qᵢ}(H). ρ(W) is computed once, by
    * `GraphOps.spectralRadius` (Lanczos), unless `rhoW` passes it in;
    * every evaluation's LinBP run reuses it.
    */
  def holdout(
      g: SparseGraph,
      seedLabels: DataFrame,
      k: Int,
      b: Int = 1,
      maxEvals: Int = 40,
      iterations: Int = 10,
      s: Double = 0.5,
      seed: Long = 0,
      rhoW: Option[Double] = None): EstimationResult = {
    val rho = rhoW.getOrElse(GraphOps.spectralRadius(g))
    val splits: Seq[(DataFrame, DataFrame)] = (1 to b).map { i =>
      val tagged = GraphOps.materialize(
        seedLabels.withColumn("__r", rand(seed + i) < 0.5))
      val seedPart = GraphOps.materialize(tagged.where(col("__r")).drop("__r"))
      val holdPart = GraphOps.materialize(tagged.where(!col("__r")).drop("__r"))
      (seedPart, holdPart)
    }
    def energy(hFree: Array[Double]): Double = {
      val h = CompatibilityMatrix.fromFree(hFree, k)
      -splits.map { case (seedPart, holdPart) =>
        val f = LinBP.run(g, seedPart, h, iterations, s, rhoW = Some(rho))
        val preds = GraphOps.argmaxLabels(f)
        val joined = holdPart
          .withColumnRenamed("cls", "truth")
          .join(preds.withColumnRenamed("node", "__n"), col("node") === col("__n"), "left")
        val r = joined
          .agg(avg((coalesce(col("cls"), lit(0)) === col("truth")).cast("double")))
          .first()
        if (r.isNullAt(0)) 0.0 else r.getDouble(0)
      }.sum
    }
    val x0 = CompatibilityMatrix.toFree(CompatibilityMatrix.uniform(k))
    val r = NelderMead.minimize(energy, x0, initialStep = 1.0 / (2 * k), maxEvals = maxEvals)
    EstimationResult(CompatibilityMatrix.fromFree(r.x, k), r.value, r.evals)
  }
}
