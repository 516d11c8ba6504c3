package repro.core

/** Smooth unconstrained minimization with the explicit gradient.
  *
  * Fills the role SciPy's SLSQP plays in the paper: the equality
  * constraints (symmetry + double stochasticity) are already eliminated by
  * the free-parameter encoding of Eq. (6), so an unconstrained
  * quasi-Newton method with the gradient of Prop. 4.7 suffices. BFGS
  * matters here, not just speed: near the uniform start 1/k the DCE
  * objective is extremely flat (a doubly-stochastic perturbation dH has
  * zero row/col sums, so every ∂‖H^ℓ−Z‖²/∂h with ℓ ≥ 2 vanishes at
  * uniform) and first-order descent stalls; curvature information walks
  * out of the valley. Problems are tiny — k* = k(k−1)/2 ≤ ~66 parameters
  * — so dense inverse-Hessian updates are free.
  */
object GradientDescent {

  /** @param x         final parameters
    * @param value     final objective value
    * @param gradNorm  final gradient L2 norm
    * @param iters     iterations used
    * @param converged true if gradNorm fell below the tolerance; false at
    *                  the iteration cap or when the line search finds no
    *                  decrease away from a stationary point
    */
  final case class Result(
      x: Array[Double],
      value: Double,
      gradNorm: Double,
      iters: Int,
      converged: Boolean)

  /** Minimize f by BFGS with Armijo backtracking. */
  def minimize(
      fg: Array[Double] => (Double, Array[Double]),
      x0: Array[Double],
      maxIters: Int = 500,
      gradTol: Double = 1e-9,
      armijoC: Double = 1e-4,
      maxBacktracks: Int = 60): Result = {
    val d = x0.length
    var x = x0.clone()
    var (fx, gx) = fg(x)
    // Inverse Hessian approximation, row-major d×d, starts at I.
    var hInv = Array.tabulate(d * d)(i => if (i % d == i / d) 1.0 else 0.0)

    def norm(v: Array[Double]): Double = math.sqrt(v.foldLeft(0.0)((a, b) => a + b * b))
    def matVec(m: Array[Double], v: Array[Double]): Array[Double] = {
      val out = new Array[Double](d)
      var i = 0
      while (i < d) {
        var s = 0.0; var j = 0
        while (j < d) { s += m(i * d + j) * v(j); j += 1 }
        out(i) = s; i += 1
      }
      out
    }

    var it = 0
    while (it < maxIters) {
      val gNorm = norm(gx)
      if (gNorm <= gradTol) return Result(x, fx, gNorm, it, converged = true)

      var dir = matVec(hInv, gx).map(-_)
      var slope = dir.zip(gx).map { case (a, b) => a * b }.sum
      if (slope >= 0) { // H⁻¹ lost positive definiteness: reset to steepest descent
        hInv = Array.tabulate(d * d)(i => if (i % d == i / d) 1.0 else 0.0)
        dir = gx.map(-_)
        slope = -gNorm * gNorm
      }

      // Armijo backtracking from the natural quasi-Newton step t = 1.
      var t = 1.0
      var bt = 0
      var accepted = false
      var xNew = x
      while (!accepted && bt < maxBacktracks) {
        val cand = Array.tabulate(d)(i => x(i) + t * dir(i))
        val fc = fg(cand)._1
        if (fc <= fx + armijoC * t * slope) { accepted = true; xNew = cand }
        else { t /= 2.0; bt += 1 }
      }
      // No step decreases f: stop here, converged only if the gradient is small.
      if (!accepted) return Result(x, fx, gNorm, it, converged = gNorm <= gradTol)

      val (fx2, gx2) = fg(xNew)
      val s = Array.tabulate(d)(i => xNew(i) - x(i))
      val y = Array.tabulate(d)(i => gx2(i) - gx(i))
      val sy = s.zip(y).map { case (a, b) => a * b }.sum
      if (sy > 1e-12) {
        // hInv ← (I − ρ s yᵀ) hInv (I − ρ y sᵀ) + ρ s sᵀ
        val rho = 1.0 / sy
        val hy = matVec(hInv, y)
        val yhy = y.zip(hy).map { case (a, b) => a * b }.sum
        val next = new Array[Double](d * d)
        var i = 0
        while (i < d) {
          var j = 0
          while (j < d) {
            // Expanded update: H − ρ(s·hyᵀ + hy·sᵀ) + ρ²(yᵀHy)s·sᵀ + ρ s·sᵀ
            next(i * d + j) = hInv(i * d + j) -
              rho * (s(i) * hy(j) + hy(i) * s(j)) +
              rho * rho * yhy * s(i) * s(j) +
              rho * s(i) * s(j)
            j += 1
          }
          i += 1
        }
        hInv = next
      }
      x = xNew; fx = fx2; gx = gx2
      it += 1
    }
    val gNorm = norm(gx)
    Result(x, fx, gNorm, it, converged = gNorm <= gradTol)
  }
}
