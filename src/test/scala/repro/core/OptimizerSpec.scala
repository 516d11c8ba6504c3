package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GradientDescentSpec extends AnyFunSuite {

  test("minimizes a separable quadratic to its center") {
    def fg(x: Array[Double]) = {
      val c = Array(1.0, -2.0, 3.0)
      val v = x.zip(c).map { case (xi, ci) => (xi - ci) * (xi - ci) }.sum
      (v, x.zip(c).map { case (xi, ci) => 2 * (xi - ci) })
    }
    val r = GradientDescent.minimize(fg, Array(0.0, 0.0, 0.0))
    assert(r.converged)
    assert(r.x.zip(Array(1.0, -2.0, 3.0)).forall { case (a, b) => math.abs(a - b) < 1e-6 })
    assert(r.value < 1e-10)
  }

  test("handles moderately ill-conditioned quadratics") {
    def fg(x: Array[Double]) =
      (100 * x(0) * x(0) + x(1) * x(1), Array(200 * x(0), 2 * x(1)))
    val r = GradientDescent.minimize(fg, Array(1.0, 1.0), maxIters = 5000, gradTol = 1e-8)
    assert(math.abs(r.x(0)) < 1e-4 && math.abs(r.x(1)) < 1e-3)
  }

  test("descends on the Rosenbrock function") {
    def fg(x: Array[Double]) = {
      val (a, b) = (x(0), x(1))
      val f = (1 - a) * (1 - a) + 100 * (b - a * a) * (b - a * a)
      val g = Array(-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a))
      (f, g)
    }
    val r = GradientDescent.minimize(fg, Array(-1.0, 1.0), maxIters = 20000)
    assert(r.value < 1e-3, s"value=${r.value}")
  }

  test("stops immediately at a stationary point") {
    def fg(x: Array[Double]) = (x(0) * x(0), Array(2 * x(0)))
    val r = GradientDescent.minimize(fg, Array(0.0))
    assert(r.converged && r.iters == 0)
  }

  test("respects the iteration cap") {
    def fg(x: Array[Double]) = (x(0), Array(1.0)) // unbounded below
    val r = GradientDescent.minimize(fg, Array(0.0), maxIters = 7)
    assert(r.iters == 7 && !r.converged)
  }

  test("a failed line search away from a stationary point is not converged") {
    // |x| at its kink: the reported (sub)gradient is 1, yet no step decreases f.
    def fg(x: Array[Double]) = (math.abs(x(0)), Array(if (x(0) >= 0) 1.0 else -1.0))
    val r = GradientDescent.minimize(fg, Array(0.0))
    assert(!r.converged && r.iters == 0 && r.gradNorm == 1.0)
  }

  test("monotone: final value never exceeds the initial value") {
    for (seed <- 1 to 10) {
      val rnd = new scala.util.Random(seed)
      val q = Array.fill(4)(rnd.nextDouble() * 5 + 0.1)
      val c = Array.fill(4)(rnd.nextDouble() * 4 - 2)
      def fg(x: Array[Double]) = (
        x.indices.map(i => q(i) * (x(i) - c(i)) * (x(i) - c(i))).sum,
        x.indices.map(i => 2 * q(i) * (x(i) - c(i))).toArray)
      val x0 = Array.fill(4)(rnd.nextDouble() * 10 - 5)
      val r = GradientDescent.minimize(fg, x0, maxIters = 200)
      assert(r.value <= fg(x0)._1 + 1e-12)
    }
  }
}

class NelderMeadSpec extends AnyFunSuite {

  test("minimizes a quadratic bowl") {
    def f(x: Array[Double]) = (x(0) - 2) * (x(0) - 2) + (x(1) + 1) * (x(1) + 1)
    val r = NelderMead.minimize(f, Array(0.0, 0.0), initialStep = 0.5, maxEvals = 500)
    assert(math.abs(r.x(0) - 2) < 1e-2 && math.abs(r.x(1) + 1) < 1e-2)
  }

  test("works on a piecewise-constant (accuracy-like) objective") {
    // Steps of a staircase: NM still walks downhill across the plateaus.
    def f(x: Array[Double]) = math.floor(math.abs(x(0) - 3) * 4) / 4.0
    val r = NelderMead.minimize(f, Array(0.0), initialStep = 1.0, maxEvals = 200)
    assert(f(r.x) <= 0.5, s"got ${f(r.x)} at ${r.x.toSeq}")
  }

  test("never returns a worse point than the start") {
    for (seed <- 1 to 10) {
      val rnd = new scala.util.Random(seed)
      def f(x: Array[Double]) =
        math.abs(x(0) - 1) + math.sin(3 * x(1)) * 0.5 + x(1) * x(1) * 0.1
      val x0 = Array(rnd.nextDouble() * 4 - 2, rnd.nextDouble() * 4 - 2)
      val r = NelderMead.minimize(f, x0, maxEvals = 120)
      assert(r.value <= f(x0) + 1e-12)
    }
  }

  test("respects the eval budget") {
    var calls = 0
    def f(x: Array[Double]) = { calls += 1; x.map(v => v * v).sum }
    NelderMead.minimize(f, Array(5.0, 5.0, 5.0), maxEvals = 25)
    // The budget bounds evals up to finishing the current simplex operation.
    assert(calls <= 25 + 4)
  }

  test("reports the number of evaluations") {
    var calls = 0
    def f(x: Array[Double]) = { calls += 1; x(0) * x(0) }
    val r = NelderMead.minimize(f, Array(3.0), maxEvals = 60)
    assert(r.evals == calls)
  }
}
