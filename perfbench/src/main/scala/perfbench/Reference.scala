package perfbench

/** Driver-side references and the output checks built on them.
  *
  * Each check returns `None` when the output is right and `Some(reason)`
  * when it is not; a failed check counts the operation as failed.
  */
object Reference {

  type Mat = Array[Array[Double]]

  /** Exact (M_full⁽ℓ⁾, M_NB⁽ℓ⁾) for ℓ = 1, 2, … */
  type SketchCounts = (IndexedSeq[Array[Array[Long]]], IndexedSeq[Array[Array[Long]]])

  /** Relative tolerance of ρ(W) against a converged power iteration. The
    * program's 25 fixed iterations land within 0.1% on the workloads
    * here, and a converging version (Rayleigh change < 1e-4) lands closer,
    * so 1% accepts both and still rejects a wrong hop or a missing norm.
    */
  val RhoTolerance = 0.01

  /** Share of nodes whose LinBP label must match the reference. */
  val LabelAgreement = 0.99

  /** Quality guards on the DCEr pipeline. A uniform or mislabeled Ĥ lies
    * about 1 from GS and labels about 1/k of nodes right; on seed code the
    * worst of ten seeds at f=0.01 was 0.25 and 0.70.
    */
  val MaxHL2 = 0.6
  val MinAccuracy = 0.5

  /** Tolerance on Ĥ symmetry and unit row and column sums. */
  val HTolerance = 1e-9

  /** Exact sketch counts for ℓ ∈ [lmax]: (M_full⁽ℓ⁾, M_NB⁽ℓ⁾) = (XᵀWℓX,
    * XᵀW_NB⁽ℓ⁾X), by the plain-array recurrence of Prop. 4.3 in Longs.
    */
  def sketch(in: Inputs, lmax: Int): SketchCounts = {
    val n = in.n
    val k = in.k
    val x = Array.ofDim[Long](n, k)
    in.seeds.foreach(v => x(v)(in.cls(v)) = 1L)
    def mul(f: Array[Array[Long]]): Array[Array[Long]] = {
      val out = Array.ofDim[Long](n, k)
      var v = 0
      while (v < n) {
        var p = in.adjStart(v)
        while (p < in.adjStart(v + 1)) {
          val u = in.adj(p)
          var c = 0
          while (c < k) { out(v)(c) += f(u)(c); c += 1 }
          p += 1
        }
        v += 1
      }
      out
    }
    def collapse(f: Array[Array[Long]]): Array[Array[Long]] = {
      val out = Array.ofDim[Long](k, k)
      in.seeds.foreach(v => for (c <- 0 until k) out(in.cls(v))(c) += f(v)(c))
      out
    }
    val n1 = mul(x)
    val full = Vector.newBuilder[Array[Array[Long]]] += collapse(n1)
    val nb = Vector.newBuilder[Array[Array[Long]]] += collapse(n1)
    var fullPrev = n1
    var nb2 = x
    var nb1 = n1
    for (l <- 2 to lmax) {
      fullPrev = mul(fullPrev)
      full += collapse(fullPrev)
      val c = if (l == 2) 0L else 1L
      val wn = mul(nb1)
      val cur = Array.tabulate(n, k)((v, j) => wn(v)(j) - (in.degree(v) - c) * nb2(v)(j))
      nb += collapse(cur)
      nb2 = nb1
      nb1 = cur
    }
    (full.result(), nb.result())
  }

  /** ρ(W) by power iteration on W + I (the shift keeps a bipartite −ρ from
    * stalling it), run until the Rayleigh quotient stops moving.
    */
  def spectralRadius(in: Inputs): Double = {
    val n = in.n
    var x = Array.fill(n)(1.0 / math.sqrt(n))
    var lambda = 0.0
    var it = 0
    var done = false
    while (!done && it < 100000) {
      val wx = new Array[Double](n)
      var v = 0
      while (v < n) {
        var s = 0.0
        var p = in.adjStart(v)
        while (p < in.adjStart(v + 1)) { s += x(in.adj(p)); p += 1 }
        wx(v) = s
        v += 1
      }
      val next = (0 until n).map(v => x(v) * wx(v)).sum
      val y = Array.tabulate(n)(v => wx(v) + x(v))
      val norm = math.sqrt(y.map(a => a * a).sum)
      if (norm == 0.0) return 0.0
      x = y.map(_ / norm)
      done = it > 0 && math.abs(next - lambda) <= 1e-13 * math.abs(next)
      lambda = next
      it += 1
    }
    lambda
  }

  /** ρ of a small symmetric matrix by power iteration on its square. */
  def symmetricRadius(h: Mat): Double = {
    val k = h.length
    val h2 = Array.tabulate(k, k)((i, j) => (0 until k).map(r => h(i)(r) * h(r)(j)).sum)
    var x = Array.tabulate(k)(i => 1.0 + 0.1 * i)
    var lambda = 0.0
    for (_ <- 0 until 2000) {
      val y = Array.tabulate(k)(i => (0 until k).map(j => h2(i)(j) * x(j)).sum)
      val norm = math.sqrt(y.map(a => a * a).sum)
      if (norm == 0.0) return 0.0
      lambda = norm / math.sqrt(x.map(a => a * a).sum)
      x = y.map(_ / norm)
    }
    math.sqrt(lambda)
  }

  /** LinBP on the driver, as the paper states it: F ← X̃ + ε·W·F·H̃ with
    * ε = s/(ρ(W)·ρ(H̃)); returns argmax labels for all n nodes, ties
    * toward the smaller class.
    */
  def linbpLabels(in: Inputs, h: Mat, iterations: Int, s: Double, rhoW: Double): Array[Int] = {
    val n = in.n
    val k = in.k
    val ht = h.map(_.map(_ - 1.0 / k))
    val rhoH = symmetricRadius(ht)
    val x = Array.ofDim[Double](n, k)
    in.seeds.foreach(v => for (c <- 0 until k) x(v)(c) = (if (c == in.cls(v)) 1.0 else 0.0) - 1.0 / k)
    var f = x
    if (rhoH >= 1e-12) {
      val eps = s / (rhoW * rhoH)
      for (_ <- 1 to iterations) {
        val next = Array.ofDim[Double](n, k)
        var v = 0
        while (v < n) {
          val wf = new Array[Double](k)
          var p = in.adjStart(v)
          while (p < in.adjStart(v + 1)) {
            val u = in.adj(p)
            var c = 0
            while (c < k) { wf(c) += f(u)(c); c += 1 }
            p += 1
          }
          for (j <- 0 until k) next(v)(j) = x(v)(j) + eps * (0 until k).map(c => wf(c) * ht(c)(j)).sum
          v += 1
        }
        f = next
      }
    }
    f.map(row => row.indices.maxBy(c => (row(c), -c)))
  }

  /** Non-seed accuracy of labels over all nodes. */
  def accuracy(in: Inputs, labels: Array[Int]): Double = {
    val isSeed = new Array[Boolean](in.n)
    in.seeds.foreach(isSeed(_) = true)
    val eval = (0 until in.n).filterNot(isSeed)
    eval.count(v => labels(v) == in.cls(v)).toDouble / eval.size
  }

  /** Gold standard: row-normalized class co-occurrence of neighbors on the
    * fully labeled graph (§5.3).
    */
  def goldStandard(in: Inputs): Mat = {
    val cnt = Array.ofDim[Double](in.k, in.k)
    for (v <- 0 until in.n; p <- in.adjStart(v) until in.adjStart(v + 1)) cnt(in.cls(v))(in.cls(in.adj(p))) += 1
    cnt.map { row => val s = row.sum; if (s > 0) row.map(_ / s) else row }
  }

  def frobDist(a: Mat, b: Mat): Double =
    math.sqrt(a.indices.map(i => a(i).indices.map(j => math.pow(a(i)(j) - b(i)(j), 2)).sum).sum)

  // ---- checks ----

  def checkSketch(expected: SketchCounts, mFull: IndexedSeq[Mat], mNB: IndexedSeq[Mat]): Option[String] = {
    def diff(name: String, want: IndexedSeq[Array[Array[Long]]], got: IndexedSeq[Mat]): Option[String] =
      if (want.length != got.length) Some(s"$name: ${got.length} lengths, expected ${want.length}")
      else want.indices.iterator.flatMap { l =>
        val bad = for { i <- want(l).indices; j <- want(l)(i).indices if want(l)(i)(j).toDouble != got(l)(i)(j) }
          yield s"$name(ℓ=${l + 1})[$i][$j] = ${got(l)(i)(j)}, expected ${want(l)(i)(j)}"
        bad.headOption
      }.nextOption()
    diff("M_full", expected._1, mFull).orElse(diff("M_NB", expected._2, mNB))
  }

  def checkRho(expected: Double, got: Double): Option[String] =
    if (math.abs(got - expected) <= RhoTolerance * expected) None
    else Some(f"ρ(W) = $got%.6f, converged reference $expected%.6f (tolerance ${RhoTolerance * 100}%.1f%%)")

  def checkLabels(expected: Array[Int], got: Map[Long, Int]): Option[String] = {
    val agree = expected.indices.count(v => got.getOrElse(v.toLong, 0) == expected(v)).toDouble / expected.length
    if (agree >= LabelAgreement) None
    else Some(f"LinBP labels agree with the reference on $agree%.4f of nodes, need $LabelAgreement")
  }

  def checkAccuracy(expected: Double, got: Double): Option[String] =
    if (math.abs(expected - got) <= 1e-12) None else Some(s"accuracy $got, reference $expected")

  def checkQuality(hL2: Double, accuracy: Double): Option[String] =
    if (hL2 > MaxHL2) Some(f"‖Ĥ − GS‖ = $hL2%.4f > $MaxHL2")
    else if (accuracy < MinAccuracy) Some(f"accuracy $accuracy%.4f < $MinAccuracy")
    else None

  /** Ĥ is finite, symmetric, and has unit row and column sums. */
  def checkH(h: Mat): Option[String] = {
    val k = h.length
    if (h.exists(r => r.length != k)) Some("Ĥ is not square")
    else if (h.exists(_.exists(x => x.isNaN || x.isInfinite))) Some("Ĥ has a non-finite entry")
    else if ((for (i <- 0 until k; j <- 0 until k) yield math.abs(h(i)(j) - h(j)(i))).max > HTolerance) Some("Ĥ is not symmetric")
    else if (h.exists(r => math.abs(r.sum - 1.0) > HTolerance) ||
             (0 until k).exists(j => math.abs(h.map(_(j)).sum - 1.0) > HTolerance)) Some("Ĥ rows or columns do not sum to 1")
    else None
  }
}
