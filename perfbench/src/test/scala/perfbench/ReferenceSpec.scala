package perfbench

/** The output checks on graphs small enough to count by hand. Every node
  * is a seed of its own class, so X = I and each sketch M⁽ℓ⁾ is the path
  * count matrix itself.
  */
class ReferenceSpec extends SparkSuite {

  private def graph(n: Int, edges: (Int, Int)*): Inputs = {
    val (src, dst) = edges.unzip
    val (start, adj) = Inputs.csr(n, src.toArray, dst.toArray)
    new Inputs(GraphSpec(k = n, h = 1.0, n = n, f = 0.5), 0L, Array.fill(n)(1), Array.range(0, n),
      src.toArray, dst.toArray, Array.range(0, n), start, adj)
  }

  private val path = graph(3, 0 -> 1, 1 -> 2)
  private val star = graph(4, 0 -> 1, 0 -> 2, 0 -> 3)
  private val triangle = graph(3, 0 -> 1, 1 -> 2, 2 -> 0)

  private def m(rows: Long*)(k: Int): Array[Array[Long]] = rows.grouped(k).map(_.toArray).toArray

  private def same(a: Array[Array[Long]], b: Array[Array[Long]]): Boolean =
    a.length == b.length && a.indices.forall(i => a(i).sameElements(b(i)))

  test("path 0–1–2: full and non-backtracking counts") {
    val (full, nb) = Reference.sketch(path, 3)
    assert(same(full(1), m(1, 0, 1, 0, 2, 0, 1, 0, 1)(3)))
    assert(same(nb(1), m(0, 0, 1, 0, 0, 0, 1, 0, 0)(3)))   // only 0→1→2 and back
    assert(same(full(2), m(0, 2, 0, 2, 0, 2, 0, 2, 0)(3)))
    assert(same(nb(2), m(0, 0, 0, 0, 0, 0, 0, 0, 0)(3)))   // no NB path of length 3
  }

  test("star: leaves meet only through the center") {
    val (full, nb) = Reference.sketch(star, 3)
    assert(same(nb(0), m(0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)(4)))
    assert(same(full(1), m(3, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1)(4)))
    assert(same(nb(1), m(0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 0)(4)))
    assert(same(nb(2), m(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)(4)))
  }

  test("triangle: two NB 3-cycles per node, W³ = 2 on and 3 off the diagonal") {
    val (full, nb) = Reference.sketch(triangle, 3)
    assert(same(nb(1), m(0, 1, 1, 1, 0, 1, 1, 1, 0)(3)))
    assert(same(full(2), m(2, 3, 3, 3, 2, 3, 3, 3, 2)(3)))
    assert(same(nb(2), m(2, 0, 0, 0, 2, 0, 0, 0, 2)(3)))
  }

  test("the program's sketches pass the check, and a corrupted one fails it") {
    for (in <- Seq(path, star, triangle)) {
      val g = Program.ingest(spark, in.n, in.edgeFrame(spark, 2))
      val sk = Program.sketch(g, in.seedFrame(spark, 2), in.k, 3)
      val ref = Reference.sketch(in, 3)
      assert(Reference.checkSketch(ref, sk.mFull, sk.mNB).isEmpty)
      val bad = sk.mNB.map(_.map(_.clone()))
      bad(2)(0)(0) += 1
      assert(Reference.checkSketch(ref, sk.mFull, bad).exists(_.contains("M_NB(ℓ=3)[0][0]")))
      assert(Reference.checkSketch(ref, sk.mFull, sk.mNB.take(2)).isDefined)
    }
  }

  test("ρ(W) of the hand graphs, and the tolerance around it") {
    assert(math.abs(Reference.spectralRadius(path) - math.sqrt(2)) < 1e-9)
    assert(math.abs(Reference.spectralRadius(star) - math.sqrt(3)) < 1e-9)
    assert(math.abs(Reference.spectralRadius(triangle) - 2.0) < 1e-9)
    assert(Reference.checkRho(2.0, 2.0 * (1 + Reference.RhoTolerance / 2)).isEmpty)
    assert(Reference.checkRho(2.0, 2.0 * (1 + 2 * Reference.RhoTolerance)).isDefined)
  }

  test("Ĥ must be finite, symmetric and doubly stochastic") {
    val good = Inputs.plantedH(3, 8.0)
    assert(Reference.checkH(good).isEmpty)
    val asym = good.map(_.clone()); asym(0)(1) += 0.01; asym(0)(2) -= 0.01
    assert(Reference.checkH(asym).isDefined)
    assert(Reference.checkH(good.map(_.map(_ * 1.1))).isDefined)
    assert(Reference.checkH(good.map(_.map(_ => Double.NaN))).isDefined)
  }

  test("LinBP labels: the reference agrees with the program on a planted graph") {
    val in = Inputs.generate(PipelineSmall.spec, 5)
    val g = Program.ingest(spark, in.n, in.edgeFrame(spark, Inputs.Slices))
    val seeds = in.seedFrame(spark, Inputs.Slices)
    val h = Inputs.plantedH(3, 8.0)
    val rho = Reference.spectralRadius(in)
    val got = Program.argmax(Program.linbp(g, seeds, h, 10, 0.5, rho)).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    val want = Reference.linbpLabels(in, h, 10, 0.5, rho)
    assert(Reference.checkLabels(want, got).isEmpty)
    val flipped = got.map { case (v, c) => v -> (c + 1) % 3 }
    assert(Reference.checkLabels(want, flipped).isDefined)
  }
}
