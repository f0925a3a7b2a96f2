package repro

import org.apache.spark.sql.SparkSession

/** Synthetic social-network data for the OCTOPUS reproduction
  * (DESIGN.md §2). SF=1.0 is ~50k users; tests use SF=0.01 (~500 users),
  * benches SF=0.1 (~5k users). Generators are deterministic in (sf, seed).
  */
object SynthData {
  private val NUsersPerSf = 50_000
  private val NItemsPerSf = 100_000

  /** Citation-style network standing in for ACMCite: directed,
    * non-reciprocal edges, topical communities, citation action logs.
    */
  def citeLite(spark: SparkSession, sf: Double = 0.01, seed: Long = 42,
               numTopics: Int = 4, vocabSize: Int = 80): repro.data.SocialDataset =
    repro.data.SocialDataGen.generate(spark, repro.data.SocialConfig(
      numUsers = math.max(50, (NUsersPerSf * sf).toInt),
      avgOutDegree = 8.0,
      numTopics = numTopics,
      vocabSize = vocabSize,
      numItems = math.max(100, (NItemsPerSf * sf).toInt),
      reciprocalProb = 0.0,
      seed = seed,
    ))

  /** Friendship-style network standing in for Tencent QQ: denser, mostly
    * reciprocal edges, e-commerce-flavoured action logs (same schema).
    * Per-edge influence is weaker than in the citation graph (`baseProb`
    * 0.12 vs 0.25) — realistic for high-degree friendship networks, and
    * it keeps within-community cascades near-critical instead of
    * saturating every community on every item.
    */
  def friendLite(spark: SparkSession, sf: Double = 0.01, seed: Long = 43,
                 numTopics: Int = 4, vocabSize: Int = 80): repro.data.SocialDataset =
    repro.data.SocialDataGen.generate(spark, repro.data.SocialConfig(
      numUsers = math.max(50, (NUsersPerSf * sf).toInt),
      avgOutDegree = 12.0,
      numTopics = numTopics,
      vocabSize = vocabSize,
      numItems = math.max(100, (NItemsPerSf * sf).toInt),
      reciprocalProb = 0.8,
      baseProb = 0.12,
      seed = seed,
    ))
}
