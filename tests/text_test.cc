#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "text/lda.h"
#include "text/similarity.h"
#include "text/stopwords.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace icrowd {
namespace {

// ------------------------------------------------------------- Stopwords --

TEST(StopwordsTest, CommonWordsAreStopWords) {
  for (const char* w : {"the", "a", "and", "is", "of", "with"}) {
    EXPECT_TRUE(IsStopWord(w)) << w;
  }
}

TEST(StopwordsTest, ContentWordsAreNot) {
  for (const char* w : {"iphone", "calories", "nba", "copernicus", "zzz"}) {
    EXPECT_FALSE(IsStopWord(w)) << w;
  }
}

// ------------------------------------------------------------- Tokenizer --

TEST(TokenizerTest, SplitsOnNonAlnumAndLowercases) {
  Tokenizer tok;
  auto tokens = tok.Tokenize("iPhone-4 WiFi, 32GB!");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"iphone", "4", "wifi", "32gb"}));
}

TEST(TokenizerTest, RemovesStopWordsByDefault) {
  Tokenizer tok;
  auto tokens = tok.Tokenize("the cat and the hat");
  EXPECT_EQ(tokens, (std::vector<std::string>{"cat", "hat"}));
}

TEST(TokenizerTest, KeepsStopWordsWhenDisabled) {
  TokenizerOptions options;
  options.remove_stopwords = false;
  Tokenizer tok(options);
  auto tokens = tok.Tokenize("the cat");
  EXPECT_EQ(tokens, (std::vector<std::string>{"the", "cat"}));
}

TEST(TokenizerTest, CaseSensitiveWhenLowercaseDisabled) {
  TokenizerOptions options;
  options.lowercase = false;
  options.remove_stopwords = false;
  Tokenizer tok(options);
  EXPECT_EQ(tok.Tokenize("NBA Teams"),
            (std::vector<std::string>{"NBA", "Teams"}));
}

TEST(TokenizerTest, MinTokenLengthFilters) {
  TokenizerOptions options;
  options.min_token_length = 3;
  Tokenizer tok(options);
  EXPECT_EQ(tok.Tokenize("go to gym today"),
            (std::vector<std::string>{"gym", "today"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  Tokenizer tok;
  EXPECT_TRUE(tok.Tokenize("").empty());
  EXPECT_TRUE(tok.Tokenize("?!... --- ..").empty());
}

// ------------------------------------------------------------ Vocabulary --

TEST(VocabularyTest, AssignsStableDenseIds) {
  Vocabulary vocab;
  int32_t a = vocab.GetOrAdd("alpha");
  int32_t b = vocab.GetOrAdd("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(vocab.GetOrAdd("alpha"), a);
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.TokenOf(b), "beta");
}

TEST(VocabularyTest, FindReturnsMinusOneForUnknown) {
  Vocabulary vocab;
  vocab.GetOrAdd("x");
  EXPECT_EQ(vocab.Find("x"), 0);
  EXPECT_EQ(vocab.Find("y"), -1);
}

// ----------------------------------------------------------------- TfIdf --

TEST(TfIdfTest, SparseVectorDotAndNorm) {
  SparseVector a{{0, 2, 5}, {1.0, 2.0, 3.0}};
  SparseVector b{{2, 5, 9}, {4.0, 1.0, 7.0}};
  EXPECT_DOUBLE_EQ(Dot(a, b), 2.0 * 4.0 + 3.0 * 1.0);
  EXPECT_DOUBLE_EQ(a.Norm(), std::sqrt(1.0 + 4.0 + 9.0));
}

TEST(TfIdfTest, CosineBoundsAndIdentity) {
  Tokenizer tok;
  TfIdfModel model({"red apple pie", "red apple pie", "blue sky ocean"}, tok);
  EXPECT_NEAR(CosineSimilarity(model.VectorOf(0), model.VectorOf(1)), 1.0,
              1e-12);
  EXPECT_NEAR(CosineSimilarity(model.VectorOf(0), model.VectorOf(2)), 0.0,
              1e-12);
}

TEST(TfIdfTest, RareTermsWeighHigherThanCommonOnes) {
  Tokenizer tok;
  // "shared" appears in every document, "rare" only in one.
  TfIdfModel model(
      {"shared rare", "shared other", "shared another", "shared more"}, tok);
  const SparseVector& v = model.VectorOf(0);
  int32_t shared_id = model.vocabulary().Find("shared");
  int32_t rare_id = model.vocabulary().Find("rare");
  double shared_w = 0.0, rare_w = 0.0;
  for (size_t i = 0; i < v.ids.size(); ++i) {
    if (v.ids[i] == shared_id) shared_w = v.weights[i];
    if (v.ids[i] == rare_id) rare_w = v.weights[i];
  }
  EXPECT_GT(rare_w, shared_w);
}

TEST(TfIdfTest, TransformIgnoresUnknownTokens) {
  Tokenizer tok;
  TfIdfModel model({"alpha beta", "beta gamma"}, tok);
  SparseVector v = model.Transform("beta zeta", tok);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.ids[0], model.vocabulary().Find("beta"));
}

TEST(TfIdfTest, EmptyVectorCosineIsZero) {
  SparseVector empty;
  SparseVector v{{1}, {2.0}};
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, v), 0.0);
}

// ------------------------------------------------------------ Similarity --

TEST(JaccardTest, MatchesHandComputedRecordPair) {
  Tokenizer tok;
  double s = JaccardSimilarity("ipod touch 32GB WiFi",
                               "ipod touch case black", tok);
  // {ipod,touch} over {ipod,touch,32gb,wifi,case,black}.
  EXPECT_NEAR(s, 2.0 / 6.0, 1e-12);
}

TEST(JaccardTest, MatchesPaperTable1TokenSets) {
  // The paper's Figure 3 edge between t2 and t7: token sets
  // {ipod touch 32GB WiFi headphone} and {ipod touch 32GB WiFi case black}
  // give 4/7.
  std::vector<std::string> t2 = {"ipod", "touch", "32gb", "wifi",
                                 "headphone"};
  std::vector<std::string> t7 = {"ipod", "touch", "32gb",
                                 "wifi", "case",  "black"};
  EXPECT_NEAR(JaccardSimilarity(t2, t7), 4.0 / 7.0, 1e-12);
}

TEST(JaccardTest, IdenticalAndDisjointSets) {
  std::vector<std::string> a = {"x", "y"};
  std::vector<std::string> b = {"x", "y"};
  std::vector<std::string> c = {"z"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, c), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 0.0);
}

TEST(JaccardTest, DuplicateTokensCountOnce) {
  std::vector<std::string> a = {"x", "x", "y"};
  std::vector<std::string> b = {"x"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(a, b), 0.5);
}

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(EditDistanceTest, SymmetryProperty) {
  EXPECT_EQ(EditDistance("iphone four", "iphone 4"),
            EditDistance("iphone 4", "iphone four"));
}

TEST(EditSimilarityTest, NormalizedBounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "xyz"), 0.0);
  double s = EditSimilarity("ipad 3", "ipad 4");
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
}

TEST(EuclideanTest, DistanceAndSimilarity) {
  std::vector<double> a = {0.0, 0.0};
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanSimilarity(a, b, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(EuclideanSimilarity(a, a, 10.0), 1.0);
  // Distances beyond tau_d clamp to zero similarity.
  EXPECT_DOUBLE_EQ(EuclideanSimilarity(a, b, 2.0), 0.0);
}

// ------------------------------------------------------------------- LDA --

std::vector<std::string> TwoTopicCorpus() {
  std::vector<std::string> docs;
  for (int i = 0; i < 12; ++i) {
    docs.push_back("basketball court dunk rebound playoff coach arena");
    docs.push_back("novel author chapter prose publisher paperback fiction");
  }
  return docs;
}

TEST(LdaTest, RejectsBadInputs) {
  Tokenizer tok;
  LdaOptions options;
  EXPECT_FALSE(LdaModel::Fit({}, tok, options).ok());
  options.num_topics = 0;
  EXPECT_FALSE(LdaModel::Fit({"a b"}, tok, options).ok());
  options = LdaOptions();
  options.alpha = 0.0;
  EXPECT_FALSE(LdaModel::Fit({"word soup"}, tok, options).ok());
  options = LdaOptions();
  // All stop words tokenize to nothing.
  EXPECT_FALSE(LdaModel::Fit({"the and of"}, tok, options).ok());
}

TEST(LdaTest, ThetaIsAProbabilityDistribution) {
  Tokenizer tok;
  LdaOptions options;
  options.num_topics = 4;
  options.num_iterations = 50;
  options.burn_in = 20;
  auto model = LdaModel::Fit(TwoTopicCorpus(), tok, options);
  ASSERT_TRUE(model.ok());
  for (size_t d = 0; d < model->num_documents(); ++d) {
    const auto& theta = model->TopicDistribution(d);
    double sum = 0.0;
    for (double p : theta) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, PhiIsAProbabilityDistribution) {
  Tokenizer tok;
  LdaOptions options;
  options.num_topics = 3;
  options.num_iterations = 30;
  options.burn_in = 10;
  auto model = LdaModel::Fit(TwoTopicCorpus(), tok, options);
  ASSERT_TRUE(model.ok());
  for (int k = 0; k < model->num_topics(); ++k) {
    auto phi = model->TopicWordDistribution(k);
    double sum = 0.0;
    for (double p : phi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LdaTest, SeparatesPlantedTopics) {
  Tokenizer tok;
  LdaOptions options;
  options.num_topics = 4;
  auto model = LdaModel::Fit(TwoTopicCorpus(), tok, options);
  ASSERT_TRUE(model.ok());
  // Same-topic documents (even/even) should be much more similar than
  // cross-topic documents (even/odd).
  double same = model->TopicCosine(0, 2);
  double cross = model->TopicCosine(0, 1);
  EXPECT_GT(same, 0.9);
  EXPECT_LT(cross, 0.6);
}

TEST(LdaTest, DeterministicForFixedSeed) {
  Tokenizer tok;
  LdaOptions options;
  options.num_topics = 3;
  options.num_iterations = 40;
  options.burn_in = 10;
  auto a = LdaModel::Fit(TwoTopicCorpus(), tok, options);
  auto b = LdaModel::Fit(TwoTopicCorpus(), tok, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t d = 0; d < a->num_documents(); ++d) {
    EXPECT_EQ(a->TopicDistribution(d), b->TopicDistribution(d));
  }
}

}  // namespace
}  // namespace icrowd
