#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/common/table_printer.h"

namespace openea {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values should occur in 1000 draws.
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ZipfFavorsSmallIndices) {
  Rng rng(13);
  const size_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) counts[rng.NextZipf(n, 1.2)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  // All samples in range (guaranteed by implementation, sanity check).
  const int total = std::accumulate(counts.begin(), counts.end(), 0);
  EXPECT_EQ(total, 20000);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> items(50);
  std::iota(items.begin(), items.end(), 0);
  auto copy = items;
  rng.Shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, items);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  std::vector<int> items(30);
  std::iota(items.begin(), items.end(), 0);
  const auto sample = rng.SampleWithoutReplacement(items, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // Child stream should not simply replay the parent stream.
  Rng b(5);
  b.NextU64();  // Parent consumed one value while forking.
  EXPECT_NE(child.NextU64(), b.NextU64());
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("dim must be > 0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: dim must be > 0");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  const auto parts = SplitWhitespace("  hello   world \t x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1000), "-1,000");
  EXPECT_EQ(FormatWithCommas(999), "999");
}

TEST(StringsTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

TEST(StringsTest, EditSimilarityBounds) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_GT(EditSimilarity("paris", "parris"), 0.8);
  EXPECT_LT(EditSimilarity("abc", "xyz"), 0.01);
}

TEST(StringsTest, TrigramJaccardOrderInsensitiveToSmallEdits) {
  const double close = TrigramJaccard("knowledge", "knowledg");
  const double far = TrigramJaccard("knowledge", "zzzzz");
  EXPECT_GT(close, far);
  EXPECT_DOUBLE_EQ(TrigramJaccard("abc", "abc"), 1.0);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 10000; ++i) x = x + 1.0;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), 0.0);
}

TEST(TablePrinterTest, CsvExportSkipsSeparatorsAndQuotes) {
  TablePrinter table({"Approach", "Note"});
  table.AddRow({"MTransE", "plain"});
  table.AddSeparator();
  table.AddRow({"BootEA", "has, comma"});
  table.AddRow({"RDGCN", "has \"quote\""});
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv,
            "Approach,Note\n"
            "MTransE,plain\n"
            "BootEA,\"has, comma\"\n"
            "RDGCN,\"has \"\"quote\"\"\"\n");
}

TEST(TablePrinterTest, CsvPadsShortRows) {
  TablePrinter table({"A", "B", "C"});
  table.AddRow({"x"});
  EXPECT_EQ(table.ToCsv(), "A,B,C\nx,,\n");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"Approach", "Hits@1"});
  table.AddRow({"MTransE", "0.247"});
  table.AddSeparator();
  table.AddRow({"RDGCN", "0.755"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("MTransE"), std::string::npos);
  EXPECT_NE(out.find("0.755"), std::string::npos);
  EXPECT_NE(out.find("+"), std::string::npos);
}

// ---------------------------------------------------------------------------
// json number path: AppendNumber against the printf formatting it replaced,
// Parse against strtod on the token it scans.
// ---------------------------------------------------------------------------

/// The number formatting AppendNumber must reproduce: null for non-finite
/// values, integral values below 1e15 as integers, the rest "%.17g".
std::string PrintfNumber(double d) {
  if (!std::isfinite(d)) return "null";
  if (std::fabs(d) < 1e15 &&
      d == static_cast<double>(static_cast<long long>(d))) {
    return std::to_string(static_cast<long long>(d));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string AppendedNumber(double d) {
  std::string out = "x";  // AppendNumber appends.
  json::AppendNumber(d, out);
  return out.substr(1);
}

TEST(JsonNumberTest, AppendNumberMatchesPrintfOnEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cases[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.5, -1e-7, 1e15, -1e15,
      std::nextafter(1e15, 0.0), std::nextafter(1e15, kInf), 1e15 - 1.0,
      999999999999999.5, 123456789012345678.0, 1e300, -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      static_cast<double>(std::numeric_limits<float>::max()),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      static_cast<double>(0.70710677f), kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN()};
  for (const double d : cases) {
    EXPECT_EQ(AppendedNumber(d), PrintfNumber(d)) << PrintfNumber(d);
  }
}

TEST(JsonNumberTest, AppendNumberMatchesPrintfOnRandomBitPatterns) {
  // Every double bit pattern class (denormals, NaNs, both infinities, the
  // integral range), then float bit patterns widened to double: the
  // values a served score takes.
  Rng rng(2024);
  size_t mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double d = std::bit_cast<double>(rng.NextU64());
    if (AppendedNumber(d) != PrintfNumber(d) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(d) << ": "
                    << AppendedNumber(d) << " vs " << PrintfNumber(d);
    }
  }
  for (int i = 0; i < 200000; ++i) {
    const double d = static_cast<double>(
        std::bit_cast<float>(static_cast<uint32_t>(rng.NextU64())));
    if (AppendedNumber(d) != PrintfNumber(d) && ++mismatches <= 5) {
      ADD_FAILURE() << AppendedNumber(d) << " vs " << PrintfNumber(d);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Parse of the document `token` agrees with strtod on the same bytes: it
/// accepts exactly when strtod reads the whole token, to the same double.
void ExpectParseMatchesStrtod(const std::string& token) {
  char* end = nullptr;
  const double want = std::strtod(token.c_str(), &end);
  const bool strtod_accepts =
      !token.empty() && end == token.c_str() + token.size();
  json::Value value;
  const Status parsed = json::Parse(token, &value);
  ASSERT_EQ(parsed.ok(), strtod_accepts) << "token '" << token << "'";
  if (!parsed.ok()) return;
  ASSERT_TRUE(value.is_number()) << token;
  EXPECT_EQ(std::bit_cast<uint64_t>(value.number()),
            std::bit_cast<uint64_t>(want))
      << "token '" << token << "'";
}

TEST(JsonNumberTest, ParseMatchesStrtodOnTokenCorpus) {
  for (const char* token :
       {"+1", "+-1", "++1", "--1", "1e", "1e+", "-", "+", ".", ".5", "-.5",
        "+.5", "1.", "00012", "-0", "-0.0", "0e0", "1e+5", "1E-5", "1.5e3.2",
        "1-2", "e5", "-e5", "1e999", "-1e999", "1e-999", "-1e-999",
        "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
        "2.2250738585072011e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "123456789012345678901234567890",
        "0.1000000000000000055511151231257827021181583404541015625",
        "3.4028234663852886e38", "0.70710677"}) {
    ExpectParseMatchesStrtod(token);
  }
}

TEST(JsonNumberTest, ParseMatchesStrtodOnRandomTokens) {
  Rng rng(7);
  // Short strings over the bytes the number scanner takes.
  const std::string alphabet = "0123456789.eE+-";
  for (int i = 0; i < 200000; ++i) {
    std::string token(1 + rng.NextBounded(8), ' ');
    for (char& c : token) c = alphabet[rng.NextBounded(alphabet.size())];
    ExpectParseMatchesStrtod(token);
  }
  // Printed doubles and floats, at full and at short precision.
  for (int i = 0; i < 100000; ++i) {
    const double d = std::bit_cast<double>(rng.NextU64());
    const float f = std::bit_cast<float>(static_cast<uint32_t>(rng.NextU64()));
    if (!std::isfinite(d) || !std::isfinite(f)) continue;
    char buf[64];
    for (const char* format : {"%.17g", "%.9g", "%.3e"}) {
      std::snprintf(buf, sizeof(buf), format, d);
      ExpectParseMatchesStrtod(buf);
      std::snprintf(buf, sizeof(buf), format, static_cast<double>(f));
      ExpectParseMatchesStrtod(buf);
    }
  }
}

}  // namespace
}  // namespace openea
