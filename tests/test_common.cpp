// Unit tests for the common utilities: RNG, stats, table, CLI, binary I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace sei {
namespace {

TEST(Check, ThrowsWithLocation) {
  try {
    SEI_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng r(99);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[r.below(5)];
  for (int c : counts) EXPECT_NEAR(c, n / 5, n / 50);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, GaussianIsTheBoxMullerPairOfItsUniforms) {
  Rng r(17), u(17);
  for (int i = 0; i < 1000; i += 2) {
    double u1 = u.uniform();
    while (u1 <= 0.0) u1 = u.uniform();
    const double u2 = u.uniform();
    const double rad = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    ASSERT_EQ(r.gaussian(), rad * std::cos(theta)) << "draw " << i;
    ASSERT_EQ(r.gaussian(), rad * std::sin(theta)) << "draw " << i + 1;
  }
}

TEST(Rng, SkipGaussiansLandsWhereEagerCallsDo) {
  // Both starting pair halves: fresh, and with a cached second half.
  for (const bool half : {false, true}) {
    for (std::uint64_t n = 0; n <= 9; ++n) {
      Rng lazy(29), eager(29);
      if (half) {
        (void)lazy.gaussian();
        (void)eager.gaussian();
      }
      lazy.skip_gaussians(n);
      double want = 0.0;
      for (std::uint64_t i = 0; i <= n; ++i) want = eager.gaussian();
      EXPECT_EQ(lazy.gaussian(), want) << "n=" << n << " half=" << half;
      EXPECT_EQ(lazy.gaussian(), eager.gaussian()) << "n=" << n;
      EXPECT_EQ(lazy(), eager()) << "n=" << n;
    }
  }
}

TEST(Rng, SkipGaussiansAfterReseedStartsAFreshPair) {
  for (std::uint64_t n = 0; n <= 9; ++n) {
    Rng lazy(31), eager(404);
    (void)lazy.gaussian();  // leaves a cached half that reseed must drop
    lazy.reseed(404);
    lazy.skip_gaussians(n);
    double want = 0.0;
    for (std::uint64_t i = 0; i <= n; ++i) want = eager.gaussian();
    EXPECT_EQ(lazy.gaussian(), want) << "n=" << n;
    EXPECT_EQ(lazy(), eager()) << "n=" << n;
  }
}

TEST(Rng, LognormalMultiplierMeanIsOne) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.lognormal_multiplier(0.2));
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
  EXPECT_GT(s.stddev(), 0.1);
}

TEST(Rng, LognormalZeroSigmaIsExactlyOne) {
  Rng r(13);
  EXPECT_DOUBLE_EQ(r.lognormal_multiplier(0.0), 1.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  EXPECT_NE(parent(), child());
}

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(EdgeHistogram, PaperBins) {
  EdgeHistogram h({0.0, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0});
  h.add(0.0);     // bin 0 (left edge)
  h.add(0.05);    // bin 0
  h.add(0.07);    // bin 1
  h.add(0.2);     // bin 2
  h.add(0.9);     // bin 3
  h.add(1.0);     // bin 3 (right edge closed)
  h.add(2.0);     // out of range
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.out_of_range(), 1u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_DOUBLE_EQ(h.fraction(0), 2.0 / 6.0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t("Title");
  t.header({"a", "bbbb"});
  t.row({"x", "1"});
  t.separator();
  t.row({"longer", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| longer |"), std::string::npos);
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::pct(99.5, 1), "99.5%");
}

TEST(TextTable, CsvExport) {
  TextTable t("Title ignored in CSV");
  t.header({"a", "b"});
  t.row({"x", "1,5"});
  t.separator();
  t.row({"quote\"d", "2"});
  EXPECT_EQ(t.csv(), "a,b\nx,\"1,5\"\n\"quote\"\"d\",2\n");
}

TEST(TextTable, WriteCsvIfEmptyPathIsNoop) {
  TextTable t;
  t.header({"a"});
  EXPECT_NO_THROW(t.write_csv_if(""));
  const std::string path =
      (std::filesystem::temp_directory_path() / "sei_table.csv").string();
  t.row({"v"});
  t.write_csv_if(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  std::filesystem::remove(path);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  const char* argv[] = {"prog", "--alpha", "3", "--flag", "--name=xyz"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 1), 3);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("name", "none"), "xyz");
  EXPECT_EQ(cli.get_int("missing", 17), 17);
  EXPECT_TRUE(cli.validate("test"));
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo", "1"};
  Cli cli(3, const_cast<char**>(argv));
  cli.get_int("alpha", 1);
  EXPECT_THROW(cli.validate("test"), CliError);
}

TEST(Cli, SuggestsClosestKnownFlag) {
  // The motivating typo: --treads must not silently run with defaults.
  const char* argv[] = {"prog", "--treads", "8"};
  Cli cli(3, const_cast<char**>(argv));
  cli.get_threads();
  try {
    cli.validate("test");
    FAIL() << "validate() accepted an unknown flag";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--treads"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --threads"), std::string::npos) << what;
  }
}

TEST(Cli, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--alpha", "abc"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int("alpha", 1), CliError);
  const char* argv2[] = {"prog", "--threads", "-2"};
  Cli cli2(3, const_cast<char**>(argv2));
  EXPECT_THROW(cli2.get_threads(), CliError);
}

TEST(BinaryIo, RoundTrip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io.bin";
  {
    BinaryWriter w(path);
    w.write_u32(0xdeadbeef);
    w.write_f64(3.25);
    w.write_string("hello");
    w.write_f32_vec({1.0f, -2.0f});
    w.write_i32_vec({-7, 8});
    w.write_u8_vec({9, 10, 11});
    w.commit();
  }
  BinaryReader r(path);
  r.verify_crc();  // trailer checks out and is hidden from the cursor
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.25);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_f32_vec(), (std::vector<float>{1.0f, -2.0f}));
  EXPECT_EQ(r.read_i32_vec(), (std::vector<std::int32_t>{-7, 8}));
  EXPECT_EQ(r.read_u8_vec(), (std::vector<std::uint8_t>{9, 10, 11}));
  std::filesystem::remove(path);
}

TEST(BinaryIo, UncommittedWriterLeavesNoFile) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io_uncommitted.bin";
  {
    BinaryWriter w(path);
    w.write_u32(1);
    // no commit
  }
  EXPECT_FALSE(file_exists(path));
}

TEST(BinaryIo, TruncatedReadThrows) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io_trunc.bin";
  {
    BinaryWriter w(path);
    w.write_u32(1);
    w.commit();
  }
  BinaryReader r(path);
  r.verify_crc();  // shrinks the logical size to the 4-byte payload
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u64(), CheckError);
  std::filesystem::remove(path);
}

TEST(BinaryIo, CrcDetectsBitFlip) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io_flip.bin";
  {
    BinaryWriter w(path);
    w.write_f32_vec({1.0f, 2.0f, 3.0f});
    w.commit();
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(9);  // inside the payload
    char byte = 0x5a;
    f.write(&byte, 1);
  }
  BinaryReader r(path);
  EXPECT_THROW(r.verify_crc(), CheckError);
  std::filesystem::remove(path);
}

TEST(BinaryIo, CrcRejectsLegacyFileWithoutTrailer) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io_legacy.bin";
  {
    std::ofstream f(path, std::ios::binary);
    const std::uint64_t payload = 42;  // pre-CRC format: raw payload only
    f.write(reinterpret_cast<const char*>(&payload), sizeof payload);
  }
  BinaryReader r(path);
  EXPECT_THROW(r.verify_crc(), CheckError);
  std::filesystem::remove(path);
}

TEST(BinaryIo, CommitAtomicallyReplacesExistingFile) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "sei_test_io_replace.bin";
  {
    BinaryWriter w(path);
    w.write_u32(1);
    w.commit();
  }
  {
    BinaryWriter w(path);
    w.write_u32(2);
    w.commit();
  }
  EXPECT_FALSE(file_exists(path + ".tmp"));
  BinaryReader r(path);
  r.verify_crc();
  EXPECT_EQ(r.read_u32(), 2u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sei
