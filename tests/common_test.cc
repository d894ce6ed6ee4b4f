#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/rng.h"
#include "common/socket_server.h"
#include "common/status.h"
#include "common/status_or.h"
#include "common/string_util.h"

namespace scenerec {
namespace {

// -- Status -------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::IOError("x"));
  EXPECT_EQ(Status::OK(), Status());
}

Status FailsThenPropagates() {
  SCENEREC_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "inner");
}

// -- StatusOr -----------------------------------------------------------------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  SCENEREC_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(StatusOrTest, AssignOrReturnChains) {
  StatusOr<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd.
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(5);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> v = std::move(result).value();
  EXPECT_EQ(*v, 5);
}

// -- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next64() == b.Next64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextInt(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LT(v, 5);
  }
}

TEST(RngTest, NextIntCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[rng.NextZipf(10, 1.2)]++;
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[1], counts[8]);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 20000);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(100, 10);
    std::set<uint64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (uint64_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SplitIndependentStreams) {
  Rng parent(29);
  Rng child = parent.Split();
  // Child diverges from parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.Next64() == child.Next64());
  EXPECT_LT(same, 3);
}

// -- AliasSampler ----------------------------------------------------------------

TEST(AliasSamplerTest, MatchesWeights) {
  AliasSampler sampler({1.0, 2.0, 3.0, 4.0});
  Rng rng(31);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[sampler.Sample(rng)]++;
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / double(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / double(n), 0.4, 0.015);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({0.0, 1.0, 0.0, 1.0});
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) {
    uint64_t s = sampler.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler sampler({2.5});
  Rng rng(41);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

// -- string_util -------------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitNoDelimiter) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\r\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no_space"), "no_space");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "x", 3), "x=3");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.42984, 4), "0.4298");
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(3002806), "3,002,806");
  EXPECT_EQ(FormatWithCommas(-1234567), "-1,234,567");
}

// -- FlagParser -----------------------------------------------------------------

TEST(FlagParserTest, DefaultsWithoutArgs) {
  FlagParser flags;
  flags.AddInt64("seed", 42, "seed");
  flags.AddDouble("lr", 0.01, "learning rate");
  flags.AddBool("verbose", false, "verbosity");
  flags.AddString("name", "default", "name");
  char arg0[] = "prog";
  char* argv[] = {arg0};
  ASSERT_TRUE(flags.Parse(1, argv).ok());
  EXPECT_EQ(flags.GetInt64("seed"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.01);
  EXPECT_FALSE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("name"), "default");
}

TEST(FlagParserTest, ParsesEqualsAndSpaceForms) {
  FlagParser flags;
  flags.AddInt64("seed", 0, "");
  flags.AddDouble("lr", 0.0, "");
  char a0[] = "prog", a1[] = "--seed=7", a2[] = "--lr", a3[] = "0.5";
  char* argv[] = {a0, a1, a2, a3};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  EXPECT_EQ(flags.GetInt64("seed"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr"), 0.5);
}

TEST(FlagParserTest, BoolWithoutValueMeansTrue) {
  FlagParser flags;
  flags.AddBool("verbose", false, "");
  char a0[] = "prog", a1[] = "--verbose";
  char* argv[] = {a0, a1};
  ASSERT_TRUE(flags.Parse(2, argv).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser flags;
  flags.AddInt64("seed", 0, "");
  char a0[] = "prog", a1[] = "--sede=3";
  char* argv[] = {a0, a1};
  const Status status = flags.Parse(2, argv);
  EXPECT_FALSE(status.ok());
  // The status names the flag only; callers print Help() once themselves.
  EXPECT_NE(status.message().find("--sede"), std::string::npos);
  EXPECT_EQ(status.message().find("--seed"), std::string::npos);
  EXPECT_EQ(status.message().find("Flags:"), std::string::npos);
}

TEST(FlagParserTest, HelpPrintsUsageAndExitsZero) {
  // Re-executes the binary for the child: this suite starts thread pools,
  // and a forked child's exit would run their destructors without threads.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlagParser flags;
  flags.AddInt64("seed", 0, "RNG seed");
  char a0[] = "prog", a1[] = "--help";
  char* argv[] = {a0, a1};
  EXPECT_EXIT(flags.Parse(2, argv), ::testing::ExitedWithCode(0), "");
}

TEST(FlagParserTest, BadValueRejected) {
  FlagParser flags;
  flags.AddInt64("seed", 0, "");
  char a0[] = "prog", a1[] = "--seed=abc";
  char* argv[] = {a0, a1};
  EXPECT_FALSE(flags.Parse(2, argv).ok());
}

TEST(FlagParserTest, ImplicitStringBareAndExplicitForms) {
  FlagParser flags;
  flags.AddImplicitString("telemetry", "", "all", "telemetry selector");
  {
    char a0[] = "prog", a1[] = "--telemetry";
    char* argv[] = {a0, a1};
    ASSERT_TRUE(flags.Parse(2, argv).ok());
    EXPECT_EQ(flags.GetString("telemetry"), "all");
  }
  FlagParser explicit_flags;
  explicit_flags.AddImplicitString("telemetry", "", "all", "telemetry selector");
  char a0[] = "prog", a1[] = "--telemetry=counters";
  char* argv[] = {a0, a1};
  ASSERT_TRUE(explicit_flags.Parse(2, argv).ok());
  EXPECT_EQ(explicit_flags.GetString("telemetry"), "counters");
}

// Regression: "--telemetry=" used to silently set the empty string, which
// disabled the feature the caller was trying to switch on. It is now an
// error that names the flag and both valid spellings.
TEST(FlagParserTest, ImplicitStringRejectsEmptyValueAfterEquals) {
  FlagParser flags;
  flags.AddImplicitString("telemetry", "", "all", "telemetry selector");
  char a0[] = "prog", a1[] = "--telemetry=";
  char* argv[] = {a0, a1};
  Status status = flags.Parse(2, argv);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--telemetry"), std::string::npos)
      << status.ToString();
  // Plain string flags still accept an explicitly empty value.
  FlagParser plain;
  plain.AddString("name", "default", "");
  char b0[] = "prog", b1[] = "--name=";
  char* argv2[] = {b0, b1};
  ASSERT_TRUE(plain.Parse(2, argv2).ok());
  EXPECT_EQ(plain.GetString("name"), "");
}

TEST(FlagParserTest, PositionalCollected) {
  FlagParser flags;
  flags.AddInt64("seed", 0, "");
  char a0[] = "prog", a1[] = "input.tsv", a2[] = "--seed=1", a3[] = "out";
  char* argv[] = {a0, a1, a2, a3};
  ASSERT_TRUE(flags.Parse(4, argv).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.tsv");
  EXPECT_EQ(flags.positional()[1], "out");
}

// -- UnixSocketServer ---------------------------------------------------------

std::string TestSocketPath(const char* name) {
  return ::testing::TempDir() + "/scenerec_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(UnixSocketServerTest, RequestResponseRoundTrip) {
  const std::string path = TestSocketPath("roundtrip");
  UnixSocketServer server;
  ASSERT_TRUE(server
                  .Start(path,
                         [](const std::string& verb) {
                           return StatusOr<std::string>("got:" + verb);
                         })
                  .ok());
  EXPECT_TRUE(server.running());
  auto reply = UnixSocketRequest(path, "stats");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value(), "got:stats");
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(UnixSocketServerTest, BinaryPayloadSurvivesFraming) {
  // The OK frame is length-prefixed, so payloads with newlines and NULs
  // must round-trip byte-exactly.
  std::string payload = "line1\nline2\n";
  payload += '\0';
  payload += "tail";
  const std::string path = TestSocketPath("binary");
  UnixSocketServer server;
  ASSERT_TRUE(server
                  .Start(path,
                         [payload](const std::string&) {
                           return StatusOr<std::string>(payload);
                         })
                  .ok());
  auto reply = UnixSocketRequest(path, "x");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().size(), payload.size());
  EXPECT_EQ(reply.value(), payload);
}

TEST(UnixSocketServerTest, HandlerErrorBecomesErrFrame) {
  const std::string path = TestSocketPath("err");
  UnixSocketServer server;
  ASSERT_TRUE(server
                  .Start(path,
                         [](const std::string& verb) -> StatusOr<std::string> {
                           return Status::NotFound("no verb " + verb);
                         })
                  .ok());
  auto reply = UnixSocketRequest(path, "bogus");
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().ToString().find("no verb bogus"),
            std::string::npos);
}

TEST(UnixSocketServerTest, ConnectToMissingSocketFails) {
  EXPECT_FALSE(UnixSocketRequest(TestSocketPath("nobody"), "stats",
                                 /*timeout_ms=*/200)
                   .ok());
}

TEST(UnixSocketServerTest, RejectsOverlongPath) {
  UnixSocketServer server;
  const Status status = server.Start(
      std::string(300, 'x'),
      [](const std::string&) { return StatusOr<std::string>(""); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(UnixSocketServerTest, ConcurrentClientsEachGetTheirReply) {
  const std::string path = TestSocketPath("concurrent");
  UnixSocketServer server;
  ASSERT_TRUE(server
                  .Start(path,
                         [](const std::string& verb) {
                           return StatusOr<std::string>("echo:" + verb);
                         })
                  .ok());
  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string verb =
            "v" + std::to_string(c) + "_" + std::to_string(i);
        auto reply = UnixSocketRequest(path, verb);
        if (!reply.ok() || reply.value() != "echo:" + verb) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Malformed request frames: each gets an error or no reply, never a crash,
// and the server answers the next well-formed request.

/// A server whose only verb is "ok"; any other verb gets an ERR frame that
/// quotes it, as the stats endpoint's does.
Status StartOkServer(UnixSocketServer& server, const std::string& path) {
  return server.Start(
      path, [](const std::string& verb) -> StatusOr<std::string> {
        if (verb == "ok") return std::string("fine");
        return Status::InvalidArgument("unknown verb \"" + verb + "\"");
      });
}

/// Sends `bytes` as they are on a fresh connection, half-closes the write
/// side when `half_close` is set, and returns what the server sent before
/// it closed. IOError when it reset the connection or sent nothing.
StatusOr<std::string> RawExchange(const std::string& path,
                                  const std::string& bytes, bool half_close) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IOError("socket");
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string reply;
  Status status = Status::OK();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(bytes.size())) {
    status = Status::IOError(std::strerror(errno));
  }
  if (status.ok() && half_close) ::shutdown(fd, SHUT_WR);
  char buf[256];
  while (status.ok()) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno != EINTR) status = Status::IOError(std::strerror(errno));
      continue;
    }
    reply.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (reply.empty()) return Status::IOError("closed without a reply");
  return reply;
}

void ExpectNextRequestServed(const std::string& path) {
  auto reply = UnixSocketRequest(path, "ok");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value(), "fine");
}

TEST(UnixSocketServerTest, OverlongVerbWithoutLineFeedIsDropped) {
  const std::string path = TestSocketPath("overlong");
  UnixSocketServer server;
  ASSERT_TRUE(StartOkServer(server, path).ok());
  // Twice the request-line cap and no LF: the server stops reading at the
  // cap and closes without a reply.
  EXPECT_FALSE(RawExchange(path, std::string(2048, 'a'), false).ok());
  ExpectNextRequestServed(path);
}

TEST(UnixSocketServerTest, BinaryVerbGetsAnErrFrame) {
  const std::string path = TestSocketPath("binary_verb");
  UnixSocketServer server;
  ASSERT_TRUE(StartOkServer(server, path).ok());
  auto reply =
      RawExchange(path, std::string("\0\xff\x01verb\n", 8), false);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().rfind("ERR ", 0), 0u) << reply.value();
  EXPECT_EQ(reply.value().back(), '\n');
  // The client side surfaces the same frame as a non-OK Status.
  EXPECT_FALSE(UnixSocketRequest(path, std::string("\0\xff\x01verb", 7)).ok());
  ExpectNextRequestServed(path);
}

TEST(UnixSocketServerTest, VerbCutOffByHalfCloseGetsNoReply) {
  const std::string path = TestSocketPath("half_close");
  UnixSocketServer server;
  ASSERT_TRUE(StartOkServer(server, path).ok());
  // A valid verb whose LF never comes: the server sees EOF mid-line.
  EXPECT_FALSE(RawExchange(path, "ok", /*half_close=*/true).ok());
  ExpectNextRequestServed(path);
}

TEST(UnixSocketServerTest, StopUnlinksPathAndAllowsRestart) {
  const std::string path = TestSocketPath("restart");
  UnixSocketServer server;
  auto handler = [](const std::string&) {
    return StatusOr<std::string>("pong");
  };
  ASSERT_TRUE(server.Start(path, handler).ok());
  ASSERT_TRUE(UnixSocketRequest(path, "ping").ok());
  server.Stop();
  EXPECT_FALSE(UnixSocketRequest(path, "ping", /*timeout_ms=*/200).ok());
  // The same object restarts on the same (now unlinked) path.
  ASSERT_TRUE(server.Start(path, handler).ok());
  auto reply = UnixSocketRequest(path, "ping");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), "pong");
  server.Stop();
}

}  // namespace
}  // namespace scenerec
