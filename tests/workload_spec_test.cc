// Workload-spec grammar tests: parse errors carry exact positions, the
// canonical form round-trips, defaults fill in, and number suffixes
// resolve. Companion to tests/workload_test.cc, which checks the
// *streams* a parsed spec materializes into.

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/workload/workload_spec.h"

namespace chameleon {
namespace {

WorkloadDesc ParseOk(std::string_view spec) {
  WorkloadDesc desc;
  WorkloadSpecError error;
  EXPECT_TRUE(ParseWorkloadSpec(spec, &desc, &error))
      << spec << ": " << error.Render();
  return desc;
}

WorkloadSpecError ParseErr(std::string_view spec) {
  WorkloadDesc desc;
  WorkloadSpecError error;
  EXPECT_FALSE(ParseWorkloadSpec(spec, &desc, &error)) << spec;
  return error;
}

// --- Happy path: families and defaults --------------------------------------

TEST(WorkloadSpecTest, BareReadDefaultsToUniform) {
  const WorkloadDesc d = ParseOk("read");
  EXPECT_EQ(d.family, WorkloadDesc::Family::kRead);
  EXPECT_EQ(d.dist.kind, DistDesc::Kind::kUniform);
  EXPECT_FALSE(d.has_writes());
  EXPECT_EQ(d.Canonical(), "read(dist=uniform)");
}

TEST(WorkloadSpecTest, ReadZipfSugar) {
  const WorkloadDesc d = ParseOk("read(zipf=0.5)");
  EXPECT_EQ(d.dist.kind, DistDesc::Kind::kZipf);
  EXPECT_DOUBLE_EQ(d.dist.theta, 0.5);
  EXPECT_EQ(d.Canonical(), "read(dist=zipf(theta=0.5))");
}

TEST(WorkloadSpecTest, PositionalDistName) {
  // A bare distribution name is accepted positionally.
  EXPECT_EQ(ParseOk("read(uniform)").dist.kind, DistDesc::Kind::kUniform);
  EXPECT_EQ(ParseOk("read(zipf)").dist.kind, DistDesc::Kind::kZipf);
  EXPECT_EQ(ParseOk("read(zipf(0.8))").dist.theta, 0.8);
  EXPECT_EQ(ParseOk("read(latest)").dist.kind, DistDesc::Kind::kLatest);
}

TEST(WorkloadSpecTest, MixedDefaultsAndOverrides) {
  const WorkloadDesc d = ParseOk("mixed");
  EXPECT_EQ(d.family, WorkloadDesc::Family::kMixed);
  EXPECT_DOUBLE_EQ(d.write_ratio, 0.2);
  EXPECT_TRUE(d.has_writes());
  EXPECT_EQ(d.Canonical(), "mixed(w=0.2,dist=uniform)");

  const WorkloadDesc e = ParseOk("mixed(w=0.6,dist=zipf(theta=0.9))");
  EXPECT_DOUBLE_EQ(e.write_ratio, 0.6);
  EXPECT_EQ(e.dist.kind, DistDesc::Kind::kZipf);
  EXPECT_DOUBLE_EQ(e.dist.theta, 0.9);

  // w=0 is a degenerate read-only mix: the capability gates must treat
  // it as such.
  EXPECT_FALSE(ParseOk("mixed(w=0)").has_writes());
}

TEST(WorkloadSpecTest, InsDelAndBatched) {
  const WorkloadDesc d = ParseOk("insdel(u=0.75)");
  EXPECT_EQ(d.family, WorkloadDesc::Family::kInsDel);
  EXPECT_DOUBLE_EQ(d.update_ratio, 0.75);
  EXPECT_EQ(d.Canonical(), "insdel(u=0.75)");

  const WorkloadDesc b = ParseOk("batched(pool=2k,queries=500)");
  EXPECT_EQ(b.family, WorkloadDesc::Family::kBatched);
  EXPECT_EQ(b.batched_pool, 2'000u);
  EXPECT_EQ(b.batched_queries, 500u);
  EXPECT_TRUE(b.has_writes());
  EXPECT_EQ(b.Canonical(), "batched(pool=2000,queries=500)");
}

TEST(WorkloadSpecTest, YcsbMixTables) {
  const WorkloadDesc a = ParseOk("ycsb-a");
  EXPECT_EQ(a.family, WorkloadDesc::Family::kYcsb);
  EXPECT_DOUBLE_EQ(a.mix.read, 0.5);
  EXPECT_DOUBLE_EQ(a.mix.update, 0.5);
  EXPECT_EQ(a.dist.kind, DistDesc::Kind::kZipf);
  EXPECT_TRUE(a.has_writes());
  EXPECT_EQ(a.Canonical(), "ycsb-a(dist=zipf(theta=0.99))");

  const WorkloadDesc c = ParseOk("ycsb-c");
  EXPECT_DOUBLE_EQ(c.mix.read, 1.0);
  EXPECT_FALSE(c.has_writes());

  const WorkloadDesc d = ParseOk("ycsb-d");
  EXPECT_EQ(d.dist.kind, DistDesc::Kind::kLatest);
  EXPECT_DOUBLE_EQ(d.mix.insert, 0.05);

  const WorkloadDesc e = ParseOk("ycsb-e(scan=50)");
  EXPECT_DOUBLE_EQ(e.mix.scan, 0.95);
  EXPECT_EQ(e.scan_max, 50u);
  EXPECT_EQ(e.Canonical(), "ycsb-e(dist=zipf(theta=0.99),scan=50)");

  const WorkloadDesc f = ParseOk("ycsb-f");
  EXPECT_DOUBLE_EQ(f.mix.rmw, 0.5);
}

TEST(WorkloadSpecTest, NumberSuffixes) {
  EXPECT_DOUBLE_EQ(ParseOk("mixed(w=5%)").write_ratio, 0.05);
  EXPECT_EQ(ParseOk("batched(pool=20k)").batched_pool, 20'000u);
  EXPECT_EQ(ParseOk("batched(pool=1M)").batched_pool, 1'000'000u);
  const WorkloadDesc h =
      ParseOk("read(dist=hotspot(width=5%,period=1M,hot=0.8))");
  EXPECT_EQ(h.dist.kind, DistDesc::Kind::kHotspot);
  EXPECT_DOUBLE_EQ(h.dist.width, 0.05);
  EXPECT_EQ(h.dist.period, 1'000'000u);
  EXPECT_DOUBLE_EQ(h.dist.hot, 0.8);
}

TEST(WorkloadSpecTest, HotspotDefaults) {
  const WorkloadDesc d = ParseOk("read(dist=hotspot())");
  EXPECT_DOUBLE_EQ(d.dist.width, 0.05);
  EXPECT_EQ(d.dist.period, 100'000u);
  EXPECT_DOUBLE_EQ(d.dist.hot, 0.9);
  EXPECT_EQ(d.Canonical(),
            "read(dist=hotspot(width=0.05,period=100000,hot=0.9))");
}

// Canonical forms re-parse to the same descriptor: the echoed spec in a
// JSON blob is sufficient to reproduce the run.
TEST(WorkloadSpecTest, CanonicalRoundTrips) {
  for (const char* spec :
       {"read", "read(zipf=0.99)", "read(dist=latest(theta=0.7))",
        "mixed(w=0.4)", "mixed(w=0.2,dist=hotspot(width=10%,period=5k))",
        "insdel(u=0.25)", "batched(pool=1k,queries=200)", "ycsb-a", "ycsb-b",
        "ycsb-c", "ycsb-d", "ycsb-e(scan=42)", "ycsb-f(zipf=0.6)"}) {
    const WorkloadDesc once = ParseOk(spec);
    const WorkloadDesc twice = ParseOk(once.Canonical());
    EXPECT_EQ(once.Canonical(), twice.Canonical()) << spec;
    EXPECT_EQ(static_cast<int>(once.family), static_cast<int>(twice.family))
        << spec;
    EXPECT_EQ(static_cast<int>(once.dist.kind),
              static_cast<int>(twice.dist.kind))
        << spec;
  }
}

// --- Errors: message content and exact positions ----------------------------

TEST(WorkloadSpecTest, EmptySpec) {
  const WorkloadSpecError e = ParseErr("");
  EXPECT_EQ(e.pos, 0u);
  EXPECT_NE(e.message.find("expected a workload name"), std::string::npos);
}

TEST(WorkloadSpecTest, UnknownWorkloadName) {
  const WorkloadSpecError e = ParseErr("ycsb-g");
  EXPECT_EQ(e.pos, 0u);
  EXPECT_NE(e.message.find("unknown workload"), std::string::npos);
  EXPECT_NE(e.message.find("ycsb-g"), std::string::npos);
}

TEST(WorkloadSpecTest, UnclosedParenPointsAtEnd) {
  const WorkloadSpecError e = ParseErr("mixed(w=0.2");
  EXPECT_EQ(e.pos, 11u);
  EXPECT_NE(e.message.find("unclosed '('"), std::string::npos);
}

TEST(WorkloadSpecTest, TrailingGarbagePointsAtIt) {
  const WorkloadSpecError e = ParseErr("read)x");
  EXPECT_EQ(e.pos, 4u);
  EXPECT_NE(e.message.find("after workload spec"), std::string::npos);
}

TEST(WorkloadSpecTest, UnknownOptionPointsAtTheOption) {
  // position of 'q' in "mixed(q=1)"
  const WorkloadSpecError e = ParseErr("mixed(q=1)");
  EXPECT_EQ(e.pos, 6u);
  EXPECT_NE(e.message.find("unknown mixed option 'q'"), std::string::npos);
}

TEST(WorkloadSpecTest, BadNumberPointsAtTheValue) {
  const WorkloadSpecError e = ParseErr("mixed(w=abc)");
  EXPECT_EQ(e.pos, 6u);  // the argument starts at 'w'
  EXPECT_NE(e.message.find("bad number"), std::string::npos);
  EXPECT_NE(e.message.find("abc"), std::string::npos);
}

TEST(WorkloadSpecTest, RangeChecks) {
  EXPECT_NE(ParseErr("mixed(w=1.5)").message.find("must be in [0, 1]"),
            std::string::npos);
  EXPECT_NE(ParseErr("read(zipf=-1)").message.find("theta must be >= 0"),
            std::string::npos);
  EXPECT_NE(ParseErr("read(dist=hotspot(width=0))")
                .message.find("width must be > 0"),
            std::string::npos);
  EXPECT_NE(ParseErr("read(dist=hotspot(period=0))")
                .message.find("period must be > 0"),
            std::string::npos);
  EXPECT_NE(ParseErr("ycsb-e(scan=0)").message.find("scan must be > 0"),
            std::string::npos);
  // Malformed numbers are rejected at the argument that holds them.
  struct Case {
    const char* spec;
    size_t pos;
    const char* message_part;
  };
  for (const Case& c : {
           Case{"mixed(w=nan)", 6, "bad number \"nan\" for write ratio w"},
           Case{"insdel(u=nan)", 7, "bad number \"nan\" for update ratio u"},
           Case{"read(dist=hotspot(width=nan))", 18,
                "bad number \"nan\" for width"},
           Case{"read(zipf=inf)", 5, "bad number \"inf\""},
           Case{"read(zipf=0x1p-1)", 5, "bad number \"0x1p-1\""},
           Case{"batched(pool=1e300)", 8,
                "pool must be a whole number without a sign below 2^64"},
           Case{"batched(queries=-1)", 8, "queries must be a whole number"},
           Case{"ycsb-e(scan=2.5)", 7, "scan must be a whole number"},
       }) {
    const WorkloadSpecError e = ParseErr(c.spec);
    EXPECT_EQ(e.pos, c.pos) << c.spec << ": " << e.Render();
    EXPECT_NE(e.message.find(c.message_part), std::string::npos)
        << c.spec << ": " << e.Render();
  }
}

TEST(WorkloadSpecTest, UnknownDistribution) {
  const WorkloadSpecError e = ParseErr("read(dist=pareto)");
  EXPECT_NE(e.message.find("unknown distribution"), std::string::npos);
  EXPECT_NE(e.message.find("pareto"), std::string::npos);
}

TEST(WorkloadSpecTest, UnknownNestedOption) {
  const WorkloadSpecError e = ParseErr("read(dist=hotspot(widht=5%))");
  EXPECT_NE(e.message.find("unknown hotspot option 'widht'"),
            std::string::npos);
  // Points inside the nested call, at the misspelled key.
  EXPECT_EQ(e.pos, 18u);
}

TEST(WorkloadSpecTest, MissingValueAfterEquals) {
  const WorkloadSpecError e = ParseErr("mixed(w=)");
  EXPECT_NE(e.message.find("missing value for option 'w'"), std::string::npos);
  EXPECT_EQ(e.pos, 8u);
}

TEST(WorkloadSpecTest, RenderIncludesPosition) {
  const WorkloadSpecError e = ParseErr("mixed(q=1)");
  EXPECT_EQ(e.Render(),
            "workload spec error at position 6: unknown mixed option 'q' "
            "(w, dist)");
}

TEST(WorkloadSpecTest, GrammarHelpMentionsEveryFamily) {
  const std::string help = WorkloadGrammarHelp();
  for (const char* needle :
       {"read", "mixed", "insdel", "batched", "ycsb-a", "hotspot", "5%"}) {
    EXPECT_NE(help.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace chameleon
