#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/api/index_factory.h"
#include "src/api/index_spec.h"

namespace chameleon {
namespace {

TEST(IndexFactoryTest, EveryListedNameResolves) {
  for (const std::string& name : AllIndexNames()) {
    std::unique_ptr<KvIndex> index = MakeIndex(name);
    ASSERT_NE(index, nullptr) << name;
    EXPECT_EQ(index->Name(), name) << "display name mismatch";
    EXPECT_EQ(index->size(), 0u);
  }
}

TEST(IndexFactoryTest, UnknownNamesRejected) {
  EXPECT_EQ(MakeIndex(""), nullptr);
  EXPECT_EQ(MakeIndex("RMI"), nullptr);
  EXPECT_EQ(MakeIndex("btree"), nullptr);  // case-sensitive
}

TEST(IndexFactoryTest, ChaDatsAliasesToChameleon) {
  std::unique_ptr<KvIndex> index = MakeIndex("ChaDATS");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Name(), "Chameleon");
}

TEST(IndexFactoryTest, UpdatableIsSubsetExcludingStatic) {
  const std::set<std::string> all = [] {
    std::set<std::string> s;
    for (const auto& n : AllIndexNames()) s.insert(n);
    return s;
  }();
  for (const std::string& name : UpdatableIndexNames()) {
    EXPECT_TRUE(all.contains(name)) << name;
  }
  // The paper excludes RS and DIC from dynamic experiments.
  const auto updatable = UpdatableIndexNames();
  EXPECT_EQ(std::count(updatable.begin(), updatable.end(), "RS"), 0);
  EXPECT_EQ(std::count(updatable.begin(), updatable.end(), "DIC"), 0);
}

TEST(IndexFactoryTest, InstancesAreIndependent) {
  std::unique_ptr<KvIndex> a = MakeIndex("B+Tree");
  std::unique_ptr<KvIndex> b = MakeIndex("B+Tree");
  ASSERT_TRUE(a->Insert(1, 1));
  EXPECT_FALSE(b->Lookup(1, nullptr));
}

// --- Spec parser ------------------------------------------------------------

/// Parses `spec` and returns its canonical re-serialization, or the
/// rendered error when parsing fails.
std::string ParseResult(std::string_view spec) {
  SpecError error;
  std::unique_ptr<SpecNode> node = ParseIndexSpec(spec, &error);
  return node != nullptr ? node->Canonical() : error.Render();
}

TEST(IndexSpecParserTest, CanonicalFormsRoundTrip) {
  for (const char* spec : {
           "Chameleon",
           "B+Tree",
           "Sharded4:Chameleon",
           "Durable(/tmp/d):Chameleon",
           "Durable(/tmp/d,fsync=everyN,n=64):Chameleon",
           "Sharded2:Durable(/tmp/d,fsync=always):B+Tree",
           "Durable(d):Sharded2:ALEX",
       }) {
    EXPECT_EQ(ParseResult(spec), spec);
  }
  // An empty argument list parses but is dropped from the canonical
  // form (no options to serialize).
  EXPECT_EQ(ParseResult("Durable()"), "Durable");
}

TEST(IndexSpecParserTest, CountSuffixSplitsOnlyForCountAdapters) {
  SpecError error;
  std::unique_ptr<SpecNode> node = ParseIndexSpec("Sharded12:ALEX", &error);
  ASSERT_NE(node, nullptr) << error.Render();
  EXPECT_EQ(node->name, "Sharded");
  EXPECT_TRUE(node->has_count);
  EXPECT_EQ(node->count, 12u);
  ASSERT_NE(node->inner, nullptr);
  EXPECT_EQ(node->inner->name, "ALEX");

  // Digits stay part of the token unless the alpha prefix is a
  // registered count-taking adapter; unknown and no-count names keep
  // their digits (and fail later, at build time, with their full name).
  node = ParseIndexSpec("Foo4", &error);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->name, "Foo4");
  EXPECT_FALSE(node->has_count);
  node = ParseIndexSpec("Durable4", &error);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->name, "Durable4");
  EXPECT_FALSE(node->has_count);
}

TEST(IndexSpecParserTest, OptionsRecordKeysValuesAndPositions) {
  SpecError error;
  std::unique_ptr<SpecNode> node =
      ParseIndexSpec("Durable(/tmp/d,fsync=everyN,n=8):Chameleon", &error);
  ASSERT_NE(node, nullptr) << error.Render();
  ASSERT_EQ(node->options.size(), 3u);
  EXPECT_EQ(node->options[0].key, "");
  EXPECT_EQ(node->options[0].value, "/tmp/d");
  EXPECT_EQ(node->options[0].pos, 8u);
  EXPECT_EQ(node->options[1].key, "fsync");
  EXPECT_EQ(node->options[1].value, "everyN");
  EXPECT_EQ(node->options[1].pos, 15u);
  EXPECT_EQ(node->options[2].key, "n");
  EXPECT_EQ(node->options[2].value, "8");
  EXPECT_EQ(node->options[2].pos, 28u);
}

TEST(IndexSpecParserTest, BadTokensFailWithAccuratePositions) {
  struct Case {
    const char* spec;
    size_t pos;
    const char* message_part;
  };
  for (const Case& c : {
           Case{"", 0, "expected an index or adapter name"},
           Case{":Chameleon", 0, "where a name should start"},
           Case{" Chameleon", 0, "where a name should start"},
           Case{"Sharded4:", 9, "expected an index or adapter name"},
           Case{"Sharded4)", 8, "after spec element"},
           Case{"Durable(d", 9, "unclosed '(' in argument list"},
           Case{"Durable(/tmp/d:Chameleon", 14,
                "expected ',' or ')' in argument list, got ':'"},
           Case{"Durable(=x):Chameleon", 8, "expected an option key"},
           Case{"Durable(fsync=):Chameleon", 14,
                "missing value for option 'fsync'"},
           Case{"Sharded99999999999999999999999:Chameleon", 7,
                "count must be a whole number without a sign below 2^64"},
           Case{"Durable(d,fsync=always(1)):Chameleon", 16,
                "plain values, not calls"},
       }) {
    SpecError error;
    EXPECT_EQ(ParseIndexSpec(c.spec, &error), nullptr) << c.spec;
    EXPECT_EQ(error.pos, c.pos) << c.spec << ": " << error.Render();
    EXPECT_NE(error.message.find(c.message_part), std::string::npos)
        << c.spec << ": " << error.Render();
    EXPECT_NE(error.Render().find("index spec error at position "),
              std::string::npos);
  }
}

TEST(IndexSpecParserTest, BuildErrorsNameTheProblem) {
  struct Case {
    const char* spec;
    const char* message_part;
  };
  for (const Case& c : {
           Case{"Sharded:Chameleon", "needs a shard count >= 1"},
           Case{"Sharded0:Chameleon", "needs a shard count >= 1"},
           Case{"Sharded4", "needs an inner index"},
           Case{"Durable(/tmp/x)", "needs an inner index"},
           Case{"Durable:Chameleon", "Durable needs a directory"},
           Case{"Durable(/tmp/x,bogus=1):Chameleon",
                "unknown Durable option 'bogus'"},
           Case{"Durable(/tmp/x,fsync=sometimes):Chameleon",
                "bad fsync value 'sometimes'"},
           Case{"Sharded4(extra):Chameleon", "Sharded takes no (...) options"},
           Case{"B+Tree:Chameleon", "'B+Tree' is not a registered adapter"},
           Case{"Chameleon(x)", "takes no (...) options"},
           Case{"Chameleon4", "unknown index 'Chameleon4'"},
           Case{"RMI", "unknown index 'RMI'"},
           Case{"Durable(d,n=-1):Chameleon",
                "position 10: n must be a whole number without a sign"},
           Case{"Durable(d,n=0):Chameleon", "position 10: n must be > 0"},
           Case{"Disk(d,frames=-1):Chameleon",
                "position 7: frames must be a whole number without a sign"},
           Case{"Disk(d,merge=nan):Chameleon",
                "position 7: bad number \"nan\" for merge"},
           Case{"Sharded257:Chameleon",
                "position 7: shard count 257 exceeds the ceiling of 256"},
       }) {
    std::string error;
    EXPECT_EQ(MakeIndex(c.spec, &error), nullptr) << c.spec;
    EXPECT_NE(error.find(c.message_part), std::string::npos)
        << c.spec << ": " << error;
  }
  // The unknown-name message teaches the alias.
  std::string error;
  EXPECT_EQ(MakeIndex("RMI", &error), nullptr);
  EXPECT_NE(error.find("ChaDATS = Chameleon"), std::string::npos) << error;
}

TEST(IndexSpecParserTest, CanonicalIndexSpecResolvesTheAlias) {
  std::string error;
  EXPECT_EQ(CanonicalIndexSpec("ChaDATS", &error), "Chameleon");
  EXPECT_EQ(CanonicalIndexSpec("Sharded2:ChaDATS", &error),
            "Sharded2:Chameleon");
  EXPECT_EQ(CanonicalIndexSpec("Durable(/tmp/d):ChaDATS", &error),
            "Durable(/tmp/d):Chameleon");
  EXPECT_EQ(CanonicalIndexSpec("Sharded4:", &error), "");
  EXPECT_NE(error.find("expected an index or adapter name"),
            std::string::npos);
}

TEST(IndexSpecParserTest, CanonicalAdapterStackValidatesAdapterOnlyChains) {
  std::string error;
  EXPECT_EQ(CanonicalAdapterStack("Sharded2", &error), "Sharded2");
  EXPECT_EQ(CanonicalAdapterStack("Sharded2:Durable(/tmp/x,fsync=none)",
                                  &error),
            "Sharded2:Durable(/tmp/x,fsync=none)");
  EXPECT_EQ(CanonicalAdapterStack("Chameleon", &error), "");
  EXPECT_NE(error.find("adapter-only"), std::string::npos) << error;
  EXPECT_EQ(CanonicalAdapterStack("Sharded", &error), "");
  EXPECT_NE(error.find("needs a shard count"), std::string::npos) << error;
  EXPECT_EQ(CanonicalAdapterStack("Durable4(d)", &error), "");
  EXPECT_NE(error.find("not a registered adapter"), std::string::npos)
      << error;
  EXPECT_EQ(CanonicalAdapterStack("Sharded257", &error), "");
  EXPECT_NE(error.find("position 7: shard count 257 exceeds the ceiling"),
            std::string::npos)
      << error;
}

TEST(IndexSpecParserTest, GrammarHelpListsAdaptersAndAlias) {
  const std::string help = IndexSpecGrammarHelp();
  EXPECT_NE(help.find("Sharded"), std::string::npos);
  EXPECT_NE(help.find("Durable"), std::string::npos);
  EXPECT_NE(help.find("ChaDATS = Chameleon"), std::string::npos);
  EXPECT_NE(help.find("Sharded4:Durable"), std::string::npos);
}

TEST(IndexSpecParserTest, LegacySpecStringsStillBuild) {
  // The strings every pre-refactor harness and test used must keep
  // resolving to working stacks.
  for (const char* spec : {"Chameleon", "Sharded4:Chameleon",
                           "Sharded2:B+Tree", "ChaDATS"}) {
    std::string error;
    std::unique_ptr<KvIndex> index = MakeIndex(spec, &error);
    ASSERT_NE(index, nullptr) << spec << ": " << error;
    ASSERT_TRUE(index->Insert(42, 7));
    Value v = 0;
    EXPECT_TRUE(index->Lookup(42, &v));
    EXPECT_EQ(v, 7u);
  }
}

}  // namespace
}  // namespace chameleon
