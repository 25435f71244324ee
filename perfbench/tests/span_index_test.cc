// The Span decorator must be transparent: a stack with spans at its layer
// boundaries gives the same results, the same final contents and the
// same capability answers as the stack without them.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/bench.h"
#include "perfbench/src/span_index.h"
#include "src/api/index_factory.h"
#include "src/api/index_spec.h"
#include "src/data/dataset.h"
#include "src/workload/workload_spec.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using chameleon::Operation;
using chameleon::OpType;

struct Outcome {
  std::vector<bool> hits;
  std::vector<Value> values;
  std::vector<KeyValue> scanned;
};

Outcome Apply(KvIndex* index, const std::vector<Operation>& ops) {
  Outcome out;
  for (const Operation& op : ops) {
    Value v = 0;
    bool hit = false;
    switch (op.type) {
      case OpType::kLookup:
        hit = index->Lookup(op.key, &v);
        break;
      case OpType::kInsert:
        hit = index->Insert(op.key, op.value);
        break;
      case OpType::kErase:
        hit = index->Erase(op.key);
        break;
      case OpType::kUpdate:
        hit = index->Erase(op.key) && index->Insert(op.key, op.value);
        break;
      case OpType::kScan: {
        std::vector<KeyValue> part;
        hit = index->RangeScan(op.key, static_cast<Key>(op.value), &part) > 0;
        out.scanned.insert(out.scanned.end(), part.begin(), part.end());
        break;
      }
    }
    out.hits.push_back(hit);
    out.values.push_back(v);
  }
  return out;
}

class SpanTransparencyTest : public ::testing::TestWithParam<WorkloadConfig> {
 protected:
  void SetUp() override {
    RegisterSpanDecorator();
    root_ = fs::path("span-test-scratch") / GetParam().name;
    fs::remove_all(root_);
  }
  void TearDown() override {
    fs::remove_all(root_);
    std::error_code ec;
    fs::remove(root_.parent_path(), ec);  // once the last test is done
  }

  fs::path root_;
};

TEST_P(SpanTransparencyTest, SameResultsContentsAndCapabilities) {
  const WorkloadConfig& config = GetParam();
  const std::vector<Key> keys =
      chameleon::GenerateDataset(config.dataset, 20000, 11);
  const std::vector<KeyValue> data = chameleon::ToKeyValues(keys);
  chameleon::WorkloadDesc desc;
  chameleon::WorkloadSpecError error;
  ASSERT_TRUE(chameleon::ParseWorkloadSpec(config.workload_spec, &desc,
                                           &error))
      << error.Render();
  const std::vector<Operation> ops =
      chameleon::MaterializeWorkload(desc, keys, 13, 5000);

  auto build = [&](const char* stack, const char* dir) {
    std::string build_error;
    auto index = chameleon::MakeIndex(
        ExpandStack(stack, (root_ / dir).string()), &build_error);
    EXPECT_NE(index, nullptr) << build_error;
    return index;
  };
  std::unique_ptr<KvIndex> plain = build(config.stack, "plain");
  std::unique_ptr<KvIndex> traced = build(config.traced_stack, "traced");
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(traced, nullptr);
  ASSERT_NE(dynamic_cast<SpanIndex*>(traced.get()), nullptr);

  Tracer::Get().Reset();
  Tracer::Get().set_enabled(true);
  plain->BulkLoad(data);
  traced->BulkLoad(data);
  EXPECT_EQ(plain->SupportsConcurrentWrites(),
            traced->SupportsConcurrentWrites());
  EXPECT_EQ(plain->EnableConcurrentWrites(),
            traced->EnableConcurrentWrites());
  EXPECT_EQ(plain->Name(), traced->Name());
  EXPECT_EQ(plain->HeatmapSnapshot().size(),
            traced->HeatmapSnapshot().size());

  const Outcome a = Apply(plain.get(), ops);
  const Outcome b = Apply(traced.get(), ops);
  Tracer::Get().set_enabled(false);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.scanned, b.scanned);
  EXPECT_EQ(plain->size(), traced->size());
  EXPECT_EQ(plain->SizeBytes(), traced->SizeBytes());
  EXPECT_EQ(plain->Stats().num_nodes, traced->Stats().num_nodes);
  EXPECT_EQ(plain->Stats().max_height, traced->Stats().max_height);
  EXPECT_EQ(plain->WriteContentionSnapshot().size(),
            traced->WriteContentionSnapshot().size());

  std::vector<KeyValue> all_plain;
  std::vector<KeyValue> all_traced;
  plain->RangeScan(chameleon::kMinKey, chameleon::kMaxKey, &all_plain);
  traced->RangeScan(chameleon::kMinKey, chameleon::kMaxKey, &all_traced);
  EXPECT_EQ(all_plain, all_traced);
  EXPECT_EQ(plain->Recover(), traced->Recover());

  // The spans saw the operations at every layer boundary.
  const std::unique_ptr<TraceSummary> summary = Tracer::Get().Collect();
  uint64_t opened = 0;
  for (uint64_t n : summary->instance_spans) opened += n;
  EXPECT_GT(opened, ops.size());
  EXPECT_GT(summary->spans, 0u);
  EXPECT_FALSE(summary->kept.empty());
}

TEST_P(SpanTransparencyTest, NeverDirectlyUnderDurable) {
  chameleon::SpecError error;
  auto node = chameleon::ParseIndexSpec(GetParam().traced_stack, &error);
  ASSERT_NE(node, nullptr) << error.Render();
  for (const chameleon::SpecNode* n = node.get(); n->inner != nullptr;
       n = n->inner.get()) {
    if (n->name == "Durable") {
      EXPECT_NE(n->inner->name, "Span");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SpanTransparencyTest, ::testing::ValuesIn(Workloads()),
    [](const ::testing::TestParamInfo<WorkloadConfig>& info) {
      return std::string(info.param.name);
    });

TEST(SpanTraceTest, SelfTimeExcludesChildren) {
  RegisterSpanDecorator();
  Tracer& tracer = Tracer::Get();
  tracer.ClearInstances();
  auto index = chameleon::MakeIndex("Span(engine):Sharded4:Span(core):Chameleon");
  ASSERT_NE(index, nullptr);
  const std::vector<Key> keys =
      chameleon::GenerateDataset(chameleon::DatasetKind::kOsmc, 20000, 3);
  index->BulkLoad(chameleon::ToKeyValues(keys));
  tracer.Reset();
  tracer.set_enabled(true);
  for (Key k : keys) {
    Value v;
    ASSERT_TRUE(index->Lookup(k, &v));
  }
  tracer.set_enabled(false);
  const auto summary = tracer.Collect();
  const auto& engine = summary->Total(Layer::kEngine, SpanOp::kLookup);
  const auto& engine_self = summary->Self(Layer::kEngine, SpanOp::kLookup);
  const auto& core = summary->Total(Layer::kCore, SpanOp::kLookup);
  // Every kSampleEvery-th request is timed, children with their root.
  EXPECT_EQ(engine.count(), keys.size() / Tracer::kSampleEvery);
  EXPECT_EQ(core.count(), engine.count());
  EXPECT_LT(engine_self.MeanNanos(), engine.MeanNanos());
  // One engine instance and four shard instances; every call counted.
  ASSERT_EQ(summary->instance_layer.size(), 5u);
  uint64_t shard_calls = 0;
  for (size_t i = 0; i < 5; ++i) {
    if (summary->instance_layer[i] == Layer::kEngine) {
      EXPECT_EQ(summary->instance_spans[i], keys.size());
    } else {
      EXPECT_GT(summary->instance_spans[i], 0u);
      shard_calls += summary->instance_spans[i];
    }
  }
  EXPECT_EQ(shard_calls, keys.size());
  // Kept spans of one request share its id; children name their parent.
  for (const SpanRecord& s : summary->kept) {
    if (s.layer == Layer::kCore && s.op == SpanOp::kLookup) {
      EXPECT_NE(s.parent, 0u);
      EXPECT_NE(s.request, s.id);
    }
  }
}

}  // namespace
}  // namespace perfbench
