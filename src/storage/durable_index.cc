#include "src/storage/durable_index.h"

#include <cstring>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>

#include "src/api/index_spec.h"
#include "src/obs/phase_timer.h"
#include "src/obs/stats.h"
#include "src/obs/trace_journal.h"
#include "src/util/io.h"
#include "src/util/timer.h"

namespace chameleon {
namespace {

// WAL record types. Payloads are raw little-endian key/value words.
constexpr uint8_t kRecInsert = 1;  // [key u64][value u64]
constexpr uint8_t kRecErase = 2;   // [key u64]

}  // namespace

DurableIndex::DurableIndex(std::unique_ptr<KvIndex> inner, std::string dir,
                           DurableOptions options)
    : inner_(std::move(inner)),
      dir_(std::move(dir)),
      name_("Durable:"),
      options_(options),
      wal_(dir_, options.wal) {
  name_ += inner_->Name();
}

DurableIndex::~DurableIndex() {
  StopCheckpointer();
  wal_.Close();
}

std::string DurableIndex::SnapshotPath(uint64_t wal_seq) const {
  return NumberedPath(dir_, "snap-", wal_seq, ".snap");
}

std::vector<uint64_t> DurableIndex::ListSnapshots() const {
  return ListNumbered(dir_, "snap-", ".snap");
}

void DurableIndex::BulkLoad(std::span<const KeyValue> data) {
  std::unique_lock<std::shared_mutex> lock(write_mu_);
  // A bulk load starts a new durable lifetime: stale segments and
  // snapshots in the directory (from a previous run or test fixture)
  // must not leak into a later recovery.
  wal_.Close();
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".wal") || name.ends_with(".snap") ||
        name.ends_with(".tmp")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  inner_->BulkLoad(data);
  if (!wal_.Open()) {
    throw std::runtime_error("DurableIndex: cannot open a WAL segment in " +
                             dir_);
  }
  // Initial snapshot: the durable baseline every recovery starts from.
  const std::string snapshot = SnapshotPath(wal_.current_seq());
  if (!WriteSnapshot(*inner_, snapshot, wal_.current_seq())) {
    throw std::runtime_error("DurableIndex: cannot write initial snapshot " +
                             snapshot);
  }
  wal_bytes_at_checkpoint_ = wal_.appended_bytes();
}

bool DurableIndex::Insert(Key key, Value value) {
  // kWriteTotal spans the whole call as the client observes it (incl.
  // the shared-lock handshake against a draining checkpointer); kApply
  // covers only the inner-index apply. The WAL phases (kWalAppend /
  // kGroupCommitWait / kFsync) are recorded inside wal_.Append.
  CHAMELEON_PHASE_SPAN(kWriteTotal);
  // Shared: writers do not exclude each other — WAL appends serialize
  // in wal_.Append's own append mutex, applies under the inner index's
  // per-interval locks. Exclusive holders (checkpoint/recover/crash)
  // drain all in-flight log-then-apply pairs.
  std::shared_lock<std::shared_mutex> lock(write_mu_);
  uint8_t payload[16];
  std::memcpy(payload, &key, 8);
  std::memcpy(payload + 8, &value, 8);
  // Log before apply: a failed append (I/O or fsync fault) leaves the
  // op unacknowledged and unapplied.
  if (!wal_.Append(kRecInsert, payload, sizeof(payload))) return false;
  CHAMELEON_PHASE_SPAN(kApply);
  return inner_->Insert(key, value);
}

bool DurableIndex::Erase(Key key) {
  CHAMELEON_PHASE_SPAN(kWriteTotal);
  std::shared_lock<std::shared_mutex> lock(write_mu_);
  uint8_t payload[8];
  std::memcpy(payload, &key, 8);
  if (!wal_.Append(kRecErase, payload, sizeof(payload))) return false;
  CHAMELEON_PHASE_SPAN(kApply);
  return inner_->Erase(key);
}

bool DurableIndex::Recover() {
  std::unique_lock<std::shared_mutex> lock(write_mu_);
  Timer timer;
  // Newest valid snapshot wins; older ones only exist if a crash hit
  // between a checkpoint's snapshot write and its cleanup.
  SnapshotMeta meta;
  bool loaded = false;
  const std::vector<uint64_t> seqs = ListSnapshots();
  for (auto seq = seqs.rbegin(); seq != seqs.rend(); ++seq) {
    if (ReadSnapshot(inner_.get(), SnapshotPath(*seq), &meta)) {
      loaded = true;
      break;
    }
  }
  if (!loaded) return false;

  size_t replayed = 0;
  const Wal::ReplayStatus status = wal_.Replay(
      meta.wal_seq,
      [this](uint8_t type, std::span<const uint8_t> payload) {
        Key key = 0;
        if (type == kRecInsert && payload.size() == 16) {
          Value value = 0;
          std::memcpy(&key, payload.data(), 8);
          std::memcpy(&value, payload.data() + 8, 8);
          inner_->Insert(key, value);
        } else if (type == kRecErase && payload.size() == 8) {
          std::memcpy(&key, payload.data(), 8);
          inner_->Erase(key);
        }
      },
      &replayed);
  if (status != Wal::ReplayStatus::kOk) return false;
  if (!wal_.Open()) return false;

  last_recovery_replayed_ = replayed;
  last_recovery_ms_ = timer.ElapsedMillis();
  wal_bytes_at_checkpoint_ = wal_.appended_bytes();
  CHAMELEON_STAT_INC(kRecoveries);
  CHAMELEON_TRACE(kRecovery, replayed,
                  static_cast<uint64_t>(last_recovery_ms_ * 1000.0));
  return true;
}

bool DurableIndex::CheckpointLocked() {
  if (!wal_.is_open()) return false;
  // Rotate first so the snapshot boundary is a segment boundary: the
  // snapshot covers every record in segments < boundary, and recovery
  // replays segments >= boundary.
  if (!wal_.Rotate()) return false;
  const uint64_t boundary = wal_.current_seq();
  if (!WriteSnapshot(*inner_, SnapshotPath(boundary), boundary)) {
    return false;
  }
  const size_t truncated = wal_.TruncateBefore(boundary);
  // The new snapshot supersedes all older ones.
  std::error_code ec;
  for (uint64_t seq : ListSnapshots()) {
    if (seq < boundary) std::filesystem::remove(SnapshotPath(seq), ec);
  }
  wal_bytes_at_checkpoint_ = wal_.appended_bytes();
  CHAMELEON_STAT_INC(kCheckpoints);
  CHAMELEON_TRACE(kCheckpoint, inner_->size(), truncated);
  return true;
}

bool DurableIndex::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(write_mu_);
  return CheckpointLocked();
}

void DurableIndex::StartCheckpointer(std::chrono::milliseconds interval) {
  StopCheckpointer();
  checkpointer_.Start(interval, [this] {
    std::unique_lock<std::shared_mutex> write_lock(write_mu_);
    const uint64_t grown = wal_.appended_bytes() - wal_bytes_at_checkpoint_;
    if (grown > 0 && grown >= options_.checkpoint_wal_bytes) {
      CheckpointLocked();
    }
  });
}

void DurableIndex::StopCheckpointer() { checkpointer_.Stop(); }

void DurableIndex::SimulateCrash() {
  StopCheckpointer();
  // Exclusive: drain in-flight concurrent writers so the simulated
  // power cut lands between whole log-then-apply pairs, as it would on
  // a real machine once the appender's fwrite returned.
  std::unique_lock<std::shared_mutex> lock(write_mu_);
  wal_.SimulateCrash();
}

namespace {

/// Spec builder for "Durable(<dir>[,fsync=always|everyN|none][,n=<N>])".
/// The positional dir gets the build context's suffix appended, which
/// is how an outer Sharded<N> roots each shard's stack at
/// <dir>/shard-<i>.
std::unique_ptr<KvIndex> BuildDurableFromSpec(const SpecNode& node,
                                              const SpecBuildContext& ctx,
                                              SpecError* error) {
  std::string dir;
  if (!ReadSpecDirectory(node, &dir, error)) return nullptr;
  DurableOptions options;
  for (const SpecOption& option : node.options) {
    if (option.key.empty()) continue;  // the directory
    if (option.key == "fsync") {
      if (option.value == "always") {
        options.wal.fsync = FsyncPolicy::kAlways;
      } else if (option.value == "everyN") {
        options.wal.fsync = FsyncPolicy::kEveryN;
      } else if (option.value == "none") {
        options.wal.fsync = FsyncPolicy::kNone;
      } else {
        error->pos = option.pos;
        error->message = "bad fsync value '" + option.value +
                         "' (expected always, everyN, or none)";
        return nullptr;
      }
    } else if (option.key == "n") {
      if (!ReadSpecPositiveCount(option.value, option.pos, "n",
                                 &options.wal.fsync_every_n, error)) {
        return nullptr;
      }
    } else {
      error->pos = option.pos;
      error->message = "unknown Durable option '" + option.key +
                       "' (options: fsync=always|everyN|none, n=<N>)";
      return nullptr;
    }
  }
  dir += ctx.dir_suffix;
  std::unique_ptr<KvIndex> inner = BuildIndexSpec(*node.inner, ctx, error);
  if (inner == nullptr) return nullptr;
  return std::make_unique<DurableIndex>(std::move(inner), std::move(dir),
                                        options);
}

}  // namespace

std::vector<std::string> DurableDirsOf(const SpecNode& spec) {
  std::vector<std::string> dirs;
  for (const SpecNode* node = &spec; node != nullptr;
       node = node->inner.get()) {
    std::string dir;
    SpecError error;
    if (node->name == "Durable" && ReadSpecDirectory(*node, &dir, &error)) {
      dirs.push_back(std::move(dir));
    }
  }
  return dirs;
}

void RegisterDurableDecorator() {
  RegisterIndexDecorator(
      "Durable",
      DecoratorInfo{
          BuildDurableFromSpec, /*wants_count=*/false,
          "Durable(<dir>[,fsync=always|everyN|none][,n=<N>]):<spec>   WAL + "
          "snapshot durability rooted at <dir> (fsync default always; n is "
          "the everyN window, default 64)"});
}

bool SimulateCrashStack(KvIndex* index) {
  if (index == nullptr) return false;
  if (auto* durable = dynamic_cast<DurableIndex*>(index)) {
    durable->SimulateCrash();
    return true;
  }
  bool crashed = false;
  for (const std::unique_ptr<KvIndex>& child : index->Children()) {
    crashed = SimulateCrashStack(child.get()) || crashed;
  }
  return crashed;
}

}  // namespace chameleon
