#include "layers.h"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LayerCounts::Add(const LayerCounts& o) {
  scan_calls += o.scan_calls;
  scan_ns += o.scan_ns;
  scan_points += o.scan_points;
  get_calls += o.get_calls;
  get_ns += o.get_ns;
  get_objects += o.get_objects;
  get_points += o.get_points;
  full_calls += o.full_calls;
  full_ns += o.full_ns;
  re_calls += o.re_calls;
  re_ns += o.re_ns;
  re_objects += o.re_objects;
  re_kept += o.re_kept;
}

bool LayerCounts::SameCounts(const LayerCounts& o) const {
  return scan_calls == o.scan_calls && scan_points == o.scan_points &&
         get_calls == o.get_calls && get_objects == o.get_objects &&
         get_points == o.get_points && full_calls == o.full_calls &&
         re_calls == o.re_calls && re_objects == o.re_objects &&
         re_kept == o.re_kept;
}

LayerCounters& LayerCounters::Get() {
  static LayerCounters counters;
  return counters;
}

LayerCounts& LayerCounters::Local() {
  // Slots are never freed, so a thread's cached pointer stays valid for the
  // process lifetime even after the thread exits.
  thread_local LayerCounts* slot = nullptr;
  if (slot == nullptr) {
    k2::MutexLock lock(mu_);
    slots_.push_back(std::make_unique<Slot>());
    slot = &slots_.back()->counts;
  }
  return *slot;
}

LayerCounts LayerCounters::Fold() const {
  k2::MutexLock lock(mu_);
  LayerCounts total;
  for (const auto& s : slots_) total.Add(s->counts);
  return total;
}

void LayerCounters::Reset() {
  k2::MutexLock lock(mu_);
  for (auto& s : slots_) s->counts = LayerCounts();
}

TracingStore::TracingStore(k2::Store* inner) : inner_(inner) {
  SyncIoStats();
}

TracingStore::TracingStore(std::unique_ptr<k2::Store> inner)
    : owned_(std::move(inner)), inner_(owned_.get()) {
  SyncIoStats();
}

k2::Status TracingStore::BulkLoad(const k2::Dataset& dataset) {
  const k2::Status status = inner_->BulkLoad(dataset);
  SyncIoStats();
  return status;
}

k2::Status TracingStore::Append(k2::Timestamp t,
                                const std::vector<k2::SnapshotPoint>& points) {
  const k2::Status status = inner_->Append(t, points);
  SyncIoStats();
  return status;
}

k2::Status TracingStore::ScanTimestamp(k2::Timestamp t,
                                       std::vector<k2::SnapshotPoint>* out) {
  const int64_t start = NowNs();
  const k2::Status status = inner_->ScanTimestamp(t, out);
  LayerCounts& c = LayerCounters::Get().Local();
  c.scan_ns += static_cast<uint64_t>(NowNs() - start);
  ++c.scan_calls;
  c.scan_points += out->size();
  SyncIoStats();
  return status;
}

k2::Status TracingStore::GetPoints(k2::Timestamp t,
                                   const k2::ObjectSet& objects,
                                   std::vector<k2::SnapshotPoint>* out) {
  const int64_t start = NowNs();
  const k2::Status status = inner_->GetPoints(t, objects, out);
  LayerCounts& c = LayerCounters::Get().Local();
  c.get_ns += static_cast<uint64_t>(NowNs() - start);
  ++c.get_calls;
  c.get_objects += objects.size();
  c.get_points += out->size();
  SyncIoStats();
  return status;
}

k2::Result<std::unique_ptr<k2::Store>> TracingStore::CreateReadSnapshot() {
  auto snapshot = inner_->CreateReadSnapshot();
  SyncIoStats();
  if (!snapshot.ok()) return snapshot.status();
  std::unique_ptr<k2::Store> wrapped =
      std::make_unique<TracingStore>(snapshot.MoveValue());
  return wrapped;
}

k2::Result<std::vector<k2::ObjectSet>> TracingClusterer::Cluster(
    k2::Store* store, k2::Timestamp t, const k2::MiningParams& params,
    k2::SnapshotScratch* scratch, k2::Mutex* store_mu) const {
  const int64_t start = NowNs();
  auto result = inner_->Cluster(store, t, params, scratch, store_mu);
  LayerCounts& c = LayerCounters::Get().Local();
  c.full_ns += static_cast<uint64_t>(NowNs() - start);
  ++c.full_calls;
  return result;
}

k2::Result<std::vector<k2::ObjectSet>> TracingClusterer::ReCluster(
    k2::Store* store, k2::Timestamp t, const k2::ObjectSet& objects,
    const k2::MiningParams& params, k2::SnapshotScratch* scratch,
    k2::Mutex* store_mu) const {
  const int64_t start = NowNs();
  auto result =
      inner_->ReCluster(store, t, objects, params, scratch, store_mu);
  LayerCounts& c = LayerCounters::Get().Local();
  c.re_ns += static_cast<uint64_t>(NowNs() - start);
  ++c.re_calls;
  c.re_objects += objects.size();
  if (result.ok()) {
    for (const k2::ObjectSet& cluster : result.value()) {
      c.re_kept += cluster.size();
    }
  }
  return result;
}

SpanLog::SpanLog() : origin_ns_(NowNs()) {}

int SpanLog::Begin(const std::string& name, int parent) {
  spans_.push_back(Span{name, parent, NowNs() - origin_ns_, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs() - origin_ns_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(end - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
