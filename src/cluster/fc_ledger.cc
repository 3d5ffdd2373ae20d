#include "cluster/fc_ledger.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace k2 {

namespace {

using Runs = std::vector<TimeRange>;

/// Index of the first run starting after `t`; the run before it is the
/// only one that can contain `t` or end next to it.
size_t RunAfter(const Runs& runs, Timestamp t) {
  return std::upper_bound(
             runs.begin(), runs.end(), t,
             [](Timestamp v, const TimeRange& r) { return v < r.start; }) -
         runs.begin();
}

// Adjacency in 64 bits: a run may end at INT32_MAX or start at INT32_MIN.
bool Adjacent(Timestamp end, Timestamp start) {
  return int64_t{end} + 1 == start;
}

bool Contains(const Runs* runs, Timestamp t) {
  if (runs == nullptr) return false;
  const size_t next = RunAfter(*runs, t);
  return next > 0 && t <= (*runs)[next - 1].end;
}

}  // namespace

FcLedger::FcLedger(const FcLedger* sealed) : sealed_(sealed) {
  K2_DCHECK(sealed == nullptr || sealed->sealed_ == nullptr);
}

bool FcLedger::SetFacts::Proven(Timestamp t) const {
  return Contains(own_, t) || Contains(sealed_, t);
}

size_t FcLedger::WideHash::operator()(const ObjectSet& objects) const {
  const std::vector<ObjectId>& ids = objects.ids();
  uint64_t h = ids.size() * 0x9E3779B97F4A7C15ULL;
  size_t i = 0;
  for (; i + 1 < ids.size(); i += 2) {
    h = (h ^ (uint64_t{ids[i]} | uint64_t{ids[i + 1]} << 32)) *
        0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  if (i < ids.size()) h = (h ^ ids[i]) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 29);
}

void FcLedger::Record(const ObjectSet& objects, Timestamp t) {
  Runs& runs = runs_[objects];
  const size_t next = RunAfter(runs, t);
  if (next > 0 && t <= runs[next - 1].end) return;  // already known
  const bool joins_prev = next > 0 && Adjacent(runs[next - 1].end, t);
  const bool joins_next = next < runs.size() && Adjacent(t, runs[next].start);
  if (joins_prev && joins_next) {
    runs[next - 1].end = runs[next].end;
    runs.erase(runs.begin() + next);
  } else if (joins_prev) {
    runs[next - 1].end = t;
  } else if (joins_next) {
    runs[next].start = t;
  } else {
    runs.insert(runs.begin() + next, TimeRange{t, t});
  }
}

const FcLedger::Runs* FcLedger::Find(const ObjectSet& objects) const {
  const auto it = runs_.find(objects);
  return it == runs_.end() ? nullptr : &it->second;
}

FcLedger::SetFacts FcLedger::Facts(const ObjectSet& objects) const {
  SetFacts facts;
  facts.own_ = Find(objects);
  if (sealed_ != nullptr) facts.sealed_ = sealed_->Find(objects);
  return facts;
}

void FcLedger::Absorb(FcLedger* log) {
  for (auto& [objects, src] : log->runs_) {
    Runs& dst = runs_[objects];
    if (dst.empty()) {
      dst = std::move(src);
      continue;
    }
    // Union of two run lists: merge by start, coalescing overlaps and
    // neighbours.
    Runs all;
    all.reserve(dst.size() + src.size());
    std::merge(dst.begin(), dst.end(), src.begin(), src.end(),
               std::back_inserter(all),
               [](const TimeRange& a, const TimeRange& b) {
                 return a.start < b.start;
               });
    dst.clear();
    for (const TimeRange& r : all) {
      if (!dst.empty() && int64_t{r.start} <= int64_t{dst.back().end} + 1) {
        dst.back().end = std::max(dst.back().end, r.end);
      } else {
        dst.push_back(r);
      }
    }
  }
  *log = FcLedger(log->sealed_);
}

uint64_t FcLedger::num_facts() const {
  uint64_t n = 0;
  for (const auto& [objects, runs] : runs_) {
    for (const TimeRange& r : runs) n += static_cast<uint64_t>(r.length());
  }
  return n;
}

}  // namespace k2
