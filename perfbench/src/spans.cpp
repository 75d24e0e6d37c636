#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;
  std::int64_t program;
};

struct Track {
  std::vector<Record> records;
  std::vector<std::int32_t> open;
};

std::atomic<bool> g_tracing{false};
const auto g_epoch = std::chrono::steady_clock::now();

// Tracks outlive their threads: worker threads end before write_spans_json.
std::mutex g_tracks_mu;
std::vector<std::unique_ptr<Track>> g_tracks;

Track& this_track() {
  thread_local Track* track = nullptr;
  if (track == nullptr) {
    std::lock_guard<std::mutex> lock(g_tracks_mu);
    g_tracks.push_back(std::make_unique<Track>());
    track = g_tracks.back().get();
  }
  return *track;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Span::Span(const char* name, std::int64_t program) {
  if (!tracing()) return;
  Track& t = this_track();
  std::int32_t parent = t.open.empty() ? -1 : t.open.back();
  index_ = static_cast<std::int32_t>(t.records.size());
  t.records.push_back(Record{name, now_ns(), 0, parent, program});
  t.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  Track& t = this_track();
  t.records[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t.open.pop_back();
}

void write_spans_json(parcm::obs::JsonWriter& j) {
  std::lock_guard<std::mutex> lock(g_tracks_mu);
  j.begin_array();
  for (std::size_t track = 0; track < g_tracks.size(); ++track) {
    for (const Record& r : g_tracks[track]->records) {
      j.begin_array().value(track).value(r.name).value(r.start_ns);
      j.value(r.end_ns).value(r.parent).value(r.program).end_array();
    }
  }
  j.end_array();
}

}  // namespace perfbench
