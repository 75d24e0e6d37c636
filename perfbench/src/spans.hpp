// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into each library
// layer (name, start, end, parent, thread track, program index). They stay
// in per-thread buffers until write_json() at exit; while tracing is off a
// Span is a single branch.
#pragma once

#include <cstdint>

#include "obs/json.hpp"

namespace perfbench {

void set_tracing(bool on);
bool tracing();

// Nanoseconds on the steady clock since the recorder's epoch.
std::int64_t now_ns();

class Span {
 public:
  // `name` must be a string literal (stored by pointer). `program` tags the
  // span with the input it worked on (-1 = none).
  explicit Span(const char* name, std::int64_t program = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_ = -1;
};

// Writes every recorded span as a JSON array of
// [track, name, start_ns, end_ns, parent_index, program] rows; parent_index
// refers to the row's position within its own track (-1 = root).
void write_spans_json(parcm::obs::JsonWriter& j);

}  // namespace perfbench
