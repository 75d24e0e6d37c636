#include "driver/forensic.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/json.hpp"

namespace parcm::driver {

namespace {

std::string hex_u64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_u64(std::string_view s) {
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  std::uint64_t v = 0;
  for (char c : s) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<std::uint64_t>(c - 'A') + 10;
    else return 0;
    v = (v << 4) | digit;
  }
  return v;
}

void write_budget(const verify::Budget& b, obs::JsonWriter& w) {
  w.begin_object();
  w.key("max_exact_nodes").value(b.max_exact_nodes);
  w.key("max_states").value(b.max_states);
  w.key("samples").value(b.samples);
  w.key("max_steps").value(b.max_steps);
  w.key("sample_seed").value(b.sample_seed);
  w.key("split_assignments").value(b.split_assignments);
  w.end_object();
}

verify::Budget parse_budget(const obs::JsonValue& v) {
  verify::Budget b;
  b.max_exact_nodes =
      static_cast<std::size_t>(v.get_or("max_exact_nodes").as_u64(b.max_exact_nodes));
  b.max_states =
      static_cast<std::size_t>(v.get_or("max_states").as_u64(b.max_states));
  b.samples = static_cast<std::size_t>(v.get_or("samples").as_u64(b.samples));
  b.max_steps =
      static_cast<std::size_t>(v.get_or("max_steps").as_u64(b.max_steps));
  b.sample_seed = v.get_or("sample_seed").as_u64(b.sample_seed);
  b.split_assignments =
      v.get_or("split_assignments").as_bool(b.split_assignments);
  return b;
}

void write_config(const ForensicConfig& c, obs::JsonWriter& w) {
  w.begin_object();
  w.key("pipeline").value(c.pipeline);
  w.key("validate").value(c.validate);
  w.key("collect_remarks").value(c.collect_remarks);
  w.key("keep_output").value(c.keep_output);
  w.key("timeout_seconds").value(c.timeout_seconds);
  w.key("inject_mode").value(c.inject_mode);
  w.key("budget");
  write_budget(c.budget, w);
  w.end_object();
}

ForensicConfig parse_config(const obs::JsonValue& v) {
  ForensicConfig c;
  c.pipeline = v.get_or("pipeline").as_string();
  if (c.pipeline.empty()) c.pipeline = "full";
  c.validate = v.get_or("validate").as_bool(false);
  c.collect_remarks = v.get_or("collect_remarks").as_bool(true);
  c.keep_output = v.get_or("keep_output").as_bool(true);
  c.timeout_seconds = v.get_or("timeout_seconds").as_double(0.0);
  c.inject_mode = v.get_or("inject_mode").as_string();
  c.budget = parse_budget(v.get_or("budget"));
  return c;
}

// The canonical outcome writer. Every field is written unconditionally so
// the byte string is a total function of the deterministic result fields —
// no presence/absence cases for the replay comparison to get wrong.
void write_outcome(const ProgramResult& r, obs::JsonWriter& w) {
  w.begin_object();
  w.key("status").value(job_status_name(r.status));
  w.key("error").value(r.error);
  w.key("shape_hash").value(hex_u64(r.shape_hash));
  w.key("nodes_before").value(r.nodes_before);
  w.key("nodes_after").value(r.nodes_after);
  w.key("actions").value(r.actions);
  w.key("remark_count").value(r.remark_count);
  w.key("validation").value(r.validation);
  w.key("validation_ok").value(r.validation_ok);
  w.key("output").value(r.output);
  w.end_object();
}

// Re-serializes a parsed outcome object through the same canonical writer,
// so `expected` and `actual` compare byte-for-byte regardless of how the
// bundle file was formatted on disk.
std::string canonical_outcome(const obs::JsonValue& v) {
  ProgramResult r;
  const std::string status = v.get_or("status").as_string();
  if (status == "done") r.status = JobStatus::kDone;
  else if (status == "failed") r.status = JobStatus::kFailed;
  else if (status == "timed-out") r.status = JobStatus::kTimedOut;
  else r.status = JobStatus::kSkipped;
  r.error = v.get_or("error").as_string();
  r.shape_hash = parse_hex_u64(v.get_or("shape_hash").as_string());
  r.nodes_before =
      static_cast<std::size_t>(v.get_or("nodes_before").as_u64());
  r.nodes_after = static_cast<std::size_t>(v.get_or("nodes_after").as_u64());
  r.actions = static_cast<std::size_t>(v.get_or("actions").as_u64());
  r.remark_count =
      static_cast<std::size_t>(v.get_or("remark_count").as_u64());
  r.validation = v.get_or("validation").as_string();
  r.validation_ok = v.get_or("validation_ok").as_bool(true);
  r.output = v.get_or("output").as_string();
  return outcome_json(r);
}

}  // namespace

BatchOptions ForensicConfig::to_batch_options() const {
  BatchOptions o;
  o.jobs = 1;
  o.pipeline = pipeline;
  o.validate = validate;
  o.collect_remarks = collect_remarks;
  o.keep_output = keep_output;
  o.timeout_seconds = timeout_seconds;
  o.inject_mode = inject_mode;
  o.budget = budget;
  return o;
}

ForensicConfig ForensicConfig::from_batch_options(const BatchOptions& o) {
  ForensicConfig c;
  c.pipeline = o.pipeline;
  c.validate = o.validate;
  c.collect_remarks = o.collect_remarks;
  c.keep_output = o.keep_output;
  c.timeout_seconds = o.timeout_seconds;
  c.inject_mode = o.inject_mode;
  c.budget = o.budget;
  return c;
}

std::string outcome_json(const ProgramResult& result) {
  obs::JsonWriter w(false);
  write_outcome(result, w);
  return w.take();
}

std::string bundle_to_json(const ForensicBundle& bundle, bool pretty) {
  obs::JsonWriter w(pretty);
  w.begin_object();
  w.key("schema").value("parcm-forensic-v1");
  w.key("reason").value(bundle.reason);
  w.key("mode").value(bundle.mode);
  w.key("id").value(bundle.id);
  w.key("index").value(bundle.index);
  w.key("seeds").begin_object();
  w.key("campaign_seed").value(bundle.campaign_seed);
  w.key("program_seed").value(bundle.program_seed);
  w.end_object();
  if (!bundle.note.empty()) w.key("note").value(bundle.note);
  w.key("source").value(bundle.source);
  w.key("config");
  write_config(bundle.config, w);
  w.key("outcome");
  write_outcome(bundle.outcome, w);
  w.key("flight");
  obs::FlightRecorder::write_events_json(bundle.flight, w);
  if (!bundle.metrics_json.empty()) {
    w.key("metrics").raw_value(bundle.metrics_json);
  }
  w.key("remark_tail").begin_array();
  for (const std::string& line : bundle.remark_tail) w.value(line);
  w.end_array();
  w.end_object();
  return w.take();
}

std::string bundle_filename(const ForensicBundle& bundle) {
  std::string id = bundle.id;
  for (char& c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!ok) c = '_';
  }
  return "forensic_" + std::to_string(bundle.index) + "_" + id + ".json";
}

std::string write_bundle(const ForensicBundle& bundle, const std::string& dir,
                         std::string* error) {
  try {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      if (error) *error = "cannot create " + dir + ": " + ec.message();
      return "";
    }
    const std::string path =
        (std::filesystem::path(dir) / bundle_filename(bundle)).string();
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      if (error) *error = "cannot open " + path;
      return "";
    }
    out << bundle_to_json(bundle, /*pretty=*/true) << "\n";
    out.close();
    if (!out) {
      if (error) *error = "write failed: " + path;
      return "";
    }
    return path;
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return "";
  }
}

ReplayResult replay_bundle(const std::string& path) {
  ReplayResult rr;
  std::string parse_error;
  std::optional<obs::JsonValue> doc = obs::json_parse_file(path, &parse_error);
  if (!doc.has_value()) {
    rr.error = parse_error;
    return rr;
  }
  if (!doc->is_object() ||
      doc->get_or("schema").as_string() != "parcm-forensic-v1") {
    rr.error = "not a parcm-forensic-v1 bundle: " + path;
    return rr;
  }
  rr.reason = doc->get_or("reason").as_string();
  rr.id = doc->get_or("id").as_string();
  const std::string source = doc->get_or("source").as_string();
  if (source.empty()) {
    rr.error = "bundle has no program source: " + path;
    return rr;
  }
  const obs::JsonValue* outcome = doc->get("outcome");
  if (outcome == nullptr) {
    rr.error = "bundle has no recorded outcome: " + path;
    return rr;
  }
  rr.expected = canonical_outcome(*outcome);

  ForensicConfig config = parse_config(doc->get_or("config"));
  Manifest manifest = Manifest::from_sources({{rr.id, source}});
  BatchReport report = run_batch(manifest, config.to_batch_options());
  rr.loaded = true;
  rr.result = report.programs.empty() ? ProgramResult{} : report.programs[0];
  rr.actual = outcome_json(rr.result);
  rr.match = rr.actual == rr.expected;
  return rr;
}

}  // namespace parcm::driver
