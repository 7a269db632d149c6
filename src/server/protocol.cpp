#include "server/protocol.h"

#include <cmath>
#include <utility>

namespace xplace::server {

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

void LineReader::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

LineReader::Pop LineReader::next(std::string* line) {
  while (true) {
    const std::size_t nl = buf_.find('\n');
    if (discarding_) {
      if (nl == std::string::npos) {
        buf_.clear();  // still inside the oversized line
        return Pop::kNeedMore;
      }
      buf_.erase(0, nl + 1);  // drop the oversized remainder, resync
      discarding_ = false;
      oversize_reported_ = false;
      continue;
    }
    if (nl == std::string::npos) {
      if (buf_.size() > max_line_) {
        // The line in progress can no longer fit: report once, then skip
        // bytes until its newline shows up.
        discarding_ = true;
        buf_.clear();
        if (!oversize_reported_) {
          oversize_reported_ = true;
          line->clear();
          return Pop::kOversized;
        }
        return Pop::kNeedMore;
      }
      return Pop::kNeedMore;
    }
    if (nl > max_line_) {
      buf_.erase(0, nl + 1);
      line->clear();
      return Pop::kOversized;
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    if (!line->empty() && line->back() == '\r') line->pop_back();
    return Pop::kLine;
  }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

namespace {

/// Every command with its wire name: the one table that to_string and
/// command_from_string both read.
constexpr std::pair<Command, const char*> kCommandNames[] = {
    {Command::kSubmit, "submit"},
    {Command::kStatus, "status"},
    {Command::kCancel, "cancel"},
    {Command::kResult, "result"},
    {Command::kEvents, "events"},
    {Command::kStats, "stats"},
    {Command::kMetrics, "metrics"},
    {Command::kShutdown, "shutdown"},
    {Command::kUploadDesign, "upload-design"},
    {Command::kListDesigns, "list-designs"},
    {Command::kEvictDesign, "evict-design"},
    {Command::kSubmitBatch, "submit-batch"},
    {Command::kBatchStatus, "batch-status"},
    {Command::kBatchResult, "batch-result"},
    {Command::kBatchCancel, "batch-cancel"},
    {Command::kSubmitPortfolio, "submit-portfolio"},
    {Command::kPortfolioStatus, "portfolio-status"},
    {Command::kPortfolioResult, "portfolio-result"},
};

}  // namespace

const char* to_string(Command cmd) {
  for (const auto& [c, name] : kCommandNames) {
    if (c == cmd) return name;
  }
  return "?";
}

bool command_from_string(std::string_view name, Command* out) {
  for (const auto& [c, wire] : kCommandNames) {
    if (name == wire) {
      *out = c;
      return true;
    }
  }
  return false;
}

std::string hash_to_hex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

bool hex_to_hash(const std::string& hex, std::uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

namespace {

bool needs_id(Command cmd) {
  return cmd == Command::kStatus || cmd == Command::kCancel ||
         cmd == Command::kResult || cmd == Command::kEvents ||
         cmd == Command::kBatchStatus || cmd == Command::kBatchResult ||
         cmd == Command::kBatchCancel || cmd == Command::kPortfolioStatus ||
         cmd == Command::kPortfolioResult;
}

/// Non-negative integral number field; false (with message) on bad type or
/// a fractional/negative value.
bool get_uint(const json::Value& obj, std::string_view key,
              std::uint64_t* out, std::string* error) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;  // keep default
  if (!v->is_number() || v->number() < 0 ||
      v->number() != std::floor(v->number())) {
    *error = std::string(key) + " must be a non-negative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(v->number());
  return true;
}

/// Reads every JobSpec field present on `obj` into *s, leaving absent fields
/// at their current values — which is what lets submit-batch configs start
/// from the request's base fields and override per config.
bool parse_spec_fields(const json::Value& obj, JobSpec* s, std::string* error) {
  JobSpec& spec = *s;
  if (obj.has("aux")) spec.aux = obj.get_string("aux");
  spec.demo_cells =
      static_cast<long>(obj.get_number("demo_cells", spec.demo_cells));
  if (!get_uint(obj, "demo_seed", &spec.demo_seed, error)) return false;
  if (const json::Value* v = obj.find("design"); v != nullptr) {
    if (!v->is_string() || !hex_to_hash(v->str(), &spec.design_hash)) {
      *error = "\"design\" must be a hex content hash";
      return false;
    }
  }
  spec.max_iters = static_cast<int>(obj.get_number("max_iters", spec.max_iters));
  spec.grid = static_cast<int>(obj.get_number("grid", spec.grid));
  if (!get_uint(obj, "seed", &spec.seed, error)) return false;
  spec.target_density = obj.get_number("target_density", spec.target_density);
  spec.lambda_init = obj.get_number("lambda_init", spec.lambda_init);
  spec.init_noise_scale =
      obj.get_number("init_noise_scale", spec.init_noise_scale);
  spec.gamma_scale = obj.get_number("gamma_scale", spec.gamma_scale);
  spec.lambda_scale = obj.get_number("lambda_scale", spec.lambda_scale);
  spec.threads = static_cast<int>(obj.get_number("threads", spec.threads));
  spec.full_flow = obj.get_bool("full_flow", spec.full_flow);
  spec.priority = static_cast<int>(obj.get_number("priority", spec.priority));
  spec.deadline_s = obj.get_number("deadline_s", spec.deadline_s);
  if (obj.has("label")) spec.label = obj.get_string("label");
  spec.dedup = obj.get_bool("dedup", spec.dedup);
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request* out, std::string* error) {
  json::Value root;
  std::string json_error;
  if (!json::parse(line, &root, &json_error)) {
    *error = "malformed JSON (" + json_error + ")";
    return false;
  }
  if (!root.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  const std::string cmd_name = root.get_string("cmd");
  if (cmd_name.empty()) {
    *error = "missing \"cmd\" field";
    return false;
  }
  Request req;
  if (!command_from_string(cmd_name, &req.cmd)) {
    *error = "unknown command \"" + cmd_name + "\"";
    return false;
  }

  if (!get_uint(root, "id", &req.id, error)) return false;
  if (needs_id(req.cmd) && !root.has("id")) {
    *error = std::string(to_string(req.cmd)) + " requires \"id\"";
    return false;
  }
  if (!get_uint(root, "from", &req.from_seq, error)) return false;
  req.wait = root.get_bool("wait", false);
  req.timeout_s = root.get_number("timeout_s", req.timeout_s);
  req.drain = root.get_bool("drain", true);

  if (req.cmd == Command::kSubmit || req.cmd == Command::kUploadDesign ||
      req.cmd == Command::kSubmitBatch ||
      req.cmd == Command::kSubmitPortfolio) {
    if (!parse_spec_fields(root, &req.spec, error)) return false;
  }
  if (req.cmd == Command::kSubmit) {
    // One validation for both entry points: the wire path here, the
    // in-process PlacementServer::submit path inside the server — so an
    // ambiguous source (aux AND demo_cells) is rejected everywhere.
    if (std::string verr = validate_spec(req.spec); !verr.empty()) {
      *error = std::move(verr);
      return false;
    }
  }
  if (req.cmd == Command::kUploadDesign) {
    if (req.spec.design_hash != 0) {
      *error = "upload-design takes \"aux\" or \"demo_cells\", not \"design\"";
      return false;
    }
    if (std::string verr = validate_spec(req.spec); !verr.empty()) {
      *error = std::move(verr);
      return false;
    }
  }
  if (req.cmd == Command::kEvictDesign) {
    const json::Value* v = root.find("design");
    std::uint64_t hash = 0;
    if (v == nullptr || !v->is_string() || !hex_to_hash(v->str(), &hash)) {
      *error = "evict-design requires \"design\" (hex content hash)";
      return false;
    }
    req.spec.design_hash = hash;
  }
  if (req.cmd == Command::kSubmitBatch ||
      req.cmd == Command::kSubmitPortfolio) {
    if (std::string verr = validate_spec(req.spec); !verr.empty()) {
      *error = std::move(verr);
      return false;
    }
  }
  if (req.cmd == Command::kSubmitBatch) {
    // Batch configs default dedup ON (the whole point of a sweep cache);
    // a plain submit keeps it off unless asked.
    req.spec.dedup = root.get_bool("dedup", true);
    const json::Value* configs = root.find("configs");
    if (configs == nullptr || !configs->is_array() ||
        configs->array().empty()) {
      *error = "submit-batch requires a non-empty \"configs\" array";
      return false;
    }
    for (std::size_t i = 0; i < configs->array().size(); ++i) {
      const json::Value& c = configs->array()[i];
      if (!c.is_object()) {
        *error = "configs[" + std::to_string(i) + "] must be an object";
        return false;
      }
      // Each config starts from the base spec and overrides; design fields
      // are resolved by the server from the batch's design, so configs may
      // not name their own source.
      if (c.has("aux") || c.has("demo_cells") || c.has("design")) {
        *error = "configs[" + std::to_string(i) +
                 "] must not name a design source (the batch's design is "
                 "shared)";
        return false;
      }
      JobSpec member = req.spec;
      if (!parse_spec_fields(c, &member, error)) return false;
      req.configs.push_back(std::move(member));
    }
  }
  if (req.cmd == Command::kSubmitPortfolio) {
    const json::Value* kv = root.find("k");
    if (kv == nullptr || !kv->is_number() ||
        kv->number() != std::floor(kv->number()) || kv->number() < 2) {
      *error = "submit-portfolio requires \"k\" (integer >= 2)";
      return false;
    }
    req.k = static_cast<int>(kv->number());
    req.kill_min_iter = static_cast<int>(
        root.get_number("kill_min_iter", req.kill_min_iter));
    req.kill_margin = root.get_number("kill_margin", req.kill_margin);
    req.kill_slack = root.get_number("kill_slack", req.kill_slack);
    req.no_kill = root.get_bool("no_kill", false);
  }

  *out = req;
  return true;
}

namespace {

/// Spec fields shared by submit / upload-design / submit-batch builders.
void append_spec_fields(json::Object* o, const JobSpec& s) {
  if (!s.aux.empty()) o->emplace_back("aux", s.aux);
  if (s.demo_cells > 0) {
    o->emplace_back("demo_cells", static_cast<double>(s.demo_cells));
    o->emplace_back("demo_seed", s.demo_seed);
  }
  if (s.design_hash != 0) o->emplace_back("design", hash_to_hex(s.design_hash));
  o->emplace_back("max_iters", s.max_iters);
  o->emplace_back("grid", s.grid);
  if (s.seed > 0) o->emplace_back("seed", s.seed);
  if (s.target_density > 0) o->emplace_back("target_density", s.target_density);
  if (s.lambda_init > 0) o->emplace_back("lambda_init", s.lambda_init);
  if (s.init_noise_scale > 0) {
    o->emplace_back("init_noise_scale", s.init_noise_scale);
  }
  if (s.gamma_scale > 0) o->emplace_back("gamma_scale", s.gamma_scale);
  if (s.lambda_scale > 0) o->emplace_back("lambda_scale", s.lambda_scale);
  o->emplace_back("threads", s.threads);
  o->emplace_back("full_flow", json::Value(s.full_flow));
  o->emplace_back("priority", s.priority);
  if (s.deadline_s > 0) o->emplace_back("deadline_s", s.deadline_s);
  if (!s.label.empty()) o->emplace_back("label", s.label);
}

}  // namespace

std::string build_request(const Request& req) {
  json::Object o;
  o.emplace_back("cmd", to_string(req.cmd));
  if (needs_id(req.cmd)) o.emplace_back("id", req.id);
  switch (req.cmd) {
    case Command::kSubmit:
      append_spec_fields(&o, req.spec);
      if (req.spec.dedup) o.emplace_back("dedup", json::Value(true));
      break;
    case Command::kUploadDesign: {
      const JobSpec& s = req.spec;
      if (!s.aux.empty()) o.emplace_back("aux", s.aux);
      if (s.demo_cells > 0) {
        o.emplace_back("demo_cells", static_cast<double>(s.demo_cells));
        o.emplace_back("demo_seed", s.demo_seed);
      }
      break;
    }
    case Command::kEvictDesign:
      o.emplace_back("design", hash_to_hex(req.spec.design_hash));
      break;
    case Command::kSubmitBatch: {
      append_spec_fields(&o, req.spec);
      o.emplace_back("dedup", json::Value(req.spec.dedup));
      json::Array configs;
      for (const JobSpec& c : req.configs) {
        // Emit only the per-config deltas that matter on the wire: the
        // parser re-applies them over the base fields above.
        json::Object cfg;
        if (c.seed != req.spec.seed) cfg.emplace_back("seed", c.seed);
        if (c.target_density != req.spec.target_density) {
          cfg.emplace_back("target_density", c.target_density);
        }
        if (c.lambda_init != req.spec.lambda_init) {
          cfg.emplace_back("lambda_init", c.lambda_init);
        }
        if (c.init_noise_scale != req.spec.init_noise_scale) {
          cfg.emplace_back("init_noise_scale", c.init_noise_scale);
        }
        if (c.gamma_scale != req.spec.gamma_scale) {
          cfg.emplace_back("gamma_scale", c.gamma_scale);
        }
        if (c.lambda_scale != req.spec.lambda_scale) {
          cfg.emplace_back("lambda_scale", c.lambda_scale);
        }
        if (c.max_iters != req.spec.max_iters) {
          cfg.emplace_back("max_iters", c.max_iters);
        }
        if (c.grid != req.spec.grid) cfg.emplace_back("grid", c.grid);
        if (c.label != req.spec.label) cfg.emplace_back("label", c.label);
        if (c.dedup != req.spec.dedup) {
          cfg.emplace_back("dedup", json::Value(c.dedup));
        }
        configs.emplace_back(std::move(cfg));
      }
      o.emplace_back("configs", std::move(configs));
      break;
    }
    case Command::kSubmitPortfolio:
      append_spec_fields(&o, req.spec);
      o.emplace_back("k", static_cast<std::uint64_t>(req.k));
      if (req.kill_min_iter >= 0) {
        o.emplace_back("kill_min_iter",
                       static_cast<std::uint64_t>(req.kill_min_iter));
      }
      if (req.kill_margin > 0) o.emplace_back("kill_margin", req.kill_margin);
      if (req.kill_slack != kNoSlackOverride) {
        o.emplace_back("kill_slack", req.kill_slack);
      }
      if (req.no_kill) o.emplace_back("no_kill", json::Value(true));
      break;
    case Command::kResult:
    case Command::kBatchResult:
    case Command::kPortfolioResult:
      o.emplace_back("wait", json::Value(req.wait));
      o.emplace_back("timeout_s", req.timeout_s);
      break;
    case Command::kEvents:
      o.emplace_back("from", req.from_seq);
      o.emplace_back("timeout_s", req.timeout_s);
      break;
    case Command::kShutdown:
      o.emplace_back("drain", json::Value(req.drain));
      break;
    default:
      break;
  }
  return json::Value(std::move(o)).dump();
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

std::string make_error(const std::string& message) {
  json::Object o;
  o.emplace_back("ok", json::Value(false));
  o.emplace_back("error", message);
  return json::Value(std::move(o)).dump();
}

std::string make_ok(json::Object fields) {
  json::Object o;
  o.emplace_back("ok", json::Value(true));
  for (auto& f : fields) o.push_back(std::move(f));
  return json::Value(std::move(o)).dump();
}

json::Object job_to_json(const JobRecord& rec) {
  json::Object o;
  o.emplace_back("id", rec.id);
  o.emplace_back("state", to_string(rec.state));
  o.emplace_back("label", rec.spec.label);
  o.emplace_back("priority", rec.spec.priority);
  if (rec.trace_id > 0) o.emplace_back("trace_id", rec.trace_id);
  if (rec.events_dropped > 0) {
    o.emplace_back("events_dropped", rec.events_dropped);
  }
  if (is_terminal(rec.state) || rec.state == JobState::kRunning) {
    o.emplace_back("stop_reason", core::to_string(rec.stop_reason));
  }
  if (rec.iterations > 0 || is_terminal(rec.state)) {
    o.emplace_back("hpwl", rec.hpwl);
    o.emplace_back("overflow", rec.overflow);
    o.emplace_back("iterations", rec.iterations);
    o.emplace_back("gp_seconds", rec.gp_seconds);
  }
  if (rec.legalized) {
    o.emplace_back("dp_hpwl", rec.dp_hpwl);
    o.emplace_back("legalized", json::Value(true));
  }
  if (!rec.error.empty()) o.emplace_back("error", rec.error);
  if (!rec.spill_path.empty()) o.emplace_back("spill", rec.spill_path);
  // Supervised-retry + crash-recovery lifecycle (DESIGN.md §13): attempt
  // history appears once a retry happened; recovery provenance when the
  // daemon replayed this job across a restart.
  if (rec.attempt > 0 || !rec.attempts.empty()) {
    o.emplace_back("attempt", static_cast<std::uint64_t>(rec.attempt));
    json::Array history;
    for (const JobAttempt& att : rec.attempts) {
      json::Object a;
      a.emplace_back("number", static_cast<std::uint64_t>(att.number));
      a.emplace_back("outcome", att.outcome);
      a.emplace_back("backoff_s", att.backoff_s);
      history.emplace_back(std::move(a));
    }
    o.emplace_back("attempts", std::move(history));
  }
  if (rec.recovered) o.emplace_back("recovered", json::Value(true));
  if (!rec.resume_from.empty()) o.emplace_back("resumed_from", rec.resume_from);
  o.emplace_back("submitted_s", rec.submitted_s);
  if (rec.started_s > 0) o.emplace_back("started_s", rec.started_s);
  if (rec.finished_s > 0) o.emplace_back("finished_s", rec.finished_s);
  return o;
}

json::Object event_to_json(const JobEvent& ev) {
  json::Object o;
  o.emplace_back("seq", ev.seq);
  o.emplace_back("iter", ev.iter);
  o.emplace_back("hpwl", ev.hpwl);
  o.emplace_back("overflow", ev.overflow);
  o.emplace_back("omega", ev.omega);
  return o;
}

}  // namespace xplace::server
