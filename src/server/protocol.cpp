#include "server/protocol.h"

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

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

/// Reads `obj[key]` into *out when the key is present, by T's JSON kind: a
/// string, a bool, a finite number ("1e999" parses as inf), or an integral
/// number inside T's range (a double outside it cannot be converted). On a
/// mismatch returns false with a message naming the field; an absent key
/// keeps *out.
template <typename T>
bool read_field(const json::Value& obj, std::string_view key, T* out,
                std::string* error) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return true;
  const auto fail = [&](const std::string& what) {
    *error = "\"" + std::string(key) + "\" must be " + what;
    return false;
  };
  if constexpr (std::is_same_v<T, std::string>) {
    if (!v->is_string()) return fail("a string");
    *out = v->str();
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v->is_bool()) return fail("true or false");
    *out = v->bool_value();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!v->is_number() || !std::isfinite(v->number())) {
      return fail("a finite number");
    }
    *out = v->number();
  } else {
    using Lim = std::numeric_limits<T>;
    const double x = v->number();
    // [min, 2^digits) is exactly T's range, and both bounds are exact doubles.
    if (!v->is_number() || x != std::floor(x) ||
        x < static_cast<double>(Lim::min()) ||
        x >= std::ldexp(1.0, Lim::digits)) {
      return fail("an integer in [" + std::to_string(Lim::min()) + ", " +
                  std::to_string(Lim::max()) + "]");
    }
    *out = static_cast<T>(x);
  }
  return true;
}

/// How a JobSpec field travels: a plain value, a design source (batch
/// configs may not name one), or a design source sent as a hex content hash.
enum class Wire { kValue, kSource, kHash };

struct SpecField {
  const char* name;
  std::variant<std::string JobSpec::*, bool JobSpec::*, int JobSpec::*,
               long JobSpec::*, std::uint64_t JobSpec::*, double JobSpec::*>
      member;
  Wire wire = Wire::kValue;
};

/// Every JobSpec field on the wire, the one list the parser and the builder
/// both walk. (batch_id is server-assigned and never travels.)
const SpecField kSpecFields[] = {
    {"aux", &JobSpec::aux, Wire::kSource},
    {"demo_cells", &JobSpec::demo_cells, Wire::kSource},
    {"demo_seed", &JobSpec::demo_seed},
    {"design", &JobSpec::design_hash, Wire::kHash},
    {"max_iters", &JobSpec::max_iters},
    {"grid", &JobSpec::grid},
    {"seed", &JobSpec::seed},
    {"target_density", &JobSpec::target_density},
    {"lambda_init", &JobSpec::lambda_init},
    {"init_noise_scale", &JobSpec::init_noise_scale},
    {"gamma_scale", &JobSpec::gamma_scale},
    {"lambda_scale", &JobSpec::lambda_scale},
    {"threads", &JobSpec::threads},
    {"full_flow", &JobSpec::full_flow},
    {"priority", &JobSpec::priority},
    {"deadline_s", &JobSpec::deadline_s},
    {"label", &JobSpec::label},
    {"dedup", &JobSpec::dedup},
};

/// Reads every spec field present on `obj` into *spec, leaving absent fields
/// at their current values — which is what lets submit-batch configs start
/// from the request's base fields and override per config. With `sources`
/// false, a design-source field is an error.
bool parse_spec_fields(const json::Value& obj, bool sources, JobSpec* spec,
                       std::string* error) {
  for (const SpecField& f : kSpecFields) {
    if (!obj.has(f.name)) continue;
    if (!sources && f.wire != Wire::kValue) {
      *error = "\"" + std::string(f.name) +
               "\" names a design source, but the batch's design is shared";
      return false;
    }
    const bool ok = std::visit(
        [&](auto JobSpec::*m) {
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(spec->*m)>,
                                       std::uint64_t>) {
            if (f.wire == Wire::kHash) {
              const json::Value* v = obj.find(f.name);
              if (v->is_string() && hex_to_hash(v->str(), &(spec->*m))) {
                return true;
              }
              *error = "\"" + std::string(f.name) +
                       "\" must be a hex content hash";
              return false;
            }
          }
          return read_field(obj, f.name, &(spec->*m), error);
        },
        f.member);
    if (!ok) return false;
  }
  return true;
}

/// Appends every spec field whose value differs from `base`'s: the parser
/// starts from the same base, so an omitted field reads back equal.
void append_spec_fields(json::Object* o, const JobSpec& s,
                        const JobSpec& base) {
  for (const SpecField& f : kSpecFields) {
    std::visit(
        [&](auto JobSpec::*m) {
          if (s.*m == base.*m) return;
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(s.*m)>,
                                       std::uint64_t>) {
            if (f.wire == Wire::kHash) {
              o->emplace_back(f.name, hash_to_hex(s.*m));
              return;
            }
          }
          o->emplace_back(f.name, json::Value(s.*m));
        },
        f.member);
  }
}

/// The spec a submit-batch starts from: dedup is on for a sweep (the whole
/// point of its cache) and off for a plain submit unless asked.
JobSpec batch_base() {
  JobSpec base;
  base.dedup = true;
  return base;
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

  if (!read_field(root, "id", &req.id, error)) return false;
  if (needs_id(req.cmd) && !root.has("id")) {
    *error = std::string(to_string(req.cmd)) + " requires \"id\"";
    return false;
  }
  if (!read_field(root, "from", &req.from_seq, error) ||
      !read_field(root, "wait", &req.wait, error) ||
      !read_field(root, "timeout_s", &req.timeout_s, error) ||
      !read_field(root, "drain", &req.drain, error)) {
    return false;
  }

  if (req.cmd == Command::kSubmit || req.cmd == Command::kUploadDesign ||
      req.cmd == Command::kSubmitBatch ||
      req.cmd == Command::kSubmitPortfolio) {
    if (req.cmd == Command::kSubmitBatch) req.spec = batch_base();
    if (!parse_spec_fields(root, /*sources=*/true, &req.spec, error)) {
      return false;
    }
    if (req.cmd == Command::kUploadDesign && req.spec.design_hash != 0) {
      *error = "upload-design takes \"aux\" or \"demo_cells\", not "
               "\"design\"";
      return false;
    }
    // One validation for both entry points: the wire path here, the
    // in-process PlacementServer::submit path inside the server — so an
    // ambiguous source (aux AND demo_cells) is rejected everywhere.
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
  if (req.cmd == Command::kSubmitBatch) {
    const json::Value* configs = root.find("configs");
    if (configs == nullptr || !configs->is_array() ||
        configs->array().empty()) {
      *error = "submit-batch requires a non-empty \"configs\" array";
      return false;
    }
    for (std::size_t i = 0; i < configs->array().size(); ++i) {
      const json::Value& c = configs->array()[i];
      const std::string where = "configs[" + std::to_string(i) + "]";
      if (!c.is_object()) {
        *error = where + " must be an object";
        return false;
      }
      // Each config starts from the base spec and overrides; the server
      // resolves the design from the batch's, so configs name no source.
      JobSpec member = req.spec;
      if (!parse_spec_fields(c, /*sources=*/false, &member, error)) {
        *error = where + ": " + *error;
        return false;
      }
      req.configs.push_back(std::move(member));
    }
  }
  if (req.cmd == Command::kSubmitPortfolio) {
    if (!read_field(root, "k", &req.k, error)) return false;
    if (req.k < 2) {
      *error = "submit-portfolio requires \"k\" (integer >= 2)";
      return false;
    }
    if (!read_field(root, "kill_min_iter", &req.kill_min_iter, error) ||
        !read_field(root, "kill_margin", &req.kill_margin, error) ||
        !read_field(root, "kill_slack", &req.kill_slack, error) ||
        !read_field(root, "no_kill", &req.no_kill, error)) {
      return false;
    }
  }

  *out = req;
  return true;
}

std::string build_request(const Request& req) {
  json::Object o;
  o.emplace_back("cmd", to_string(req.cmd));
  if (needs_id(req.cmd)) o.emplace_back("id", req.id);
  switch (req.cmd) {
    case Command::kSubmit:
    case Command::kUploadDesign:
      append_spec_fields(&o, req.spec, JobSpec{});
      break;
    case Command::kEvictDesign:
      o.emplace_back("design", hash_to_hex(req.spec.design_hash));
      break;
    case Command::kSubmitBatch: {
      append_spec_fields(&o, req.spec, batch_base());
      json::Array configs;
      for (const JobSpec& c : req.configs) {
        json::Object cfg;
        append_spec_fields(&cfg, c, req.spec);
        configs.emplace_back(std::move(cfg));
      }
      o.emplace_back("configs", std::move(configs));
      break;
    }
    case Command::kSubmitPortfolio:
      append_spec_fields(&o, req.spec, JobSpec{});
      o.emplace_back("k", req.k);
      if (req.kill_min_iter >= 0) {
        o.emplace_back("kill_min_iter", req.kill_min_iter);
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
