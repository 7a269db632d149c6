#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/suites.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median_ms(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(std::move(ms));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Report::gate(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 what.c_str());
  }
}

bool Report::print_json(std::FILE* out) const {
  for (const Entry& e : entries_) {
    if (!std::isfinite(e.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   e.name.c_str());
      return false;
    }
  }
  std::fprintf(out,
               "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               failed_ == 0 && attempted_ > 0 ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", entries_[i].name.c_str(),
                 entries_[i].value, entries_[i].unit.c_str());
  }
  std::fprintf(out, "}}\n");
  std::fflush(out);
  return true;
}

Spans::Scope::Scope(Spans* spans, const char* name, std::uint64_t trace_id)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  index_ = spans_->spans_.size();
  const std::int64_t parent =
      spans_->open_.empty() ? -1
                            : static_cast<std::int64_t>(spans_->open_.back());
  spans_->spans_.push_back({name, trace_id, parent, now_s(), 0.0});
  spans_->open_.push_back(index_);
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->spans_[index_].end_s = now_s();
  spans_->open_.pop_back();
}

void Spans::add(const char* name, std::uint64_t trace_id, double start_s,
                double end_s) {
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back({name, trace_id, parent, start_s, end_s});
}

bool Spans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // One Perfetto track per trace id (a flow, or a served job).
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %zu, \"parent\": %lld}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.trace_id),
                 (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string write_suite_design(const std::string& design, double scale,
                               std::uint64_t seed, const std::string& dir) {
  // io::make_design's spec, except that the netlist seed also mixes in the
  // workload seed: the same seed gives the same inputs, and a new seed a
  // new netlist of the same size and structure class.
  const xplace::io::SuiteEntry& e = xplace::io::find_suite_entry(design);
  xplace::io::GeneratorSpec spec;
  spec.name = design;
  spec.num_cells = std::max<std::size_t>(
      500, static_cast<std::size_t>(std::llround(e.paper_cells / scale)));
  spec.num_nets = std::max<std::size_t>(
      500, static_cast<std::size_t>(std::llround(e.paper_nets / scale)));
  spec.utilization = e.utilization;
  spec.macro_area_fraction = e.macro_fraction;
  spec.target_density = e.target_density;
  spec.num_macros = static_cast<int>(std::clamp(
      std::sqrt(static_cast<double>(spec.num_cells)) / 12.0, 4.0, 24.0));
  spec.num_io_pads = 64;
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : design) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  spec.seed = h ^ (seed * 0x9E3779B97F4A7C15ULL);
  std::filesystem::create_directories(dir);
  xplace::io::write_bookshelf(xplace::io::generate(spec), dir, design);
  return dir + "/" + design + ".aux";
}

}  // namespace perfbench
