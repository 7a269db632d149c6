#include "io/bookshelf.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/logging.h"

namespace xplace::io {
namespace {

/// Line-oriented tokenizer with diagnostics. Strips '#' comments, splits on
/// whitespace, and tracks line numbers for error messages.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : path_(path), in_(path) {
    if (!in_) throw std::runtime_error("cannot open '" + path + "'");
  }

  /// Next non-empty token line (already split). Returns false at EOF.
  bool next(std::vector<std::string>& tokens) {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      tokens.clear();
      std::istringstream ss(line);
      std::string tok;
      while (ss >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error(path_ + ":" + std::to_string(line_no_) + ": " + msg);
  }

  int line() const { return line_no_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ifstream in_;
  int line_no_ = 0;
};

double to_double(const LineReader& r, const std::string& tok) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    const_cast<LineReader&>(r).fail("expected a number, got '" + tok + "'");
  }
}

long to_long(const LineReader& r, const std::string& tok) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    const_cast<LineReader&>(r).fail("expected an integer, got '" + tok + "'");
  }
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string stem_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

struct NodeRecord {
  std::string name;
  double w = 0.0, h = 0.0;
  bool terminal = false;
};

struct PinRecord {
  std::string cell;
  double ox = 0.0, oy = 0.0;
};

struct NetRecord {
  std::string name;
  std::vector<PinRecord> pins;
};

void read_nodes(const std::string& path, std::vector<NodeRecord>& nodes) {
  LineReader r(path);
  std::vector<std::string> t;
  long declared_nodes = -1, declared_terminals = -1;
  while (r.next(t)) {
    if (t[0] == "UCLA") continue;
    if (t[0] == "NumNodes") {
      declared_nodes = to_long(r, t.back());
      continue;
    }
    if (t[0] == "NumTerminals") {
      declared_terminals = to_long(r, t.back());
      continue;
    }
    if (t.size() < 3) r.fail("node line needs 'name width height'");
    NodeRecord n;
    n.name = t[0];
    n.w = to_double(r, t[1]);
    n.h = to_double(r, t[2]);
    n.terminal = t.size() > 3 && lower(t[3]).find("terminal") != std::string::npos;
    nodes.push_back(std::move(n));
  }
  if (declared_nodes >= 0 && declared_nodes != static_cast<long>(nodes.size())) {
    throw std::runtime_error(path + ": NumNodes=" + std::to_string(declared_nodes) +
                             " but " + std::to_string(nodes.size()) + " nodes found");
  }
  (void)declared_terminals;
}

void read_nets(const std::string& path, std::vector<NetRecord>& nets) {
  LineReader r(path);
  std::vector<std::string> t;
  long declared_nets = -1;
  while (r.next(t)) {
    if (t[0] == "UCLA" || t[0] == "NumPins") continue;
    if (t[0] == "NumNets") {
      declared_nets = to_long(r, t.back());
      continue;
    }
    if (t[0] == "NetDegree") {
      // "NetDegree : k [name]"
      if (t.size() < 3) r.fail("NetDegree line needs a degree");
      const long degree = to_long(r, t[2]);
      NetRecord net;
      net.name = t.size() > 3 ? t[3] : ("net" + std::to_string(nets.size()));
      net.pins.reserve(static_cast<std::size_t>(degree));
      for (long i = 0; i < degree; ++i) {
        if (!r.next(t)) r.fail("unexpected EOF inside net");
        // "cell I : ox oy"  or  "cell I" (offset omitted = 0 0)
        PinRecord pin;
        pin.cell = t[0];
        if (t.size() >= 5) {
          pin.ox = to_double(r, t[3]);
          pin.oy = to_double(r, t[4]);
        } else if (t.size() != 2 && t.size() != 3) {
          r.fail("malformed pin line");
        }
        net.pins.push_back(std::move(pin));
      }
      nets.push_back(std::move(net));
      continue;
    }
    r.fail("unexpected token '" + t[0] + "' in nets file");
  }
  if (declared_nets >= 0 && declared_nets != static_cast<long>(nets.size())) {
    throw std::runtime_error(path + ": NumNets mismatch");
  }
}

struct PlRecord {
  double x = 0.0, y = 0.0;  // lower-left
  bool fixed = false;
};

void read_pl(const std::string& path,
             std::unordered_map<std::string, PlRecord>& pl) {
  LineReader r(path);
  std::vector<std::string> t;
  while (r.next(t)) {
    if (t[0] == "UCLA") continue;
    if (t.size() < 3) r.fail("pl line needs 'name x y'");
    PlRecord rec;
    rec.x = to_double(r, t[1]);
    rec.y = to_double(r, t[2]);
    for (const auto& tok : t) {
      if (lower(tok).find("fixed") != std::string::npos) rec.fixed = true;
    }
    pl[t[0]] = rec;
  }
}

void read_scl(const std::string& path, db::Database& db) {
  LineReader r(path);
  std::vector<std::string> t;
  while (r.next(t)) {
    if (lower(t[0]) != "corerow") continue;
    db::Row row;
    row.site_width = 1.0;
    bool done = false;
    while (!done && r.next(t)) {
      const std::string key = lower(t[0]);
      if (key == "coordinate") {
        row.ly = to_double(r, t.back());
      } else if (key == "height") {
        row.height = to_double(r, t.back());
      } else if (key == "sitewidth") {
        row.site_width = to_double(r, t.back());
      } else if (key == "subroworigin") {
        // "SubrowOrigin : x NumSites : n" (single line) or split tokens
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
          if (lower(t[i]) == "subroworigin" && t[i + 1] == ":") {
            row.lx = to_double(r, t[i + 2]);
          }
          if (lower(t[i]) == "numsites" && t[i + 1] == ":") {
            row.num_sites = static_cast<int>(to_long(r, t[i + 2]));
          }
        }
      } else if (key == "end") {
        done = true;
      }
      // Ignore Sitespacing / Siteorient / Sitesymmetry etc.
    }
    db.add_row(row);
  }
}

}  // namespace

namespace {

/// Component files a .aux references, resolved relative to the aux directory.
struct AuxComponents {
  std::string nodes, nets, pl, scl, wts;
};

AuxComponents parse_aux_components(const std::string& aux_path) {
  // .aux: "RowBasedPlacement : f.nodes f.nets f.wts f.pl f.scl"
  LineReader aux(aux_path);
  std::vector<std::string> t;
  if (!aux.next(t)) aux.fail("empty aux file");
  const std::string dir = dir_of(aux_path);
  AuxComponents out;
  for (const std::string& tok : t) {
    const std::string low = lower(tok);
    const std::string full = dir + "/" + tok;
    if (low.size() > 6 && low.compare(low.size() - 6, 6, ".nodes") == 0) out.nodes = full;
    else if (low.size() > 5 && low.compare(low.size() - 5, 5, ".nets") == 0) out.nets = full;
    else if (low.size() > 3 && low.compare(low.size() - 3, 3, ".pl") == 0) out.pl = full;
    else if (low.size() > 4 && low.compare(low.size() - 4, 4, ".scl") == 0) out.scl = full;
    else if (low.size() > 4 && low.compare(low.size() - 4, 4, ".wts") == 0) out.wts = full;
  }
  if (out.nodes.empty() || out.nets.empty() || out.pl.empty()) {
    aux.fail("aux must reference .nodes, .nets and .pl files");
  }
  return out;
}

/// Streams a whole file through the running FNV-1a state. `required` controls
/// whether an unreadable file throws or is skipped (matches the parser's
/// tolerance for a missing .wts).
std::uint64_t hash_file_bytes(std::uint64_t h, const std::string& path, bool required) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (required) throw std::runtime_error("cannot open '" + path + "'");
    return h;
  }
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    h = util::fnv1a64(buf, static_cast<std::size_t>(in.gcount()), h);
  }
  return h;
}

}  // namespace

db::Database read_bookshelf_aux(const std::string& aux_path) {
  const AuxComponents comp = parse_aux_components(aux_path);
  const std::string& nodes_path = comp.nodes;
  const std::string& nets_path = comp.nets;
  const std::string& pl_path = comp.pl;
  const std::string& scl_path = comp.scl;
  const std::string& wts_path = comp.wts;

  std::vector<NodeRecord> nodes;
  read_nodes(nodes_path, nodes);
  std::vector<NetRecord> nets;
  read_nets(nets_path, nets);
  std::unordered_map<std::string, PlRecord> pl;
  read_pl(pl_path, pl);

  db::Database db;
  db.set_design_name(stem_of(aux_path));
  std::unordered_map<std::string, int> ids;
  ids.reserve(nodes.size());
  for (const NodeRecord& n : nodes) {
    const auto it = pl.find(n.name);
    // A node is fixed if it is declared terminal OR its .pl entry says FIXED.
    const bool fixed = n.terminal || (it != pl.end() && it->second.fixed);
    const int id = db.add_cell(n.name, n.w, n.h,
                               fixed ? db::CellKind::kFixed : db::CellKind::kMovable);
    ids.emplace(n.name, id);
    if (it != pl.end()) {
      // .pl stores the lower-left corner; the database stores centers.
      db.set_initial_position(id, it->second.x + n.w * 0.5, it->second.y + n.h * 0.5);
    }
  }
  // Optional per-net weights (.wts): "netname weight" lines.
  std::unordered_map<std::string, double> weights;
  if (!wts_path.empty() && std::ifstream(wts_path).good()) {
    LineReader r(wts_path);
    std::vector<std::string> wt;
    while (r.next(wt)) {
      if (wt[0] == "UCLA") continue;
      if (wt.size() >= 2) weights[wt[0]] = to_double(r, wt.back());
    }
  }

  for (const NetRecord& net : nets) {
    const auto wit = weights.find(net.name);
    const int e = db.add_net(net.name, wit == weights.end() ? 1.0 : wit->second);
    for (const PinRecord& p : net.pins) {
      const auto it = ids.find(p.cell);
      if (it == ids.end()) {
        throw std::runtime_error("net '" + net.name + "' references unknown cell '" +
                                 p.cell + "'");
      }
      db.add_pin(e, it->second, p.ox, p.oy);
    }
  }
  if (!scl_path.empty()) read_scl(scl_path, db);
  db.finalize();
  return db;
}

void write_pl(const db::Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out.precision(12);  // coordinates must survive a round trip
  out << "UCLA pl 1.0\n\n";
  for (std::size_t c = 0; c < db.num_physical(); ++c) {
    const double lx = db.x(c) - db.width(c) * 0.5;
    const double ly = db.y(c) - db.height(c) * 0.5;
    out << db.cell_name(c) << "\t" << lx << "\t" << ly << "\t: N";
    if (db.kind(c) == db::CellKind::kFixed) out << " /FIXED";
    out << "\n";
  }
}

void read_pl_into(db::Database& db, const std::string& path) {
  std::unordered_map<std::string, PlRecord> pl;
  read_pl(path, pl);
  for (const auto& [name, rec] : pl) {
    const int id = db.cell_id(name);
    if (id < 0) throw std::runtime_error("pl references unknown cell '" + name + "'");
    db.set_position(static_cast<std::size_t>(id), rec.x + db.width(id) * 0.5,
                    rec.y + db.height(id) * 0.5);
  }
}

void write_bookshelf(const db::Database& db, const std::string& directory,
                     const std::string& design) {
  const std::string stem = directory + "/" + design;
  {
    std::ofstream aux(stem + ".aux");
    if (!aux) throw std::runtime_error("cannot write aux under '" + directory + "'");
    aux << "RowBasedPlacement : " << design << ".nodes " << design << ".nets "
        << design << ".wts " << design << ".pl " << design << ".scl\n";
  }
  {
    std::ofstream out(stem + ".nodes");
    out.precision(12);
    out << "UCLA nodes 1.0\n\n";
    out << "NumNodes : " << db.num_physical() << "\n";
    out << "NumTerminals : " << db.num_fixed() << "\n";
    for (std::size_t c = 0; c < db.num_physical(); ++c) {
      out << "\t" << db.cell_name(c) << "\t" << db.width(c) << "\t" << db.height(c);
      if (db.kind(c) == db::CellKind::kFixed) out << "\tterminal";
      out << "\n";
    }
  }
  {
    std::ofstream out(stem + ".nets");
    out.precision(12);
    out << "UCLA nets 1.0\n\n";
    out << "NumNets : " << db.num_nets() << "\n";
    out << "NumPins : " << db.num_pins() << "\n";
    for (std::size_t e = 0; e < db.num_nets(); ++e) {
      out << "NetDegree : " << db.net_degree(e) << "  " << db.net_name(e) << "\n";
      for (std::size_t p = db.net_pin_start(e); p < db.net_pin_start(e + 1); ++p) {
        out << "\t" << db.cell_name(db.pin_cell(p)) << "\tI : " << db.pin_offset_x(p)
            << "\t" << db.pin_offset_y(p) << "\n";
      }
    }
  }
  {
    std::ofstream out(stem + ".wts");
    out << "UCLA wts 1.0\n\n";
    for (std::size_t e = 0; e < db.num_nets(); ++e) {
      out << db.net_name(e) << "\t" << db.net_weight(e) << "\n";
    }
  }
  write_pl(db, stem + ".pl");
  {
    std::ofstream out(stem + ".scl");
    out.precision(12);
    out << "UCLA scl 1.0\n\n";
    out << "NumRows : " << db.rows().size() << "\n";
    for (const db::Row& row : db.rows()) {
      out << "CoreRow Horizontal\n";
      out << "  Coordinate    : " << row.ly << "\n";
      out << "  Height        : " << row.height << "\n";
      out << "  Sitewidth     : " << row.site_width << "\n";
      out << "  Sitespacing   : " << row.site_width << "\n";
      out << "  SubrowOrigin  : " << row.lx << "  NumSites : " << row.num_sites << "\n";
      out << "End\n";
    }
  }
}

std::uint64_t hash_bookshelf_aux(const std::string& aux_path) {
  // Hash the aux bytes first (it pins the component file *names*), then each
  // component's bytes in a fixed order so the hash is path-layout independent.
  std::uint64_t h = hash_file_bytes(util::kFnvBasis, aux_path, /*required=*/true);
  const AuxComponents comp = parse_aux_components(aux_path);
  h = hash_file_bytes(h, comp.nodes, /*required=*/true);
  h = hash_file_bytes(h, comp.nets, /*required=*/true);
  h = hash_file_bytes(h, comp.pl, /*required=*/true);
  if (!comp.scl.empty()) h = hash_file_bytes(h, comp.scl, /*required=*/false);
  if (!comp.wts.empty()) h = hash_file_bytes(h, comp.wts, /*required=*/false);
  return h;
}

std::shared_ptr<const db::DesignSnapshot> read_bookshelf_snapshot(
    const std::string& aux_path) {
  auto snap = std::make_shared<db::DesignSnapshot>();
  snap->content_hash = hash_bookshelf_aux(aux_path);
  snap->source = "aux:" + aux_path;
  snap->base = read_bookshelf_aux(aux_path);
  snap->resident_bytes = snap->base.core_resident_bytes();
  return snap;
}

}  // namespace xplace::io
