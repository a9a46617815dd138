#include "campaign/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/expect.hpp"

namespace lcdc::campaign {

namespace {

const char* modeName(net::Network::Mode m) {
  switch (m) {
    case net::Network::Mode::RandomLatency: return "random";
    case net::Network::Mode::Fifo: return "fifo";
    case net::Network::Mode::Pct: return "pct";
    case net::Network::Mode::Manual: break;
  }
  return nullptr;  // Manual schedules are not replayable from a corpus
}

net::Network::Mode modeFromName(const std::string& s) {
  if (s == "random") return net::Network::Mode::RandomLatency;
  if (s == "fifo") return net::Network::Mode::Fifo;
  if (s == "pct") return net::Network::Mode::Pct;
  throw SimError("corpus entry: unknown net mode '" + s + "'");
}

ProtocolKind protocolFromCorpusName(const std::string& s) {
  if (s == "dir") return ProtocolKind::Directory;
  if (s == "bus") return ProtocolKind::Bus;
  if (s == "tardis") return ProtocolKind::Tardis;
  throw SimError("corpus entry: unknown protocol '" + s + "'");
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Read one whitespace-delimited token, throwing (not aborting) on EOF.
std::string token(std::istringstream& in, const char* what) {
  std::string t;
  if (!(in >> t)) {
    throw SimError(std::string("corpus entry truncated: expected ") + what);
  }
  return t;
}

std::uint64_t number(std::istringstream& in, const char* what) {
  const std::string t = token(in, what);
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(t, &pos);
    if (pos != t.size()) throw std::invalid_argument(t);
    return v;
  } catch (const std::exception&) {
    throw SimError(std::string("corpus entry: bad number '") + t + "' for " +
                   what);
  }
}

}  // namespace

std::string serializeEntry(const CaseSpec& spec) {
  const char* mode = modeName(spec.netMode);
  LCDC_EXPECT(mode != nullptr, "manual-mode cases cannot enter the corpus");
  std::ostringstream os;
  os << "lcdc-corpus v" << kCorpusVersion << '\n';
  os << "protocol " << toString(spec.sys.protocol) << '\n';
  os << "net " << mode << '\n';
  os << "desc " << spec.description << '\n';
  const SystemConfig& s = spec.sys;
  os << "sys procs=" << static_cast<unsigned>(s.numProcessors)
     << " dirs=" << static_cast<unsigned>(s.numDirectories)
     << " blocks=" << s.numBlocks << " cap=" << s.cacheCapacity
     << " minlat=" << s.minLatency << " maxlat=" << s.maxLatency
     << " retry=" << s.retryDelay << " snoop=" << s.busSnoopDelayMax
     << " seed=" << s.seed << " sb=" << s.storeBufferDepth
     << " words=" << static_cast<unsigned>(s.proto.wordsPerBlock)
     << " ps=" << (s.proto.putSharedEnabled ? 1 : 0)
     << " lease=" << s.proto.leaseLength << '\n';
  for (const workload::Program& prog : spec.programs) {
    os << "prog " << prog.steps.size() << '\n';
    for (const workload::Step& st : prog.steps) {
      switch (st.kind) {
        case workload::StepKind::Load:
          os << "L " << st.block << ' ' << static_cast<unsigned>(st.word)
             << '\n';
          break;
        case workload::StepKind::Store:
          os << "S " << st.block << ' ' << static_cast<unsigned>(st.word)
             << ' ' << st.storeValue << '\n';
          break;
        case workload::StepKind::Evict:
          os << "E " << st.block << '\n';
          break;
        case workload::StepKind::PrefetchShared:
          os << "PS " << st.block << '\n';
          break;
        case workload::StepKind::PrefetchExclusive:
          os << "PX " << st.block << '\n';
          break;
      }
    }
  }
  os << "end\n";
  return os.str();
}

CaseSpec parseEntry(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line)) throw SimError("corpus entry is empty");
  {
    std::istringstream hdr(line);
    std::string magic, version;
    hdr >> magic >> version;
    if (magic != "lcdc-corpus") {
      throw SimError("corpus entry: bad magic '" + magic + "'");
    }
    const std::string want = std::to_string(kCorpusVersion);
    if (version.size() != want.size() + 1 || version[0] != 'v' ||
        version.compare(1, want.size(), want) != 0) {
      throw SimError("corpus entry: unsupported format version '" + version +
                     "' (this build reads v" + want + ")");
    }
  }

  CaseSpec spec;
  bool sawSys = false;
  bool sawEnd = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "protocol") {
      spec.sys.protocol = protocolFromCorpusName(token(ls, "protocol name"));
    } else if (key == "net") {
      spec.netMode = modeFromName(token(ls, "net mode"));
    } else if (key == "desc") {
      std::getline(ls, spec.description);
      if (!spec.description.empty() && spec.description.front() == ' ') {
        spec.description.erase(0, 1);
      }
    } else if (key == "sys") {
      std::string kv;
      while (ls >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
          throw SimError("corpus entry: bad sys field '" + kv + "'");
        }
        const std::string name = kv.substr(0, eq);
        std::istringstream vs(kv.substr(eq + 1));
        const std::uint64_t v = number(vs, name.c_str());
        if (name == "procs") {
          spec.sys.numProcessors = static_cast<NodeId>(v);
        } else if (name == "dirs") {
          spec.sys.numDirectories = static_cast<NodeId>(v);
        } else if (name == "blocks") {
          spec.sys.numBlocks = static_cast<BlockId>(v);
        } else if (name == "cap") {
          spec.sys.cacheCapacity = static_cast<std::uint32_t>(v);
        } else if (name == "minlat") {
          spec.sys.minLatency = v;
        } else if (name == "maxlat") {
          spec.sys.maxLatency = v;
        } else if (name == "retry") {
          spec.sys.retryDelay = v;
        } else if (name == "snoop") {
          spec.sys.busSnoopDelayMax = v;
        } else if (name == "seed") {
          spec.sys.seed = v;
        } else if (name == "sb") {
          spec.sys.storeBufferDepth = static_cast<std::uint32_t>(v);
        } else if (name == "words") {
          spec.sys.proto.wordsPerBlock = static_cast<WordIdx>(v);
        } else if (name == "ps") {
          spec.sys.proto.putSharedEnabled = v != 0;
        } else if (name == "lease") {
          spec.sys.proto.leaseLength = static_cast<std::uint32_t>(v);
        } else {
          throw SimError("corpus entry: unknown sys field '" + name + "'");
        }
      }
      sawSys = true;
    } else if (key == "prog") {
      const std::uint64_t n = number(ls, "program length");
      workload::Program prog;
      prog.steps.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (!std::getline(in, line)) {
          throw SimError("corpus entry truncated: expected a program step");
        }
        std::istringstream ss(line);
        const std::string op = token(ss, "step opcode");
        workload::Step st;
        if (op == "L") {
          st.kind = workload::StepKind::Load;
          st.block = static_cast<BlockId>(number(ss, "block"));
          st.word = static_cast<WordIdx>(number(ss, "word"));
        } else if (op == "S") {
          st.kind = workload::StepKind::Store;
          st.block = static_cast<BlockId>(number(ss, "block"));
          st.word = static_cast<WordIdx>(number(ss, "word"));
          st.storeValue = number(ss, "store value");
        } else if (op == "E") {
          st.kind = workload::StepKind::Evict;
          st.block = static_cast<BlockId>(number(ss, "block"));
        } else if (op == "PS") {
          st.kind = workload::StepKind::PrefetchShared;
          st.block = static_cast<BlockId>(number(ss, "block"));
        } else if (op == "PX") {
          st.kind = workload::StepKind::PrefetchExclusive;
          st.block = static_cast<BlockId>(number(ss, "block"));
        } else {
          throw SimError("corpus entry: unknown step opcode '" + op + "'");
        }
        prog.steps.push_back(st);
      }
      spec.programs.push_back(std::move(prog));
    } else if (key == "end") {
      sawEnd = true;
      break;
    } else {
      throw SimError("corpus entry: unknown line '" + key + "'");
    }
  }
  if (!sawSys) throw SimError("corpus entry has no sys line");
  if (!sawEnd) throw SimError("corpus entry truncated: missing end marker");
  if (spec.programs.size() != spec.sys.numProcessors) {
    throw SimError("corpus entry: program count does not match procs");
  }
  if (spec.sys.minLatency < 1 || spec.sys.minLatency > spec.sys.maxLatency) {
    throw SimError("corpus entry: invalid latency bounds");
  }
  return spec;
}

std::string entryId(const CaseSpec& spec) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0')
     << fnv1a(serializeEntry(spec));
  return os.str();
}

std::string saveEntry(const CaseSpec& spec, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string text = serializeEntry(spec);
  std::ostringstream name;
  name << "c-" << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a(text) << ".case";
  const std::string path = (fs::path(dir) / name.str()).string();
  if (fs::exists(path)) return path;  // content-addressed: already saved
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SimError("cannot write corpus entry: " + path);
  out << text;
  if (!out.good()) throw SimError("short write on corpus entry: " + path);
  return path;
}

std::vector<CaseSpec> loadCorpus(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<CaseSpec> corpus;
  if (dir.empty() || !fs::exists(dir)) return corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".case") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  corpus.reserve(files.size());
  for (const fs::path& p : files) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw SimError("cannot read corpus entry: " + p.string());
    std::ostringstream text;
    text << in.rdbuf();
    try {
      corpus.push_back(parseEntry(text.str()));
    } catch (const SimError& e) {
      throw SimError(p.string() + ": " + e.what());
    }
  }
  return corpus;
}

}  // namespace lcdc::campaign
